"""Integration tests: the six ZooKeeper bugs of Table 4, the fix PRs of
Table 6 and the final resolution of §5.4.

Each test runs the BFS checker on the paper's most-efficient specification
for the bug (with ZK-4394 masked, as in §4.1) and asserts that the bug's
invariant family is the one violated.  These are the headline results of
the reproduction; the benchmarks regenerate the full tables with timing.
"""

import pytest

from repro.checker import explore
from repro.zookeeper import (
    FINAL_FIX,
    PR_1848,
    PR_1993,
    V391,
    V391_PLUS_4712,
    zk4394_mask,
)
from repro.zookeeper.specs import FIXES, HUNTS, hunt_spec

from shipped import BFS_HUNTS, label_digest


#: What each hunt's counterexample shows beyond its invariant:
#: actions it passes through, the actions it ends on, a depth bound.
TRACE_FACTS = {
    # Data sync failure: the leader handles the ACK of UPTODATE while the
    # follower's CommitProcessor still has pending commits (I-11).
    "ZK-3023": {},
    # Data sync failure: COMMIT between NEWLEADER and UPTODATE throws
    # NullPointerException (I-14).  mSpec-1* = unmasked.
    "ZK-4394": {"max_depth": 15},
    # Data loss: crash between the epoch and history updates; the stale
    # follower wins the next election on its higher epoch and truncates
    # committed data (I-8).
    "ZK-4643": {"passes": ("FollowerProcessNEWLEADER_UpdateEpoch", "NodeCrash")},
    # Data loss: ACK of NEWLEADER before the SyncRequestProcessor
    # persisted the synced txns; crashes lose a committed txn (I-8).  The
    # row applies PR-1930's history-before-epoch ordering so that the
    # ZK-4643 window cannot produce this I-8 violation instead.
    "ZK-4646": {"passes": ("FollowerProcessNEWLEADER_LogAsync",)},
    # Data sync failure: the SyncRequestProcessor's per-txn ACK overtakes
    # the ACK of NEWLEADER (I-12).  Needs >= 2 txns so the txn zxid
    # differs from the NEWLEADER zxid.
    "ZK-4685": {"ends": ("FollowerSyncProcessorLogRequest", "LeaderProcessACK")},
    # Data inconsistency: the un-stopped SyncRequestProcessor logs a
    # stale request after data recovery (I-10).
    "ZK-4712": {"passes": ("FollowerShutdown",)},
    # The ZK-4785 control: the direct COMMIT application is on the path.
    "ZK-4785": {"passes": ("FollowerProcessCOMMITInSync",)},
}


class TestBugDetection:
    """Table 4: bug detection in ZooKeeper v3.9.1."""

    @pytest.mark.parametrize(
        "bug",
        [
            pytest.param(bug, marks=pytest.mark.slow)
            if bug in ("ZK-4643", "ZK-4646", "ZK-4712")
            else bug
            for bug in HUNTS
        ],
    )
    def test_hunt_finds_the_bug(self, bug):
        # One BFS per row, to the first violation: the row's invariant,
        # the counterexample's facts, and the counts and labels pinned
        # when a BFS level was a list of row tuples.
        spec, mask = hunt_spec(bug)
        result = explore(spec, mask=mask)
        (violation,) = result.violations
        _grain, _bounds, family, instance, _masked, _variant = HUNTS[bug]
        assert violation.invariant.ident == family
        assert instance is None or violation.invariant.instance == instance
        labels = [label.name for label in violation.trace.labels]
        facts = TRACE_FACTS[bug]
        assert set(facts.get("passes", ())) <= set(labels)
        ends = list(facts.get("ends", ()))
        assert labels[len(labels) - len(ends):] == ends
        assert violation.depth <= facts.get("max_depth", violation.depth)
        got = (result.states_explored, result.transitions, result.max_depth)
        assert got + (len(labels), label_digest(violation.trace.labels)) == BFS_HUNTS[bug]


#: Verdicts no table of the paper prints, in the :data:`FIXES` row shape:
#: a grain, bound or fix that hides a bug, one that exposes ZK-4785, and
#: Table 6's PR-1848 and §5.4 checks at two txns.
CONTROLS = {
    # With the known bug masked, mSpec-1 finds nothing (Table 5).
    "ZK-4394-masked": ("mSpec-1", {"max_txns": 1, "max_crashes": 1}, "I-14",
                       None, True, None, 150_000, None),
    # The baseline's atomic NEWLEADER hides the ZK-4643 crash window.
    "ZK-4643-mSpec-1": ("mSpec-1", {"max_txns": 1, "max_crashes": 2}, "I-8",
                        None, True, None, 200_000, None),
    # Synchronous sync-phase logging (PR-1993) closes ZK-4646.
    "ZK-4646-PR-1993": ("mSpec-3", {"max_txns": 1, "max_crashes": 2}, "I-8",
                        None, True, PR_1993, 250_000, None),
    # The fixed shutdown closes ZK-4712; with it, v3.9.1's order-preserving
    # COMMIT in sync is safe too.
    "ZK-4712-fixed": ("mSpec-3", {"max_txns": 2, "max_crashes": 1}, "I-10",
                      None, True, V391_PLUS_4712, 150_000, None),
    # Extension beyond the paper's six bugs: ZK-4785 (the paper's
    # reference [26]) -- a COMMIT between NEWLEADER and UPTODATE applied
    # directly to the log races the SyncRequestProcessor queue.
    "ZK-4785": ("mSpec-3", {"max_txns": 2, "max_crashes": 1}, "I-10", None,
                True, V391_PLUS_4712.with_(direct_commit_in_sync=True),
                3_000_000, "I-10"),
    # PR-1848 at two txns: ZK-4685's I-12 fires before its SNAP hole's I-8.
    "PR-1848-2txns": ("mSpec-3", {"max_txns": 2, "max_crashes": 2}, None,
                      None, True, PR_1848, 400_000, "I-12"),
    # The §5.4 resolution at two txns, masked.
    "FinalFix-2txns": ("mSpec-3", {"max_txns": 2, "max_crashes": 2}, None,
                       None, True, FINAL_FIX, 150_000, None),
}


def verdicts():
    """The tier-1 :data:`FIXES` rows (PR-1993 and PR-2111 run nightly, in
    ``examples/verify_bug_fix.py``) and every control."""
    for name, row in FIXES.items():
        if name not in ("PR-1993", "PR-2111"):
            yield pytest.param(name, row, id=name)
    for name, row in CONTROLS.items():
        slow = name in ("ZK-4785", "PR-1848-2txns", "FinalFix-2txns")
        yield pytest.param(
            name, row, id=name, marks=[pytest.mark.slow] if slow else []
        )


class TestVerdicts:
    """Table 6: the four fix PRs still violate invariants and the §5.4
    resolution passes; and the controls."""

    @pytest.mark.parametrize("name, row", verdicts())
    def test_first_violation_is_the_expected_family(self, name, row):
        spec, mask = hunt_spec(row)
        *_, max_states, expected = row
        result = explore(spec, max_states=max_states, mask=mask)
        found = result.first_violation
        assert (found.invariant.ident if found else None) == expected
        if found:
            labels = {label.name for label in found.trace.labels}
            assert set(TRACE_FACTS.get(name, {}).get("passes", ())) <= labels


class TestFinalFix:
    """§5.4: the holistic resolution's flags, and what every fix adds to."""

    def test_final_fix_flags(self):
        assert FINAL_FIX.history_before_epoch == "full"
        assert FINAL_FIX.synchronous_sync_logging
        assert FINAL_FIX.synchronous_commit
        assert FINAL_FIX.fix_follower_shutdown
        assert FINAL_FIX.match_commit_in_sync

    def test_every_fix_builds_on_the_shutdown_fix(self):
        # mSpec-3+ is mSpec-3 with the ZK-4712 fix and nothing else.
        assert V391_PLUS_4712 == V391.with_(fix_follower_shutdown=True)
        assert all(row[5].fix_follower_shutdown for row in FIXES.values())


class TestHuntTable:
    """``repro.zookeeper.specs.HUNTS`` is the one copy of the Table 4
    rows; the read-only benchmark keeps its own (it imports no repro)."""

    def test_benchmark_rows_match_the_table(self):
        import sys
        from pathlib import Path

        root = str(Path(__file__).resolve().parent.parent)
        if root not in sys.path:
            sys.path.insert(0, root)
        from bench.workloads import HUNTS as BENCH_HUNTS

        assert BENCH_HUNTS
        for bug, row in BENCH_HUNTS.items():
            assert HUNTS[bug] == (*row, None), bug

    def test_hunt_spec_composes_the_row(self):
        from repro.zookeeper import PR_1930

        assert list(HUNTS) == [
            "ZK-3023", "ZK-4394", "ZK-4643", "ZK-4646", "ZK-4685", "ZK-4712",
        ]
        spec, mask = hunt_spec("ZK-4394")
        assert spec.name == "mSpec-1" and mask is None  # mSpec-1*: unmasked
        assert [inv.full_name for inv in spec.invariants] == [
            "I-14/COMMIT_UNMATCHED_IN_SYNC"
        ]
        spec, mask = hunt_spec("ZK-4646")
        assert mask is zk4394_mask
        assert spec.config.variant == PR_1930
        assert {inv.ident for inv in spec.invariants} == {"I-8"}
        assert (spec.config.max_txns, spec.config.max_crashes) == (1, 2)
