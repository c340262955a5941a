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
    ZkConfig,
    final_fix_spec,
    mspec3_plus,
    pr_spec,
    zk4394_mask,
)
from repro.zookeeper import constants as C
from repro.zookeeper.specs import SELECTIONS, build_spec


def hunt(
    spec_name,
    config,
    family,
    instance=None,
    masked=True,
    max_states=3_000_000,
    max_time=300,
    variant=None,
):
    """BFS for the first violation of one invariant family."""
    if variant is not None:
        config = config.with_variant(variant)
    spec = build_spec(spec_name, SELECTIONS[spec_name], config)
    spec.invariants = [
        inv
        for inv in spec.invariants
        if inv.ident == family and (instance is None or inv.instance == instance)
    ]
    return explore(
        spec,
        max_states=max_states,
        max_time=max_time,
        mask=zk4394_mask if masked else None,
    )


class TestBugDetection:
    """Table 4: bug detection in ZooKeeper v3.9.1."""

    def test_zk4394_found_by_mspec1_unmasked(self):
        # Data sync failure: COMMIT between NEWLEADER and UPTODATE
        # throws NullPointerException (I-14).  mSpec-1* = unmasked.
        result = hunt(
            "mSpec-1",
            ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3),
            "I-14",
            instance=C.ERR_COMMIT_UNMATCHED_IN_SYNC,
            masked=False,
        )
        assert result.found_violation
        assert result.first_violation.depth <= 15

    def test_zk4394_masked_in_mspec1(self):
        # With the known bug masked, mSpec-1 finds nothing (Table 5).
        result = hunt(
            "mSpec-1",
            ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3),
            "I-14",
            masked=True,
            max_states=150_000,
            max_time=120,
        )
        assert not result.found_violation

    @pytest.mark.slow
    def test_zk4643_found_by_mspec2(self):
        # Data loss: crash between the epoch and history updates; the
        # stale follower wins the next election on its higher epoch and
        # truncates committed data (I-8).
        result = hunt(
            "mSpec-2",
            ZkConfig(max_txns=1, max_crashes=2, max_partitions=0, max_epoch=3),
            "I-8",
        )
        assert result.found_violation
        labels = [l.name for l in result.first_violation.trace.labels]
        assert "FollowerProcessNEWLEADER_UpdateEpoch" in labels
        assert "NodeCrash" in labels

    def test_zk4643_not_found_by_mspec1(self):
        # The baseline's atomic NEWLEADER hides the crash window.
        result = hunt(
            "mSpec-1",
            ZkConfig(max_txns=1, max_crashes=2, max_partitions=0, max_epoch=3),
            "I-8",
            max_states=200_000,
            max_time=120,
        )
        assert not result.found_violation

    @pytest.mark.slow
    def test_zk4646_found_by_mspec3(self):
        # Data loss: ACK of NEWLEADER before the SyncRequestProcessor
        # persisted the synced txns; crashes lose a committed txn (I-8).
        # The history-before-epoch ordering is applied so that the
        # ZK-4643 window cannot produce this I-8 violation instead.
        from repro.zookeeper import PR_1930

        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=1, max_crashes=2, max_partitions=0, max_epoch=3),
            "I-8",
            variant=PR_1930,
        )
        assert result.found_violation
        labels = [l.name for l in result.first_violation.trace.labels]
        assert "FollowerProcessNEWLEADER_LogAsync" in labels

    def test_zk4646_not_found_with_synchronous_logging(self):
        from repro.zookeeper import PR_1993

        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=1, max_crashes=2, max_partitions=0, max_epoch=3),
            "I-8",
            variant=PR_1993,
            max_states=250_000,
            max_time=200,
        )
        assert not result.found_violation

    @pytest.mark.slow
    def test_zk3023_found_by_mspec3(self):
        # Data sync failure: leader handles the ACK of UPTODATE while the
        # follower's CommitProcessor still has pending commits (I-11).
        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3),
            "I-11",
            instance=C.ERR_ACK_UPTODATE_OUT_OF_SYNC,
        )
        assert result.found_violation

    def test_zk4685_found_by_mspec3(self):
        # Data sync failure: the SyncRequestProcessor's per-txn ACK
        # overtakes the ACK of NEWLEADER (I-12).  Needs >= 2 txns so the
        # txn zxid differs from the NEWLEADER zxid.
        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=2, max_crashes=1, max_partitions=0, max_epoch=3),
            "I-12",
            instance=C.ERR_ACK_BEFORE_NEWLEADER_ACK,
        )
        assert result.found_violation
        labels = [l.name for l in result.first_violation.trace.labels]
        assert labels[-2:] == [
            "FollowerSyncProcessorLogRequest",
            "LeaderProcessACK",
        ]

    @pytest.mark.slow
    def test_zk4712_found_by_mspec3(self):
        # Data inconsistency: the un-stopped SyncRequestProcessor logs a
        # stale request after data recovery (I-10).
        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=2, max_crashes=1, max_partitions=0, max_epoch=3),
            "I-10",
            max_time=400,
        )
        assert result.found_violation
        labels = [l.name for l in result.first_violation.trace.labels]
        assert "FollowerShutdown" in labels

    def test_zk4712_not_found_with_fixed_shutdown(self):
        from repro.zookeeper import V391_PLUS_4712

        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=2, max_crashes=1, max_partitions=0, max_epoch=3),
            "I-10",
            variant=V391_PLUS_4712,
            max_states=150_000,
            max_time=200,
        )
        assert not result.found_violation


class TestFixVerification:
    """Table 6: the four fix PRs still violate invariants."""

    CFG = ZkConfig(max_txns=2, max_crashes=2, max_partitions=0, max_epoch=3)

    def first_family(self, pr, max_states=400_000, max_time=200):
        spec = pr_spec(pr, self.CFG)
        result = explore(
            spec, max_states=max_states, max_time=max_time, mask=zk4394_mask
        )
        assert result.found_violation, f"{pr} unexpectedly verified"
        return result.first_violation.invariant.ident

    @pytest.mark.slow
    def test_pr1848_still_violates(self):
        # PR-1848 fixed the DIFF ordering only; the SNAP path still opens
        # the ZK-4643 window (paper: I-8) and ZK-4685 remains reachable.
        assert self.first_family("PR-1848") in ("I-8", "I-12")

    def test_pr1848_snap_hole_violates_i8(self):
        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=1, max_crashes=2, max_partitions=0, max_epoch=3),
            "I-8",
            variant=__import__("repro.zookeeper", fromlist=["PR_1848"]).PR_1848,
        )
        assert result.found_violation

    def test_pr1930_violates_i12(self):
        assert self.first_family("PR-1930") == "I-12"

    @pytest.mark.slow
    def test_pr1993_violates_i11(self):
        assert self.first_family("PR-1993") == "I-11"

    @pytest.mark.slow
    def test_pr2111_violates_i11(self):
        assert self.first_family("PR-2111") == "I-11"


class TestFinalFix:
    """§5.4: the holistic resolution passes model checking."""

    def test_no_violation_within_budget(self):
        cfg = ZkConfig(max_txns=1, max_crashes=2, max_partitions=0, max_epoch=3)
        result = explore(
            final_fix_spec(cfg), max_states=120_000, max_time=180
        )
        assert not result.found_violation

    def test_final_fix_flags(self):
        assert FINAL_FIX.history_before_epoch == "full"
        assert FINAL_FIX.synchronous_sync_logging
        assert FINAL_FIX.synchronous_commit
        assert FINAL_FIX.fix_follower_shutdown
        assert FINAL_FIX.match_commit_in_sync

    def test_mspec3_plus_differs_from_mspec3_only_in_shutdown(self):
        spec = mspec3_plus()
        assert spec.config.variant.fix_follower_shutdown
        assert not spec.config.variant.synchronous_sync_logging


class TestExtensionZK4785:
    """Extension beyond the paper's six bugs: ZK-4785 (the paper's
    reference [26]) -- a COMMIT between NEWLEADER and UPTODATE applied
    directly to the log races the SyncRequestProcessor queue."""

    @pytest.mark.slow
    def test_direct_commit_application_violates_safety(self):
        from repro.zookeeper import V391_PLUS_4712

        variant = V391_PLUS_4712.with_(direct_commit_in_sync=True)
        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=2, max_crashes=1, max_partitions=0, max_epoch=3),
            "I-10",
            variant=variant,
            max_time=400,
        )
        assert result.found_violation
        labels = [l.name for l in result.first_violation.trace.labels]
        assert "FollowerProcessCOMMITInSync" in labels

    def test_order_preserving_commit_is_safe(self):
        from repro.zookeeper import V391_PLUS_4712

        result = hunt(
            "mSpec-3",
            ZkConfig(max_txns=2, max_crashes=1, max_partitions=0, max_epoch=3),
            "I-10",
            variant=V391_PLUS_4712,
            max_states=150_000,
            max_time=200,
        )
        assert not result.found_violation


class TestHuntTable:
    """``repro.zookeeper.specs.HUNTS`` is the one copy of the Table 4
    rows; the read-only benchmark keeps its own (it imports no repro)."""

    def test_benchmark_rows_match_the_table(self):
        import sys
        from pathlib import Path

        from repro.zookeeper.specs import HUNTS

        root = str(Path(__file__).resolve().parent.parent)
        if root not in sys.path:
            sys.path.insert(0, root)
        from bench.workloads import HUNTS as BENCH_HUNTS

        assert BENCH_HUNTS
        for bug, row in BENCH_HUNTS.items():
            assert HUNTS[bug] == (*row, None), bug

    def test_hunt_spec_composes_the_row(self):
        from repro.zookeeper import PR_1930
        from repro.zookeeper.specs import HUNTS, hunt_spec

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
