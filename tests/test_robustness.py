"""Crash-safe campaigns: the journal, supervised execution, and the
chaos lane.

The acceptance bars of the robustness work live here:

- a campaign killed mid-run and resumed from its journal produces a
  report bitwise-identical to an uninterrupted run, on the fork AND the
  socket backend;
- a campaign run under seeded harness fault injection (the chaos
  backend) produces the same findings as a clean run, with a truthful
  ``degraded`` section;
- retry, backoff, quarantine and timeout policy are unit-covered.
"""

import json
import os

import pytest

from repro.checker.backends import create_backend
from repro.checker.backends.fork import ForkBackend, available
from repro.checker.backends.sockets import SocketBackend
from repro.checker.backends.supervision import (
    QUARANTINE,
    RETRY,
    SupervisionPolicy,
    TaskSupervisor,
)
from repro.checker.backends.testing import chaos_backend
from repro.remix.campaign import CampaignRequest, clean_degraded, run_campaign
from repro.remix.journal import (
    CampaignJournal,
    JournaledBackend,
    request_digest,
    task_key,
)

ADD_ONE = "repro.checker.backends.testing:add_one"

#: A small but non-trivial campaign: two scenarios, a crash lane, both
#: directions -- enough cells to interrupt halfway through.
CAMPAIGN_KW = dict(
    grains=("mSpec-1",),
    scenarios=("election", "sync"),
    faults=("none", "crash-follower"),
    traces=1,
    max_steps=5,
    seed=7,
    workers=2,
    directions=("topdown", "bottomup"),
)


def report_identity(report_json):
    """The bitwise-comparison form of a report (elapsed time excluded --
    the single legitimately non-deterministic field)."""
    report_json["campaign"].pop("elapsed_seconds", None)
    return json.dumps(report_json, sort_keys=True)


class TestSupervisionPolicy:
    def test_backoff_grows_exponentially(self):
        sup = TaskSupervisor(
            SupervisionPolicy(
                backoff=0.1, backoff_factor=2.0, max_retries=9,
                quarantine_after=99,
            )
        )
        sup.begin_map()
        delays = []
        for _ in range(3):
            assert sup.worker_died(0, {"t": 0}) == RETRY
            delays.append(sup.backoff_delay(0))
        assert delays == [0.1, 0.2, 0.4]

    def test_quarantine_after_repeated_deaths(self):
        sup = TaskSupervisor(SupervisionPolicy(quarantine_after=2))
        sup.begin_map()
        assert sup.worker_died(3, {"t": 3}) == RETRY
        assert sup.worker_died(3, {"t": 3}) == QUARANTINE
        assert "task-3" in sup.quarantined
        assert sup.snapshot()["worker_deaths"] == 2

    def test_a_second_worker_death_quarantines_whatever_the_retry_budget(self):
        # --task-retries sets max_retries; quarantine_after keeps its 2.
        sup = TaskSupervisor(SupervisionPolicy(max_retries=5))
        sup.begin_map()
        assert sup.worker_died(0, {"t": 0}) == RETRY
        assert sup.worker_died(0, {"t": 0}) == QUARANTINE
        assert sup.quarantined == {"task-0": "killed 2 workers (worker death)"}

    def test_quarantine_after_retry_budget(self):
        sup = TaskSupervisor(
            SupervisionPolicy(max_retries=1, quarantine_after=99)
        )
        sup.begin_map()
        assert sup.task_timed_out(0, {"t": 0}) == RETRY
        assert sup.task_timed_out(0, {"t": 0}) == QUARANTINE
        assert sup.timeouts == 2

    def test_begin_map_resets_per_task_counts_not_totals(self):
        sup = TaskSupervisor(SupervisionPolicy(quarantine_after=2))
        sup.begin_map()
        sup.worker_died(0, {"t": 0})
        sup.begin_map()
        # same index, fresh map: not poison yet
        assert sup.worker_died(0, {"t": 0}) == RETRY
        assert sup.worker_deaths == 2  # totals persist

    def test_describe_labels_events(self):
        sup = TaskSupervisor(
            SupervisionPolicy(quarantine_after=1),
            describe=lambda task: task["cell"],
        )
        sup.begin_map()
        assert sup.worker_died(0, {"cell": "a/b/c"}) == QUARANTINE
        assert "a/b/c" in sup.quarantined
        assert sup.events[0]["task"] == "a/b/c"

    def test_respawn_budget_defaults_to_twice_the_band(self):
        sup = TaskSupervisor()
        assert sup.respawn_allowed(2)
        for _ in range(4):
            sup.worker_respawned()
        assert not sup.respawn_allowed(2)

    def test_clean_supervisor_snapshot_is_clean(self):
        sup = TaskSupervisor()
        assert sup.clean
        assert sup.snapshot() == clean_degraded()["supervision"]


@pytest.mark.skipif(not available(), reason="needs subprocesses")
class TestSocketSupervision:
    """What only the TCP band has: the hello/auth handshake.  (Poison,
    watchdog and retry cases are band-independent and live in
    ``test_backends.py::TestBackendContract``.)"""

    def test_auth_token_gates_workers(self):
        backend = SocketBackend(ADD_ONE, workers=2, auth_token="sesame")
        try:
            assert backend.map([{"value": 1}]) == [{"value": 2}]
        finally:
            backend.close()

    def test_wrong_token_rejected_with_error_frame(self):
        import socket as socketlib

        from repro.checker.backends.sockets import PROTOCOL

        backend = SocketBackend(
            ADD_ONE, workers=1, spawn=False, auth_token="right",
            connect_timeout=2.0,
        )
        try:
            rogue = socketlib.create_connection(backend.address)
            hello = {
                "type": "hello", "protocol": PROTOCOL,
                "pid": os.getpid(), "token": "wrong",
            }
            rogue.sendall((json.dumps(hello) + "\n").encode())
            # no verified worker ever joins -> the map times out
            with pytest.raises(RuntimeError, match="no worker connected"):
                backend.map([{"value": 1}])
            # ... and the rogue got one error frame, then EOF
            rogue.settimeout(2.0)
            wire = rogue.makefile().read()
            assert json.loads(wire.splitlines()[0])["type"] == "error"
            rogue.close()
        finally:
            backend.close()


class TestJournalUnits:
    REQ = CampaignRequest(grains=("mSpec-1",), scenarios=("election",))

    def test_digest_ignores_execution_only_fields(self):
        base = request_digest(self.REQ)
        moved = CampaignRequest(
            grains=("mSpec-1",), scenarios=("election",),
            workers=8, backend="socket", task_timeout=5.0,
            task_retries=9, auth_token="s3",
        )
        assert request_digest(moved) == base
        other = CampaignRequest(grains=("mSpec-1",), scenarios=("sync",))
        assert request_digest(other) != base

    def test_task_key_forms(self):
        shrink = {"kind": "shrink", "finding": {"fingerprint": "abc"}}
        assert task_key(shrink) == ("shrink", "abc")
        assert task_key({"kind": "mystery"}) is None
        assert task_key("not-a-dict") is None

    def test_record_then_resume_replays(self, tmp_path):
        journal = CampaignJournal(str(tmp_path), self.REQ, resume=False)
        journal.record(("cell", "c1"), {"ok": 1})
        journal.close()
        resumed = CampaignJournal(str(tmp_path), self.REQ, resume=True)
        assert resumed.replayable(("cell", "c1"))
        assert resumed.get(("cell", "c1")) == {"ok": 1}
        assert not resumed.replayable(("cell", "c2"))
        assert not resumed.replayable(None)
        resumed.close()

    def test_fresh_run_truncates(self, tmp_path):
        journal = CampaignJournal(str(tmp_path), self.REQ, resume=False)
        journal.record(("cell", "c1"), {"ok": 1})
        journal.close()
        fresh = CampaignJournal(str(tmp_path), self.REQ, resume=False)
        assert len(fresh) == 0
        fresh.close()
        assert os.path.getsize(fresh.path) == 0

    def test_torn_trailing_line_tolerated(self, tmp_path):
        journal = CampaignJournal(str(tmp_path), self.REQ, resume=False)
        journal.record(("cell", "c1"), {"ok": 1})
        journal.close()
        with open(journal.path, "a") as fh:
            fh.write('{"v": 1, "digest": "tr')  # the crash's torn write
        resumed = CampaignJournal(str(tmp_path), self.REQ, resume=True)
        assert len(resumed) == 1
        resumed.close()

    def test_foreign_digest_not_replayed(self, tmp_path):
        journal = CampaignJournal(str(tmp_path), self.REQ, resume=False)
        journal.record(("cell", "c1"), {"ok": 1})
        journal.close()
        other = CampaignRequest(grains=("mSpec-1",), scenarios=("sync",))
        resumed = CampaignJournal(str(tmp_path), other, resume=True)
        assert len(resumed) == 0
        resumed.close()

    def test_journaled_backend_replays_without_dispatch(self, tmp_path):
        seeded = CampaignJournal(str(tmp_path), self.REQ, resume=False)
        seeded.record(("shrink", "f1"), {"cached": True})
        seeded.close()
        journal = CampaignJournal(str(tmp_path), self.REQ, resume=True)
        inner = create_backend("fork", ADD_ONE, 1)  # inline degenerate
        backend = JournaledBackend(inner, journal)
        seen = []
        tasks = [
            {"kind": "shrink", "finding": {"fingerprint": "f1"}},
            {"value": 5},
        ]
        results = backend.map(
            tasks, on_result=lambda i, t, r: seen.append((i, r))
        )
        assert results == [{"cached": True}, {"value": 6}]
        assert seen[0] == (0, {"cached": True})  # replay fires first
        backend.close()


class _KillAfter:
    """A progress hook that aborts the campaign after N completed cells
    -- the deterministic stand-in for `kill -9` halfway through."""

    def __init__(self, cells: int):
        self.remaining = cells

    def __call__(self, event):
        if event.get("event") == "cell_done":
            self.remaining -= 1
            if self.remaining <= 0:
                raise KeyboardInterrupt


@pytest.mark.skipif(not available(), reason="needs subprocesses")
class TestKillAndResume:
    """The tentpole acceptance bar: kill a journaled campaign at ~50%,
    resume, and get the uninterrupted report bit for bit."""

    def _identity_after_kill(self, tmp_path, backend):
        request = CampaignRequest(**CAMPAIGN_KW, backend=backend)
        clean = report_identity(run_campaign(request).to_json())

        journal_dir = str(tmp_path / backend)
        total = 2 * 2 * 2 * 2  # directions x scenarios x faults (x grains)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                request,
                progress=_KillAfter(total // 2),
                journal_dir=journal_dir,
            )
        journal = CampaignJournal(
            str(journal_dir), request, resume=True
        )
        assert 0 < len(journal) < total, "the kill must land mid-run"
        journal.close()

        replayed = []

        def watch(event):
            if event.get("replayed"):
                replayed.append(event["cell_id"])

        resumed = run_campaign(
            request, progress=watch, journal_dir=journal_dir, resume=True
        )
        assert replayed, "resume must replay journaled cells"
        assert report_identity(resumed.to_json()) == clean

    def test_fork_campaign_survives_kill(self, tmp_path):
        self._identity_after_kill(tmp_path, "fork")

    def test_socket_campaign_survives_kill(self, tmp_path):
        self._identity_after_kill(tmp_path, "socket")

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ValueError, match="journal"):
            run_campaign(
                CampaignRequest(**CAMPAIGN_KW, backend="fork"), resume=True
            )


@pytest.mark.skipif(not available(), reason="needs subprocesses")
class TestChaosLane:
    """Fault-inject the harness itself; the report must not notice."""

    BANDS = (ForkBackend, SocketBackend)

    def test_chaos_backend_results_survive_faults(self):
        for backend_cls in self.BANDS:
            backend = chaos_backend(
                backend_cls, ADD_ONE, workers=2, chaos_seed=123,
                kill_rate=0.2, drop_rate=0.1, delay_rate=0.3, delay=0.005,
                dup_rate=0.2,
            )
            try:
                tasks = [{"value": n} for n in range(30)]
                results = backend.map(tasks)
                assert results == [{"value": n + 1} for n in range(30)]
                assert sum(backend.band.injected.values()) > 0, (
                    "seed 123 must actually inject faults"
                )
            finally:
                backend.close()

    def test_hang_rate_requires_watchdog(self):
        with pytest.raises(ValueError, match="task_timeout"):
            chaos_backend(SocketBackend, ADD_ONE, workers=1, hang_rate=0.5)

    def test_hung_frames_rescued_by_watchdog(self):
        for backend_cls in self.BANDS:
            sup = TaskSupervisor(
                SupervisionPolicy(
                    task_timeout=0.3, max_retries=10_000,
                    quarantine_after=10_000, max_respawns=10_000,
                    backoff=0.01,
                )
            )
            backend = chaos_backend(
                backend_cls, ADD_ONE, workers=2, chaos_seed=123,
                kill_rate=0.0, drop_rate=0.0, delay_rate=0.0, dup_rate=0.0,
                hang_rate=0.5, supervisor=sup,
            )
            try:
                tasks = [{"value": n} for n in range(8)]
                assert backend.map(tasks) == [
                    {"value": n + 1} for n in range(8)
                ]
                assert backend.band.injected["hangs"] > 0
            finally:
                backend.close()

    def test_campaign_report_identical_under_chaos(self):
        """The differential lane: a chaos campaign's findings and cells
        equal the clean run's; only ``degraded`` may differ, and it must
        tell the truth."""
        clean = run_campaign(
            CampaignRequest(**CAMPAIGN_KW, backend="fork")
        ).to_json()
        chaos = run_campaign(
            # generous retry budget: injected faults must be retried
            # through, not quarantined into missing cells
            CampaignRequest(**CAMPAIGN_KW, backend="chaos", task_retries=100)
        ).to_json()
        degraded = chaos.pop("degraded")
        clean_degraded_section = clean.pop("degraded")
        assert clean_degraded_section == clean_degraded()
        assert report_identity(chaos) == report_identity(clean)
        # truthfulness: the supervision half is reported verbatim and
        # nothing was quarantined away (every injected fault was retried
        # through; the matching clean report proves it)
        supervision = degraded["supervision"]
        assert set(supervision) == {
            "retries", "timeouts", "worker_deaths", "respawns", "quarantined",
        }
        assert supervision["quarantined"] == []
        assert degraded["quarantined_cells"] == []
        assert degraded["skipped_cells"] == []

    def test_campaign_report_identical_under_chaos_over_fork(self, monkeypatch):
        """The same decorator over the pipe band: composed in Python
        (``--backend chaos`` keeps meaning TCP), same differential."""
        from repro.remix import campaign as campaign_module

        built = []

        def chaos_over_fork(name, handler, workers, **options):
            built.append(
                # seed 230 with no drops: the kill draws fall on sends 2,
                # 22, 38 -- never twice on one cell's retries, which the
                # campaign's quarantine_after=2 would (rightly) report
                chaos_backend(
                    ForkBackend, handler, workers, chaos_seed=230,
                    kill_rate=0.1, drop_rate=0.0, dup_rate=0.2, **options
                )
            )
            return built[-1]

        clean = run_campaign(
            CampaignRequest(**CAMPAIGN_KW, backend="fork")
        ).to_json()
        monkeypatch.setattr(campaign_module, "create_backend", chaos_over_fork)
        chaos = run_campaign(
            CampaignRequest(**CAMPAIGN_KW, backend="fork", task_retries=100)
        ).to_json()
        degraded = chaos.pop("degraded")
        assert clean.pop("degraded") == clean_degraded()
        assert report_identity(chaos) == report_identity(clean)
        # truthfulness: every kill is a death, a retry and a respawn
        kills = built[0].band.injected["kills"]
        assert kills > 0
        supervision = degraded["supervision"]
        assert supervision["worker_deaths"] == kills
        assert supervision["retries"] == kills
        assert supervision["respawns"] == kills
        assert degraded["quarantined_cells"] == []
        assert degraded["skipped_cells"] == []
