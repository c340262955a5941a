"""Execution backends: one contract over the inline reference, the fork
band and the TCP band (and both bands under chaos), the ``close()``
escalation ladder, and the acceptance bar -- socket and fork campaigns
are bitwise-identical at a fixed seed."""

import json
import os
import time

import pytest

from repro.checker import parallel
from repro.checker.backends import (
    BACKENDS,
    InlineBackend,
    create_backend,
    resolve_handler,
)
from repro.checker.backends.fork import ForkBackend, ForkBand
from repro.checker.backends.sockets import SocketBackend, TcpBand
from repro.checker.backends.supervision import SupervisionPolicy, TaskSupervisor
from repro.checker.backends.testing import chaos_backend
from repro.remix.campaign import CampaignRequest, run_campaign

ECHO = "repro.checker.backends.testing:echo"
ADD_ONE = "repro.checker.backends.testing:add_one"
BOOM = "repro.checker.backends.testing:boom"
DIE_ONCE = "repro.checker.backends.testing:die_once"
DIE_ALWAYS = "repro.checker.backends.testing:die_always"
SLEEPY = "repro.checker.backends.testing:sleepy"
HOLD = "repro.checker.backends.testing:hold"
HOLD_IGNORING_SIGTERM = "repro.checker.backends.testing:hold_ignoring_sigterm"


class TestResolveHandler:
    def test_spec_resolves_to_function(self):
        handler = resolve_handler(ADD_ONE)
        assert handler({"value": 1}) == {"value": 2}

    def test_callable_passes_through(self):
        handler = resolve_handler(len)
        assert handler is len

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve_handler("no-colon-here")
        with pytest.raises(ValueError, match="non-callable"):
            resolve_handler("json:__name__")

    def test_missing_module_raises(self):
        with pytest.raises(ModuleNotFoundError):
            resolve_handler("no.such.module:fn")


class TestInlineBackend:
    def test_results_in_task_order(self):
        backend = InlineBackend(ADD_ONE)
        tasks = [{"value": n} for n in range(5)]
        assert backend.map(tasks) == [{"value": n + 1} for n in range(5)]

    def test_on_result_fires_per_task(self):
        seen = []
        backend = InlineBackend(ADD_ONE)
        backend.map(
            [{"value": 1}, {"value": 2}],
            on_result=lambda i, task, result: seen.append((i, result)),
        )
        assert seen == [(0, {"value": 2}), (1, {"value": 3})]

    def test_deadline_skips_remaining(self):
        backend = InlineBackend(ADD_ONE)
        results = backend.map(
            [{"value": 1}, {"value": 2}], deadline=time.monotonic() - 1
        )
        assert results == [None, None]


class TestCreateBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("carrier-pigeon", ECHO, 2)

    def test_fork_single_worker_degrades_to_inline(self):
        backend = create_backend("fork", ECHO, 1)
        assert backend.name == "inline"
        backend.close()

    @pytest.mark.skipif(not parallel.available(), reason="needs fork")
    def test_fork_multi_worker_is_fork(self):
        backend = create_backend("fork", ECHO, 2)
        try:
            assert backend.name == "fork"
            tasks = [{"value": n} for n in range(6)]
            assert backend.map(tasks) == tasks
        finally:
            backend.close()

    def test_names_cover_cli_choices(self):
        assert BACKENDS == ("fork", "socket", "chaos")


#: Every way to run a task: in the caller, over the pipe band, over the
#: TCP band -- and both bands again under the chaos decorator.
KINDS = ("inline", "fork", "socket")
WORKER_KINDS = ("fork", "socket")
CHAOS_KINDS = ("chaos-fork", "chaos-tcp")


@pytest.fixture
def make_backend():
    """Build a backend by kind; everything built is closed afterwards."""
    built = []

    def make(kind, handler, workers=2, supervisor=None, **chaos):
        if kind == "inline":
            backend = InlineBackend(handler)
        elif kind in WORKER_KINDS:
            cls = ForkBackend if kind == "fork" else SocketBackend
            backend = cls(handler, workers, supervisor=supervisor)
        else:
            cls = ForkBackend if kind == "chaos-fork" else SocketBackend
            backend = chaos_backend(
                cls, handler, workers, supervisor=supervisor, **chaos
            )
        built.append(backend)
        return backend

    yield make
    for backend in built:
        backend.close()


@pytest.mark.skipif(not parallel.available(), reason="needs subprocesses")
class TestBackendContract:
    """One contract, whatever runs the task: the same cases over the
    inline backend, the fork band and the TCP band (one dispatch loop),
    and -- where faults apply -- over both bands under chaos."""

    @pytest.mark.parametrize("kind", KINDS + CHAOS_KINDS)
    def test_results_in_task_order_and_band_is_reusable(self, make_backend, kind):
        backend = make_backend(kind, ADD_ONE, chaos_seed=5)
        tasks = [{"value": n} for n in range(10)]
        assert backend.map(tasks) == [{"value": n + 1} for n in range(10)]
        # a second map on the same workers works too
        assert backend.map([{"value": 41}]) == [{"value": 42}]

    def test_fork_handler_may_be_a_closure(self, make_backend):
        backend = make_backend("fork", lambda task: task * task, workers=3)
        assert backend.map(list(range(17))) == [i * i for i in range(17)]

    @pytest.mark.parametrize("kind", KINDS + CHAOS_KINDS)
    def test_on_result_sees_every_index_once(self, make_backend, kind):
        seen = []
        backend = make_backend(kind, ECHO, chaos_seed=6)
        backend.map(
            [{"value": n} for n in range(8)],
            on_result=lambda i, task, result: seen.append((i, result)),
        )
        assert sorted(seen) == [(n, {"value": n}) for n in range(8)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_past_deadline_skips_every_task(self, make_backend, kind):
        backend = make_backend(kind, ECHO)
        results = backend.map(
            [{"value": n} for n in range(4)], deadline=time.monotonic() - 1
        )
        assert results == [None, None, None, None]

    @pytest.mark.parametrize("kind", KINDS)
    def test_task_error_surfaces_as_runtime_error(self, make_backend, kind):
        backend = make_backend(kind, BOOM)
        with pytest.raises(
            RuntimeError, match=r"task 0 failed: ValueError\('boom: 3'\)"
        ):
            backend.map([{"value": 3, "raise": True}])

    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_worker_loss_reassigns_task(self, make_backend, kind, tmp_path):
        marker = tmp_path / "died"
        backend = make_backend(kind, DIE_ONCE)
        tasks = [{"value": n} for n in range(6)]
        tasks[2] = {"value": 2, "marker": str(marker)}
        results = backend.map(tasks)
        assert marker.exists(), "the marked task must kill a worker"
        assert [r["value"] for r in results] == list(range(6))
        assert results[2]["retried"] is True

    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_poison_task_quarantined_not_fatal(self, make_backend, kind):
        sup = TaskSupervisor(SupervisionPolicy(quarantine_after=2, backoff=0.01))
        backend = make_backend(kind, DIE_ALWAYS, supervisor=sup)
        tasks = [{"value": n, "poison": n == 1} for n in range(4)]
        results = backend.map(tasks)
        assert results[1] is None  # quarantined, not retried forever
        assert [r["value"] for n, r in enumerate(results) if n != 1] == [0, 2, 3]
        assert sup.quarantined
        assert sup.worker_deaths == 2

    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_poison_without_a_supervisor_does_not_hang_map(self, make_backend, kind):
        """Every map is supervised: the default policy quarantines the
        task that kills each worker it lands on; completed results
        survive."""
        backend = make_backend(kind, DIE_ALWAYS)
        results = backend.map([{"value": "ok", "poison": False}, {"value": "die"}])
        assert results[0] == {"value": "ok"}
        assert results[1] is None
        assert list(backend.supervisor.quarantined) == ["task-1"]

    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_watchdog_kills_and_retries_hung_task(self, make_backend, kind):
        sup = TaskSupervisor(
            SupervisionPolicy(
                task_timeout=0.3, max_retries=1, quarantine_after=9,
                backoff=0.01,
            )
        )
        backend = make_backend(kind, SLEEPY, supervisor=sup)
        results = backend.map([{"value": 0, "sleep": 30.0}, {"value": 1}])
        assert results[0] is None  # timed out, retried, timed out: quarantined
        assert results[1] == {"value": 1}
        assert (sup.timeouts, sup.retries) == (2, 1)
        assert sup.quarantined

    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_supervisor_is_per_run_on_a_long_lived_band(
        self, make_backend, kind, tmp_path
    ):
        """Two maps on one band under two supervisors: what the first
        run went through -- a dead worker, its respawn budget spent --
        is nowhere in the second run's books."""
        policy = SupervisionPolicy(max_respawns=1, backoff=0.01)
        first = TaskSupervisor(policy)
        backend = make_backend(kind, DIE_ONCE, supervisor=first)
        tasks = [{"value": n} for n in range(6)]
        tasks[2] = {"value": 2, "marker": str(tmp_path / "died")}
        assert [r["value"] for r in backend.map(tasks)] == list(range(6))
        assert (first.worker_deaths, first.respawns) == (1, 1)
        assert not first.respawn_allowed(backend.band.workers)
        second = TaskSupervisor(policy)
        backend.supervisor = second
        again = [{"value": n} for n in range(6)]
        assert [r["value"] for r in backend.map(again)] == list(range(6))
        assert second.clean
        assert second.snapshot() == TaskSupervisor().snapshot()
        assert second.respawn_allowed(backend.band.workers)

    @pytest.mark.parametrize("kind", CHAOS_KINDS)
    def test_duplicate_result_frames_written_once(self, make_backend, kind):
        seen = []
        backend = make_backend(
            kind, ADD_ONE, kill_rate=0.0, drop_rate=0.0, delay_rate=0.0,
            dup_rate=1.0,
        )
        tasks = [{"value": n} for n in range(12)]
        results = backend.map(
            tasks, on_result=lambda i, task, result: seen.append(i)
        )
        assert backend.band.injected["dups"] == 12
        assert results == [{"value": n + 1} for n in range(12)]
        assert sorted(seen) == list(range(12))
        # the late duplicates of this map must not alias the next one
        again = [{"value": 100 + n} for n in range(12)]
        assert backend.map(again) == [{"value": 101 + n} for n in range(12)]


class TestSocketBackend:
    def test_callable_handler_rejected(self):
        with pytest.raises(ValueError, match="spec"):
            SocketBackend(len, workers=1)

    @pytest.mark.skipif(not parallel.available(), reason="needs subprocesses")
    def test_killing_every_worker_shows_as_shortfall_at_once(self):
        """A watchdog tick that kills *every* worker must see them all
        missing when it asks how many to respawn: an unreaped SIGKILLed
        child still polls as alive, nothing is spawned, and the map ends
        in permanent starvation with ``None`` results."""
        band = TcpBand(ADD_ONE, 2)
        try:
            patience = time.monotonic() + 30.0
            while len(band.connections) < 2:
                assert time.monotonic() < patience, "workers never joined"
                band.poll(0.05)
            for conn in list(band.connections):
                assert band.kill(conn)
                band.drop(conn)
            assert band.shortfall() == 2
        finally:
            band.terminate()


@pytest.mark.skipif(not parallel.available(), reason="needs subprocesses")
class TestCloseEscalation:
    """``close()`` on a band whose worker is stuck inside a task: the
    farewell frame is never read, so the exit -> SIGTERM -> SIGKILL
    ladder has to finish the job, and nothing may outlive it."""

    @staticmethod
    def busy_band(kind, handler, marker, shutdown_grace, term_grace):
        if kind == "fork":
            band = ForkBand(1, resolve_handler(handler))
        else:
            band = TcpBand(handler, 1)
        band.shutdown_grace = shutdown_grace
        band.term_grace = term_grace
        try:
            assert band.await_worker()
            band.send(band.connections[0], 0, {"marker": str(marker)})
            patience = time.monotonic() + 30.0
            while not marker.exists() or not marker.read_text():
                assert time.monotonic() < patience, "worker never started"
                time.sleep(0.01)
        except BaseException:
            band.terminate()
            raise
        return band, int(marker.read_text())

    @pytest.mark.parametrize("kind", ("fork", "tcp"))
    def test_busy_worker_exits_on_sigterm(self, kind, tmp_path):
        band, pid = self.busy_band(kind, HOLD, tmp_path / "in", 0.2, 20.0)
        started = time.monotonic()
        band.close()
        elapsed = time.monotonic() - started
        assert 0.2 <= elapsed < 20.0  # waited one grace, never needed SIGKILL
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("kind", ("fork", "tcp"))
    def test_sigterm_proof_worker_needs_sigkill(self, kind, tmp_path):
        band, pid = self.busy_band(
            kind, HOLD_IGNORING_SIGTERM, tmp_path / "in", 0.2, 0.3
        )
        started = time.monotonic()
        band.close()
        assert time.monotonic() - started >= 0.5  # both graces were spent
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        band.close()  # idempotent


    def test_unconnected_worker_is_not_waited_for(self):
        """A spawned worker that has not said hello cannot receive the
        farewell frame: ``close()`` must not spend ``shutdown_grace``
        (2 s) waiting for it to act on one."""
        band = TcpBand(ADD_ONE, 1)
        (process,) = band._processes
        assert not band.connections
        started = time.monotonic()
        band.close()
        assert time.monotonic() - started < 0.5
        assert process.poll() is not None  # reaped, not orphaned


@pytest.mark.skipif(not parallel.available(), reason="needs subprocesses")
class TestBackendIdentity:
    """The acceptance bar: ``--backend socket --workers 2`` produces a
    report bitwise-identical to the fork pool at the same seed."""

    KW = dict(
        grains=("mSpec-1",),
        scenarios=("election", "sync"),
        faults=("none", "crash-follower"),
        traces=1,
        max_steps=5,
        seed=7,
        workers=2,
        directions=("topdown", "bottomup"),
        shrink=True,
    )

    @staticmethod
    def report_bytes(request, **how):
        data = run_campaign(request, **how).to_json()
        data["campaign"].pop("elapsed_seconds", None)
        return json.dumps(data, sort_keys=True)

    @pytest.mark.parametrize("kind", KINDS)
    def test_lent_backend_gives_the_same_report_and_stays_open(
        self, make_backend, kind, tmp_path, monkeypatch
    ):
        """``run_campaign(request, backend=lent)``: same bytes as the
        run that builds its own, and the campaign closes nothing it did
        not open -- with a journal, the journal only."""
        from repro.remix.campaign import TASK_HANDLER
        from repro.remix.journal import CampaignJournal

        request = CampaignRequest(
            **{**self.KW, "workers": 1 if kind == "inline" else 2},
            backend="socket" if kind == "socket" else "fork",
        )
        expected = self.report_bytes(request)
        lent = make_backend(kind, TASK_HANDLER)
        lenders_supervisor = lent.supervisor
        closed = []
        monkeypatch.setattr(lent, "close", lambda: closed.append("backend"))
        journal_close = CampaignJournal.close

        def spy(journal):
            closed.append("journal")
            journal_close(journal)

        monkeypatch.setattr(CampaignJournal, "close", spy)
        assert self.report_bytes(request, backend=lent) == expected
        assert closed == []
        assert lent.supervisor is lenders_supervisor
        journaled = self.report_bytes(
            request, backend=lent, journal_dir=str(tmp_path)
        )
        assert journaled == expected
        assert closed == ["journal"]
        # still open: the lent backend maps a third campaign
        assert self.report_bytes(request, backend=lent) == expected
        monkeypatch.undo()  # let the fixture really close it

    def test_socket_matches_fork_bitwise(self):
        fork = run_campaign(
            CampaignRequest(**self.KW, backend="fork")
        ).to_json()
        sock = run_campaign(
            CampaignRequest(**self.KW, backend="socket")
        ).to_json()
        for data in (fork, sock):
            data["campaign"].pop("elapsed_seconds", None)
        assert json.dumps(fork, sort_keys=True) == json.dumps(
            sock, sort_keys=True
        )
        assert fork["totals"]["distinct_findings"] > 0
