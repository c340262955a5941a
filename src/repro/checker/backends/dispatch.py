"""The one supervised dispatch loop, and the worker-band interface it
drives.

"Run task *i*, slot result *i*, survive the worker dying" is decided
here and nowhere else.  :func:`dispatch` owns the queue, the
backoff-sorted retry heap, the per-task watchdog, the duplicate-result
guard, the deadline skip, index-slotted results, the completion-order
``on_result`` hook, Ctrl-C reaping and the respawn budget.  *Where* a
task runs is a :class:`WorkerBand`: a set of worker processes behind a
handful of verbs, implemented exactly twice --

- :class:`~repro.checker.backends.fork.ForkBand`: fork spawn, pipe
  transport, pickle frames, handler inherited by memory image;
- :class:`~repro.checker.backends.sockets.TcpBand`: subprocess or
  external spawn, TCP transport, ``repro.backend.wire/1`` JSON-line
  frames, hello/auth verification.

The frame *shape* is one -- ``(index, task)`` out, ``(index, ok,
payload)`` back -- and its *encoding* is the band's business.  A band
decorator (:class:`~repro.checker.backends.testing.ChaosBand`) perturbs
the verbs without the loop noticing, so one fault lane covers both
transports.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checker.backends.base import ResultHook
from repro.checker.backends.supervision import RETRY, TaskSupervisor

#: How often the loop looks at its timers (retry backoffs, the
#: watchdog) while no frame arrives; frames themselves wake it at once.
TICK = 0.05

#: What :meth:`WorkerBand.poll` yields per worker: the connection and
#: its ``(index, ok, payload)`` result frame, or ``None`` when the
#: worker died (its connection is already dropped).
Event = Tuple[Any, Optional[Tuple[int, bool, Any]]]


class WorkerBand:
    """A set of worker processes the dispatcher can feed.

    ``connections`` lists the workers able to take a frame right now
    (for TCP: hello-verified); which of them has a task *in flight* is
    the dispatcher's knowledge, not the band's -- a fault-injecting
    decorator may swallow a frame the band never saw.  Subclasses
    implement the transport verbs; this base owns frame-id allocation
    and the exit -> SIGTERM -> SIGKILL shutdown ladder."""

    #: Seconds :meth:`close` waits for a clean exit after the farewell
    #: frame, then for SIGTERM to land, before the next rung.
    shutdown_grace = 2.0
    term_grace = 1.0

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        self.connections: List[Any] = []
        self._next_id = 0

    def claim_ids(self, count: int) -> int:
        """Reserve ``count`` frame ids, returning the first.  Ids are
        unique for the band's lifetime, so a stale frame from an earlier
        ``map`` can never alias a live task."""
        base = self._next_id
        self._next_id += count
        return base

    # ----------------------------------------------------- transport verbs

    def send(self, conn: Any, index: int, task: Any) -> None:
        """Ship one task frame; ``OSError`` means provably undelivered."""
        raise NotImplementedError

    def poll(self, timeout: float) -> List[Event]:
        """Wait up to ``timeout`` for result frames, deaths or joins
        (a join just shows up in ``connections``)."""
        raise NotImplementedError

    def kill(self, conn: Any) -> bool:
        """SIGKILL the worker process behind ``conn`` (the connection
        stays, so the death is still observed by :meth:`poll`).  False
        when the band does not own that process (external joiner)."""
        raise NotImplementedError

    def drop(self, conn: Any) -> None:
        """Retire ``conn``; idempotent."""
        raise NotImplementedError

    def spawn(self) -> None:
        """Start one replacement worker."""
        raise NotImplementedError

    def shortfall(self) -> int:
        """Workers this band could :meth:`spawn` to get back to strength."""
        raise NotImplementedError

    def await_worker(self) -> bool:
        """Block until a worker can take a frame; False when none can
        ever (again) -- the remaining tasks then come back ``None``."""
        raise NotImplementedError

    # ------------------------------------------------------------ shutdown

    def close(self) -> None:
        """Farewell frame, then escalate; idempotent."""
        self._shutdown(self.shutdown_grace)

    def terminate(self) -> None:
        """Interrupt path: :meth:`close` with no patience for a clean
        exit, so Ctrl-C never orphans a worker."""
        self._shutdown(0.0)

    def _shutdown(self, grace: float) -> None:
        raise NotImplementedError

    def _gone(self, process: Any, timeout: float) -> bool:
        """Wait up to ``timeout`` for ``process`` to exit."""
        raise NotImplementedError

    def _reap(self, processes: Sequence[Any], grace: float) -> None:
        """The escalation ladder, per worker: ``grace`` for a clean
        exit, SIGTERM and ``term_grace`` next, SIGKILL last."""
        for process in processes:
            if self._gone(process, grace):
                continue
            process.terminate()
            if self._gone(process, self.term_grace):
                continue
            process.kill()
            self._gone(process, 2.0)


def dispatch(
    band: WorkerBand,
    tasks: Sequence[Any],
    deadline: Optional[float],
    on_result: Optional[ResultHook],
    supervisor: TaskSupervisor,
) -> List[Optional[Any]]:
    """Run every task on ``band``; results arrive in task order.

    Dispatch is greedy -- a worker gets its next task as soon as it
    reports the previous one, one in flight per worker -- but results
    are slotted by index, so the list is the same whatever the
    scheduling, worker count or transport.

    - ``deadline`` (``time.monotonic()``): tasks not yet dispatched when
      it passes are skipped and stay ``None``.
    - A task that *raises* in a worker re-raises here as
      :class:`RuntimeError`.
    - A worker that *dies* mid-task, or runs past
      ``policy.task_timeout`` and is killed by the watchdog, has its
      task retried after exponential backoff -- until the supervisor
      quarantines it (stays ``None``, recorded) instead of letting a
      poison task drain the band.  Every map is supervised: a backend
      built without a supervisor gets one with ``DEFAULT_POLICY``.
    - Lost workers are respawned up to the policy's budget; with no
      worker left and none able to join, what remains stays ``None``.
    - A result slot is written, and ``on_result(index, task, result)``
      fired (in *completion* order), exactly once per task: duplicate
      and stale frames are ignored.
    - On KeyboardInterrupt/SystemExit the band is terminated and reaped
      before the exception propagates.
    """
    supervisor.begin_map()
    timeout = supervisor.policy.task_timeout
    base = band.claim_ids(len(tasks))
    results: List[Optional[Any]] = [None] * len(tasks)
    unresolved = set(range(len(tasks)))
    queue = deque(range(len(tasks)))
    retries: List[Tuple[float, int]] = []  # heap of (ready_at, index)
    active: Dict[Any, Tuple[int, float]] = {}  # conn -> (index, started)

    def next_index(now: float) -> Optional[int]:
        if retries and retries[0][0] <= now:
            return heapq.heappop(retries)[1]
        while queue:
            index = queue.popleft()
            if deadline is None or now < deadline:
                return index
            unresolved.discard(index)  # skipped: stays None
        return None

    def fail(conn: Any, verdict: Any) -> None:
        """``conn`` is gone: retry (with backoff) or quarantine the task
        it was running."""
        if conn not in active:
            return
        index = active.pop(conn)[0]
        if verdict(index, tasks[index]) == RETRY:
            delay = supervisor.backoff_delay(index)
            supervisor.task_retried(index, tasks[index], delay)
            heapq.heappush(retries, (time.monotonic() + delay, index))
        else:
            unresolved.discard(index)  # quarantined: stays None

    try:
        while unresolved:
            while band.shortfall() > 0 and supervisor.respawn_allowed(band.workers):
                supervisor.worker_respawned()
                band.spawn()
            if not band.connections and not band.await_worker():
                break  # permanent starvation
            now = time.monotonic()
            for conn in list(band.connections):
                if conn in active:
                    continue
                index = next_index(now)
                if index is None:
                    break
                try:
                    band.send(conn, base + index, tasks[index])
                except OSError:
                    # Provably undelivered (the worker died between its
                    # reply and this frame): requeue free of charge.
                    queue.appendleft(index)
                    band.drop(conn)
                    continue
                active[conn] = (index, now)
            if not active and not queue and not retries:
                break  # everything left was skipped or quarantined
            for conn, frame in band.poll(TICK):
                if frame is None:
                    fail(conn, supervisor.worker_died)
                    continue
                index, ok, payload = frame
                index -= base
                if conn in active and active[conn][0] == index:
                    del active[conn]
                if index not in unresolved:
                    continue  # duplicate or stale frame: once only
                if not ok:
                    raise RuntimeError(f"task {index} failed: {payload}")
                results[index] = payload
                unresolved.discard(index)
                if on_result is not None:
                    on_result(index, tasks[index], payload)
            if timeout is not None:
                now = time.monotonic()
                for conn, (_, started) in list(active.items()):
                    if now - started >= timeout:
                        # Watchdog: the worker is wedged; kill it (an
                        # external one just loses the link) and retry.
                        band.kill(conn)
                        band.drop(conn)
                        fail(conn, supervisor.task_timed_out)
    except (KeyboardInterrupt, SystemExit):
        band.terminate()
        raise
    return results
