"""Handlers for exercising backends in the test-suite, and the chaos
band decorator that fault-injects the harness itself.

The handlers live in-package (rather than under ``tests/``) because
socket workers run in fresh interpreters that import handlers by
``module:function`` spec -- the test directory is not importable there,
the installed package is.
"""

from __future__ import annotations

import os
import random
import signal
import time
from collections import Counter
from typing import Any, Dict, Optional

from repro.checker.backends.dispatch import WorkerBand
from repro.checker.backends.supervision import SupervisionPolicy, TaskSupervisor


def echo(task: Any) -> Any:
    """Return the task unchanged."""
    return task


def add_one(task: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``{"value": task["value"] + 1}``."""
    return {"value": task["value"] + 1}


def sleepy(task: Dict[str, Any]) -> Dict[str, Any]:
    """Sleep ``task["sleep"]`` seconds, then echo ``task["value"]``."""
    time.sleep(task.get("sleep", 0.0))
    return {"value": task.get("value")}


def boom(task: Dict[str, Any]) -> Dict[str, Any]:
    """Raise ``ValueError`` when asked to, else echo.

    Exercises the task-failure path (``RuntimeError`` in the parent)."""
    if task.get("raise"):
        raise ValueError(f"boom: {task.get('value')}")
    return {"value": task.get("value")}


def die_once(task: Dict[str, Any]) -> Dict[str, Any]:
    """Kill the executing worker the *first* time a marked task runs.

    ``task["marker"]`` is a filesystem path used as a has-this-task-run
    flag: the first worker to execute the task creates the marker and
    hard-exits without replying; the retry (on a surviving worker) sees
    the marker and succeeds.  Exercises worker-loss reassignment."""
    marker = task.get("marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
        os._exit(17)
    return {"value": task.get("value"), "retried": bool(marker)}


def die_always(task: Dict[str, Any]) -> Dict[str, Any]:
    """Hard-exit the executing worker, every time.

    The poison task: without supervision it kills the whole band one
    worker at a time; with supervision it must be quarantined after
    ``quarantine_after`` deaths."""
    if task.get("poison", True):
        os._exit(23)
    return {"value": task.get("value")}


def hold(task: Dict[str, Any]) -> Dict[str, Any]:
    """Announce (via ``task["marker"]``) then sleep a long time.

    Exercises the watchdog (supervised timeout kill) and the
    ``close()`` escalation on a busy worker: the worker never reads the
    shutdown frame while stuck in here, so the backend must SIGTERM it.
    The optional marker file makes "the worker is inside the handler"
    observable, removing the race from escalation tests."""
    marker = task.get("marker")
    if marker:
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
    time.sleep(task.get("sleep", 60.0))
    return {"value": task.get("value")}


def hold_ignoring_sigterm(task: Dict[str, Any]) -> Dict[str, Any]:
    """Like :func:`hold`, but the worker first shields itself from
    SIGTERM -- forcing ``close()`` all the way to the SIGKILL rung."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return hold(task)


class ChaosBand:
    """A band decorator: seeded fault injection under the dispatcher.

    Every perturbation targets the *harness*, never the task: workers
    are SIGKILLed after a dispatch, sends fail before the frame leaves
    (the dispatcher drops the link; a TCP worker reconnects, a forked
    one is replaced), task frames are delayed, duplicated, or (opt-in)
    swallowed.  Task handlers stay pure functions, so a correct
    dispatcher must produce results -- and a campaign a report --
    identical to a clean run; only the ``degraded`` section may differ,
    and it must tell the truth about what was injected.  The decorator
    only touches band verbs, so the same lane runs over
    :class:`~repro.checker.backends.fork.ForkBand` and
    :class:`~repro.checker.backends.sockets.TcpBand` alike.

    Faults draw from ``random.Random(chaos_seed)``, so a failing run is
    rerunnable.  (The *sequence* of draws also depends on dispatch
    order, i.e. scheduling; the seed pins the distribution, the report
    identity is what must be invariant.)

    ``hang_rate`` swallows the task frame: the task looks in-flight
    forever and only the watchdog rescues it (see :func:`chaos_backend`).
    """

    def __init__(
        self,
        inner: WorkerBand,
        chaos_seed: int = 0,
        kill_rate: float = 0.05,
        drop_rate: float = 0.05,
        delay_rate: float = 0.1,
        delay: float = 0.02,
        dup_rate: float = 0.05,
        hang_rate: float = 0.0,
    ):
        self.inner = inner
        self._rng = random.Random(chaos_seed)
        self.kill_rate = kill_rate
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.delay = delay
        self.dup_rate = dup_rate
        self.hang_rate = hang_rate
        #: What was actually injected (kills, drops, delays, dups,
        #: hangs), for truthful-degradation asserts.
        self.injected: Counter = Counter()

    def __getattr__(self, verb: str) -> Any:
        return getattr(self.inner, verb)  # every other verb is untouched

    def send(self, conn: Any, index: int, task: Any) -> None:
        rng = self._rng
        if rng.random() < self.drop_rate:
            # Fail *before* the frame leaves: the task is provably
            # undelivered, so the dispatcher drops the link and
            # requeues without penalty.
            self.injected["drops"] += 1
            raise OSError("chaos: dropped connection")
        if rng.random() < self.delay_rate:
            self.injected["delays"] += 1
            time.sleep(self.delay)
        if rng.random() < self.hang_rate:
            # Swallow the frame: the task is in-flight bookkeeping-wise
            # but no worker ever got it -- a perfect hang.
            self.injected["hangs"] += 1
            return
        self.inner.send(conn, index, task)
        if rng.random() < self.dup_rate:
            # The worker executes twice and answers twice; the second
            # result frame must be ignored by the duplicate guard.
            self.injected["dups"] += 1
            self.inner.send(conn, index, task)
        if rng.random() < self.kill_rate and self.inner.kill(conn):
            self.injected["kills"] += 1


def chaos_backend(
    backend_cls: Any,
    handler: Any,
    workers: int,
    supervisor: Optional[TaskSupervisor] = None,
    auth_token: Optional[str] = None,
    **chaos: Any,
) -> Any:
    """``backend_cls(handler, workers)`` with its band under
    ``ChaosBand(band, **chaos)``; ``backend.band.injected`` counts the
    faults.  ``auth_token`` is forwarded when set (TCP only).

    Without an explicit ``supervisor`` a deliberately generous one is
    attached (effectively unbounded retries/respawns): the chaos lane
    asserts fault *transparency*, and quarantine would turn injected
    faults into missing cells.  A positive ``hang_rate`` demands a
    supervisor with a ``task_timeout`` -- nothing else ever rescues a
    swallowed frame."""
    supervisor = supervisor or TaskSupervisor(
        SupervisionPolicy(
            max_retries=10_000, quarantine_after=10_000, max_respawns=10_000
        )
    )
    if chaos.get("hang_rate", 0) > 0 and supervisor.policy.task_timeout is None:
        raise ValueError(
            "chaos hang_rate needs a supervisor with a task_timeout: "
            "a swallowed frame is only ever rescued by the watchdog"
        )
    options = {} if auth_token is None else {"auth_token": auth_token}
    backend = backend_cls(handler, workers, supervisor=supervisor, **options)
    backend.band = ChaosBand(backend.band, **chaos)
    backend.name = "chaos"
    return backend
