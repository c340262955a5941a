"""Task supervision: the failure policy the dispatcher consults.

A campaign cell is supposed to be a pure function of its task message,
but the *process* running it is not pure: workers get OOM-killed, hang
on a pathological walk, or lose their connection.  Requeueing forever
would turn a poison task (one that reliably kills its worker) into a
campaign that never finishes, and leave a hung worker stalling the
whole matrix.

:class:`SupervisionPolicy` bounds every failure mode:

- ``task_timeout``: a hard per-task wall clock.  The dispatcher's
  watchdog kills the worker running an expired task and retries the
  task elsewhere (``None`` disables the watchdog).
- ``max_retries`` + ``backoff``/``backoff_factor``: transient worker
  failures (death, timeout) retry with exponential backoff; once a
  task's failure count passes ``max_retries`` it is quarantined.
- ``quarantine_after``: a task whose execution killed this many workers
  is *poison* -- it is marked degraded instead of being fed to yet
  another worker (and instead of taking the campaign down).

:class:`TaskSupervisor` is the bookkeeper of one *run* -- the ``map``
calls of one campaign, on a backend the campaign built or was lent: it
decides retry-vs-quarantine, computes backoff delays, and accumulates a
degradation log the campaign folds into the report's ``degraded``
section (every degradation is recorded, none is silent).  A band that
outlives the run gets the next run's supervisor installed
(``backend.supervisor``), so counts never leak between reports.
Exactly one caller interprets its verdicts --
:func:`repro.checker.backends.dispatch.dispatch` -- so the policy means
the same over the fork band and the TCP band; every ``map`` is
supervised (a backend built without a supervisor gets
:data:`DEFAULT_POLICY`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: Verdicts :class:`TaskSupervisor` hands back to a backend.
RETRY = "retry"
QUARANTINE = "quarantine"


@dataclass(frozen=True)
class SupervisionPolicy:
    """Bounds for one backend's failure handling (see module docstring)."""

    #: Hard per-task wall clock in seconds; ``None`` disables the
    #: watchdog (a task may then run forever).
    task_timeout: Optional[float] = None
    #: Transient failures (worker death, timeout) a single task may
    #: accumulate before quarantine.
    max_retries: int = 2
    #: First retry delay in seconds; successive retries of the same
    #: task multiply by ``backoff_factor``.
    backoff: float = 0.05
    backoff_factor: float = 2.0
    #: Worker deaths a single task may cause before it is poison.
    quarantine_after: int = 2
    #: Replacement workers one supervisor may charge to its run
    #: (``None``: twice the initial band).
    max_respawns: Optional[int] = None


DEFAULT_POLICY = SupervisionPolicy()


class TaskSupervisor:
    """Per-run supervision bookkeeping.

    One supervisor serves every ``map`` call of one campaign, so counters
    and the degradation log accumulate campaign-wide -- and no further:
    the next campaign on the same band brings its own.  Task identity
    inside one ``map`` call is the task *index*; because indices repeat
    across calls, per-task failure counts reset at :meth:`begin_map`
    while the totals and the event log persist.

    ``describe`` renders a task message into a stable label for the log
    (the campaign maps cell tasks to their ``cell_id``); ``on_event``
    streams every recorded degradation as it happens (the campaign turns
    these into ``retry`` events on the service stream).
    """

    def __init__(
        self,
        policy: SupervisionPolicy = DEFAULT_POLICY,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        describe: Optional[Callable[[Any], str]] = None,
    ):
        self.policy = policy
        self.on_event = on_event
        self.describe = describe
        #: Campaign-wide counters, reported verbatim in ``degraded``.
        self.retries = 0
        self.timeouts = 0
        self.worker_deaths = 0
        self.respawns = 0
        #: Quarantined task labels -> reason (insertion-ordered).
        self.quarantined: Dict[str, str] = {}
        #: Every degradation, in occurrence order.
        self.events: List[Dict[str, Any]] = []
        # Per-map state (reset by begin_map):
        self._deaths: Dict[int, int] = {}
        self._failures: Dict[int, int] = {}

    # ------------------------------------------------------------ helpers

    def _label(self, index: int, task: Any) -> str:
        if self.describe is not None:
            try:
                return self.describe(task)
            except Exception:  # pragma: no cover - describe is best-effort
                pass
        return f"task-{index}"

    def _record(self, kind: str, index: int, task: Any, **extra: Any) -> None:
        event = {"kind": kind, "task": self._label(index, task), **extra}
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)

    def _verdict(self, index: int, task: Any, reason: str) -> str:
        deaths = self._deaths.get(index, 0)
        failures = self._failures.get(index, 0)
        if deaths >= self.policy.quarantine_after:
            why = f"killed {deaths} workers ({reason})"
        elif failures > self.policy.max_retries:
            why = f"failed {failures} times ({reason})"
        else:
            return RETRY
        self.quarantined[self._label(index, task)] = why
        self._record("quarantine", index, task, reason=why)
        return QUARANTINE

    # ------------------------------------------------------------- verbs

    def begin_map(self) -> None:
        """Reset per-task counts for a fresh ``map`` call (totals and
        the event log persist across calls)."""
        self._deaths = {}
        self._failures = {}

    def worker_died(self, index: int, task: Any) -> str:
        """A worker died executing ``index``; returns RETRY/QUARANTINE."""
        self.worker_deaths += 1
        self._deaths[index] = self._deaths.get(index, 0) + 1
        self._failures[index] = self._failures.get(index, 0) + 1
        self._record(
            "worker_death", index, task, deaths=self._deaths[index]
        )
        return self._verdict(index, task, "worker death")

    def task_timed_out(self, index: int, task: Any) -> str:
        """``index`` exceeded the task timeout; its worker was killed."""
        self.timeouts += 1
        self._failures[index] = self._failures.get(index, 0) + 1
        self._record(
            "timeout",
            index,
            task,
            timeout=self.policy.task_timeout,
            failures=self._failures[index],
        )
        return self._verdict(index, task, "timeout")

    def task_retried(self, index: int, task: Any, delay: float) -> None:
        """The backend scheduled a retry ``delay`` seconds from now."""
        self.retries += 1
        self._record("retry", index, task, delay=round(delay, 3))

    def worker_respawned(self) -> None:
        self.respawns += 1

    # ----------------------------------------------------------- queries

    def backoff_delay(self, index: int) -> float:
        """Exponential backoff for the next retry of ``index``."""
        failures = max(1, self._failures.get(index, 1))
        return self.policy.backoff * (
            self.policy.backoff_factor ** (failures - 1)
        )

    def respawn_allowed(self, initial_workers: int) -> bool:
        """May the backend spawn one more replacement worker?"""
        limit = self.policy.max_respawns
        if limit is None:
            limit = 2 * max(1, initial_workers)
        return self.respawns < limit

    def snapshot(self) -> Dict[str, Any]:
        """The degradation log in report form (the ``degraded`` section's
        supervision half).  Deterministically empty for a clean run."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "quarantined": [
                {"task": label, "reason": reason}
                for label, reason in self.quarantined.items()
            ],
        }

    @property
    def clean(self) -> bool:
        """True when no degradation of any kind was recorded."""
        return not self.events
