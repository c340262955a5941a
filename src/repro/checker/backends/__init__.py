"""Execution backends for campaign-style task fan-out: one dispatcher,
two worker bands, two decorators.

A backend maps a list of self-describing, JSON-able task messages over
workers and returns results slotted by task index (so the output is
independent of scheduling, worker count, or transport).

- :func:`~repro.checker.backends.dispatch.dispatch` is the one
  supervised scheduling loop: queue, retry backoff, watchdog,
  duplicate guard, deadline skip, respawn budget.
- :class:`~repro.checker.backends.fork.ForkBand` (``fork`` backend) --
  forked workers over pipes; inherit the parent's memory image (warmed
  spec caches, closure handlers).  Cheapest to spawn.
- :class:`~repro.checker.backends.sockets.TcpBand` (``socket`` backend)
  -- worker *subprocesses* (or external joiners) over TCP, executing
  newline-delimited JSON task frames.  The only band that can leave the
  host.
- ``inline`` -- no band at all: tasks run in the calling process (the
  implicit fallback when one worker is requested or fork is
  unavailable).
- Decorators: :class:`~repro.remix.journal.JournaledBackend` wraps a
  backend (replay + durable results);
  :class:`~repro.checker.backends.testing.ChaosBand` wraps a band
  (seeded fault injection; ``chaos`` backend = the TCP band under it).

Every placement executes the same handler on the same task messages
under the same loop, which is what makes a campaign's report
bitwise-identical across backends.
"""

from repro.checker.backends.base import (
    BACKENDS,
    ExecutionBackend,
    InlineBackend,
    create_backend,
    resolve_handler,
)

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "InlineBackend",
    "create_backend",
    "resolve_handler",
]
