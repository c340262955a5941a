"""The :class:`ExecutionBackend` interface and the inline reference
implementation.

A backend's contract is deliberately small:

- ``map(tasks, deadline=None, on_result=None)`` runs every task through
  the backend's *handler* and returns the results slotted by task
  index.  Tasks not yet dispatched when the ``time.monotonic()``
  ``deadline`` passes are skipped and come back as ``None``; a task
  that raises surfaces as ``RuntimeError("task <i> failed: <repr>")``
  on every backend, inline included.  ``on_result(index,
  task, result)`` fires in *completion* order as results arrive --
  that's the streaming hook the campaign service turns into
  ``cell_done`` events.  It must never change the returned list.
- ``close()`` releases workers/connections; ``map`` may be called any
  number of times before it.
- ``supervisor`` is per *run*, not per backend: a backend that owns a
  worker band consults ``self.supervisor`` (a
  :class:`~repro.checker.backends.supervision.TaskSupervisor`) on every
  ``map``, and whoever runs a series of maps may install their own
  between maps.  That is how one long-lived band serves many campaigns
  (the campaign server lends it out) while each report's ``degraded``
  section counts only its own failures -- and why the supervisor cannot
  be a ``map`` argument: the three-argument signature is the contract
  every wrapper and decorator forwards.

Handlers are named by an importable ``"module:function"`` spec rather
than passed as callables, so a backend whose workers live in fresh
processes (the socket backend) can resolve the same function on the
other side of the wire.  Tasks and results must be JSON-able for the
same reason.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.checker.backends.supervision import TaskSupervisor

#: The backend names ``create_backend`` accepts (``--backend`` on the
#: CLI).  ``inline`` is deliberately absent: it is the implicit
#: fallback, not a user-facing choice.  ``chaos`` is the socket backend
#: wrapped in seeded fault injection (worker kills, dropped
#: connections, delayed/duplicated frames) -- the harness testing
#: itself; reports stay bitwise-identical to a clean run.
BACKENDS = ("fork", "socket", "chaos")

#: Signature of the streaming hook: ``(index, task, result)``.
ResultHook = Callable[[int, Any, Any], None]


def resolve_handler(spec: Any) -> Callable[[Any], Any]:
    """Resolve a ``"module:function"`` handler spec to the callable.

    Already-callable specs pass through untouched (handy for tests and
    for the in-process backends)."""
    if callable(spec):
        return spec
    module_name, _, attr = str(spec).partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"handler spec must look like 'module:function', got {spec!r}"
        )
    handler = getattr(importlib.import_module(module_name), attr)
    if not callable(handler):
        raise ValueError(f"handler {spec!r} resolved to a non-callable")
    return handler


class ExecutionBackend:
    """Abstract base: map self-contained tasks over workers, slot the
    results by index."""

    #: Human-readable backend name (``"inline"``/``"fork"``/``"socket"``).
    name = "abstract"
    #: Failure policy and degradation log of the current run (see the
    #: module docstring); ``None`` where no worker can fail separately
    #: from the caller (inline).
    supervisor: Optional[TaskSupervisor] = None

    def map(
        self,
        tasks: Sequence[Any],
        deadline: Optional[float] = None,
        on_result: Optional[ResultHook] = None,
    ) -> List[Optional[Any]]:
        """Run every task; return results in task order (see module
        docstring for the deadline/error/streaming contract)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers and transport resources (idempotent)."""


class InlineBackend(ExecutionBackend):
    """Run tasks in the calling process, one at a time.

    The reference implementation of the contract, and the fallback when
    parallelism is unavailable or pointless (``workers <= 1``)."""

    name = "inline"

    def __init__(self, handler: Any):
        self._handler = resolve_handler(handler)

    def map(
        self,
        tasks: Sequence[Any],
        deadline: Optional[float] = None,
        on_result: Optional[ResultHook] = None,
    ) -> List[Optional[Any]]:
        results: List[Optional[Any]] = []
        for index, task in enumerate(tasks):
            if deadline is not None and time.monotonic() >= deadline:
                results.append(None)  # skipped: mirrors the dispatcher
                continue
            try:
                result = self._handler(task)
            except Exception as error:  # one error contract for every backend
                raise RuntimeError(f"task {index} failed: {error!r}") from error
            results.append(result)
            if on_result is not None:
                on_result(index, task, result)
        return results


def create_backend(
    name: str, handler: Any, workers: int, **options: Any
) -> ExecutionBackend:
    """Construct the named backend, falling back to inline where the
    named one cannot help.

    ``fork`` degrades to :class:`InlineBackend` when a single worker is
    requested or the platform lacks the ``fork`` start method (the
    historical campaign behaviour).  ``socket`` always builds the real
    thing -- even one worker exercises the wire, which is the point of
    asking for it.  ``chaos`` is the socket backend with its band under
    seeded fault injection
    (:func:`~repro.checker.backends.testing.chaos_backend`).

    ``options`` are forwarded to the backend constructor; a
    ``supervisor`` option (a :class:`~repro.checker.backends
    .supervision.TaskSupervisor`) sets the failure policy of the
    fork and socket backends (default: ``DEFAULT_POLICY``).  Options a backend cannot use (e.g.
    ``auth_token`` for fork, any of them for inline) are dropped, so
    one caller can configure every backend uniformly."""
    if name == "fork":
        from repro.checker import parallel
        from repro.checker.backends.fork import ForkBackend

        if workers > 1 and parallel.available():
            return ForkBackend(
                handler, workers, supervisor=options.get("supervisor")
            )
        return InlineBackend(handler)
    if name == "socket":
        from repro.checker.backends.sockets import SocketBackend

        return SocketBackend(handler, workers, **options)
    if name == "chaos":
        from repro.checker.backends.sockets import SocketBackend
        from repro.checker.backends.testing import chaos_backend

        return chaos_backend(SocketBackend, handler, workers, **options)
    raise ValueError(
        f"unknown execution backend {name!r}; options: {list(BACKENDS)}"
    )
