"""The fork band and the backend that owns one.

Forked workers inherit the parent's memory image, so the handler may be
any callable (closures included) and anything the campaign pre-warmed
(composed specs, scripted prefixes) is free in every worker.  Spawn costs a ``fork()`` and a task round-trip
~39 us, against ~0.67 s and ~74 us for the TCP band -- which is why
this is the default backend; it is also the throughput baseline the
socket backend must match bit-for-bit.

:class:`ForkBand` is also the process/pipe lifecycle behind the BFS
:class:`~repro.checker.parallel.WorkerPool`, which speaks its own frames
over its pipes but spawns, reaps and terminates through it.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.checker.backends.base import ExecutionBackend, ResultHook, resolve_handler
from repro.checker.backends.dispatch import Event, WorkerBand, dispatch
from repro.checker.backends.supervision import TaskSupervisor


def task_worker_main(conn, handler: Callable[[Any], Any]) -> None:
    """Worker loop: receive ``(index, task)``, apply the inherited
    handler, reply ``(index, ok, payload)``; ``None`` is the farewell."""
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            index, task = message
            try:
                conn.send((index, True, handler(task)))
            except Exception as error:  # surfaced in the parent
                conn.send((index, False, repr(error)))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class ForkBand(WorkerBand):
    """Forked worker processes, one pipe each.

    Every worker runs ``target(child_pipe_end, payload)``; with the fork
    start method neither is pickled, so ``payload`` may hold lambdas."""

    def __init__(
        self,
        workers: int,
        payload: Any,
        target: Callable[[Any, Any], None] = task_worker_main,
    ):
        super().__init__(workers)
        self._target = target
        self._payload = payload
        self._process: Dict[Any, Any] = {}  # parent pipe end -> process
        for _ in range(self.workers):
            self.spawn()

    def spawn(self) -> None:
        context = mp.get_context("fork")
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=self._target, args=(child_end, self._payload), daemon=True
        )
        process.start()
        child_end.close()
        self.connections.append(parent_end)
        self._process[parent_end] = process

    def pid(self, conn: Any) -> int:
        return self._process[conn].pid

    def shortfall(self) -> int:
        return self.workers - len(self.connections)

    def await_worker(self) -> bool:
        return bool(self.connections)

    def send(self, conn: Any, index: int, task: Any) -> None:
        conn.send((index, task))

    def poll(self, timeout: float) -> List[Event]:
        events: List[Event] = []
        for conn in mp_connection.wait(self.connections, timeout=timeout):
            try:
                events.append((conn, conn.recv()))
            except (EOFError, OSError):
                self.drop(conn)
                events.append((conn, None))
        return events

    def kill(self, conn: Any) -> bool:
        process = self._process.get(conn)
        if process is None or not process.is_alive():
            return False
        process.kill()
        return True

    def drop(self, conn: Any) -> None:
        """A pipe *is* its worker: dropping one reaps the other."""
        process = self._process.pop(conn, None)
        if process is None:
            return
        if process.is_alive():
            process.kill()
        process.join(timeout=2.0)
        self.connections.remove(conn)
        conn.close()

    def _gone(self, process: Any, timeout: float) -> bool:
        process.join(timeout)
        return not process.is_alive()

    def _shutdown(self, grace: float) -> None:
        for conn in self.connections:
            try:
                conn.send(None)
            except OSError:
                pass
        self._reap(list(self._process.values()), grace)
        for conn in list(self.connections):
            self.drop(conn)


class ForkBackend(ExecutionBackend):
    """Own a :class:`ForkBand`; ``map`` is :func:`dispatch` over it."""

    name = "fork"

    def __init__(
        self,
        handler: Any,
        workers: int,
        supervisor: Optional[TaskSupervisor] = None,
    ):
        self.band: WorkerBand = ForkBand(workers, resolve_handler(handler))
        self.supervisor = supervisor or TaskSupervisor()

    def map(
        self,
        tasks: Sequence[Any],
        deadline: Optional[float] = None,
        on_result: Optional[ResultHook] = None,
    ) -> List[Optional[Any]]:
        return dispatch(self.band, tasks, deadline, on_result, self.supervisor)

    def close(self) -> None:
        self.band.close()
