"""Multiprocessing strategies for the exploration engine.

Two cooperation patterns live here, both clients of one process
substrate -- :class:`~repro.checker.backends.fork.ForkBand` spawns,
reaps and terminates every worker this module starts:

:class:`WorkerPool`
    Round-synchronous frontier sharding for the BFS strategy.  Each
    forked worker keeps a private copy of the visited-fingerprint set;
    every round the parent sends (a) the fingerprints accepted since the
    previous round and (b) a contiguous shard of the frontier.  Workers
    expand their shard, pre-filter successors against their fingerprint
    set, and classify the survivors (invariants, mask, constraint), so
    the parent's serial merge only performs the authoritative dedup and
    bookkeeping.  Because shards partition the frontier in order and the
    merge consumes results in that same order, the outcome is identical
    to the sequential engine on deterministic budgets.

:func:`run_portfolio`
    First-to-find racing for the portfolio strategy: one forked BFS
    contender plus ``workers - 1`` differently-seeded random walkers.

Both require the ``fork`` start method (specifications hold lambdas that
cannot be pickled; forked children inherit them by memory image).  Call
:func:`available` before constructing either.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.checker.backends.fork import ForkBand
from repro.checker.result import CheckResult, Violation
from repro.checker.trace import Trace
from repro.tla.state import State

if TYPE_CHECKING:  # pragma: no cover
    from repro.checker.engine import CompiledSpec, ExplorationEngine, Row
    from repro.tla.spec import Specification


def available() -> bool:
    """True when fork-based worker processes can be used on this host."""
    return "fork" in mp.get_all_start_methods()


# ----------------------------------------------------------- BFS pool


def _bfs_worker_main(conn, core: "CompiledSpec") -> None:
    """Worker loop: receive ``(delta_fps, frontier_shard)``, fold the
    delta into the private visited set, expand the shard against it,
    reply."""
    seen: set = set()
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            delta, rows = message
            seen.update(delta)
            # The shard is (fp, values, known) rows and candidates carry
            # raw value tuples -- exactly what expand_batch takes and
            # returns -- so nothing is converted on either side of the
            # pipe.  Workers adapt their memo layout independently inside
            # expand_batch (fork gives each its own core copy).
            conn.send(core.expand_batch(rows, seen))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class WorkerPool:
    """A fixed band of forked BFS workers with per-worker pipes.

    Task/worker affinity is explicit (worker *i* always receives shard
    *i*), which is what lets each worker maintain an incrementally
    synchronized visited-fingerprint set instead of receiving the full
    set every round.  That private state is also why a lost worker
    cannot be replaced mid-run: :meth:`round` turns the loss into a
    truthful error instead.
    """

    def __init__(self, core: "CompiledSpec", workers: int):
        self.band = ForkBand(workers, core, target=_bfs_worker_main)
        self.rounds = 0

    def round(
        self, delta: List[int], frontier: List["Row"]
    ) -> List[Tuple[int, int, list]]:
        """Expand one frontier layer; results arrive in frontier order.

        A worker found dead raises ``RuntimeError`` naming it, after the
        survivors are reaped."""
        self.rounds += 1
        connections = self.band.connections
        base, extra = divmod(len(frontier), len(connections))
        merged: List[Tuple[int, int, list]] = []
        index = cursor = 0
        try:
            for index, connection in enumerate(connections):
                size = base + (1 if index < extra else 0)
                connection.send((delta, frontier[cursor : cursor + size]))
                cursor += size
            for index, connection in enumerate(connections):
                merged.extend(connection.recv())
        except (EOFError, OSError) as error:
            pid = self.band.pid(connections[index])
            self.band.terminate()
            raise RuntimeError(
                f"BFS worker {index} (pid {pid}) died in round {self.rounds}"
            ) from error
        return merged

    def close(self) -> None:
        self.band.close()


# ------------------------------------------- violations across a pipe


def _rebuild_violation(spec: "Specification", record: Tuple) -> Violation:
    """Invariant predicates and specs hold closures, so a violation
    crosses a pipe as ``(ident, instance, labels, initial values)`` and
    the parent replays it back into a trace."""
    ident, instance, labels, init_values = record
    invariant = next(
        inv for inv in spec.invariants if (inv.ident, inv.instance) == (ident, instance)
    )
    states = spec.replay(labels, State(spec.schema, init_values))
    return Violation(invariant=invariant, trace=Trace(states=states, labels=list(labels)))


# ------------------------------------------------------ portfolio race


def _encode_result(result: CheckResult) -> CheckResult:
    """A copy of ``result`` that can cross a pipe: each violation is
    reduced to its :func:`_rebuild_violation` record."""
    records = [
        (
            violation.invariant.ident,
            violation.invariant.instance,
            list(violation.trace.labels),
            violation.trace.initial.values,
        )
        for violation in result.violations
    ]
    return dataclasses.replace(result, violations=records)


def run_portfolio(engine: "ExplorationEngine") -> CheckResult:
    """Race one BFS contender against seeded random walkers.

    Returns the first result that carries a violation, else the BFS
    result (the only contender able to prove completion) once every
    contender has reported or the time budget lapses.
    """
    specs = [("bfs", engine._spawn("bfs", engine.seed))]
    for index in range(1, engine.workers):
        specs.append(
            (f"walk-{index}", engine._spawn("random", engine.seed + index))
        )
    start = time.monotonic()
    # Worker i runs contender i: the "task" it is sent is its own index.
    band = ForkBand(
        len(specs), lambda index: _encode_result(specs[index][1].run())
    )
    deadline = None if engine.max_time is None else start + engine.max_time + 5.0
    outcomes: Dict[str, CheckResult] = {}
    winner: Optional[CheckResult] = None
    try:
        waiting = {conn: tag for conn, (tag, _) in zip(band.connections, specs)}
        for index, connection in enumerate(waiting):
            band.send(connection, index, index)
        # A contender that dies without reporting (killed, OOM, ...)
        # just leaves the race; with nobody left, stop waiting.
        while waiting and winner is None:
            if deadline is not None and time.monotonic() >= deadline:
                break
            for connection, frame in band.poll(1.0):
                tag = waiting.pop(connection, None)
                if tag is None or frame is None:
                    continue
                _, ok, payload = frame
                if not ok:
                    raise RuntimeError(
                        f"portfolio contender {tag} failed: {payload}"
                    )
                payload.violations = [
                    _rebuild_violation(engine.spec, record)
                    for record in payload.violations
                ]
                outcomes[tag] = payload
                if payload.found_violation:
                    winner = outcomes[tag]
                    break
    finally:
        band.terminate()

    if winner is None:
        winner = outcomes.get("bfs")
    if winner is None and outcomes:
        winner = next(iter(outcomes.values()))
    if winner is None:
        winner = CheckResult(spec_name=engine.spec.name)
        winner.budget_exhausted = "max_time"
    winner.elapsed_seconds = time.monotonic() - start
    return winner
