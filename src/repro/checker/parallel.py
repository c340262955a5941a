"""Multiprocessing strategies for the exploration engine.

Three cooperation patterns live here, all clients of one process
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

:func:`run_dfs_sharded`
    Depth-1 subtrees dealt across a
    :class:`~repro.checker.backends.fork.ForkBackend` whose handler is a
    closure over the compiled spec (the supervised dispatcher's
    closure-carrying client).

:func:`run_portfolio`
    First-to-find racing for the portfolio strategy: one forked BFS
    contender plus ``workers - 1`` differently-seeded random walkers.

All require the ``fork`` start method (specifications and task closures
hold lambdas that cannot be pickled; forked children inherit them by
memory image).  Call :func:`available` before constructing any.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.checker.backends.fork import ForkBackend, ForkBand
from repro.checker.result import CheckResult, Violation
from repro.checker.trace import Trace
from repro.tla.batch import FrontierBatch
from repro.tla.state import State

if TYPE_CHECKING:  # pragma: no cover
    from repro.checker.engine import CompiledSpec, ExplorationEngine
    from repro.tla.spec import Specification


def available() -> bool:
    """True when fork-based worker processes can be used on this host."""
    return "fork" in mp.get_all_start_methods()


# ----------------------------------------------------------- BFS pool


def _bfs_worker_main(conn, core: "CompiledSpec") -> None:
    """Worker loop: receive (delta_fps, frontier_shard, segments), expand,
    reply.

    ``segments`` selects the dedupe mode per round: ``None`` keeps the
    private visited set incrementally synchronized from ``delta``
    (``--dedupe rounds``); a tuple of shared-memory segment names attaches
    the :class:`~repro.checker.visited.SharedVisitedSet` those names
    describe, so candidate fingerprints dedupe against every worker in
    real time (``--dedupe shared``; ``delta`` arrives empty).
    """
    seen: set = set()
    shared = None
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            delta, entries, segments = message
            if segments is not None:
                from repro.checker import visited

                if shared is None:
                    shared = visited.SharedVisitedSet.attach(segments)
                else:
                    shared.attach_new(segments)
                table = shared
            else:
                seen.update(delta)
                table = seen
            # The shard is already (fp, values, known) rows and candidates
            # carry raw value tuples -- exactly the wire format -- so the
            # batch result ships without any per-candidate conversion.
            # Workers adapt their memo layout independently inside
            # expand_batch (fork gives each its own core copy).
            conn.send(core.expand_batch(FrontierBatch.from_entries(entries), table))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        if shared is not None:
            shared.close()
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
        self,
        delta: List[int],
        frontier: List[Tuple[int, Tuple, int]],
        segments: Optional[Tuple[str, ...]] = None,
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
                connection.send((delta, frontier[cursor : cursor + size], segments))
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


# ------------------------------------------------------- sharded DFS


def run_dfs_sharded(engine: "ExplorationEngine") -> CheckResult:
    """Bounded DFS sharded across forked workers (``--dedupe shared``).

    The parent claims the initial states, expands them one level, and
    deals the depth-1 subtrees round-robin across ``engine.workers``
    forked workers.  All workers share one
    :class:`~repro.checker.visited.SharedVisitedSet`: a state claimed by
    any worker prunes every other worker's subtree in real time, so the
    shards cooperate instead of re-exploring each other's territory
    (the ROADMAP's "shard the DFS visited sets" item).

    Unlike the round-synchronous BFS modes this traversal is *not*
    deterministic across runs -- subtree interleaving depends on
    scheduling -- but reported violations always carry replayable
    traces, and the merge consumes worker results in shard order.
    Like the sequential DFS, the search stops at the first violation
    (each shard stops at its own first; the merge reports the first in
    shard order).  ``max_states`` is split evenly across workers;
    distinct-state accounting sums each worker's successful table
    claims, which a lost compare-and-publish race can overcount by the
    handful of states two workers claimed simultaneously.
    """
    from repro.checker import visited
    from repro.checker.engine import out_of_time

    spec = engine.spec
    core = engine._compile()
    result = CheckResult(spec_name=spec.name)
    start = time.monotonic()
    max_depth = engine.max_depth if engine.max_depth is not None else 40
    table = visited.SharedVisitedSet(visited.suggest_capacity(engine.max_states))
    try:
        roots: List[Tuple] = []
        local_seen: set = set()
        for init in spec.initial_states():
            if (
                engine.max_states is not None
                and result.states_explored >= engine.max_states
            ):
                result.budget_exhausted = "max_states"
                break
            if out_of_time(start, engine.max_time):
                result.budget_exhausted = "max_time"
                break
            fp = core.fingerprinter.of_values(init.values)
            if not table.add(fp):
                continue
            result.states_explored += 1
            viols, masked, ok = core.classify_values(init.values, init)
            if masked:
                continue
            if viols:
                result.violations.append(
                    Violation(
                        invariant=core.invariants[viols[0]],
                        trace=Trace(states=[init], labels=[]),
                    )
                )
                return result
            if not ok or max_depth < 1:
                continue
            ((_, transitions, candidates),) = core.expand_batch(
                FrontierBatch.single(fp, init.values, 0),
                local_seen,
                classify_candidates=False,
            )
            result.transitions += transitions
            for idx, svt, nfp, nknown, _, _, _ in candidates:
                roots.append((svt, nfp, (idx,), init.values, nknown))

        workers = max(1, engine.workers)
        shards = [roots[index::workers] for index in range(workers)]
        share, rem = (None, 0)
        if engine.max_states is not None:
            budget = max(0, engine.max_states - result.states_explored)
            share, rem = divmod(budget, workers)
        time_left = None
        if engine.max_time is not None:
            time_left = max(0.05, engine.max_time - (time.monotonic() - start))
        names = table.descriptors()

        def run_shard(task):
            shard_index, shard = task
            shard_table = visited.SharedVisitedSet.attach(names)
            shard_start = time.monotonic()
            out = {
                "states": 0,
                "transitions": 0,
                "max_depth": 0,
                "violations": [],
                "budget_exhausted": None,
            }
            state_budget = None
            if share is not None:
                state_budget = share + (1 if shard_index < rem else 0)
            throwaway: set = set()
            stack = list(reversed(shard))
            try:
                while stack:
                    if state_budget is not None and out["states"] >= state_budget:
                        out["budget_exhausted"] = "max_states"
                        break
                    if out_of_time(shard_start, time_left):
                        out["budget_exhausted"] = "max_time"
                        break
                    values, fp, chain, init_values, known = stack.pop()
                    if not shard_table.add(fp):
                        continue
                    out["states"] += 1
                    depth = len(chain)
                    if depth > out["max_depth"]:
                        out["max_depth"] = depth
                    viols, masked, ok = core.classify_values(values)
                    if masked:
                        continue
                    if viols:
                        # Mirror the sequential DFS: the search stops at
                        # its first violation.
                        out["violations"].append(
                            (
                                core.invariants[viols[0]].ident,
                                core.invariants[viols[0]].instance,
                                [core.labels[i] for i in chain],
                                init_values,
                            )
                        )
                        break
                    if depth >= max_depth or not ok:
                        continue
                    throwaway.clear()
                    ((_, transitions, candidates),) = core.expand_batch(
                        FrontierBatch.single(fp, values, known),
                        throwaway,
                        classify_candidates=False,
                    )
                    out["transitions"] += transitions
                    for idx, svt, nfp, nknown, _, _, _ in candidates:
                        if nfp not in shard_table:
                            stack.append(
                                (svt, nfp, chain + (idx,), init_values, nknown)
                            )
                out["exhausted_stack"] = not stack
            finally:
                shard_table.close()
            return out

        backend = ForkBackend(run_shard, workers)
        try:
            deadline = None if time_left is None else time.monotonic() + time_left + 5.0
            outcomes = backend.map(list(enumerate(shards)), deadline=deadline)
        finally:
            backend.close()

        exhausted_all = True
        for outcome in outcomes:
            if outcome is None:
                # Deadline-skipped or lost to a worker death: the shard's
                # subtree was not searched, which must be visible in the
                # result rather than passing for a clean partial run.
                exhausted_all = False
                if result.budget_exhausted is None:
                    result.budget_exhausted = "max_time"
                continue
            result.states_explored += outcome["states"]
            result.transitions += outcome["transitions"]
            if outcome["max_depth"] > result.max_depth:
                result.max_depth = outcome["max_depth"]
            if outcome["budget_exhausted"] is not None:
                exhausted_all = False
                if result.budget_exhausted is None:
                    result.budget_exhausted = outcome["budget_exhausted"]
            if not outcome.get("exhausted_stack", False):
                exhausted_all = False
            if result.violations:
                continue  # first violation in shard order wins
            for record in outcome["violations"][:1]:
                result.violations.append(_rebuild_violation(spec, record))
        result.completed = (
            exhausted_all
            and not result.violations
            and result.budget_exhausted is None
        )
    finally:
        table.close()
        result.elapsed_seconds = time.monotonic() - start
    return result


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

    With ``--dedupe shared`` the contenders additionally share one
    visited table: the BFS contender publishes every accepted state and
    the walkers publish every step, so a walker that strays into
    territory the band has already covered cuts its walk short and
    respins somewhere fresh instead of re-walking known states.
    """
    table = None
    if engine.dedupe == "shared":
        from repro.checker import visited

        if visited.available():
            table = visited.SharedVisitedSet(
                visited.suggest_capacity(engine.max_states)
            )
    specs = [("bfs", engine._spawn("bfs", engine.seed))]
    for index in range(1, engine.workers):
        specs.append(
            (f"walk-{index}", engine._spawn("random", engine.seed + index))
        )
    if table is not None:
        for _, contender_engine in specs:
            contender_engine._shared_visited = table.descriptors()
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
        if table is not None:
            table.close()

    if winner is None:
        winner = outcomes.get("bfs")
    if winner is None and outcomes:
        winner = next(iter(outcomes.values()))
    if winner is None:
        winner = CheckResult(spec_name=engine.spec.name)
        winner.budget_exhausted = "max_time"
    winner.elapsed_seconds = time.monotonic() - start
    return winner
