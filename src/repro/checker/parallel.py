"""Multiprocessing back-ends for the exploration engine.

Three cooperation patterns live here:

:class:`TaskPool`
    A generic fork-based task pool: independent tasks are dispatched
    greedily to a fixed band of workers and results are merged by task
    index, so the output list is independent of scheduling.  The
    conformance campaign (:mod:`repro.remix.campaign`) fans its
    (grain x scenario x fault x seed) matrix through it.

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

All require the ``fork`` start method (specifications and task closures
hold lambdas that cannot be pickled; forked children inherit them by
memory image).  Call :func:`available` before constructing any.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import queue as pyqueue
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checker.result import CheckResult, Violation
from repro.checker.trace import Trace
from repro.tla.batch import FrontierBatch
from repro.tla.state import State

if TYPE_CHECKING:  # pragma: no cover
    from repro.checker.engine import CompiledSpec, ExplorationEngine

#: Hand-off slot for fork inheritance: set immediately before starting a
#: child process, cleared right after.  Forked children read it once.
_HANDOFF: Any = None


def available() -> bool:
    """True when fork-based worker processes can be used on this host."""
    return "fork" in mp.get_all_start_methods()


def default_workers() -> int:
    """A sensible worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


# ------------------------------------------------------ fork-pool base


class ForkPool:
    """A fixed band of forked worker processes with per-worker pipes.

    Subclasses choose the worker loop (``target``) and the payload the
    children inherit through the fork hand-off slot; this base owns the
    process/pipe lifecycle.  The target/payload pair is retained so a
    supervised pool can fork *replacement* workers after a watchdog
    kill (:meth:`spawn_worker`).
    """

    def __init__(self, target: Callable, payload: Any, workers: int):
        self._target = target
        self._payload = payload
        self.connections: list = []
        self.processes: list = []
        self._owner: Dict[int, Any] = {}  # connection fileno -> process
        for _ in range(max(1, workers)):
            self.spawn_worker()

    def spawn_worker(self) -> Any:
        """Fork one (more) worker; returns its parent-side pipe end."""
        global _HANDOFF
        context = mp.get_context("fork")
        _HANDOFF = self._payload
        try:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=self._target, args=(child_end,), daemon=True
            )
            process.start()
            child_end.close()
        finally:
            _HANDOFF = None
        self.connections.append(parent_end)
        self.processes.append(process)
        self._owner[parent_end.fileno()] = process
        return parent_end

    def process_of(self, connection) -> Any:
        """The worker process behind a pipe end (``None`` if reaped)."""
        try:
            return self._owner.get(connection.fileno())
        except OSError:  # pragma: no cover - closed pipe
            return None

    def reap(self, connection) -> None:
        """Kill and join one worker (watchdog path): the task it was
        running has exceeded its deadline, so a graceful shutdown frame
        would never be read."""
        process = self.process_of(connection)
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=2.0)
        try:
            del self._owner[connection.fileno()]
        except (KeyError, OSError):  # pragma: no cover
            pass
        if connection in self.connections:
            self.connections.remove(connection)
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass

    def terminate(self) -> None:
        """Interrupt path: kill and reap every worker *now*.

        Called on SIGINT/SIGTERM (KeyboardInterrupt/SystemExit inside
        :meth:`TaskPool.map`) so a cancelled campaign leaves no orphaned
        worker processes behind; safe to call more than once and
        followed by the usual ``close()``."""
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=1.0)
        for connection in self.connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass
        self.connections = []
        self.processes = []
        self._owner = {}

    def close(self) -> None:
        for connection in self.connections:
            try:
                connection.send(None)
            except (BrokenPipeError, OSError):
                pass
        for process in self.processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover
                process.terminate()
                process.join(timeout=1.0)
        for connection in self.connections:
            connection.close()
        self.connections = []
        self.processes = []
        self._owner = {}


# ------------------------------------------------------ generic task pool


def _task_worker_main(conn) -> None:
    """Worker loop: receive (index, task), apply the inherited function,
    reply (index, ok, payload)."""
    worker_fn: Callable[[Any], Any] = _HANDOFF
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            index, task = message
            try:
                conn.send((index, True, worker_fn(task)))
            except Exception as error:  # surfaced in the parent
                conn.send((index, False, repr(error)))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class TaskPool(ForkPool):
    """Map independent tasks over forked workers, deterministically.

    Dispatch is greedy -- each worker receives a new task as soon as it
    reports the previous one -- but results are slotted by task index,
    so :meth:`map` returns the same list whatever the scheduling or the
    worker count.  Tasks must therefore be self-contained (carry their
    own seeds) and results picklable.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        workers: int,
        supervisor: Optional[Any] = None,
    ):
        """``supervisor`` is an optional
        :class:`~repro.checker.backends.supervision.TaskSupervisor`;
        without one the pool keeps its historical semantics (no
        timeouts, unbounded immediate retries)."""
        super().__init__(_task_worker_main, worker_fn, workers)
        self.supervisor = supervisor
        self._initial_workers = max(1, workers)

    def map(
        self,
        tasks: Sequence[Any],
        deadline: Optional[float] = None,
        on_result: Optional[Callable[[int, Any, Any], None]] = None,
    ) -> List[Optional[Any]]:
        """Run every task; results arrive in task order.

        ``deadline`` is a ``time.monotonic()`` timestamp: tasks not yet
        dispatched when it passes are skipped and come back as ``None``
        (the caller decides how to report them).  A task that raises in
        a worker re-raises here as :class:`RuntimeError`.  A worker that
        dies mid-task (OOM kill, segfault) is dropped and its in-flight
        task requeued onto the survivors; with no survivors the
        remaining tasks come back as ``None``.

        With a supervisor attached, three more rules apply: a task
        running past ``policy.task_timeout`` has its worker killed by
        the watchdog and is retried after exponential backoff; retries
        are bounded; and a poison task (repeated worker kills) is
        quarantined as ``None`` instead of draining the pool.  The pool
        forks replacement workers (bounded by the policy) when failures
        would otherwise leave it empty.

        ``on_result(index, task, result)`` fires in *completion* order
        as results arrive (the streaming hook behind campaign events);
        it never affects the returned list.  On KeyboardInterrupt or
        SystemExit every worker is terminated and reaped before the
        exception propagates -- Ctrl-C never orphans workers.
        """
        try:
            return self._map(tasks, deadline, on_result)
        except (KeyboardInterrupt, SystemExit):
            self.terminate()
            raise

    def _map(
        self,
        tasks: Sequence[Any],
        deadline: Optional[float],
        on_result: Optional[Callable[[int, Any, Any], None]],
    ) -> List[Optional[Any]]:
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.begin_map()
        timeout = (
            supervisor.policy.task_timeout if supervisor is not None else None
        )
        results: List[Optional[Any]] = [None] * len(tasks)
        active: Dict[Any, int] = {}
        started: Dict[Any, float] = {}
        retries: List[Tuple[float, int]] = []  # (ready_at, index)
        next_task = 0

        def pending_work(now: float) -> bool:
            return bool(retries) or next_task < len(tasks)

        def dispatch(connection) -> None:
            nonlocal next_task
            now = time.monotonic()
            while True:
                if retries and retries[0][0] <= now:
                    index = retries.pop(0)[1]
                elif next_task < len(tasks):
                    index = next_task
                    next_task += 1
                    if deadline is not None and now >= deadline:
                        continue  # skipped: stays None
                else:
                    return
                connection.send((index, tasks[index]))
                active[connection] = index
                started[connection] = now
                return

        def ensure_capacity() -> None:
            """Fork a replacement worker when failures emptied the band
            but work remains (supervised pools only, bounded)."""
            if supervisor is None or self.connections:
                return
            if not pending_work(time.monotonic()):
                return
            if not supervisor.respawn_allowed(self._initial_workers):
                return
            supervisor.worker_respawned()
            self.spawn_worker()

        def handle_failure(connection, verdict_fn) -> None:
            """Shared death/timeout bookkeeping: retire the connection,
            then retry (with backoff) or quarantine its task."""
            index = active.pop(connection)
            started.pop(connection, None)
            if supervisor is None:
                retries.append((0.0, index))
                return
            if verdict_fn(index, tasks[index]) == "retry":
                delay = supervisor.backoff_delay(index)
                supervisor.task_retried(index, tasks[index], delay)
                retries.append((time.monotonic() + delay, index))
                retries.sort()
            # quarantine: the slot stays None, recorded by the supervisor.

        for connection in list(self.connections):
            dispatch(connection)
        while active or retries:
            if not active:
                # Only backoff-delayed retries remain: sleep until the
                # first is ready, then feed an idle (possibly respawned)
                # worker.
                ensure_capacity()
                idle = [c for c in self.connections if c not in active]
                if not idle:
                    break  # no workers and no respawn budget: stay None
                wait = max(0.0, retries[0][0] - time.monotonic())
                if wait:
                    time.sleep(min(wait, 0.2))
                for connection in idle:
                    dispatch(connection)
                continue
            tick = 0.2
            if timeout is not None:
                now = time.monotonic()
                expiries = [
                    started[c] + timeout - now for c in active
                ]
                tick = max(0.01, min(0.2, min(expiries)))
            ready = mp_connection.wait(list(active), timeout=tick)
            for connection in ready:
                try:
                    index, ok, payload = connection.recv()
                except (EOFError, OSError):
                    # The worker died without replying: requeue its task
                    # for a surviving worker (or quarantine poison).
                    self.reap(connection)
                    handle_failure(
                        connection,
                        supervisor.worker_died if supervisor else None,
                    )
                    ensure_capacity()
                    continue
                del active[connection]
                started.pop(connection, None)
                if not ok:
                    raise RuntimeError(f"task {index} failed: {payload}")
                results[index] = payload
                if on_result is not None:
                    on_result(index, tasks[index], payload)
                dispatch(connection)
            if timeout is not None:
                now = time.monotonic()
                for connection in [
                    c
                    for c, t0 in started.items()
                    if c in active and now - t0 >= timeout
                ]:
                    # Watchdog: the task ran past its hard deadline; the
                    # worker is wedged, kill it and retry the task.
                    self.reap(connection)
                    handle_failure(connection, supervisor.task_timed_out)
                    ensure_capacity()
            if not active:
                # Workers may be idle after failures: hand them work.
                for connection in [
                    c for c in self.connections if c not in active
                ]:
                    dispatch(connection)
        return results


# ----------------------------------------------------------- BFS pool


def _bfs_worker_main(conn) -> None:
    """Worker loop: receive (delta_fps, frontier_shard, segments), expand,
    reply.

    ``segments`` selects the dedupe mode per round: ``None`` keeps the
    private visited set incrementally synchronized from ``delta``
    (``--dedupe rounds``); a tuple of shared-memory segment names attaches
    the :class:`~repro.checker.visited.SharedVisitedSet` those names
    describe, so candidate fingerprints dedupe against every worker in
    real time (``--dedupe shared``; ``delta`` arrives empty).
    """
    core: "CompiledSpec" = _HANDOFF
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


class WorkerPool(ForkPool):
    """A fixed band of forked BFS workers with per-worker pipes.

    Task/worker affinity is explicit (worker *i* always receives shard
    *i*), which is what lets each worker maintain an incrementally
    synchronized visited-fingerprint set instead of receiving the full
    set every round.
    """

    def __init__(self, core: "CompiledSpec", workers: int):
        super().__init__(_bfs_worker_main, core, workers)

    def round(
        self,
        delta: List[int],
        frontier: List[Tuple[int, Tuple, int]],
        segments: Optional[Tuple[str, ...]] = None,
    ) -> List[Tuple[int, int, list]]:
        """Expand one frontier layer; results arrive in frontier order."""
        shard_count = len(self.connections)
        base, extra = divmod(len(frontier), shard_count)
        shards = []
        cursor = 0
        for index in range(shard_count):
            size = base + (1 if index < extra else 0)
            shards.append(frontier[cursor : cursor + size])
            cursor += size
        for connection, shard in zip(self.connections, shards):
            connection.send((delta, shard, segments))
        merged: List[Tuple[int, int, list]] = []
        for connection in self.connections:
            merged.extend(connection.recv())
        return merged


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

        pool = TaskPool(run_shard, workers)
        try:
            deadline = None if time_left is None else time.monotonic() + time_left + 5.0
            outcomes = pool.map(list(enumerate(shards)), deadline=deadline)
        finally:
            pool.close()

        exhausted_all = True
        by_key = {(inv.ident, inv.instance): inv for inv in spec.invariants}
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
            for ident, instance, labels, init_values in outcome["violations"][:1]:
                initial = State(spec.schema, init_values)
                states = spec.replay(labels, initial)
                result.violations.append(
                    Violation(
                        invariant=by_key[(ident, instance)],
                        trace=Trace(states=states, labels=list(labels)),
                    )
                )
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


def _encode_result(result: CheckResult) -> Dict[str, Any]:
    """Reduce a CheckResult to picklable primitives (invariant predicates
    and specs hold closures, so Violation objects cannot cross a pipe)."""
    violations = []
    for violation in result.violations:
        trace = violation.trace
        violations.append(
            (
                violation.invariant.ident,
                violation.invariant.instance,
                [label for label in trace.labels],
                trace.initial.values,
            )
        )
    return {
        "spec_name": result.spec_name,
        "states_explored": result.states_explored,
        "transitions": result.transitions,
        "max_depth": result.max_depth,
        "elapsed_seconds": result.elapsed_seconds,
        "completed": result.completed,
        "budget_exhausted": result.budget_exhausted,
        "violations": violations,
    }


def _decode_result(engine: "ExplorationEngine", payload: Dict[str, Any]) -> CheckResult:
    spec = engine.spec
    result = CheckResult(spec_name=payload["spec_name"])
    result.states_explored = payload["states_explored"]
    result.transitions = payload["transitions"]
    result.max_depth = payload["max_depth"]
    result.elapsed_seconds = payload["elapsed_seconds"]
    result.completed = payload["completed"]
    result.budget_exhausted = payload["budget_exhausted"]
    by_key = {(inv.ident, inv.instance): inv for inv in spec.invariants}
    for ident, instance, labels, init_values in payload["violations"]:
        initial = State(spec.schema, init_values)
        states = spec.replay(labels, initial)
        result.violations.append(
            Violation(
                invariant=by_key[(ident, instance)],
                trace=Trace(states=states, labels=list(labels)),
            )
        )
    return result


def _portfolio_contender_main(queue, tag: str) -> None:
    engine: "ExplorationEngine" = _HANDOFF
    try:
        result = engine.run()
        queue.put((tag, _encode_result(result)))
    except Exception as error:  # pragma: no cover - surfaced to parent
        queue.put((tag, {"error": repr(error)}))


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
    global _HANDOFF
    context = mp.get_context("fork")
    results_queue = context.Queue()
    contenders = []
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
    for tag, contender in specs:
        _HANDOFF = contender
        try:
            process = context.Process(
                target=_portfolio_contender_main,
                args=(results_queue, tag),
                daemon=True,
            )
            process.start()
        finally:
            _HANDOFF = None
        contenders.append(process)

    deadline = None if engine.max_time is None else start + engine.max_time + 5.0
    outcomes: Dict[str, CheckResult] = {}
    winner: Optional[CheckResult] = None
    try:
        while len(outcomes) < len(specs):
            if deadline is not None and time.monotonic() >= deadline:
                break
            try:
                tag, payload = results_queue.get(timeout=1.0)
            except pyqueue.Empty:
                # No result yet; if every contender died without
                # reporting (killed, OOM, ...), stop waiting instead of
                # hanging on an unbounded get.
                if not any(process.is_alive() for process in contenders):
                    break
                continue
            if "error" in payload:
                raise RuntimeError(
                    f"portfolio contender {tag} failed: {payload['error']}"
                )
            outcomes[tag] = _decode_result(engine, payload)
            if outcomes[tag].found_violation:
                winner = outcomes[tag]
                break
    finally:
        for process in contenders:
            if process.is_alive():
                process.terminate()
        for process in contenders:
            process.join(timeout=2.0)
        results_queue.close()
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
