"""Multi-process BFS for the exploration engine.

:class:`WorkerPool` is round-synchronous frontier sharding, on the one
process substrate -- :class:`~repro.checker.backends.fork.ForkBand`
spawns, reaps and terminates every worker this module starts.  Each
forked worker keeps a private copy of the visited-fingerprint set; every
round the parent sends (a) the fingerprints accepted since the previous
round and (b) a contiguous shard of the frontier.  Workers expand their
shard, pre-filter successors against their fingerprint set, and classify
the survivors (invariants, mask, constraint), so the parent's serial
merge only performs the authoritative dedup and bookkeeping.  Because
shards partition the frontier in order and the merge consumes results in
that same order, the outcome is identical to the sequential engine on
deterministic budgets.

It requires the ``fork`` start method (specifications hold lambdas that
cannot be pickled; forked children inherit them by memory image).  Call
:func:`available` before constructing one.

Value codes are local to one process: each side's value table grows on
its own after the fork, so the same code may name different values in
the parent and in a worker.  Codes therefore never cross a pipe -- the
parent decodes its frontier rows into values before sending, a worker
encodes them on arrival into its own table and replies with each
candidate's changed slots as ``(slot, value)`` pairs, and the parent
encodes just those into the entry row it sent.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import TYPE_CHECKING, List, Tuple

from repro.checker.backends.fork import ForkBand

if TYPE_CHECKING:  # pragma: no cover
    from repro.checker.engine import CompiledSpec, Row


def available() -> bool:
    """True when fork-based worker processes can be used on this host."""
    return "fork" in mp.get_all_start_methods()


# ----------------------------------------------------------- BFS pool


def _changes(core: "CompiledSpec", row: tuple, successor: tuple) -> list:
    """A successor as the ``(slot, value)`` pairs it changed in ``row``."""
    values = core.values
    return [(s, values[s][code]) for s, code in enumerate(successor) if code != row[s]]


def _patched(core: "CompiledSpec", row: tuple, changes: list) -> tuple:
    """``row`` with ``changes`` applied, encoded in ``core``'s table."""
    patched = list(row)
    for slot, value in changes:
        code = core.codes[slot].get(value)
        patched[slot] = core.mint(slot, value) if code is None else code
    return tuple(patched)


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
            # Workers adapt their memo layout independently inside
            # expand_batch (fork gives each its own core copy).
            rows = [(fp, core.encode(row), known) for fp, row, known in rows]
            results = core.expand_batch(rows, seen)
            conn.send(
                [
                    (fp, transitions, [(c[0], _changes(core, row, c[1])) + c[2:] for c in cands])
                    for (fp, transitions, cands), (_, row, _) in zip(results, rows)
                ]
            )
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
        self.core = core
        self.band = ForkBand(workers, core, target=_bfs_worker_main)
        self.rounds = 0

    def round(
        self, delta: List[int], frontier: List["Row"]
    ) -> List[Tuple[int, int, list]]:
        """Expand one frontier layer of code rows; results arrive in
        frontier order, their successors encoded in the parent's table.

        A worker found dead raises ``RuntimeError`` naming it, after the
        survivors are reaped."""
        self.rounds += 1
        core = self.core
        connections = self.band.connections
        base, extra = divmod(len(frontier), len(connections))
        shards = []
        merged: List[Tuple[int, int, list]] = []
        index = cursor = 0
        try:
            for index, connection in enumerate(connections):
                size = base + (1 if index < extra else 0)
                shard = frontier[cursor : cursor + size]
                shards.append(shard)
                rows = [(fp, core.decode(codes), known) for fp, codes, known in shard]
                connection.send((delta, rows))
                cursor += size
            for index, connection in enumerate(connections):
                merged.extend(
                    (fp, transitions, [(c[0], _patched(core, row, c[1])) + c[2:] for c in cands])
                    for (fp, transitions, cands), (_, row, _) in zip(
                        connection.recv(), shards[index]
                    )
                )
        except (EOFError, OSError) as error:
            pid = self.band.pid(connections[index])
            self.band.terminate()
            raise RuntimeError(
                f"BFS worker {index} (pid {pid}) died in round {self.rounds}"
            ) from error
        return merged

    def close(self) -> None:
        self.band.close()
