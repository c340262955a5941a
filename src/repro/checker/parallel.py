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
