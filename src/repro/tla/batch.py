"""Array-backed frontier batches for ``CompiledSpec.expand_batch``.

Expansion sweeps a whole BFS round (or a DFS / walk step of size one) in
struct-of-arrays form: parallel columns of fingerprints, value tuples and
inherited known-disabled bitmasks.  ``State`` objects are *not* part of a
batch — they are materialized lazily, only when an action guard or an
invariant actually needs attribute access (memo misses), or when a
trace/violation has to be reported.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Tuple

from repro.tla.state import Schema, State


class FrontierBatch:
    """A struct-of-arrays view over frontier entries.

    Columns (all parallel, one row per pending state):

    - ``fps``: 64-bit state fingerprints,
    - ``values``: raw ``State.values`` tuples,
    - ``knowns``: inherited known-disabled bitmasks (the ``affects``
      propagation; the reference expander ignores them).
    """

    __slots__ = ("fps", "values", "knowns")

    def __init__(
        self,
        fps: Sequence[int],
        values: Sequence[Tuple[Any, ...]],
        knowns: Sequence[int],
    ):
        self.fps = fps
        self.values = values
        self.knowns = knowns

    @classmethod
    def from_entries(
        cls, entries: Iterable[Tuple[int, Tuple[Any, ...], int]]
    ) -> "FrontierBatch":
        """Build a batch from ``(fp, values, known)`` frontier rows (the
        BFS frontier and the WorkerPool wire format)."""
        columns = tuple(zip(*entries))
        return cls(*columns) if columns else cls((), (), ())

    @classmethod
    def single(cls, fp: int, values: Tuple[Any, ...], known: int) -> "FrontierBatch":
        """A batch of one — DFS pops and random-walk steps go through the
        same ``expand_batch`` as whole BFS rounds."""
        return cls((fp,), (values,), (known,))

    def state(self, i: int, schema: Schema) -> State:
        """Materialize row ``i`` as a full ``State`` (trace reporting)."""
        return State(schema, self.values[i])

    def __len__(self) -> int:
        return len(self.fps)

    def __repr__(self) -> str:
        return f"FrontierBatch(n={len(self.fps)})"
