"""Iterative-deepening depth-first checking (TLC's ``-dfid``).

BFS gives minimal counterexamples but holds the whole frontier in memory;
DFS (``explore(spec, strategy="dfs")``) reaches deep states cheaply at the
cost of non-minimal traces.  Iterating DFS over increasing depth bounds
restores the minimal-depth property of counterexamples.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.checker.engine import explore
from repro.checker.result import CheckResult
from repro.tla.spec import Specification
from repro.tla.state import State


class IterativeDeepeningChecker:
    """DFS with increasing depth bounds."""

    def __init__(
        self,
        spec: Specification,
        max_depth: int = 40,
        step: int = 2,
        max_time: Optional[float] = None,
        mask: Optional[Callable[[State], bool]] = None,
    ):
        self.spec = spec
        self.max_depth = max_depth
        self.step = step
        self.max_time = max_time
        self.mask = mask

    def run(self) -> CheckResult:
        start = time.monotonic()
        last = CheckResult(spec_name=self.spec.name)
        for depth in range(self.step, self.max_depth + 1, self.step):
            remaining = (
                None
                if self.max_time is None
                else max(0.5, self.max_time - (time.monotonic() - start))
            )
            result = explore(
                self.spec,
                strategy="dfs",
                max_depth=depth,
                max_time=remaining,
                mask=self.mask,
            )
            result.elapsed_seconds = time.monotonic() - start
            if result.found_violation or result.budget_exhausted == "max_time":
                return result
            last = result
        return last
