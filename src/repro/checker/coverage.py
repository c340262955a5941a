"""Action coverage statistics (TLC's "coverage" report).

When a specification passes, coverage tells you whether the model
actually exercised every action -- an unfired action usually means a
guard is wrong or a scenario is missing, exactly the class of
specification mistakes conformance checking hunts at the code level.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.checker.engine import compiled_for, out_of_time
from repro.tla.spec import Specification
from repro.tla.state import State


@dataclass
class CoverageReport:
    """Per-action transition counts over the explored state space."""

    spec_name: str
    fired: Counter = field(default_factory=Counter)
    declared: List[str] = field(default_factory=list)
    states_explored: int = 0
    elapsed_seconds: float = 0.0
    complete: bool = False

    def unfired(self) -> List[str]:
        """Actions that never produced a transition."""
        return [name for name in self.declared if self.fired[name] == 0]

    def coverage_fraction(self) -> float:
        if not self.declared:
            return 1.0
        hit = sum(1 for name in self.declared if self.fired[name] > 0)
        return hit / len(self.declared)

    def summary(self) -> str:
        lines = [
            f"[{self.spec_name}] action coverage over "
            f"{self.states_explored} states "
            f"({self.coverage_fraction():.0%} of "
            f"{len(self.declared)} actions fired):"
        ]
        for name in self.declared:
            lines.append(f"  {name}: {self.fired[name]}")
        missing = self.unfired()
        if missing:
            lines.append(f"  UNFIRED: {', '.join(missing)}")
        return "\n".join(lines)


def measure_coverage(
    spec: Specification,
    max_states: Optional[int] = 50_000,
    max_time: Optional[float] = 60.0,
) -> CoverageReport:
    """BFS over the state graph counting transitions per action.

    Reports at most ``max_states`` states, initial states included: the
    run stops at the state that reaches the budget, as the engine's BFS
    does."""
    report = CoverageReport(
        spec_name=spec.name,
        declared=[action.name for action in spec.actions],
    )
    core = compiled_for(spec)
    names = [label.name for label in core.labels]
    start = time.monotonic()
    limit = sys.maxsize if max_states is None else max_states
    seen: Set[int] = set()
    frontier: deque = deque()  # (fp, codes, known_disabled) rows
    for init in spec.initial_states():
        fp, codes = core.row(init.values)
        if fp not in seen and len(seen) < limit:
            seen.add(fp)
            frontier.append((fp, codes, 0))
    while frontier and len(seen) < limit:
        if out_of_time(start, max_time):
            break
        row = frontier.popleft()
        if not spec.within_constraint(State(core.schema, core.decode(row[1]))):
            continue
        # seen=None: every state-changing successor counts as a firing,
        # revisits included.
        ((_, _, candidates),) = core.expand_batch([row], classify_candidates=False)
        for idx, codes, fp, known, _, _ in candidates:
            report.fired[names[idx]] += 1
            if fp not in seen:
                seen.add(fp)
                frontier.append((fp, codes, known))
                if len(seen) >= limit:
                    break
    report.states_explored = len(seen)
    report.elapsed_seconds = time.monotonic() - start
    report.complete = not frontier and len(seen) < limit
    return report
