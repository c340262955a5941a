"""Traces: label/state sequences produced by the checkers.

A :class:`Trace` records the action labels from an initial state plus the
resulting state sequence.  Traces are what the conformance checker replays
against the implementation (Section 3.5.2) and what a safety violation is
reported as (the TLC counterexample).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.tla.action import ActionLabel
from repro.tla.state import State


@dataclass
class Trace:
    """A finite behaviour: states[0] -label[0]-> states[1] -> ..."""

    states: List[State]
    labels: List[ActionLabel]

    def __post_init__(self):
        if len(self.states) != len(self.labels) + 1:
            raise ValueError(
                f"{len(self.states)} states need {len(self.states) - 1} labels, "
                f"got {len(self.labels)}"
            )

    def __len__(self) -> int:
        """Number of steps (state transitions)."""
        return len(self.labels)

    @property
    def initial(self) -> State:
        return self.states[0]

    @property
    def final(self) -> State:
        return self.states[-1]

    def steps(self):
        """Iterate (pre-state, label, post-state) triples."""
        for i, label in enumerate(self.labels):
            yield self.states[i], label, self.states[i + 1]
