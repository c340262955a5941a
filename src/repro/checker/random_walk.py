"""Random simulation over a specification's state graph.

The conformance checker (Section 3.5.2) "randomly explores the model-level
state space to obtain a set of traces under a predefined time budget"; this
module is that explorer (a campaign's ``--budget`` is the time budget).
Walks are seeded and therefore reproducible, matching the
deterministic-replay requirement.

Walks step through the exploration engine's one successor path
(:meth:`CompiledSpec.step <repro.checker.engine.CompiledSpec.step>`, i.e.
``expand_batch`` with ``seen=None``): on a trusted spec the generated kernel
replays memoized outcomes and inherited disabled bits, on any other spec
the reference expander enumerates ``Specification.successors`` directly.
A walk encodes its start state once and carries the compile's value codes
from step to step, decoding only the successor it chose (a ``Trace`` holds
``State``s).
The enumeration order and the state-changing filter are identical either
way, so a seeded walk chooses exactly the same label sequence -- the
conformance campaign's finding fingerprints (and its checked-in
baselines) are invariant to the engine wiring.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.checker.engine import CompiledSpec, compiled_for
from repro.checker.trace import Trace
from repro.tla.spec import Specification
from repro.tla.state import State


class RandomWalker:
    """Generates random traces of a specification."""

    def __init__(
        self,
        spec: Specification,
        seed: int = 0,
        compiled: Optional[CompiledSpec] = None,
    ):
        self.spec = spec
        self.rng = random.Random(seed)
        self._core = compiled if compiled is not None else compiled_for(spec)

    def walk(self, max_steps: int = 30, start: Optional[State] = None) -> Trace:
        """One random walk from ``start`` (default: a random initial state).

        Stops early in deadlock states (no enabled action) or when the
        state constraint fails.  Walking from an explicit start state is
        what the conformance campaign uses to randomize the suffix of a
        scripted scenario prefix.
        """
        if start is not None:
            state = start
        else:
            initials = self.spec.initial_states()
            state = self.rng.choice(initials)
        core = self._core
        fp, codes = core.row(state.values)
        known = 0
        states: List[State] = [state]
        labels = []
        for _ in range(max_steps):
            if not self.spec.within_constraint(state):
                break
            chosen = core.step(codes, fp, known, self.rng)
            if chosen is None:
                break
            idx, codes, fp, known = chosen
            state = State(core.schema, core.decode(codes))
            labels.append(core.labels[idx])
            states.append(state)
        return Trace(states=states, labels=labels)

    def traces(self, count: int = 20, max_steps: int = 30) -> List[Trace]:
        """A batch of ``count`` random walks of up to ``max_steps`` steps."""
        return [self.walk(max_steps) for _ in range(count)]
