"""The deterministic-execution coordinator (§3.5.3).

The coordinator takes a model-level trace, schedules the mapped code-level
actions one at a time (no other action runs concurrently -- exactly the
central-coordinator discipline of the paper's RMI-based implementation)
and compares the implementation state against the model state after every
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.checker.trace import Trace
from repro.remix.mapping import ActionMapping
from repro.system.plugin import ImplError
from repro.tla.action import ActionLabel
from repro.tla.state import Schema, State

#: Synthetic label attached to configuration-level discrepancies (an
#: unknown compared variable is detected before any action runs).
CONFIG_LABEL = ActionLabel("<compare-config>")


class Comparison(NamedTuple):
    """A ``compared_variables`` tuple resolved against both sides."""

    #: The compared variables both sides have, in compared order ...
    known: Tuple[str, ...]
    #: ... and the model state slot of each.
    slots: Tuple[int, ...]
    #: ``(variable, the side or sides that lack it)`` for the rest.
    missing: Tuple[Tuple[str, str], ...]
    #: The known variables' values out of a model state's values tuple
    #: and out of a snapshot, in one comparable form (built once).
    model: Callable[[tuple], Any]
    impl: Callable[[dict], Any]


def _projection(keys: tuple) -> Callable[[Any], Any]:
    """``itemgetter(*keys)``, which needs at least one key."""
    return itemgetter(*keys) if keys else (lambda source: ())


def split_compared_variables(
    snapshot, schema: Schema, compared_variables
) -> Comparison:
    """Resolve a ``compared_variables`` tuple against an implementation
    snapshot and the model's schema.

    Shared between the top-down :class:`Coordinator` and the bottom-up
    :class:`~repro.remix.trace_validation.TraceValidator`: both must
    report a typo'd variable instead of silently never comparing it, and
    one the model lacks instead of failing to read it mid-run.
    """
    known: List[str] = []
    slots: List[int] = []
    missing: List[Tuple[str, str]] = []
    for variable in compared_variables:
        absent = [
            side
            for side, names in (
                ("the implementation snapshot", snapshot),
                ("the model schema", schema),
            )
            if variable not in names
        ]
        if absent:
            missing.append((variable, " and ".join(absent)))
        else:
            known.append(variable)
            slots.append(schema.index(variable))
    return Comparison(
        tuple(known),
        tuple(slots),
        tuple(missing),
        _projection(tuple(slots)),
        _projection(tuple(known)),
    )


def mismatches(
    model_state: State, ensemble: Any, comparison: Comparison
) -> List[Tuple[str, Any, Any]]:
    """``(variable, model value, impl value)`` for every known compared
    variable whose two values differ after a step, in compared order --
    the one comparison both lockstep loops make.

    One snapshot and one tuple comparison per step; the variables are
    walked one by one only when the projections differ."""
    impl = ensemble.snapshot()
    values = model_state.values
    if comparison.model(values) == comparison.impl(impl):
        return []
    return [
        (variable, values[slot], impl[variable])
        for variable, slot in zip(comparison.known, comparison.slots)
        if values[slot] != impl[variable]
    ]


@dataclass
class Discrepancy:
    """One model/implementation divergence (§3.5.2's two conditions)."""

    # "state_mismatch" | "action_stuck" | "unmapped_action" | "unknown_variable"
    kind: str
    step: int
    label: ActionLabel
    variable: str = ""
    model_value: object = None
    impl_value: object = None
    #: ``unknown_variable`` only: the side(s) the variable is missing from.
    absent_from: str = ""

    def __str__(self) -> str:
        if self.kind == "state_mismatch":
            return (
                f"step {self.step} ({self.label}): {self.variable} differs -- "
                f"model {self.model_value!r} vs impl {self.impl_value!r}"
            )
        if self.kind == "unknown_variable":
            return (
                f"compared variable {self.variable!r} is absent from "
                f"{self.absent_from} -- its comparison never runs"
            )
        return f"step {self.step} ({self.label}): {self.kind}"


@dataclass
class ReplayResult:
    """Outcome of replaying one model trace at the code level."""

    steps_executed: int = 0
    discrepancies: List[Discrepancy] = field(default_factory=list)
    impl_error: Optional[ImplError] = None
    impl_error_step: Optional[int] = None

    @property
    def clean(self) -> bool:
        return not self.discrepancies and self.impl_error is None


class Coordinator:
    """Replays model traces deterministically on an ensemble."""

    def __init__(
        self,
        mapping: ActionMapping,
        ensemble_factory,
        compared_variables: Sequence[str],
    ):
        self.mapping = mapping
        self.ensemble_factory = ensemble_factory
        self.compared_variables = tuple(compared_variables)
        # The implementation side is read once, off a fresh ensemble; the
        # model side per schema of the traces replayed (one, in practice).
        # A variable either side lacks would otherwise be silently never
        # compared -- or fail to read mid-replay -- so every replay
        # reports it instead.
        self._snapshot = frozenset(ensemble_factory().snapshot())
        self._comparisons: Dict[Schema, Comparison] = {}

    def comparison(self, schema: Schema) -> Comparison:
        """The compared variables resolved against ``schema`` and the
        implementation snapshot."""
        resolved = self._comparisons.get(schema)
        if resolved is None:
            resolved = self._comparisons[schema] = split_compared_variables(
                self._snapshot, schema, self.compared_variables
            )
        return resolved

    def replay(
        self,
        trace: Trace,
        stop_on_discrepancy: bool = True,
        resume: Optional[Tuple[int, Any]] = None,
    ) -> ReplayResult:
        """Drive the implementation through the trace's actions.

        After each scheduled action, every compared variable is checked
        against the model's post-state; a mapped action that is not
        enabled at the code level is an "action never takes place"
        discrepancy.  Implementation exceptions (bug symptoms) abort the
        replay and are reported separately -- they are what confirms a
        model-level safety violation in the code (§3.5.2).

        ``resume=(start, ensemble)`` is the resume entry: the caller
        hands over an ensemble it has already driven through the trace's
        first ``start`` steps (see :meth:`advance`; the replay mutates
        it) and the replay enters at step ``start`` instead of step 0 on
        a fresh ensemble.  Step indices in the result stay those of the
        trace, ``steps_executed`` counts the steps this call executed,
        and the configuration-level ``unknown_variable`` discrepancies
        are reported wherever the replay starts.
        """
        start, ensemble = resume or self.start()
        states, labels = trace.states, trace.labels
        comparison = self.comparison(states[0].schema)
        result = ReplayResult(
            discrepancies=[
                Discrepancy(
                    "unknown_variable", 0, CONFIG_LABEL, variable, absent_from=side
                )
                for variable, side in comparison.missing
            ]
        )
        if result.discrepancies and stop_on_discrepancy:
            return result
        for step in range(start, len(labels)):
            label = labels[step]
            mapped = self.mapping.lookup(label)
            if mapped is None:
                result.discrepancies.append(
                    Discrepancy("unmapped_action", step, label)
                )
                if stop_on_discrepancy:
                    return result
                continue
            try:
                executed = mapped.step(ensemble, label)
            except ImplError as exc:
                result.impl_error = exc
                result.impl_error_step = step
                return result
            if not executed:
                result.discrepancies.append(
                    Discrepancy("action_stuck", step, label)
                )
                if stop_on_discrepancy:
                    return result
                continue
            result.steps_executed += 1
            differ = mismatches(states[step + 1], ensemble, comparison)
            for variable, model_value, impl_value in differ:
                result.discrepancies.append(
                    Discrepancy(
                        "state_mismatch",
                        step,
                        label,
                        variable,
                        model_value,
                        impl_value,
                    )
                )
            if differ and stop_on_discrepancy:
                return result
        return result

    def start(self) -> Tuple[int, Any]:
        """The resume point every replay starts from unless handed
        another: step 0 on a fresh ensemble."""
        return 0, self.ensemble_factory()

    def advance(self, point: Tuple[int, Any], labels) -> Tuple[int, Any]:
        """Drive a resume point through ``labels`` without comparing: for
        steps an earlier replay already found clean."""
        step, ensemble = point
        for label in labels:
            self.mapping.lookup(label).step(ensemble, label)
        return step + len(labels), ensemble
