"""The deterministic-execution coordinator (§3.5.3).

The coordinator takes a model-level trace, schedules the mapped code-level
actions one at a time (no other action runs concurrently -- exactly the
central-coordinator discipline of the paper's RMI-based implementation)
and compares the implementation state against the model state after every
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.checker.trace import Trace
from repro.impl.ensemble import Ensemble
from repro.impl.exceptions import ImplError
from repro.remix.mapping import ActionMapping
from repro.tla.action import ActionLabel

#: Variables compared between model and implementation after each step.
COMPARED_VARIABLES = (
    "state",
    "zab_state",
    "accepted_epoch",
    "current_epoch",
    "history",
    "last_committed",
    "my_leader",
    "newleader_recv",
    "queued_requests",
    "committed_requests",
)


#: Synthetic label attached to configuration-level discrepancies (an
#: unknown compared variable is detected before any action runs).
CONFIG_LABEL = ActionLabel("<compare-config>")


def split_compared_variables(snapshot, compared_variables):
    """Partition a ``compared_variables`` tuple against an implementation
    snapshot: ``(known, missing)``.

    Shared between the top-down :class:`Coordinator` and the bottom-up
    :class:`~repro.remix.trace_validation.TraceValidator`: both must
    report a typo'd variable instead of silently never comparing it.
    """
    known = tuple(v for v in compared_variables if v in snapshot)
    missing = tuple(v for v in compared_variables if v not in snapshot)
    return known, missing


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

    def __str__(self) -> str:
        if self.kind == "state_mismatch":
            return (
                f"step {self.step} ({self.label}): {self.variable} differs -- "
                f"model {self.model_value!r} vs impl {self.impl_value!r}"
            )
        if self.kind == "unknown_variable":
            return (
                f"compared variable {self.variable!r} is absent from the "
                f"implementation snapshot -- its comparison never runs"
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
        compared_variables=COMPARED_VARIABLES,
    ):
        self.mapping = mapping
        self.ensemble_factory = ensemble_factory
        self.compared_variables = tuple(compared_variables)
        # Resolved once against the snapshot of a fresh ensemble: a typo
        # in compared_variables would otherwise silently disable that
        # comparison forever, and every replay reports it.
        self.known, self.missing = split_compared_variables(
            ensemble_factory().snapshot(), self.compared_variables
        )

    def replay(
        self,
        trace: Trace,
        stop_on_discrepancy: bool = True,
        resume: Optional[Tuple[int, Ensemble]] = None,
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
        result = ReplayResult(
            discrepancies=[
                Discrepancy("unknown_variable", 0, CONFIG_LABEL, variable)
                for variable in self.missing
            ]
        )
        if result.discrepancies and stop_on_discrepancy:
            return result
        states = trace.states
        for step in range(start, len(trace.labels)):
            label = trace.labels[step]
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
            mismatches = self._compare(states[step + 1], ensemble, step, label)
            result.discrepancies.extend(mismatches)
            if mismatches and stop_on_discrepancy:
                return result
        return result

    def start(self) -> Tuple[int, Ensemble]:
        """The resume point every replay starts from unless handed
        another: step 0 on a fresh ensemble."""
        return 0, self.ensemble_factory()

    def advance(self, point: Tuple[int, Ensemble], labels) -> Tuple[int, Ensemble]:
        """Drive a resume point through ``labels`` without comparing: for
        steps an earlier replay already found clean."""
        step, ensemble = point
        for label in labels:
            self.mapping.lookup(label).step(ensemble, label)
        return step + len(labels), ensemble

    def _compare(self, model_state, ensemble: Ensemble, step, label):
        impl = ensemble.snapshot()
        out: List[Discrepancy] = []
        for variable in self.known:
            model_value = model_state[variable]
            impl_value = impl[variable]
            if model_value != impl_value:
                out.append(
                    Discrepancy(
                        "state_mismatch",
                        step,
                        label,
                        variable,
                        model_value,
                        impl_value,
                    )
                )
        return out
