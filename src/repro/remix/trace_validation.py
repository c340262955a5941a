"""Bottom-up trace validation (the alternative approach of §6).

Remix's conformance checker is *top-down*: model traces are replayed
against the code.  The paper discusses the complementary *bottom-up*
approach used by VYRD, CCF and etcd: generate implementation-level
executions and check that every step is allowed by the model.  This
module implements it over the simulator:

- an :class:`ImplExplorer` drives the ensemble with randomly chosen
  enabled operations (discovered by trying mapped actions on it: a
  refused step changes nothing), optionally from a scripted prefix (a
  campaign scenario + fault schedule) whose fault/txn labels count
  against the model budgets;
- a :class:`TraceValidator` runs the model in lockstep, confirming each
  implementation step corresponds to an enabled model action whose
  post-state matches.

Together with the top-down checker this gives conformance evidence in
both directions; :mod:`repro.remix.campaign` schedules both directions
as cells of the same matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.impl.ensemble import Ensemble
from repro.impl.exceptions import ImplError
from repro.remix.coordinator import (
    COMPARED_VARIABLES,
    CONFIG_LABEL,
    split_compared_variables,
)
from repro.remix.mapping import ActionMapping
from repro.tla.action import ActionLabel
from repro.tla.spec import Specification
from repro.tla.state import State

@dataclass
class ValidationIssue:
    """One implementation step the model does not allow.

    ``run`` is the caller's index of the validated run (a campaign cell
    validates several): step indices restart at 0 every run, so without
    it a finding could not tell which run to rebuild.
    """

    # "model_disabled" | "state_mismatch" | "impl_exception"
    # | "unknown_variable" | "unmapped_action"
    kind: str
    step: int
    label: ActionLabel
    variable: str = ""
    model_value: object = None
    impl_value: object = None
    run: int = 0

    def __str__(self) -> str:
        if self.kind == "state_mismatch":
            return (
                f"run {self.run} step {self.step} ({self.label}): "
                f"{self.variable} -- "
                f"model {self.model_value!r} vs impl {self.impl_value!r}"
            )
        if self.kind == "unknown_variable":
            return (
                f"compared variable {self.variable!r} is absent from the "
                f"implementation snapshot -- its comparison never runs"
            )
        return f"run {self.run} step {self.step} ({self.label}): {self.kind}"


@dataclass
class ValidationReport:
    """The outcome of validating one implementation run."""

    steps_validated: int = 0
    issues: List[ValidationIssue] = field(default_factory=list)
    #: (run, step, label, error) -- the implementation exception that
    #: ended the run.
    impl_errors: List[Tuple[int, int, ActionLabel, ImplError]] = field(
        default_factory=list
    )
    #: The implementation labels that executed before validation stopped.
    executed: List[ActionLabel] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        return (
            f"trace validation: "
            f"{self.steps_validated} impl steps validated, "
            f"{len(self.issues)} issues, "
            f"{len(self.impl_errors)} impl exceptions"
        )


class ImplExplorer:
    """Random exploration of the implementation's behaviours.

    Candidate operations come from the replay mapping's action table; an
    operation is *enabled* when stepping the ensemble through it answers
    True.  The explorer steps the one live ensemble and never copies it:
    the adapter contract (:meth:`repro.system.plugin.SystemPlugin.
    ensemble_factory`) is that a step answering False has changed
    nothing, so a refused candidate needs no undoing and the labels alone
    re-derive the run on a fresh ensemble.
    """

    def __init__(
        self,
        spec: Specification,
        mapping: ActionMapping,
        ensemble_factory: Callable[[], Ensemble],
        seed: int = 0,
        *,
        budgets: Mapping[str, int],
    ):
        """``budgets`` maps budgeted action names to their model bounds
        (the system plugin's ``budget_limits(config)``)."""
        self.spec = spec
        self.mapping = mapping
        self.ensemble_factory = ensemble_factory
        self.rng = random.Random(seed)
        self.budgets = dict(budgets)
        self._labels = [
            inst.label
            for inst in spec.action_instances()
            if mapping.lookup(inst.label) is not None
        ]

    def _try_step(self, ensemble, label) -> bool:
        """Attempt one mapped step on the live ensemble.  True: the step
        executed and ``ensemble`` is the committed state.  False: the
        label is unmapped, names another case of its code-level method
        (``mapped.applies``) or was refused, and ``ensemble`` is
        untouched.  An ``ImplError`` propagates; the partial mutations it
        leaves are the crash state a caller wants to inspect."""
        mapped = self.mapping.lookup(label)
        return (
            mapped is not None
            and mapped.applies(ensemble, label)
            and mapped.step(ensemble, label)
        )

    def explore(
        self, max_steps: int = 20, prefix: Sequence[ActionLabel] = ()
    ) -> Tuple[List[ActionLabel], Ensemble, Optional[ImplError]]:
        """One implementation run: the labels executed, the final
        ensemble, and the exception that ended the run (if any).

        ``prefix`` labels (a campaign scenario + fault schedule) execute
        first, in order; a prefix step that is stuck at the code level
        ends the scripted phase and random exploration continues from
        there.  ``max_steps`` bounds the random suffix only.

        Fault operations are bounded by the model configuration's crash
        and partition budgets: budgets are bounds of the verification
        *model*, so an implementation run must stay within them for the
        lockstep validation to be meaningful.  Prefix fault/txn labels
        count against the same budgets."""
        ensemble = self.ensemble_factory()
        executed: List[ActionLabel] = []
        budgets = self.budgets
        budget_used = {name: 0 for name in budgets}
        label = None
        try:
            for label in prefix:
                if not self._try_step(ensemble, label):
                    break
                executed.append(label)
                if label.name in budget_used:
                    budget_used[label.name] += 1
            for _ in range(max_steps):
                candidates = list(self._labels)
                self.rng.shuffle(candidates)
                for label in candidates:
                    if (
                        label.name in budgets
                        and budget_used[label.name] >= budgets[label.name]
                    ):
                        continue
                    if self._try_step(ensemble, label):
                        executed.append(label)
                        if label.name in budget_used:
                            budget_used[label.name] += 1
                        break
                else:
                    break  # nothing is enabled
        except ImplError as error:
            executed.append(label)
            return executed, ensemble, error
        return executed, ensemble, None


class TraceValidator:
    """Validate implementation runs against the model, in lockstep.

    A validator only judges: the runs come from an :class:`ImplExplorer`
    (or from a shrinker's candidate label sequences)."""

    def __init__(
        self,
        spec: Specification,
        mapping: ActionMapping,
        ensemble_factory: Callable[[], Ensemble],
        compared_variables=COMPARED_VARIABLES,
    ):
        self.spec = spec
        self.mapping = mapping
        self.ensemble_factory = ensemble_factory
        self.compared_variables = tuple(compared_variables)
        self.initial: State = spec.initial_states()[0]
        # Resolved once against the snapshot of a fresh ensemble: a
        # typo'd variable would otherwise silently never be compared
        # (the bug the Coordinator already fixed; shared helper).
        self.known, self.missing = split_compared_variables(
            ensemble_factory().snapshot(), self.compared_variables
        )

    def validate_labels(
        self,
        labels: Sequence[ActionLabel],
        run: int = 0,
        resume: Optional[Tuple[int, Ensemble, State]] = None,
    ) -> ValidationReport:
        """Replay ``labels`` against BOTH the model and a fresh ensemble,
        comparing the compared variables after each step.

        This is the lockstep core behind the campaign's bottom-up cells
        (explored runs) and shrink oracle (candidate subsequences).

        ``resume=(start, ensemble, model state)`` is the resume entry:
        the caller hands over the pair it has already driven through
        ``labels[:start]`` (see :meth:`advance`; the ensemble is mutated)
        and validation enters at step ``start`` instead of step 0 on a
        fresh pair.  Step indices in the report stay those of ``labels``,
        ``steps_validated`` and ``executed`` cover the steps this call
        took, and the configuration-level ``unknown_variable`` issues are
        reported wherever validation starts."""
        start, ensemble, model_state = resume or self.start()
        report = ValidationReport(
            issues=[
                ValidationIssue(
                    "unknown_variable", 0, CONFIG_LABEL, variable, run=run
                )
                for variable in self.missing
            ]
        )
        for step in range(start, len(labels)):
            label = labels[step]
            mapped = self.mapping.lookup(label)
            if mapped is None:
                report.issues.append(
                    ValidationIssue("unmapped_action", step, label, run=run)
                )
                return report
            try:
                ok = mapped.step(ensemble, label)
            except ImplError as exc:
                report.impl_errors.append((run, step, label, exc))
                # the model must agree that this path is an error path:
                # the corresponding model action must lead to an error
                # state (checked by the code-level invariants), or at
                # minimum be enabled.
                inst = self.spec.instance_for(label)
                if inst.apply(self.spec.config, model_state) is None:
                    report.issues.append(
                        ValidationIssue(
                            "model_disabled", step, label, run=run
                        )
                    )
                return report
            if not ok:
                break
            report.executed.append(label)
            inst = self.spec.instance_for(label)
            nxt = inst.apply(self.spec.config, model_state)
            if nxt is None:
                report.issues.append(
                    ValidationIssue("model_disabled", step, label, run=run)
                )
                return report
            model_state = nxt
            report.steps_validated += 1
            impl = ensemble.snapshot()
            for variable in self.known:
                if model_state[variable] != impl[variable]:
                    report.issues.append(
                        ValidationIssue(
                            "state_mismatch",
                            step,
                            label,
                            variable,
                            model_state[variable],
                            impl[variable],
                            run=run,
                        )
                    )
                    return report
        return report

    def start(self) -> Tuple[int, Ensemble, State]:
        """The resume point every validation starts from unless handed
        another: step 0 on a fresh ensemble and the initial model state."""
        return 0, self.ensemble_factory(), self.initial

    def advance(
        self, point: Tuple[int, Ensemble, State], labels
    ) -> Tuple[int, Ensemble, State]:
        """Drive a resume point through ``labels`` without comparing: for
        steps an earlier validation already found clean."""
        step, ensemble, model_state = point
        config = self.spec.config
        for label in labels:
            self.mapping.lookup(label).step(ensemble, label)
            model_state = self.spec.instance_for(label).apply(
                config, model_state
            )
        return step + len(labels), ensemble, model_state
