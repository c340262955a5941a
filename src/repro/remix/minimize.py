"""Conformance directions and campaign repro minimization.

A *direction* is how a trace meets the implementation: a small record
(:class:`Direction`) pairing a **derive** function (witness metadata +
scripted prefix -> the run) with a **judge** (an oracle class that runs
it against the implementation and reduces the outcome to fingerprinted
findings).  ``topdown`` derives a model :class:`Trace` by seeded random
walk and judges it through :meth:`Coordinator.replay
<repro.remix.coordinator.Coordinator.replay>`; ``bottomup`` derives the
labels a seeded :class:`ImplExplorer` executes and judges them through
:meth:`TraceValidator.validate_labels
<repro.remix.trace_validation.TraceValidator.validate_labels>`.
Everything around the pair exists once and looks the direction up:

- a campaign cell (:func:`repro.remix.campaign.run_cell`) writes a
  witness, derives the run from it and has the judge reduce it;
- :func:`rebuild_witness` re-derives a finding's witnessing run from the
  metadata stored in the finding, through the same ``derive`` -- no
  trace bytes travel through the report, and cell and shrinker cannot
  drift;
- :func:`shrink_finding`, the campaign's shrink-stage worker,
  delta-debugs the rebuilt run's labels under the judge, which accepts a
  candidate iff the *same* finding fingerprint is reproduced.  A finding
  is only actionable once its witness is minimal: the paper's workflow
  ends at a trace a developer can replay against the code (e.g.
  ZK-4394's NullPointerException), and the raw witness drags a scripted
  prefix plus a random suffix along;
- :func:`replay_min_trace` / :func:`unreplayable_min_traces` verify a
  report's minimized traces end-to-end (the CI assertion that every
  finding carries a *replayable* ``min_trace``), and
  :func:`reducible_min_traces` that none of them can lose a label.
  They never resume: each judges with a full replay on a fresh
  ensemble, which makes them an independent check on the shrinker.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checker.random_walk import RandomWalker
from repro.checker.shrink import ReplayThenJudge, shrink_labels_oracle
from repro.checker.trace import Trace
from repro.remix.campaign import (
    CampaignReport,
    config_from_meta,
    trace_findings,
    validation_findings,
)
from repro.remix.coordinator import Coordinator
from repro.remix.registry import system_plugin
from repro.remix.spec_cache import cached_mapping, cached_prefix, cached_spec
from repro.remix.trace_validation import ImplExplorer, TraceValidator
from repro.system.plugin import ScenarioError


def _args_to_json(value: Any) -> Any:
    """Label binding values (ints, tuples, frozensets) to JSON-able form.

    Frozensets are tagged (``{"frozenset": [...]}``) so the inverse can
    restore the exact binding value -- ``instance_named`` looks labels
    up by binding equality, so a tuple standing in for a frozenset would
    silently make the min_trace unreplayable.
    """
    if isinstance(value, (tuple, list)):
        return [_args_to_json(item) for item in value]
    if isinstance(value, frozenset):
        return {
            "frozenset": sorted(
                (_args_to_json(item) for item in value), key=repr
            )
        }
    return value


def _args_from_json(value: Any) -> Any:
    """Inverse of :func:`_args_to_json` (JSON lists were tuples)."""
    if isinstance(value, dict) and set(value) == {"frozenset"}:
        return frozenset(_args_from_json(item) for item in value["frozenset"])
    if isinstance(value, list):
        return tuple(_args_from_json(item) for item in value)
    return value


def label_to_json(label) -> Dict[str, Any]:
    """A replayable JSON form of an action label (name + args)."""
    return {
        "name": label.name,
        "args": {key: _args_to_json(val) for key, val in label.binding},
    }


def labels_from_json(spec, entries) -> Optional[List]:
    """Resolve JSON label entries back to the spec's action instances;
    None when any label does not exist at this grain."""
    instances = []
    for entry in entries:
        args = {
            key: _args_from_json(val) for key, val in entry["args"].items()
        }
        inst = spec.instance_named(entry["name"], args)
        if inst is None:
            return None
        instances.append(inst)
    return instances


# -------------------------------------------------------------- derive


def _walk_suffix(grain, witness, config, system, prefix) -> Trace:
    """Top-down: the scripted prefix, then a seeded random model walk
    from its final state."""
    spec = cached_spec(grain, config, system=system)
    suffix = RandomWalker(spec, seed=witness["suffix_seed"]).walk(
        witness["suffix_steps"], start=prefix.state
    )
    return Trace(
        states=prefix.states + suffix.states[1:],
        labels=prefix.labels + suffix.labels,
    )


def _explore_suffix(grain, witness, config, system, prefix) -> List:
    """Bottom-up: the labels a seeded implementation explorer executes,
    the prefix's first and then its random suffix."""
    plugin = system_plugin(system)
    explorer = ImplExplorer(
        cached_spec(grain, config, system=system),
        cached_mapping(grain, system=system),
        plugin.ensemble_factory(config),
        seed=witness["explorer_seed"],
        budgets=plugin.budget_limits(config),
    )
    return explorer.explore(witness["explorer_steps"], prefix=prefix.labels)[0]


# --------------------------------------------------------------- judge
#
# A judge is built per (grain, target fingerprint, config, system).
# ``judge(run, index)`` returns ``(steps, labels executed, findings)``
# from a full lockstep run on a fresh ensemble and is what a campaign
# cell calls (with no target: ``fingerprint`` is None).
# ``__call__(run, keep)`` is the shrink oracle -- "the target fingerprint
# is among those findings" -- and alone counts ``replays``; it resumes
# rather than restarts (:class:`_Resumable`).


class _Resumable:
    """The shrink-oracle half of a judge, shared by both directions: the
    verdict a full replay would give, for less than a full replay.

    ``keep`` is the loop's promise (:func:`shrink_labels_oracle
    <repro.checker.shrink.shrink_labels_oracle>`) that the run's first
    ``keep`` labels are those of the last run accepted here.  Behind it:

    - a *memo* of rejected label sequences.  Accepted sequences strictly
      shrink, so only a rejection can recur; a hit is still counted in
      ``replays`` (the report's ``oracle_replays`` is the number of
      candidates that logically reached the judge, not of physical
      replays) and touches neither the accepted run nor the cursor --
      both describe the last *accepted* run, which a rejection is not;
    - a *cursor*: one lockstep resume point (see ``start``/``advance`` on
      the coordinator and the validator) driven along the accepted run,
      never past the step its finding fired at -- those steps are known
      clean, so they run uncompared.  A candidate is judged on a
      ``clone()`` of the cursor, entering the lockstep loop at ``keep``;
    - *inheritance*: a candidate with ``keep`` beyond the firing step
      shares every step the accepted replay executed, so the replay
      would stop before reaching the cut and the verdict is the accepted
      one.

    A configuration-level finding (``unknown_variable``) fires before
    any step, on every candidate: it has no firing step, no step is
    known clean, and each candidate gets the full replay.
    """

    #: ``labels(run)``: the label sequence of one of this judge's runs.
    labels: Callable

    def __init__(self, fingerprint: Optional[str], lockstep: Any):
        self.fingerprint = fingerprint
        #: The lockstep engine (a coordinator or a validator).  Its
        #: resume points are ``(step, ensemble, *model side)`` tuples.
        self.lockstep = lockstep
        self.replays = 0
        self._rejected: set = set()
        #: The last accepted run's labels and the step the finding fired
        #: at in it (None: nothing accepted yet, or configuration-level).
        self._accepted: Tuple = ()
        self._fired: Optional[int] = None
        #: A resume point along ``_accepted``, at a step <= ``_fired``.
        self._cursor: Optional[Tuple] = None

    def _findings_from(self, run, resume) -> Tuple[List, Optional[int]]:
        """Run the lockstep loop from ``resume`` (None: from scratch);
        the findings and the step the loop stopped at."""
        raise NotImplementedError

    def _probe(self, keep: int) -> Tuple:
        """A resume point at step ``keep`` of the accepted run, the
        caller's to mutate: the cursor is driven there (restarted when it
        is already past -- a new ddmin pass) and cloned."""
        point = self._cursor
        if point is None or point[0] > keep:
            point = self.lockstep.start()
        point = self._cursor = self.lockstep.advance(
            point, self._accepted[point[0] : keep]
        )
        return (keep, point[1].clone()) + point[2:]

    def _reproduces(self, run, keep: int) -> bool:
        self.replays += 1
        labels = tuple(self.labels(run))
        if labels in self._rejected:
            # Nothing else moves: ``_accepted`` and the cursor stay with
            # the last accepted run.
            return False
        if self._fired is not None and keep > self._fired:
            # The replay would stop before it reached the cut.
            self._accepted = labels
            return True
        # No firing step (nothing accepted yet, or a configuration-level
        # finding) means no step known clean: the full replay.
        findings, stopped = self._findings_from(
            run, None if self._fired is None else self._probe(keep)
        )
        hit = next(
            (f for f in findings if f["fingerprint"] == self.fingerprint),
            None,
        )
        if hit is None:
            self._rejected.add(labels)
            return False
        self._accepted = labels
        self._fired = None if hit["kind"] == "unknown_variable" else stopped
        return True


class ConformanceOracle(_Resumable):
    """The top-down judge: replay a model trace through the coordinator."""

    labels = staticmethod(attrgetter("labels"))

    def __init__(
        self,
        grain: str,
        fingerprint: Optional[str],
        config: Any,
        system: str = "zookeeper",
    ):
        plugin = system_plugin(system)
        super().__init__(
            fingerprint,
            Coordinator(
                cached_mapping(grain, system=system),
                plugin.ensemble_factory(config),
                compared_variables=plugin.compared_variables,
            ),
        )
        self.grain = grain

    def judge(self, trace: Trace, index: int = 0) -> Tuple[int, List, List]:
        result = self.lockstep.replay(trace)
        return (
            result.steps_executed,
            trace.labels[: result.steps_executed],
            trace_findings(result, trace, self.grain),
        )

    def _findings_from(self, trace: Trace, resume):
        result = self.lockstep.replay(trace, resume=resume)
        if result.impl_error is not None:
            stopped = result.impl_error_step
        elif result.discrepancies:
            stopped = result.discrepancies[-1].step
        else:
            stopped = None
        return trace_findings(result, trace, self.grain), stopped

    def __call__(self, trace: Trace, keep: int = 0) -> bool:
        return self._reproduces(trace, keep)


class ValidationOracle(_Resumable):
    """The bottom-up judge: validate a label sequence in lockstep
    (ensemble + model run).

    The candidate is never replayed through the model alone -- a
    bottom-up witness may be model-disabled on purpose (that can be the
    very finding under minimization), so the implementation drives and
    the model only judges."""

    labels = staticmethod(list)

    def __init__(
        self,
        grain: str,
        fingerprint: Optional[str],
        config: Any,
        system: str = "zookeeper",
    ):
        plugin = system_plugin(system)
        super().__init__(
            fingerprint,
            TraceValidator(
                cached_spec(grain, config, system=system),
                cached_mapping(grain, system=system),
                plugin.ensemble_factory(config),
                compared_variables=plugin.compared_variables,
            ),
        )
        self.grain = grain

    def judge(self, labels: List, index: int = 0) -> Tuple[int, List, List]:
        # The implementation executed every label of an explorer's run;
        # validation merely stops judging at the first issue, so the
        # labels executed (a cell's coverage) are the whole run.
        report = self.lockstep.validate_labels(labels, run=index)
        return (
            report.steps_validated,
            labels,
            validation_findings(report, self.grain),
        )

    def _findings_from(self, labels: List, resume):
        report = self.lockstep.validate_labels(labels, resume=resume)
        if report.impl_errors:
            stopped = report.impl_errors[-1][1]
        elif report.issues:
            stopped = report.issues[-1].step
        else:
            stopped = None
        return validation_findings(report, self.grain), stopped

    def __call__(self, labels: List, keep: int = 0) -> bool:
        return self._reproduces(labels, keep)


# ----------------------------------------------------------- directions


@dataclass(frozen=True)
class Direction:
    """One conformance methodology: how a run is derived and judged."""

    #: Witness keys of the derive seed and step budget (the historical
    #: per-direction names are part of the report schema).
    seed_key: str
    steps_key: str
    #: ``derive(grain, witness, config, system, prefix) -> run``
    derive: Callable
    #: The oracle class (see "judge" above).
    judge: Callable
    #: ``labels(run)`` is what the shrinker deletes from, and
    #: ``lift(spec, judge)`` makes a ``judge(run, keep)`` the loop's
    #: ``oracle(labels, keep)``: it turns a candidate back into a run for
    #: the judge, or rejects it when it is not a run in this direction.
    labels: Callable
    lift: Callable


DIRECTION_TABLE: Dict[str, Direction] = {
    "topdown": Direction(
        seed_key="suffix_seed",
        steps_key="suffix_steps",
        derive=_walk_suffix,
        judge=ConformanceOracle,
        labels=ConformanceOracle.labels,
        # a candidate is a run only if it replays at the model level
        lift=lambda spec, judge: ReplayThenJudge(
            spec, spec.initial_states()[0], judge
        ),
    ),
    "bottomup": Direction(
        seed_key="explorer_seed",
        steps_key="explorer_steps",
        derive=_explore_suffix,
        judge=ValidationOracle,
        labels=ValidationOracle.labels,
        lift=lambda spec, judge: judge,
    ),
}


def rebuild_witness(
    grain: str,
    witness: Dict[str, Any],
    config: Any,
    system: str = "zookeeper",
):
    """Reconstruct a finding's witnessing run from its stored metadata:
    the scripted prefix + fault, then the direction's ``derive`` under
    the stored seed and step budget -- exactly what the cell executed."""
    prefix = cached_prefix(
        grain,
        config,
        witness["scenario"],
        witness["fault"],
        witness["leader"],
        witness["follower"],
        system=system,
    )
    direction = DIRECTION_TABLE[witness["direction"]]
    return direction.derive(grain, witness, config, system, prefix)


def shrink_finding(
    finding: Dict[str, Any],
    config: Any = None,
    max_rounds: int = 10,
    system: str = "zookeeper",
) -> Dict[str, Any]:
    """The campaign shrink-stage worker: rebuild one distinct finding's
    witness and delta-debug its labels under the direction's judge.

    Returns the ``min_trace`` payload.  ``status`` is ``"ok"`` with
    replayable ``labels`` on success; ``"no_witness"`` for findings from
    pre-/2 reports; ``"unreproducible"`` when the rebuilt witness does
    not reproduce the fingerprint (should not happen -- everything is
    deterministic -- but reported loudly rather than asserted).
    """
    config = config or system_plugin(system).campaign_config()
    witness = finding.get("witness")
    if not witness:
        return {"status": "no_witness"}
    grain = finding["grain"]
    direction = DIRECTION_TABLE[finding["direction"]]
    try:
        run = rebuild_witness(grain, witness, config, system)
    except ScenarioError as error:  # pragma: no cover - defensive
        return {"status": "unreproducible", "reason": str(error)}
    oracle = direction.judge(grain, finding["fingerprint"], config, system)
    if not oracle(run):
        return {"status": "unreproducible", "witness_steps": len(run)}
    shrunk = shrink_labels_oracle(
        direction.labels(run),
        direction.lift(cached_spec(grain, config, system=system), oracle),
        max_rounds=max_rounds,
    )
    return {
        "status": "ok",
        "steps": len(shrunk),
        "witness_steps": len(run),
        "oracle_replays": oracle.replays,
        "labels": [label_to_json(label) for label in shrunk],
    }


def replay_min_trace(
    finding: Dict[str, Any],
    config: Any = None,
    system: str = "zookeeper",
) -> bool:
    """True iff the finding's ``min_trace`` reproduces the finding
    fingerprint end-to-end -- the check CI runs on shrunk reports.

    The labels are lifted to a run of the finding's direction (top-down
    ones must replay from the initial state at the model level;
    bottom-up ones need not, and often must not) and judged at the code
    level."""
    config = config or system_plugin(system).campaign_config()
    min_trace = finding.get("min_trace") or {}
    if min_trace.get("status") != "ok":
        return False
    grain = finding["grain"]
    spec = cached_spec(grain, config, system=system)
    instances = labels_from_json(spec, min_trace["labels"])
    if instances is None:
        return False
    direction = DIRECTION_TABLE[finding["direction"]]
    judge = direction.judge(grain, None, config, system).judge

    def reproduces(run, keep: int) -> bool:
        # Always the full replay on a fresh ensemble: this is the
        # independent check on what the resuming shrinker produced.
        return any(
            judged["fingerprint"] == finding["fingerprint"]
            for judged in judge(run)[2]
        )

    return direction.lift(spec, reproduces)(
        [inst.label for inst in instances], 0
    )


def unreplayable_min_traces(
    report_json: Dict[str, Any], config: Any = None
) -> List[str]:
    """Fingerprints whose ``min_trace`` is missing or fails
    :func:`replay_min_trace`; empty means every finding carries a
    replayable minimal repro.  The config (and system) default to the
    ones recorded in the report's ``campaign`` block, so verification
    runs against the spec the campaign actually used."""
    report = CampaignReport.from_json(report_json)
    if config is None:
        config = config_from_meta(report.meta)
    return [
        finding["fingerprint"]
        for finding in report.findings
        if not replay_min_trace(finding, config, report.meta["system"])
    ]


def reducible_min_traces(
    report_json: Dict[str, Any], config: Any = None
) -> List[Tuple[str, int]]:
    """``(fingerprint, index)`` for every single label of a ``min_trace``
    whose deletion still passes :func:`replay_min_trace`; empty means
    every minimized trace is 1-minimal, which is what the shrinker
    promises for a loop that converged."""
    report = CampaignReport.from_json(report_json)
    if config is None:
        config = config_from_meta(report.meta)
    reducible = []
    for finding in report.findings:
        min_trace = finding.get("min_trace") or {}
        labels = min_trace.get("labels", [])
        for index in range(len(labels)):
            shorter = dict(min_trace, labels=labels[:index] + labels[index + 1 :])
            if replay_min_trace(
                dict(finding, min_trace=shorter), config, report.meta["system"]
            ):
                reducible.append((finding["fingerprint"], index))
    return reducible
