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
  finding carries a *replayable* ``min_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checker.random_walk import RandomWalker
from repro.checker.shrink import _try_replay, shrink_labels_oracle
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


def _model_replay(spec) -> Callable:
    """Top-down lift: a candidate is a run only if it replays at the
    model level, from the initial state."""
    initial = spec.initial_states()[0]
    return lambda labels: _try_replay(spec, labels, initial)


# --------------------------------------------------------------- judge
#
# A judge is built per (grain, target fingerprint, config, system).
# ``judge(run, index)`` returns ``(steps, labels executed, findings)``
# and is what a campaign cell calls (with no target: ``fingerprint`` is
# None); ``__call__(run)`` is the shrink oracle -- "the target
# fingerprint is among those findings" -- and alone counts ``replays``.


class ConformanceOracle:
    """The top-down judge: replay a model trace through the coordinator."""

    def __init__(
        self,
        grain: str,
        fingerprint: Optional[str],
        config: Any,
        system: str = "zookeeper",
    ):
        plugin = system_plugin(system)
        self.grain = grain
        self.fingerprint = fingerprint
        self.coordinator = Coordinator(
            cached_mapping(grain, system=system),
            plugin.ensemble_factory(config),
            compared_variables=plugin.compared_variables,
        )
        self.replays = 0

    def judge(self, trace: Trace, index: int = 0) -> Tuple[int, List, List]:
        result = self.coordinator.replay(trace)
        return (
            result.steps_executed,
            trace.labels[: result.steps_executed],
            trace_findings(result, trace, self.grain),
        )

    def __call__(self, trace: Trace) -> bool:
        self.replays += 1
        return any(
            finding["fingerprint"] == self.fingerprint
            for finding in self.judge(trace)[2]
        )


class ValidationOracle:
    """The bottom-up judge: validate a label sequence in lockstep (fresh
    ensemble + fresh model run).

    The candidate is never replayed through the model alone -- a
    bottom-up witness may be model-disabled on purpose (that can be the
    very finding under minimization), so the implementation drives and
    the model only judges."""

    def __init__(
        self,
        grain: str,
        fingerprint: Optional[str],
        config: Any,
        system: str = "zookeeper",
    ):
        plugin = system_plugin(system)
        self.grain = grain
        self.fingerprint = fingerprint
        self.validator = TraceValidator(
            cached_spec(grain, config, system=system),
            cached_mapping(grain, system=system),
            plugin.ensemble_factory(config),
            compared_variables=plugin.compared_variables,
        )
        self.replays = 0

    def judge(self, labels: List, index: int = 0) -> Tuple[int, List, List]:
        # The implementation executed every label of an explorer's run;
        # validation merely stops judging at the first issue, so the
        # labels executed (a cell's coverage) are the whole run.
        report = self.validator.validate_labels(labels, run=index)
        return (
            report.steps_validated,
            labels,
            validation_findings(report, self.grain),
        )

    def __call__(self, labels: List) -> bool:
        self.replays += 1
        return any(
            finding["fingerprint"] == self.fingerprint
            for finding in self.judge(labels)[2]
        )


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
    #: ``lift(spec)(labels)`` turns a candidate back into a run for the
    #: judge -- or None when it is not a run in this direction.
    labels: Callable
    lift: Callable


DIRECTION_TABLE: Dict[str, Direction] = {
    "topdown": Direction(
        seed_key="suffix_seed",
        steps_key="suffix_steps",
        derive=_walk_suffix,
        judge=ConformanceOracle,
        labels=attrgetter("labels"),
        lift=_model_replay,
    ),
    "bottomup": Direction(
        seed_key="explorer_seed",
        steps_key="explorer_steps",
        derive=_explore_suffix,
        judge=ValidationOracle,
        labels=list,
        lift=lambda spec: lambda labels: labels,
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
    lift = direction.lift(cached_spec(grain, config, system=system))

    def reproduces(labels: List) -> bool:
        candidate = lift(labels)
        return candidate is not None and oracle(candidate)

    shrunk = shrink_labels_oracle(
        direction.labels(run), reproduces, max_rounds=max_rounds
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
    run = direction.lift(spec)([inst.label for inst in instances])
    return run is not None and direction.judge(
        grain, finding["fingerprint"], config, system
    )(run)


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
