"""Parallel conformance campaigns: a fault-scenario matrix over replay.

The paper's conformance checker (§3.4-§3.5) replays random model traces
at the code level one at a time.  A *campaign* turns that demo loop into
a throughput-oriented engine: it enumerates a matrix of

    (direction) x (spec grain) x (scenario prefix) x (fault schedule) x (seed)

cells, fans them across an execution backend
(:mod:`repro.checker.backends`), and merges the
per-cell findings into one deduplicated, fingerprint-keyed report.

The *direction* axis covers the paper's two conformance methodologies:

- ``topdown`` (the default): model-driven replay.  A random model trace
  is replayed at the code level through the
  :class:`~repro.remix.coordinator.Coordinator` (§3.5).
- ``bottomup``: implementation-driven validation (§6's alternative
  approach).  A fresh ensemble (the plugin's ``ensemble_factory``) is
  driven through the scripted scenario + fault prefix and a seeded
  random suffix by the :class:`~repro.remix.trace_validation.ImplExplorer`,
  and every executed label is checked in lockstep against the composed
  model by :class:`~repro.remix.trace_validation.TraceValidator`.
  Bottom-up cells catch the divergences top-down replay structurally
  cannot: implementation steps the model *forbids* (a replayed model
  trace only ever contains model-enabled actions).

A direction is a :class:`~repro.remix.minimize.Direction` record -- how
a run is *derived* from witness metadata and how it is *judged* --
and everything around it exists once.  Each cell (:func:`run_cell`):

1. fetches the scripted scenario prefix + fault schedule from the spec
   cache (:mod:`repro.remix.spec_cache` -- campaign startup is
   O(grains), not O(jobs), because forked workers inherit the warmed
   cache),
2. writes each run's *witness* first -- scenario, fault, roles and a
   seed derived from the cell coordinates -- and derives the run from
   it through the very function the shrink stage rebuilds with
   (top-down: a random model walk from the prefix's state; bottom-up:
   seeded implementation exploration after the prefix's labels),
3. has the direction's judge run it against the implementation
   (top-down: :meth:`Coordinator.replay
   <repro.remix.coordinator.Coordinator.replay>`; bottom-up:
   :meth:`TraceValidator.validate_labels
   <repro.remix.trace_validation.TraceValidator.validate_labels>`), and
4. gets the outcome back as *stable* fingerprints (SHA-1 over a
   canonical JSON form -- reproducible across processes and across
   runs, which is what lets a nightly CI job fail on fingerprints it
   has never seen before), with ``direction: "bottomup"`` inside the
   bottom-up identity so the two directions never collide.

Determinism: cells carry their own seeds, the pool slots results by cell
index, and findings dedup in first-seen cell order -- so ``workers=2``
produces a report identical in findings to ``workers=1``, validation
cells included.

One optional stage turns the detector into a repro factory:
``shrink=True`` adds a post-merge minimization stage: each distinct
finding's first witnessing trace is rebuilt from the metadata stored
in the finding (scenario prefix + fault schedule + suffix seed/steps),
then delta-debugged across the same backend under a
:class:`~repro.remix.minimize.ConformanceOracle` that accepts a
candidate iff it reproduces the *same* fingerprint.  The result is a
``min_trace`` (replayable labels + length) attached to the finding.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
import zlib
from collections.abc import Mapping as ABCMapping
from dataclasses import asdict, dataclass
from dataclasses import field as dataclass_field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checker.backends import ExecutionBackend, create_backend
from repro.checker.backends.supervision import SupervisionPolicy, TaskSupervisor
from repro.remix.journal import CampaignJournal, JournaledBackend
from repro.remix.registry import system_plugin
from repro.remix.request import CampaignRequest
from repro.remix.spec_cache import cached_mapping, cached_prefix, cached_spec
from repro.remix.trace_validation import ValidationReport
from repro.system.plugin import ScenarioError

#: Version tag of the JSON report; bump on breaking schema changes.
#: /2 adds per-finding ``witness`` metadata (suffix seed/steps, enough to
#: re-derive the witnessing trace) and the optional ``min_trace`` payload.
#: /3 adds the ``direction`` axis (bottom-up validation cells), the
#: per-finding ``direction`` field and min_trace ``aliases`` groups.
#: /4 adds the ``degraded`` section (supervision counters, quarantined
#: and skipped cells) and the ``degraded`` cell status.
#: :meth:`CampaignReport.from_json` (and ``--baseline``) accept this
#: version only.
SCHEMA = "repro.campaign/4"

#: Handler spec every execution backend resolves for campaign tasks;
#: the socket backend ships it inside each task frame.
TASK_HANDLER = "repro.remix.campaign:execute_campaign_task"


def config_from_meta(meta: Dict[str, Any]) -> Any:
    """Reconstruct the campaign configuration from a (loaded) report's
    meta block, so min_traces verify against the spec they were produced
    with.  The block's system plugin handles its own legacy quirks (e.g.
    pre-variant ZooKeeper blocks fall back to the default variant)."""
    return system_plugin(meta["system"]).config_from_meta(meta)


# ------------------------------------------------------------ fingerprints


def canonical_value(value: Any) -> Any:
    """Reduce a model/impl value to a JSON-stable canonical form.

    Sets are sorted by their canonical JSON rendering (``repr`` of a
    frozenset depends on hash order, which varies across processes);
    records and dicts sort by key; everything non-primitive falls back
    to ``repr``.
    """
    if isinstance(value, ABCMapping):
        return {
            str(key): canonical_value(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (set, frozenset)):
        items = [canonical_value(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (tuple, list)):
        return [canonical_value(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return repr(value)


def finding_fingerprint(payload: Dict[str, Any]) -> str:
    """A short, stable fingerprint of a finding's identity fields."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


def _cell_seed(job: "CampaignJob", trace_index: int) -> int:
    """A per-trace seed derived from stable cell coordinates (no Python
    ``hash``: that is randomized per process for strings).

    Top-down coordinates keep their historical (direction-free) form so
    /2-era witnesses rebuild unchanged; bottom-up cells of the same
    coordinates prepend the direction and therefore explore differently.
    Non-default systems likewise prepend their name, which keeps every
    ZooKeeper seed stream bit-identical to pre-plugin campaigns.
    """
    coordinates = f"{job.grain}/{job.scenario}/{job.fault}/{job.seed}"
    if job.direction != "topdown":
        coordinates = f"{job.direction}/{coordinates}"
    if job.system != "zookeeper":
        coordinates = f"{job.system}/{coordinates}"
    return (zlib.crc32(coordinates.encode("utf-8")) << 16) ^ (
        job.seed * 1_000_003 + trace_index
    )


def _finding(
    identity: Dict[str, Any], detail: str, **attribution: Any
) -> Dict[str, Any]:
    """The one finding constructor: the fingerprint is a pure function
    of ``identity``; ``detail`` and ``attribution`` (step/run indices and
    the like) stay out of it so re-encounters dedup."""
    return {
        "fingerprint": finding_fingerprint(identity),
        "detail": detail,
        **attribution,
        **identity,
    }


def _impl_bug(error, label, **coordinates: Any) -> Tuple[Dict[str, Any], str]:
    """Identity and detail stem of an implementation exception."""
    identity = {
        "kind": "impl_bug",
        **coordinates,
        "bug_id": error.bug_id,
        "error": type(error).__name__,
        "label": str(label),
    }
    tag = f" [{error.bug_id}]" if error.bug_id else ""
    return identity, f"{identity['error']}{tag} at {identity['label']}"


def trace_findings(result, trace, grain: str) -> List[Dict[str, Any]]:
    """Reduce one top-down replay result to identity-fingerprinted
    finding dicts (the reduction behind
    :meth:`ConformanceOracle.judge
    <repro.remix.minimize.ConformanceOracle.judge>`, so a cell and the
    shrink stage cannot disagree on a fingerprint).

    Top-down identities carry no direction (their historical form, which
    keeps /2-era baselines valid); it rides along as attribution.
    """
    findings: List[Dict[str, Any]] = []
    for discrepancy in result.discrepancies:
        identity = {
            "kind": discrepancy.kind,
            "grain": grain,
            "label": str(discrepancy.label),
            "variable": discrepancy.variable,
            "model": canonical_value(discrepancy.model_value),
            "impl": canonical_value(discrepancy.impl_value),
        }
        findings.append(
            _finding(identity, str(discrepancy), direction="topdown")
        )
    if result.impl_error is not None:
        step = result.impl_error_step or 0
        identity, detail = _impl_bug(
            result.impl_error,
            trace.labels[step] if trace.labels else "",
            grain=grain,
        )
        findings.append(_finding(identity, detail, direction="topdown"))
    return findings


def validation_findings(
    report: ValidationReport, labels, grain: str, run: int = 0
) -> List[Dict[str, Any]]:
    """Reduce the bottom-up validation report of run ``run`` (its
    ``labels``) to fingerprinted findings.

    The identity payload embeds ``direction: "bottomup"``: a bug
    reachable through implementation exploration is a distinct piece of
    conformance evidence from the same bug reached by model replay, and
    keeping the directions' fingerprint spaces disjoint means existing
    top-down baselines are never silently "satisfied" by bottom-up hits.
    """
    findings: List[Dict[str, Any]] = []
    for issue in report.issues:
        identity = {
            "kind": issue.kind,
            "direction": "bottomup",
            "grain": grain,
            "label": str(issue.label),
            "variable": issue.variable,
            "model": canonical_value(issue.model_value),
            "impl": canonical_value(issue.impl_value),
        }
        findings.append(_finding(identity, str(issue), run=issue.run))
    if report.impl_error is not None:
        step = report.impl_error_step
        identity, detail = _impl_bug(
            report.impl_error, labels[step], direction="bottomup", grain=grain
        )
        findings.append(
            _finding(identity, f"{detail} (run {run} step {step})", run=run)
        )
    return findings


# ------------------------------------------------------------ jobs & cells


@dataclass(frozen=True)
class CampaignJob:
    """One cell of the campaign matrix (self-contained and picklable)."""

    index: int
    grain: str
    scenario: str
    fault: str
    seed: int
    traces: int
    max_steps: int
    direction: str = "topdown"
    system: str = "zookeeper"

    @property
    def cell_id(self) -> str:
        base = f"{self.grain}/{self.scenario}/{self.fault}/s{self.seed}"
        if self.direction == "topdown":
            return base  # historical form; /2-era reports stay comparable
        return f"{self.direction}:{base}"


def _skipped_cell(job: CampaignJob) -> Dict[str, Any]:
    return {
        "direction": job.direction,
        "grain": job.grain,
        "scenario": job.scenario,
        "fault": job.fault,
        "seed": job.seed,
        "status": "skipped",
        "traces": 0,
        "steps_replayed": 0,
        "actions_covered": 0,
        "discrepancies": 0,
        "impl_bugs": 0,
        "findings": [],
    }


def run_cell(job: CampaignJob, config: Any) -> Dict[str, Any]:
    """Execute one matrix cell; returns a plain-JSON-able cell record.

    This is the campaign's worker function: it runs identically inline
    and inside a forked or socket worker, and -- every seed being derived
    from the cell coordinates -- it is a pure function of ``(job,
    config)``, so worker count never changes the merged report.

    Each run's witness is written *before* the run exists and the run is
    derived from it by the direction's ``derive`` -- the function
    :func:`~repro.remix.minimize.rebuild_witness` calls -- so what the
    cell judged and what the shrink stage later rebuilds cannot drift.
    """
    from repro.remix.minimize import DIRECTION_TABLE

    direction = DIRECTION_TABLE[job.direction]
    leader = config.n_servers - 1
    follower = 0
    coordinate = (job.scenario, job.fault, leader, follower)
    cell = _skipped_cell(job)
    try:
        prefix = cached_prefix(job.grain, config, *coordinate, system=job.system)
    except ScenarioError as error:
        cell["status"] = "inapplicable"
        cell["reason"] = str(error)
        return cell

    # The coordinate lets a run that starts with the prefix enter past it.
    judge = direction.judge(job.grain, None, config, job.system, coordinate)
    cell["status"] = "ok"
    covered = set()
    findings: List[Dict[str, Any]] = []
    for trace_index in range(job.traces):
        # Enough metadata to re-derive the run without its bytes: the
        # scenario prefix and fault schedule are scripted, the suffix is
        # fully determined by its seed and step budget.
        witness = {
            "direction": job.direction,
            "scenario": job.scenario,
            "fault": job.fault,
            "seed": job.seed,
            "leader": leader,
            "follower": follower,
            direction.seed_key: _cell_seed(job, trace_index),
            direction.steps_key: job.max_steps,
        }
        run = direction.derive(job.grain, witness, config, job.system, prefix)
        witness["steps"] = len(run)
        steps, executed, judged = judge.judge(run, trace_index)
        cell["traces"] += 1
        cell["steps_replayed"] += steps
        covered.update(label.name for label in executed)
        for finding in judged:
            finding["witness"] = dict(witness)
            findings.append(finding)
            if finding["kind"] == "impl_bug":
                cell["impl_bugs"] += 1
            else:
                cell["discrepancies"] += 1
    cell["actions_covered"] = len(covered)
    cell["findings"] = findings
    return cell


def execute_campaign_task(message: Dict[str, Any]) -> Any:
    """Execute one self-describing campaign task message.

    This is the single worker entry point behind *every* execution
    backend (inline, fork, socket) -- one code path per cell is what
    makes the merged report bitwise-identical across backends.  The
    message is plain JSON: it names the system, carries the serialized
    config, and describes either a matrix cell or a shrink job::

        {"kind": "cell", "system": "zookeeper", "config": {...},
         "job": {"index": 0, "grain": "mSpec-1", "scenario": "election",
                 "fault": "none", "seed": 7, "traces": 2,
                 "max_steps": 12, "direction": "topdown",
                 "system": "zookeeper"}}
        {"kind": "shrink", "system": ..., "config": {...},
         "finding": {...}}

    Results are plain JSON too, so the message can travel over any
    transport (a fork pipe, a TCP frame) without pickling.
    """
    system = message.get("system", "zookeeper")
    config = system_plugin(system).config_from_meta(
        {"system": system, "config": message.get("config", {})}
    )
    kind = message.get("kind")
    if kind == "cell":
        return run_cell(CampaignJob(**message["job"]), config)
    if kind == "shrink":
        from repro.remix.minimize import shrink_finding

        return shrink_finding(message["finding"], config, system=system)
    raise ValueError(f"unknown campaign task kind {kind!r}")


# ------------------------------------------------------------ the report


def clean_degraded() -> Dict[str, Any]:
    """The ``degraded`` section of a run nothing went wrong in.

    Deterministically identical across backends and worker counts, so
    the report-identity guarantees survive the schema addition.  Shape
    matches :meth:`TaskSupervisor.snapshot` plus the cell-level lists."""
    return {
        "supervision": {
            "retries": 0,
            "timeouts": 0,
            "worker_deaths": 0,
            "respawns": 0,
            "quarantined": [],
        },
        "quarantined_cells": [],
        "skipped_cells": [],
    }


@dataclass
class CampaignReport:
    """Merged outcome of a campaign: per-cell stats plus deduplicated,
    fingerprint-keyed findings in first-seen order.

    ``degraded`` is the truth-telling section: everything that kept the
    campaign from being a perfectly clean run of the full matrix --
    supervision counters (retries, timeouts, worker deaths, respawns),
    quarantined poison cells, and budget-skipped cells.  A clean run's
    section is :func:`clean_degraded`, bit for bit."""

    meta: Dict[str, Any]
    cells: List[Dict[str, Any]]
    findings: List[Dict[str, Any]]
    degraded: Dict[str, Any] = dataclass_field(default_factory=clean_degraded)

    @property
    def totals(self) -> Dict[str, int]:
        by_status: Dict[str, int] = {}
        for cell in self.cells:
            by_status[cell["status"]] = by_status.get(cell["status"], 0) + 1
        return {
            "cells": len(self.cells),
            "ok": by_status.get("ok", 0),
            "inapplicable": by_status.get("inapplicable", 0),
            "skipped": by_status.get("skipped", 0),
            "degraded": by_status.get("degraded", 0),
            "traces": sum(cell["traces"] for cell in self.cells),
            "steps_replayed": sum(
                cell["steps_replayed"] for cell in self.cells
            ),
            "discrepancies": sum(
                cell["discrepancies"] for cell in self.cells
            ),
            "impl_bugs": sum(cell["impl_bugs"] for cell in self.cells),
            "distinct_findings": len(self.findings),
            "bottomup_findings": sum(
                1
                for finding in self.findings
                if finding.get("direction") == "bottomup"
            ),
            "min_traces": sum(
                1
                for finding in self.findings
                if finding.get("min_trace", {}).get("status") == "ok"
            ),
            "aliased_findings": sum(
                len(finding.get("aliases", ()))
                for finding in self.findings
            ),
        }

    def fingerprints(self, kind: Optional[str] = None) -> List[str]:
        """Finding fingerprints, optionally restricted to one kind
        (``"impl_bug"`` for the nightly regression gate).

        Fingerprints folded into a group representative's ``aliases`` by
        the min-trace dedup still count: an alias is the same underlying
        behaviour, and the baseline gate must keep recognizing it."""
        out: List[str] = []
        for finding in self.findings:
            if kind is None or finding["kind"] == kind:
                out.append(finding["fingerprint"])
            for alias in finding.get("aliases", ()):
                if kind is None or alias.get("kind") == kind:
                    out.append(alias["fingerprint"])
        return out

    def summary(self) -> str:
        totals = self.totals
        degraded = (
            f", {totals['degraded']} degraded" if totals["degraded"] else ""
        )
        return (
            f"campaign: {totals['cells']} cells "
            f"({totals['ok']} ok, {totals['inapplicable']} inapplicable, "
            f"{totals['skipped']} skipped{degraded}), "
            f"{totals['traces']} traces, "
            f"{totals['steps_replayed']} steps replayed, "
            f"{totals['discrepancies']} discrepancies and "
            f"{totals['impl_bugs']} impl-bug reports "
            f"({totals['distinct_findings']} distinct findings, "
            f"{totals['bottomup_findings']} bottom-up, "
            f"{totals['min_traces']} minimized, "
            f"{totals['aliased_findings']} aliased)"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "campaign": self.meta,
            "totals": self.totals,
            "cells": self.cells,
            "findings": self.findings,
            "degraded": self.degraded,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CampaignReport":
        """Load a :data:`SCHEMA` report; any other version is refused."""
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported campaign schema {schema!r} (expected {SCHEMA!r})"
            )
        return cls(
            meta=dict(data["campaign"]),
            cells=list(data["cells"]),
            findings=list(data["findings"]),
            degraded=dict(data["degraded"]),
        )


def merge_cells(
    meta: Dict[str, Any],
    jobs: Sequence[CampaignJob],
    results: Sequence[Optional[Dict[str, Any]]],
) -> CampaignReport:
    """Deterministic merge: cells in matrix order, findings deduplicated
    by fingerprint in first-seen order (counts aggregated)."""
    cells: List[Dict[str, Any]] = []
    merged: Dict[str, Dict[str, Any]] = {}
    for job, result in zip(jobs, results):
        result = result if result is not None else _skipped_cell(job)
        cell = {key: val for key, val in result.items() if key != "findings"}
        cells.append(cell)
        for finding in result.get("findings", ()):
            entry = merged.get(finding["fingerprint"])
            if entry is None:
                entry = dict(finding, count=0, cells=[])
                merged[finding["fingerprint"]] = entry
            entry["count"] += 1
            if job.cell_id not in entry["cells"]:
                entry["cells"].append(job.cell_id)
    return CampaignReport(
        meta=meta, cells=cells, findings=list(merged.values())
    )


def dedup_min_traces(
    findings: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Group findings whose ``min_trace``s shrank to the *same* label
    sequence (per direction and grain) into one finding each.

    Distinct fingerprints frequently minimize to one underlying repro --
    e.g. the same forbidden implementation step reached from different
    cells -- and reporting them separately double-counts the behaviour in
    nightly trend lines.  The first-seen finding becomes the group
    representative; the rest fold into its ``aliases`` list (fingerprint,
    kind, detail, count, cells), which
    :meth:`CampaignReport.fingerprints` still surfaces so baseline gates
    keep recognizing aliased fingerprints.  Deterministic: groups form in
    finding order, so worker count never changes the result.
    """
    groups: Dict[Tuple, Dict[str, Any]] = {}
    out: List[Dict[str, Any]] = []
    for finding in findings:
        min_trace = finding.get("min_trace") or {}
        if min_trace.get("status") != "ok":
            out.append(finding)
            continue
        key = (
            finding["direction"],
            finding.get("grain", ""),
            json.dumps(min_trace["labels"], sort_keys=True),
        )
        head = groups.get(key)
        if head is None:
            groups[key] = finding
            out.append(finding)
        else:
            head.setdefault("aliases", []).append(
                {
                    "fingerprint": finding["fingerprint"],
                    "kind": finding["kind"],
                    "detail": finding.get("detail", ""),
                    "count": finding.get("count", 1),
                    "cells": finding.get("cells", []),
                }
            )
    return out


# ------------------------------------------------------------ the runner


def campaign_jobs(request: CampaignRequest) -> List[CampaignJob]:
    """The full matrix of ``request``, in deterministic enumeration order
    (the direction axis is outermost: all top-down cells, then all
    bottom-up cells)."""
    out: List[CampaignJob] = []
    for direction, grain, scenario, fault, offset in itertools.product(
        request.directions,
        request.grains,
        request.scenarios,
        request.faults,
        range(request.seeds),
    ):
        out.append(
            CampaignJob(
                index=len(out),
                grain=grain,
                scenario=scenario,
                fault=fault,
                seed=request.seed + offset,
                traces=request.traces,
                max_steps=request.max_steps,
                direction=direction,
                system=request.system,
            )
        )
    return out


def _cell_task(request: CampaignRequest, job: CampaignJob) -> Dict[str, Any]:
    """The self-describing task message for one matrix cell (what
    :func:`execute_campaign_task` decodes on the other side of any
    backend's transport)."""
    return {
        "kind": "cell",
        "system": request.system,
        "config": dict(request.config),
        "job": asdict(job),
    }


def _shrink_task(
    request: CampaignRequest, finding: Dict[str, Any]
) -> Dict[str, Any]:
    """The self-describing task message for one shrink job."""
    return {
        "kind": "shrink",
        "system": request.system,
        "config": dict(request.config),
        "finding": dict(finding),
    }


def _attach_min_traces(
    request: CampaignRequest,
    report: CampaignReport,
    backend: ExecutionBackend,
    progress: Optional[Callable[[Dict[str, Any]], None]],
) -> None:
    """The post-merge shrink stage: minimize each distinct finding's
    rebuilt witness across the backend and attach the ``min_trace``.

    Runs outside the wall-clock budget window: the budget governs
    exploration; minimization cost is proportional to the (small)
    number of distinct findings.
    """
    if not report.findings:
        return
    tasks = [_shrink_task(request, finding) for finding in report.findings]

    def on_shrunk(index: int, task: Any, payload: Any) -> None:
        if progress is None or payload is None:
            return
        progress(
            {
                "event": "shrunk",
                "fingerprint": report.findings[index]["fingerprint"],
                "min_trace": payload,
            }
        )

    results = backend.map(tasks, deadline=None, on_result=on_shrunk)
    for finding, payload in zip(report.findings, results):
        finding["min_trace"] = (
            payload if payload is not None else {"status": "skipped"}
        )
    # Distinct fingerprints that shrank to the same label sequence
    # are one behaviour: fold them into alias groups.
    report.findings[:] = dedup_min_traces(report.findings)


def _supervisor(
    request: CampaignRequest,
    progress: Optional[Callable[[Dict[str, Any]], None]],
) -> TaskSupervisor:
    """The campaign's task supervisor: policy from the request, labels
    from cell identity, degradations streamed as events."""

    def label(task: Any) -> str:
        if isinstance(task, dict):
            if task.get("kind") == "cell":
                return CampaignJob(**task["job"]).cell_id
            if task.get("kind") == "shrink":
                return "shrink:" + task["finding"]["fingerprint"]
        return "task"

    def on_event(event: Dict[str, Any]) -> None:
        if progress is None:
            return
        name = "degraded" if event.get("kind") == "quarantine" else "retry"
        progress({"event": name, **event})

    return TaskSupervisor(
        SupervisionPolicy(
            task_timeout=request.task_timeout,
            max_retries=request.task_retries,
        ),
        on_event=on_event,
        describe=label,
    )


def run_campaign(
    request: CampaignRequest,
    *,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    backend: Optional[ExecutionBackend] = None,
) -> CampaignReport:
    """Run one campaign request end to end: enumerate the matrix, fan it
    across an execution backend, merge the report.  The single
    programmatic entry point behind the CLI, the campaign server,
    benchmarks, and tests; it takes a
    :class:`~repro.remix.request.CampaignRequest` -- already normalized
    and validated -- and nothing else.  ``shrink=True`` appends the
    post-merge minimization stage (see the module docstring).

    ``progress`` is the streaming hook: it receives plain-dict events in
    completion order -- ``cell_done`` per finished cell, ``finding`` on
    each first-seen fingerprint, ``shrunk`` per minimized finding,
    ``retry``/``degraded`` per supervised failure -- while the returned
    report depends only on the request (events never influence the
    merge).  The campaign service wraps these into the
    ``repro.campaign.event/1`` wire schema.

    ``journal_dir`` arms crash-safety: completed cell and shrink results
    append durably to ``journal_dir/journal.jsonl`` as they stream out
    of the backend.  ``resume=True`` replays results already journaled
    there for this request (matched by
    :func:`~repro.remix.journal.request_digest`, which ignores
    execution-only fields like workers and backend) instead of
    re-running them -- same index-ordered merge, so the resumed report is
    bitwise-identical to an uninterrupted run.  Replayed cells emit
    ``cell_done`` with ``"replayed": true``.  Without ``resume`` the
    journal is truncated first, so a fresh run never replays stale
    state.

    ``backend`` is a *lent* execution backend (the campaign server's
    resident socket band): this run installs its own supervisor on it
    for the duration (so ``degraded`` counts only this run's failures),
    maps over it and hands it back open, under the supervisor it arrived
    with -- the lender closes it.  Without one the run builds the
    request's backend and closes it, so who built it is who closes it."""
    if not isinstance(request, CampaignRequest):
        raise TypeError(
            "run_campaign takes a CampaignRequest, not "
            f"{type(request).__name__}"
        )
    if resume and journal_dir is None:
        raise ValueError("resume=True requires a journal directory")
    journal = (
        CampaignJournal(journal_dir, request, resume=resume)
        if journal_dir is not None
        else None
    )
    system = request.system
    config = request.config_object()
    started = time.monotonic()
    deadline = None if request.budget is None else started + request.budget
    # Pre-warm the spec cache in the parent: O(grains) compositions,
    # inherited by every forked worker.  Scripted prefixes pre-warm too
    # (O(grains x scenarios x faults), served from the on-disk layer when
    # a previous invocation scripted them), so workers fork with every
    # shared artifact already in memory.
    leader = config.n_servers - 1
    for grain in request.grains:
        cached_spec(grain, config, system=system)
        cached_mapping(grain, system=system)
        for scenario in request.scenarios:
            for fault in request.faults:
                try:
                    cached_prefix(
                        grain, config, scenario, fault, leader, 0, system=system
                    )
                except ScenarioError:
                    pass  # the cell will report itself inapplicable

    supervisor = _supervisor(request, progress)
    lent = backend
    if lent is not None:
        lenders_supervisor = lent.supervisor
        lent.supervisor = supervisor
    else:
        backend = create_backend(
            request.backend,
            TASK_HANDLER,
            request.workers,
            supervisor=supervisor,
            auth_token=request.auth_token,
        )
    if journal is not None:
        backend = JournaledBackend(backend, journal)
    emitted: set = set()

    def on_cell(index: int, task: Dict[str, Any], result: Any) -> None:
        if progress is None:
            return
        job_info = task["job"]
        cell_id = CampaignJob(**job_info).cell_id
        cell = (
            {k: v for k, v in result.items() if k != "findings"}
            if result is not None
            else None
        )
        event = {
            "event": "cell_done",
            "index": job_info["index"],
            "cell_id": cell_id,
            "cell": cell,
        }
        if journal is not None and journal.replayable(("cell", cell_id)):
            event["replayed"] = True
        progress(event)
        for finding in (result or {}).get("findings", ()):
            if finding["fingerprint"] not in emitted:
                emitted.add(finding["fingerprint"])
                progress({"event": "finding", "finding": finding})

    try:
        jobs = campaign_jobs(request)
        results = backend.map(
            [_cell_task(request, job) for job in jobs],
            deadline=deadline,
            on_result=on_cell,
        )
        meta = {
            "system": system,
            "directions": list(request.directions),
            "grains": list(request.grains),
            "scenarios": list(request.scenarios),
            "faults": list(request.faults),
            "seeds": request.seeds,
            "traces_per_cell": request.traces,
            "max_steps": request.max_steps,
            "seed": request.seed,
            "workers": request.workers,
            "budget_seconds": request.budget,
            # No such scheduler; the key stays because bench/ is
            # read-only here and bench/expected.json pins the seed-7
            # report digests byte for byte.
            "adaptive": False,
            "shrink": request.shrink,
            "config": system_plugin(system).config_meta(config),
        }
        report = merge_cells(meta, jobs, results)
        if request.shrink:
            _attach_min_traces(request, report, backend, progress)
        # The truth-telling section: quarantined cells flip from
        # "skipped" (the merge's reading of a None result) to
        # "degraded", and every degradation the supervisor saw is
        # reported.  Clean runs produce clean_degraded() exactly,
        # preserving cross-backend report identity.
        quarantined_cells: List[str] = []
        for job, cell in zip(jobs, report.cells):
            if job.cell_id in supervisor.quarantined:
                cell["status"] = "degraded"
                quarantined_cells.append(job.cell_id)
        report.degraded = {
            "supervision": supervisor.snapshot(),
            "quarantined_cells": quarantined_cells,
            "skipped_cells": [
                job.cell_id
                for job, cell in zip(jobs, report.cells)
                if cell["status"] == "skipped"
            ],
        }
        meta["elapsed_seconds"] = round(time.monotonic() - started, 3)
        return report
    finally:
        if lent is None:
            backend.close()
        else:
            lent.supervisor = lenders_supervisor
            if journal is not None:
                journal.close()


def new_fingerprints(
    report: CampaignReport, baseline: CampaignReport, kind: str = "impl_bug"
) -> List[str]:
    """Fingerprints of ``kind`` present in the report but absent from a
    baseline report (the nightly CI regression gate).

    Both sides go through :meth:`CampaignReport.fingerprints`, so
    fingerprints the baseline stores inside a group representative's
    ``aliases`` count as known: alias grouping depends on which finding
    is seen first, so a later run may promote an aliased fingerprint to
    its own representative -- that is not a new behaviour.
    """
    known = set(baseline.fingerprints(kind))
    return [fp for fp in report.fingerprints(kind) if fp not in known]
