"""One benchmark pass, in its own interpreter.

The driver starts this module once per pass (``python -m bench.passes
--workload NAME ...``): a fresh process is what one ``repro check`` /
``repro campaign`` / ``repro serve`` invocation is, and it keeps one
pass's warm memos and heap growth out of the next.  The pass builds its
inputs from the workload row and the seed, drives the program through
its public API, checks the outputs it can check without the pinned
answers (the driver owns ``expected.json``), and prints one JSON object
as the last line of stdout.

With ``--trace-out`` the pass runs with ``bench.trace`` installed and
adds the per-layer numbers; the wrappers are removed before any check
runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import socket
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

from bench.reference import reference_s
from bench.trace import Tracer, install
from bench.workloads import HUNTS, SCALES, WORKLOADS


#: Seconds of campaign between two reference samples.
REFERENCE_EVERY_S = 0.25


def _rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


class Pass:
    """What every pass reports, plus the clock the driver started."""

    def __init__(self, spawned_at: float, tracer: Optional[Tracer], verify: bool):
        self.spawned_at = spawned_at
        self.tracer = tracer
        #: Run the independent output checks.  The driver asks the first
        #: pass only: it requires every later pass to produce identical
        #: outputs, so checking them again would only cost time.
        self.verify = verify
        self.setup_s = 0.0
        self.work_s = 0.0
        self.units = 0
        self.attempted = 0
        self.problems: List[str] = []
        self.answers: Dict[str, Any] = {}
        self.latencies: List[float] = []
        self.layer: Dict[str, float] = {}
        self.reference: List[float] = []
        self.paused_s = 0.0
        self._sampled_at = 0.0

    def ready(self) -> None:
        """Set-up is over: everything from process spawn to here."""
        self.setup_s = time.monotonic() - self.spawned_at
        self.sample_reference()

    def sample_reference(self) -> None:
        """How fast the box is right now (``bench/reference.py``).  Called
        on both sides of every timed interval, never inside one."""
        self.reference += [reference_s(), reference_s()]
        self._sampled_at = time.perf_counter()

    def reference_between_events(self, event: Dict[str, Any]) -> None:
        """A campaign ``progress`` hook: a multi-second campaign outlasts
        the box's speed levels, so between two cells -- at most every
        ``REFERENCE_EVERY_S`` -- the clock stops for one more sample
        (``paused_s`` comes off the campaign's time)."""
        now = time.perf_counter()
        if now - self._sampled_at >= REFERENCE_EVERY_S:
            self.reference.append(reference_s())
            self._sampled_at = time.perf_counter()
            self.paused_s += self._sampled_at - now

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def result(self, rss_mb: float) -> Dict[str, Any]:
        return {
            "setup_s": self.setup_s,
            "work_s": self.work_s,
            # what the user waited for: the whole job, or -- when the pass
            # served several requests -- the median request
            "result_s": (statistics.median(self.latencies)
                         if self.latencies else self.work_s),
            "units": self.units,
            "peak_rss_mb": rss_mb,
            "attempted": self.attempted,
            "problems": self.problems,
            "answers": self.answers,
            "latencies": self.latencies,
            "reference_s": statistics.mean(self.reference),
            "layer": self.layer,
        }


# ---------------------------------------------------------------- check


def _check_specs(params: Dict[str, Any], run: Pass):
    """Compose the pass's specs: ``(name, spec, mask, max_states)``."""
    specs = []
    if "hunts" in params:
        from repro.zookeeper import ZkConfig, zk4394_mask
        from repro.zookeeper.specs import SELECTIONS, build_spec

        for bug in params["hunts"]:
            grain, cfg, family, instance, masked = HUNTS[bug]
            config = ZkConfig(max_partitions=0, max_epoch=3, **cfg)
            with run.span("tla.compose"):
                spec = build_spec(grain, SELECTIONS[grain], config)
            spec.invariants = [
                inv for inv in spec.invariants
                if inv.ident == family and inv.instance == instance
            ]
            specs.append((bug, spec, zk4394_mask if masked else None, 500_000))
    else:
        from repro.remix.registry import system_plugin

        plugin = system_plugin(params["system"])
        for grain in params["grains"]:
            spec = plugin.make_spec(grain, plugin.default_config())
            specs.append((f"{grain}@{params['max_states']}", spec, None,
                          params["max_states"]))
    return specs


def check_pass(params: Dict[str, Any], seed: int, workdir: str, run: Pass) -> None:
    """``repro check`` / ``repro bugs``: sequential BFS, compile auto,
    stop at the first violation.  The specs are the whole input, in a
    fixed order -- peak RSS and time both depend on which spec runs
    first, so a seeded order would only add spread; ``seed`` is unused."""
    from repro.checker import ExplorationEngine

    specs = _check_specs(params, run)
    run.ready()

    results = []
    memo = {"lookups": 0, "hits": 0, "guard_lookups": 0, "guard_hits": 0,
            "entries": 0, "demoted": 0}
    for name, spec, mask, max_states in specs:
        started = time.perf_counter()
        engine = ExplorationEngine(
            spec, mask=mask, max_states=max_states, max_time=120.0
        )
        result = engine.run()
        run.work_s += time.perf_counter() - started
        run.sample_reference()
        run.units += result.states_explored
        results.append((name, spec, result))
        if run.tracer is not None and engine.core is not None:
            stats = engine.core.memo_stats()
            for row in stats["outcome_groups"]:
                memo["lookups"] += row["lookups"]
                memo["hits"] += row["hits"]
                memo["entries"] += row["entries"]
            for row in stats["guard_groups"]:
                memo["guard_lookups"] += row["lookups"]
                memo["guard_hits"] += row["hits"]
            memo["demoted"] += len(stats["demoted_groups"])
    if run.tracer is not None:
        run.tracer.restore()
        run.layer.update({
            "engine.memo.outcome_hit_rate": _ratio(memo["hits"], memo["lookups"]),
            "engine.memo.guard_hit_rate":
                _ratio(memo["guard_hits"], memo["guard_lookups"]),
            "engine.memo.entries": memo["entries"],
            "engine.memo.demoted_groups": memo["demoted"],
        })

    run.attempted = len(results)
    for name, spec, result in results:
        answer = {
            "states": result.states_explored,
            "transitions": result.transitions,
            "max_depth": result.max_depth,
            "violation": None,
        }
        violation = result.first_violation
        if violation is not None:
            invariant = violation.invariant
            answer["violation"] = {
                "family": invariant.ident,
                "instance": invariant.instance,
                "depth": violation.depth,
            }
            if run.verify:
                _check_counterexample(name, spec, violation, run)
        run.answers[name] = answer


def _check_counterexample(name: str, spec, violation, run: Pass) -> None:
    """Independent of the engine's memoized verdict: replay the
    counterexample's labels through the interpreted spec and re-evaluate
    the named invariant on every state."""
    invariant, trace = violation.invariant, violation.trace
    states = spec.replay(trace.labels, trace.states[0])
    if invariant.holds(spec.config, states[-1]):
        run.problems.append(
            f"{name}: last state does not violate {invariant.full_name}")
    if not all(invariant.holds(spec.config, s) for s in states[:-1]):
        run.problems.append(f"{name}: counterexample violates "
                            f"{invariant.full_name} before its last state")


# ------------------------------------------------------------- campaign


def _prewarm(request) -> None:
    """The campaign's own pre-warm loop, through the public cache API:
    compose every grain, build every mapping, script (or load from the
    disk layer) every scenario x fault prefix."""
    from repro.remix.spec_cache import cached_mapping, cached_prefix, cached_spec
    from repro.system.plugin import ScenarioError

    config = request.config_object()
    leader = config.n_servers - 1
    for grain in request.grains:
        cached_spec(grain, config, system=request.system)
        cached_mapping(grain, system=request.system)
        for scenario in request.scenarios:
            for fault in request.faults:
                try:
                    cached_prefix(grain, config, scenario, fault, leader, 0,
                                  system=request.system)
                except ScenarioError:
                    pass


def _campaign_request(params: Dict[str, Any], seed: int):
    from repro.remix.request import CampaignRequest

    return CampaignRequest(seed=seed, **params)


def _stripped(report_json: Dict[str, Any]) -> Dict[str, Any]:
    """A report without its one wall-clock field."""
    report_json["campaign"].pop("elapsed_seconds", None)
    return report_json


def _report_checks(name: str, report_json: Dict[str, Any], run: Pass) -> None:
    from repro.remix.minimize import unreplayable_min_traces

    bad_cells = [cell for cell in report_json["cells"]
                 if cell["status"] not in ("ok", "inapplicable")]
    if bad_cells:
        run.problems.append(f"{name}: {len(bad_cells)} cell(s) skipped or degraded")
    unreplayable = unreplayable_min_traces(report_json)
    if unreplayable:
        run.problems.append(f"{name}: min_trace does not replay for {unreplayable}")


def cold_prewarm(params: Dict[str, Any], seed: int, workdir: str, run: Pass) -> None:
    """Pass 0 of the cache-using workloads: pre-warm on an empty disk
    cache, so every timed pass starts with a warm disk and cold memory."""
    from repro.remix import spec_cache

    spec_cache.set_disk_cache_dir(os.path.join(workdir, "cache"))
    request = _campaign_request(params.get("request", params), seed)
    started = time.perf_counter()
    _prewarm(request)
    run.work_s = time.perf_counter() - started
    run.ready()
    run.attempted = 1


def campaign_pass(params: Dict[str, Any], seed: int, workdir: str, run: Pass) -> None:
    """``repro campaign --journal DIR``: one inline worker, shrink on."""
    from repro.remix import campaign, spec_cache

    spec_cache.set_disk_cache_dir(os.path.join(workdir, "cache"))
    request = _campaign_request(params, seed)
    _prewarm(request)
    run.ready()

    warm = spec_cache.stats()
    started = time.perf_counter()
    report = campaign.run_campaign(
        request, journal_dir=os.path.join(workdir, "journal"),
        # not under the tracer: the pauses would sit inside its spans
        progress=None if run.tracer else run.reference_between_events,
    )
    run.work_s = time.perf_counter() - started - run.paused_s
    run.sample_reference()
    stats = spec_cache.stats()
    if run.tracer is not None:
        run.tracer.restore()
    run.layer.update(_cache_layer(stats))
    run.layer["spec_cache.disk_misses_per_warm_request"] = (
        stats["disk_misses"] - warm["disk_misses"]
    )

    report_json = _stripped(report.to_json())
    run.units = run.attempted = len(report_json["cells"])
    run.answers = {
        "digest": _digest(report_json),
        "findings": len(report_json["findings"]),
        "zk4394_impl_bug": any(
            f.get("kind") == "impl_bug" and f.get("bug_id") == "ZK-4394"
            for f in report_json["findings"]
        ),
    }
    if run.verify:
        _report_checks("report", report_json, run)


# ---------------------------------------------------------------- serve


def _request_stream(address, request_json: Dict[str, Any]):
    """One closed-loop request: connect, send, read to end of stream.
    Returns ``(latency to the report event, events, bytes, first
    finding offset or None)``."""
    events = []
    size = 0
    latency = first_finding = None
    started = time.perf_counter()
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall((json.dumps({"request": request_json}) + "\n").encode())
        with sock.makefile("rb") as stream:
            for line in stream:
                now = time.perf_counter() - started
                size += len(line)
                event = json.loads(line)
                events.append(event)
                if event["event"] == "finding" and first_finding is None:
                    first_finding = now
                if event["event"] == "report" and latency is None:
                    latency = now
    return latency, events, size, first_finding


def serve_pass(params: Dict[str, Any], seed: int, workdir: str, run: Pass) -> None:
    """``repro serve``: one resident server, one closed-loop client."""
    from repro.remix import campaign, spec_cache
    from repro.remix.journal import EXECUTION_ONLY_FIELDS
    from repro.remix.service import CampaignServer

    spec_cache.set_disk_cache_dir(os.path.join(workdir, "cache"))
    count = params["requests"]
    requests = [_campaign_request(params["request"], seed + i).to_json()
                for i in range(count + 1)]
    server = CampaignServer(host="127.0.0.1", port=0)
    address = server.start()
    streams = []
    try:
        _request_stream(address, requests[count])  # warm-up, untimed
        run.ready()
        for request_json in requests[:count]:
            streams.append(_request_stream(address, request_json))
            run.sample_reference()
    finally:
        server.stop()
        server.serve_forever()  # joins the accept loop and handlers
    if run.tracer is not None:
        run.tracer.restore()

    run.units = run.attempted = count
    first_findings, disk_misses = [], []
    stream_bytes = stream_events = retries = 0
    for index, (latency, events, size, first_finding) in enumerate(streams):
        kinds = [event["event"] for event in events]
        if (not kinds or kinds[0] != "accepted" or kinds[-1] != "report"
                or kinds.count("report") != 1 or "error" in kinds):
            run.problems.append(f"request {index}: bad event stream {kinds[:3]}..{kinds[-2:]}")
            continue
        run.latencies.append(latency)
        run.work_s += latency
        if first_finding is not None:
            first_findings.append(first_finding)
        disk_misses.append(events[-1]["spec_cache"]["disk_misses"])
        stream_bytes += size
        stream_events += len(events)
        retries += events[-1]["report"]["degraded"]["supervision"]["retries"]
        served = _stripped(events[-1]["report"])
        for field in EXECUTION_ONLY_FIELDS:
            served["campaign"].pop(field, None)
        run.answers[f"request-{index}"] = _digest(served)
        if not run.verify:
            continue
        # The streamed report must be the report: run the same request
        # directly (inline -- reports are identical across backends and
        # worker counts once the execution-only fields are dropped).
        request = _campaign_request(params["request"], seed + index)
        direct = _stripped(campaign.run_campaign(
            request.with_options(backend="fork", workers=1)).to_json())
        for field in EXECUTION_ONLY_FIELDS:
            direct["campaign"].pop(field, None)
        if served != direct:
            run.problems.append(f"request {index}: streamed report differs "
                                f"from a direct run_campaign")
        _report_checks(f"request {index}", served, run)
    run.layer.update(_cache_layer(spec_cache.stats()))
    run.layer.update({"service.stream_bytes": stream_bytes,
                      "service.events": stream_events, "backends.retries": retries})
    if disk_misses:
        run.layer["spec_cache.disk_misses_per_warm_request"] = statistics.mean(disk_misses)
    if first_findings:
        run.layer["campaign.first_finding_s"] = statistics.median(first_findings)


# ---------------------------------------------------- per-layer numbers


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _cache_layer(stats: Dict[str, int]) -> Dict[str, float]:
    return {
        "spec_cache.hit_rate": _ratio(stats["hits"], stats["hits"] + stats["misses"]),
        "spec_cache.disk_hit_rate": _ratio(
            stats["disk_hits"], stats["disk_hits"] + stats["disk_misses"]),
    }


#: per-layer metric -> (span name, aggregate column)
_SPAN_METRICS = {
    "tla.compose_s": ("tla.compose", "total_s"),
    "analysis.kernel_trusted_s": ("analysis.kernel_trusted", "total_s"),
    "tla.codegen.emit_s": ("tla.codegen.emit", "total_s"),
    "engine.compile_s": ("engine.compile", "total_s"),
    "engine.expand_batch_s": ("engine.expand_batch", "total_s"),
    "engine.expand_batch_calls": ("engine.expand_batch", "calls"),
    "engine.loop_self_s": ("engine.run", "self_s"),
    "engine.trace_rebuild_s": ("engine.trace_rebuild", "total_s"),
    "engine.step_s": ("engine.step", "total_s"),
    "campaign.merge_s": ("campaign.merge", "total_s"),
    "campaign.self_s": ("campaign.run", "self_s"),
    "coordinator.replay_s": ("coordinator.replay", "total_s"),
    "validation.explore_s": ("validation.explore", "total_s"),
    "validation.explore_self_s": ("validation.explore", "self_s"),
    "validation.validate_labels_s": ("validation.validate_labels", "total_s"),
    "impl.step_s": ("impl.step", "total_s"),
    "impl.snapshot_s": ("impl.snapshot", "total_s"),
    "minimize.shrink_finding_s": ("minimize.shrink_finding", "total_s"),
    "journal.records": ("journal.record", "calls"),
    "backends.map_s": ("backends.map", "total_s"),
    "service.self_s": ("service.serve_request", "self_s"),
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The traced pass's per-layer numbers, by ``BENCHMARK.json`` name.
    A layer the workload never entered reads 0."""
    rows = tracer.aggregate()
    counts = tracer.counts
    layer = {
        metric: rows.get(span, {}).get(column, 0.0)
        for metric, (span, column) in _SPAN_METRICS.items()
    }
    layer["tla.codegen.kernel_lines"] = counts["tla.codegen.kernel_lines"]
    layer["coordinator.steps_per_s"] = _ratio(
        counts["coordinator.steps"], layer["coordinator.replay_s"])
    explore_ids = {span[0] for span in tracer.named("validation.explore")}
    probes = sum(1 for span in tracer.named("impl.step") if span[4] in explore_ids)
    layer["validation.probe_useful_share"] = _ratio(
        counts["validation.executed_labels"], probes)
    layer["minimize.oracle_calls"] = counts["minimize.oracle_calls"]
    layer["minimize.oracle_accept_share"] = _ratio(
        counts["minimize.oracle_accepts"], counts["minimize.oracle_calls"])
    record = rows.get("journal.record")
    layer["journal.record_us"] = (
        1e6 * record["total_s"] / record["calls"] if record else 0.0)
    parse = rows.get("service.request_parse")
    layer["service.request_parse_us"] = (
        1e6 * parse["total_s"] / parse["calls"] if parse else 0.0)
    firsts = [span[5]["first_result_s"] for span in tracer.named("backends.map")
              if span[5] and "first_result_s" in span[5]]
    layer["backends.first_result_s"] = statistics.median(firsts) if firsts else 0.0
    cells = sorted(end - start for _, _, start, end, _, _ in tracer.named("campaign.cell"))
    if cells:
        layer["campaign.cell_p50_s"] = statistics.median(cells)
        layer["campaign.cell_p90_s"] = cells[min(len(cells) - 1, int(0.9 * len(cells)))]
    # Inline campaigns: the first cell that came back with a finding,
    # measured from the start of run_campaign.
    runs = tracer.named("campaign.run")
    found = [span[3] for span in tracer.named("campaign.cell")
             if span[5] and span[5].get("findings")]
    if runs and found:
        layer["campaign.first_finding_s"] = min(found) - runs[0][2]
    return layer


# ----------------------------------------------------------------- main

KINDS = {"check": check_pass, "campaign": campaign_pass, "serve": serve_pass}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.passes")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--scale", choices=SCALES, default="default")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--cold", action="store_true",
                        help="pass 0: pre-warm the empty disk cache and exit")
    parser.add_argument("--probes", action="store_true",
                        help="run the micro-probes instead of a pass")
    parser.add_argument("--trace-out", help="install bench.trace; append spans here")
    parser.add_argument("--verify", action="store_true",
                        help="also run the independent output checks")
    args = parser.parse_args(argv)

    if args.probes:
        from bench import probes

        print(json.dumps(probes.run_all(args.scale)))
        return 0

    workload = WORKLOADS[args.workload]
    params = workload[args.scale]
    tracer = None
    if args.trace_out:
        tracer = Tracer(args.pass_id)
        install(tracer)
    run = Pass(args.spawned_at, tracer, args.verify)
    body = cold_prewarm if args.cold else KINDS[workload["kind"]]
    try:
        body(params, args.seed, args.workdir, run)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        measured = run.layer
        run.layer = layer_metrics(tracer)
        run.layer.update(measured)
        run.layer["spans"] = tracer.aggregate()
        tracer.write(args.trace_out)
    children = _rss_mb(resource.RUSAGE_CHILDREN) if workload["kind"] == "serve" else 0.0
    print(json.dumps(run.result(_rss_mb() + children)), flush=True)
    # Skip interpreter teardown: freeing a pass's memo tables costs ~0.25 s
    # that buys nothing, and the driver's time budget is better spent on
    # one more pass.  Nothing is pending: stdout is flushed, the server
    # and its workers are joined, the driver owns every temp directory.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
