"""Conformance checking (§3.4 / §4.1): throughput and discrepancy finding.

Benchmarks the random-exploration + deterministic-replay loop, verifies
that the shipped specifications conform to the shipped implementation,
that an injected divergence is caught, and that the ZK-4394 discrepancy
workflow of §4.1 (model trace -> code-level NullPointerException)
reproduces.

Besides the pytest-benchmark entry points, this file doubles as a CLI
smoke for CI::

    python benchmarks/bench_conformance.py --campaign \
        --budget 10s --workers 2 --json bench-campaign.json

which runs a small conformance campaign and emits the *same*
``repro.campaign/3`` JSON schema as ``python -m repro campaign --json``,
so ``bench_reports.txt`` trajectories stay comparable across PRs
(``--shrink`` / ``--adaptive`` / ``--directions`` forward to the
campaign stages and axes).
"""

import argparse
import json
import sys

import pytest

from bench_common import once, print_table
from repro.checker import explore
from repro.impl import Ensemble
from repro.remix import ConformanceChecker
from repro.zookeeper import V391, ZkConfig, make_spec
from repro.zookeeper.specs import SELECTIONS

CFG = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)

_REPORTS = {}


def checker_for(name, divergence="", seed=11):
    spec = make_spec(name, CFG)
    return ConformanceChecker(
        spec,
        SELECTIONS[name],
        lambda: Ensemble(3, V391, divergence),
        seed=seed,
    )


@pytest.mark.parametrize("name", ["mSpec-1", "mSpec-2", "mSpec-3"])
def test_conformance_throughput(benchmark, name):
    checker = checker_for(name)

    def run():
        return checker.run(traces=30, max_steps=25)

    report = once(benchmark, run)
    _REPORTS[name] = report
    assert report.conforms


def test_divergence_detection(benchmark):
    checker = checker_for("mSpec-3", divergence="skip_epoch_update")

    def run():
        return checker.run(traces=40, max_steps=20)

    report = once(benchmark, run)
    _REPORTS["mSpec-3 (divergent impl)"] = report
    assert not report.conforms


def test_zk4394_confirmation(benchmark):
    """§4.1: the conformance workflow surfaces ZK-4394."""
    spec = make_spec("mSpec-1", CFG)
    spec.invariants = [i for i in spec.invariants if i.ident == "I-14"]
    result = explore(spec, max_states=100_000, max_time=120)
    assert result.found_violation
    checker = checker_for("mSpec-1")

    def confirm():
        return checker.confirm_violation(result.first_violation.trace)

    report = once(benchmark, confirm)
    assert report is not None and report.bug_id == "ZK-4394"


def test_bottom_up_validation(benchmark):
    """The complementary bottom-up approach (§6): random implementation
    runs validated against the model in lockstep."""
    from repro.remix import TraceValidator, mapping_for as _mapping_for

    spec = make_spec("mSpec-3", CFG)
    validator = TraceValidator(
        spec,
        _mapping_for(SELECTIONS["mSpec-3"]),
        lambda: Ensemble(3, V391),
        seed=7,
    )

    def run():
        return validator.validate(runs=10, max_steps=18)

    report = once(benchmark, run)
    _REPORTS["mSpec-3 (bottom-up)"] = report
    assert report.valid


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = []
    for name, report in _REPORTS.items():
        if hasattr(report, "traces_explored"):
            rows.append(
                (
                    name,
                    report.traces_explored,
                    report.steps_replayed,
                    len(report.discrepancies),
                    "conforms" if report.conforms else "DISCREPANT",
                )
            )
        else:  # bottom-up ValidationReport
            rows.append(
                (
                    name,
                    report.runs,
                    report.steps_validated,
                    len(report.issues),
                    "valid" if report.valid else "INVALID",
                )
            )
    print_table(
        "Conformance checking (§3.4)",
        ("Spec", "Traces", "Steps replayed", "Discrepancies", "Verdict"),
        rows,
    )


# --------------------------------------------------------------- CLI smoke


def run_campaign_smoke(
    budget, workers, seed, seeds, traces, steps, shrink=False, adaptive=False,
    directions=("topdown",),
):
    """Run a small conformance campaign; returns the report JSON (the
    same ``repro.campaign/3`` schema as ``python -m repro campaign``)."""
    from repro.remix.campaign import CampaignRequest, run_campaign

    request = CampaignRequest(
        seeds=seeds,
        traces=traces,
        max_steps=steps,
        seed=seed,
        workers=workers,
        budget=budget or None,
        shrink=shrink,
        adaptive=adaptive,
        directions=directions,
    )
    return run_campaign(request).to_json()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Conformance campaign smoke benchmark"
    )
    parser.add_argument(
        "--campaign", action="store_true",
        help="run the campaign smoke (required; reserved for future modes)",
    )
    parser.add_argument("--budget", default=None, help='e.g. "10s"')
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--traces", type=int, default=2)
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument(
        "--shrink", action="store_true",
        help="attach a minimized min_trace to every finding",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="adaptive (yield-chasing) matrix scheduling",
    )
    parser.add_argument(
        "--directions", choices=["topdown", "bottomup", "both"],
        default="topdown",
        help="conformance directions (both = top-down replay + bottom-up "
        "lockstep validation cells)",
    )
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args(argv)
    if not args.campaign:
        parser.error("pass --campaign to run the CLI smoke mode")
    directions = (
        ("topdown", "bottomup")
        if args.directions == "both"
        else (args.directions,)
    )
    report = run_campaign_smoke(
        args.budget, args.workers, args.seed, args.seeds, args.traces,
        args.steps, shrink=args.shrink, adaptive=args.adaptive,
        directions=directions,
    )
    text = json.dumps(report, indent=2)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
