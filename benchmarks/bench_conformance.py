"""Conformance checking (§3.4 / §4.1): throughput and discrepancy finding.

Benchmarks the random-exploration + deterministic-replay loop, verifies
that the shipped specifications conform to the shipped implementation,
that an injected divergence is caught, and that the ZK-4394 discrepancy
workflow of §4.1 (model trace -> code-level NullPointerException)
reproduces.  (For campaign-sized runs and their JSON report use
``python -m repro campaign --json``.)
"""

import pytest

from bench_common import once, print_table
from repro.checker import RandomWalker, explore
from repro.impl import Ensemble
from repro.remix import (
    Coordinator,
    ImplExplorer,
    TraceValidator,
    system_plugin,
)
from repro.zookeeper import V391, ZkConfig, make_spec
from repro.zookeeper.mapping import mapping_for
from repro.zookeeper.specs import SELECTIONS

CFG = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)
PLUGIN = system_plugin("zookeeper")

#: name -> (runs, steps, discrepancies)
_ROWS = {}


def coordinator_for(name, divergence=""):
    return Coordinator(
        mapping_for(SELECTIONS[name]),
        lambda: Ensemble(3, V391, divergence),
        PLUGIN.compared_variables,
    )


def replay_walks(name, traces, max_steps, divergence=""):
    """Random model traces of one spec, each replayed at the code level:
    ``(traces, steps replayed, discrepancies)``."""
    coordinator = coordinator_for(name, divergence)
    walker = RandomWalker(make_spec(name, CFG), seed=11)
    results = [
        coordinator.replay(trace)
        for trace in walker.traces(count=traces, max_steps=max_steps)
    ]
    return (
        len(results),
        sum(result.steps_executed for result in results),
        sum(len(result.discrepancies) for result in results),
    )


@pytest.mark.parametrize("name", ["mSpec-1", "mSpec-2", "mSpec-3"])
def test_conformance_throughput(benchmark, name):
    row = once(benchmark, lambda: replay_walks(name, 30, 25))
    _ROWS[name] = row
    assert row[2] == 0


def test_divergence_detection(benchmark):
    row = once(
        benchmark,
        lambda: replay_walks("mSpec-3", 40, 20, divergence="skip_epoch_update"),
    )
    _ROWS["mSpec-3 (divergent impl)"] = row
    assert row[2] > 0


def test_zk4394_confirmation(benchmark):
    """§4.1: the conformance workflow surfaces ZK-4394."""
    spec = make_spec("mSpec-1", CFG)
    spec.invariants = [i for i in spec.invariants if i.ident == "I-14"]
    result = explore(spec, max_states=100_000, max_time=120)
    assert result.found_violation
    coordinator = coordinator_for("mSpec-1")

    def confirm():
        return coordinator.replay(
            result.first_violation.trace, stop_on_discrepancy=False
        )

    replay = once(benchmark, confirm)
    assert replay.impl_error is not None
    assert replay.impl_error.bug_id == "ZK-4394"


def test_bottom_up_validation(benchmark):
    """The complementary bottom-up approach (§6): random implementation
    runs validated against the model in lockstep."""
    spec = make_spec("mSpec-3", CFG)
    mapping = mapping_for(SELECTIONS["mSpec-3"])

    def factory():
        return Ensemble(3, V391)

    explorer = ImplExplorer(
        spec, mapping, factory, seed=7,
        budgets=PLUGIN.budget_limits(CFG),
    )
    validator = TraceValidator(spec, mapping, factory, PLUGIN.compared_variables)

    def run():
        reports = [
            validator.validate_labels(explorer.explore(18)[0], run=index)
            for index in range(10)
        ]
        return (
            len(reports),
            sum(report.steps_validated for report in reports),
            sum(len(report.issues) for report in reports),
        )

    row = once(benchmark, run)
    _ROWS["mSpec-3 (bottom-up)"] = row
    assert row[2] == 0


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    print_table(
        "Conformance checking (§3.4)",
        ("Spec", "Traces", "Steps replayed", "Discrepancies", "Verdict"),
        [
            (name, runs, steps, found, "DISCREPANT" if found else "conforms")
            for name, (runs, steps, found) in _ROWS.items()
        ],
    )
