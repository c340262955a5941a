#!/usr/bin/env python
"""Conformance checking between specification and implementation (§3.4).

The conformance checker randomly explores the model-level state space,
replays every trace deterministically against the implementation through
the coordinator, and compares the states after each step.  This example:

1. shows a clean run (the shipped spec matches the shipped simulator);
2. injects a code-level divergence ("the epoch write is lost") and shows
   the checker pinpointing the differing variable;
3. shows the trace that exposes the divergence, which is what a developer
   would debug (§3.5.3's deterministic replay).

Run:  python examples/conformance_checking.py
"""

from repro.checker import RandomWalker
from repro.impl import Ensemble
from repro.remix import Coordinator, system_plugin
from repro.zookeeper import V391, ZkConfig


def check(spec, coordinator, traces=40, max_steps=25, seed=42):
    """The §3.4 loop: random model traces, each replayed at the code
    level; returns every discrepancy and prints the summary line."""
    results = [
        coordinator.replay(trace)
        for trace in RandomWalker(spec, seed=seed).traces(traces, max_steps)
    ]
    discrepancies = [d for result in results for d in result.discrepancies]
    print(
        f"   conformance: {len(results)} traces, "
        f"{sum(result.steps_executed for result in results)} steps replayed, "
        f"{len(discrepancies)} discrepancies"
    )
    return discrepancies


def main():
    plugin = system_plugin("zookeeper")
    config = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)
    spec = plugin.make_spec("mSpec-3", config)
    mapping = plugin.make_mapping("mSpec-3")

    print("1) Conformance of mSpec-3 against the implementation:")
    shipped = Coordinator(
        mapping, plugin.ensemble_factory(config), plugin.compared_variables
    )
    assert not check(spec, shipped)

    print("\n2) Same check against an implementation whose epoch write "
          "is lost (an injected 'wrong variable assignment'):")
    broken = Coordinator(
        mapping,
        lambda: Ensemble(3, V391, divergence="skip_epoch_update"),
        plugin.compared_variables,
    )
    discrepancies = check(spec, broken)
    assert discrepancies

    first = next(d for d in discrepancies if d.kind == "state_mismatch")
    print("\n3) First discrepancy, as a developer would see it:")
    print(f"   {first}")
    print("\n   The differing variable (current_epoch) points straight at "
          "the divergent code path -- the specification or the code must "
          "be revised until conformance passes (§3.4).")


if __name__ == "__main__":
    main()
