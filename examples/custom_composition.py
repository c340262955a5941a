#!/usr/bin/env python
"""Composing your own mixed-grained specification with the Remix registry.

Table 1's mSpec-1..4 are just predefined granularity selections; the
registry lets you compose any compatible combination -- the paper's "help
the model checker focus on target modules" knob.  This example composes a
custom specification (coarse election, fine-atomic sync, baseline
broadcast -- i.e. mSpec-2 -- against a *bigger* fault budget), checks it,
and demonstrates the composability guardrails.

Run:  python examples/custom_composition.py
"""

from repro.checker import explore
from repro.remix import SpecRegistry
from repro.tla.composition import CompositionError
from repro.tla.module import interaction_variables
from repro.zookeeper import ZkConfig, zk4394_mask


def main():
    registry = SpecRegistry()
    print("Registered module granularities:")
    for module in registry.modules():
        print(f"  {module}: {', '.join(registry.granularities(module))}")

    selection = {
        "Election": "coarsened",
        "Discovery": "coarsened",
        "Synchronization": "fine_atomic",
        "Broadcast": "baseline",
    }
    config = ZkConfig(max_txns=1, max_crashes=2, max_partitions=0, max_epoch=3)
    spec = registry.compose("my-mixed-spec", selection, config)
    print(f"\nComposed {spec.name}: "
          f"{sum(len(m) for m in spec.modules)} actions, "
          f"{len(spec.invariants)} auto-selected invariants")

    interaction = interaction_variables(spec.modules)
    print(f"Interaction variables (Appendix B): "
          f"{', '.join(sorted(v for v in interaction if not v.startswith('g_')))}")

    print("\nIncompatible selections are rejected:")
    try:
        registry.compose(
            "broken",
            dict(selection, Broadcast="fine_concurrent"),
            config,
        )
    except CompositionError as exc:
        print(f"  CompositionError: {exc}")

    print("\nModel checking the composition (this finds ZK-4643) ...")
    result = explore(
        spec, max_states=2_000_000, max_time=300, mask=zk4394_mask
    )
    print(f"  {result.summary()}")
    if result.found_violation:
        violation = result.first_violation
        print(f"  -> {violation.invariant.ident} "
              f"({violation.invariant.name}) at depth {violation.depth}")


if __name__ == "__main__":
    main()
