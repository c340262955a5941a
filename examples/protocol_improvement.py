#!/usr/bin/env python
"""Improving the Zab protocol (§5.4).

The root cause of the Synchronization bug family is that ZooKeeper cannot
implement the protocol's *atomic* epoch+history update.  The paper's fix:
drop the atomicity requirement but mandate the ORDER -- history first,
epoch second.  This example model-checks all three protocol variants:

- original     : the atomic Step f.2.1 of the Zab paper  -> passes
- improved     : non-atomic, history-before-epoch (§5.4) -> passes
- epoch_first  : non-atomic, epoch-before-history (what ZooKeeper
                 implemented)                            -> violates I-8

Run:  python examples/protocol_improvement.py
"""

from repro.checker import explore
from repro.zab import ZabConfig, zab_spec


def main():
    for variant in ("original", "improved", "epoch_first"):
        config = ZabConfig(
            max_txns=1, max_crashes=2, max_epoch=3, variant=variant
        )
        result = explore(
            zab_spec(config), max_states=200_000, max_time=180
        )
        if result.found_violation:
            violation = result.first_violation
            print(f"{variant:12s}: VIOLATES "
                  f"{violation.invariant.ident} "
                  f"({violation.invariant.name}) at depth {violation.depth}")
            print("  counterexample:")
            for label in violation.trace.labels:
                print(f"    {label}")
        else:
            status = "exhausted" if result.completed else "within budget"
            print(f"{variant:12s}: passes all ten protocol invariants "
                  f"({result.states_explored} states {status})")


if __name__ == "__main__":
    main()
