#!/usr/bin/env python
"""Quickstart: find a real ZooKeeper bug by model checking.

Builds the mixed-grained specification mSpec-1 (coarse Election+Discovery,
baseline Synchronization/Broadcast), model-checks it with BFS, and hits
ZK-4394: a COMMIT that arrives between NEWLEADER and UPTODATE cannot be
matched to a packet and the follower throws a NullPointerException.

The violating model trace is then replayed *deterministically* against the
bundled ZooKeeper implementation simulator, confirming the bug at the code
level -- the full Remix workflow of the paper in a few lines.

Run:  python examples/quickstart.py
"""

from repro.checker import explore, format_trace
from repro.remix import Coordinator, system_plugin
from repro.zookeeper import ZkConfig


def main():
    # Every protocol reaches the harness through its registered system
    # plugin; ZooKeeper is simply the default one.
    plugin = system_plugin("zookeeper")

    # A small TLC-style configuration: 3 servers, 1 transaction,
    # 1 crash, epochs bounded at 3.
    config = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)

    print("Composing mSpec-1 (Table 1) ...")
    spec = plugin.make_spec("mSpec-1", config)
    print(f"  modules: {[m.name for m in spec.modules]}")
    print(f"  invariants: {len(spec.invariants)} "
          f"({sum(1 for i in spec.invariants if i.source == 'protocol')} "
          f"protocol + "
          f"{sum(1 for i in spec.invariants if i.source == 'code')} code)")

    print("\nModel checking (BFS, stop at first violation) ...")
    result = explore(spec, max_states=100_000, max_time=120)
    print(f"  {result.summary()}")

    violation = result.first_violation
    assert violation is not None, "expected to find ZK-4394"
    print(f"\nFound: {violation}")
    print(format_trace(violation.trace))

    print("\nConfirming at the code level (deterministic replay) ...")
    coordinator = Coordinator(
        plugin.make_mapping("mSpec-1"),
        plugin.ensemble_factory(config),
        plugin.compared_variables,
    )
    result = coordinator.replay(violation.trace, stop_on_discrepancy=False)
    error = result.impl_error
    assert error is not None and error.bug_id == "ZK-4394"
    print(f"  implementation bug [{error.bug_id}] at step "
          f"{result.impl_error_step}: {type(error).__name__}: {error}")
    print("\nThe model-level violation reproduces in the implementation: "
          "this is ZooKeeper bug ZK-4394.")


if __name__ == "__main__":
    main()
