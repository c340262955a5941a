#!/usr/bin/env python
"""Verifying bug-fix pull requests with mixed-grained specifications (§5.3).

The paper verified four ZooKeeper PRs that attempted to fix the
Synchronization bugs; every one of them still violated an invariant
(Table 6).  This example replays that workflow:

1. each PR is a small update of the mSpec-3+ specification (a
   SpecVariant diff);
2. the model checker searches for an invariant violation;
3. the §5.4 resolution (history-before-epoch ordering + synchronous
   logging/commit + fixed shutdown) passes.

Run:  python examples/verify_bug_fix.py
"""

from repro.checker import explore
from repro.zookeeper import ZkConfig, final_fix_spec, pr_spec, zk4394_mask
from repro.zookeeper.specs import PR_VARIANTS

CONFIG = ZkConfig(max_txns=2, max_crashes=2, max_partitions=0, max_epoch=3)


def check(spec, max_states=300_000, max_time=120):
    return explore(
        spec, max_states=max_states, max_time=max_time, mask=zk4394_mask
    )


def main():
    print("Verifying the four fix PRs on top of mSpec-3+ (Table 6):\n")
    for pr in PR_VARIANTS:
        spec = pr_spec(pr, CONFIG)
        result = check(spec)
        verdict = (
            f"REJECTED: violates {result.first_violation.invariant.ident} "
            f"at depth {result.first_violation.depth}"
            if result.found_violation
            else "no violation found within budget"
        )
        print(f"  {pr}: {verdict}")
        print(f"    ({result.states_explored} states, "
              f"{result.elapsed_seconds:.1f}s)")

    print("\nVerifying the holistic §5.4 resolution ...")
    result = check(final_fix_spec(CONFIG), max_states=150_000)
    assert not result.found_violation
    print(f"  PASSED: {result.states_explored} states explored, "
          f"no invariant violated ({result.elapsed_seconds:.1f}s)")


if __name__ == "__main__":
    main()
