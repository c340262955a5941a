#!/usr/bin/env python
"""Verifying bug-fix pull requests with mixed-grained specifications (§5.3).

The paper verified four ZooKeeper PRs that attempted to fix the
Synchronization bugs; every one of them still violated an invariant
(Table 6).  This example replays that workflow over the rows of
``repro.zookeeper.specs.FIXES``:

1. each PR is a small update of the mSpec-3+ specification (a
   SpecVariant diff);
2. the model checker searches for an invariant violation;
3. the §5.4 resolution (history-before-epoch ordering + synchronous
   logging/commit + fixed shutdown) passes.

It exits 1 when a row's verdict differs from the one the table expects.

Run:  python examples/verify_bug_fix.py
"""

import sys

from repro.checker import explore
from repro.zookeeper.specs import FIXES, hunt_spec


def main():
    print("Verifying the four fix PRs on top of mSpec-3+ and the §5.4 "
          "resolution (Table 6):\n")
    wrong = []
    for fix, (*_, max_states, expected) in FIXES.items():
        spec, mask = hunt_spec(fix)
        result = explore(spec, max_states=max_states, mask=mask)
        found = result.first_violation
        if found:
            print(f"  {fix}: REJECTED: violates {found.invariant.ident} "
                  f"at depth {found.depth}")
        else:
            print(f"  {fix}: PASSED: no invariant violated")
        print(f"    ({result.states_explored} states, "
              f"{result.elapsed_seconds:.1f}s)")
        if (found.invariant.ident if found else None) != expected:
            wrong.append(fix)
            print(f"    expected: {expected or 'no violation'}")
    if wrong:
        print(f"\nverdicts differ from the table: {', '.join(wrong)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
