"""Table 4: bug detection in ZooKeeper v3.9.1.

For each of the six bugs, run the paper's most-efficient mixed-grained
specification restricted to the bug's invariant family and report time,
depth, distinct states and the violated invariant, next to the paper's
values.
"""

import pytest

from bench_common import check, once, print_table
from repro.zookeeper.specs import HUNTS, hunt_spec

#: bug -> the paper's row (spec, time, depth, states, invariant); what is
#: hunted, and how, is ``repro.zookeeper.specs.HUNTS``.
PAPER = {
    "ZK-3023": ("mSpec-3", "11 sec", 13, 78_892, "I-11"),
    "ZK-4394": ("mSpec-1*", "9 sec", 20, 14_264, "I-14"),
    "ZK-4643": ("mSpec-2", "17 sec", 21, 208_018, "I-8"),
    "ZK-4646": ("mSpec-3", "109 sec", 21, 2_880_498, "I-8"),
    "ZK-4685": ("mSpec-3", "10 sec", 12, 67_418, "I-12"),
    "ZK-4712": ("mSpec-3", "11 sec", 13, 73_293, "I-10"),
}

_RESULTS = {}


@pytest.mark.parametrize("bug", list(HUNTS))
def test_find_bug(benchmark, bug):
    result = once(benchmark, lambda: check(*hunt_spec(bug), max_time=400))
    _RESULTS[bug] = result
    assert result.found_violation, f"{bug} not found"
    assert result.first_violation.invariant.ident == HUNTS[bug][2]


def test_zz_report(benchmark):
    """Print the regenerated Table 4 (runs after the per-bug rows)."""
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = []
    for bug, paper in PAPER.items():
        result = _RESULTS.get(bug)
        if result is None or not result.found_violation:
            continue
        violation = result.first_violation
        rows.append(
            (
                bug,
                paper[0],
                f"{result.elapsed_seconds:.1f} sec ({paper[1]})",
                f"{violation.depth} ({paper[2]})",
                f"{result.states_explored} ({paper[3]:,})",
                f"{violation.invariant.ident} ({paper[4]})",
            )
        )
    print_table(
        "Table 4: bug detection, measured (paper)",
        ("Bug", "Spec", "Time", "Depth", "#States", "Inv."),
        rows,
    )
    assert len(rows) == len(HUNTS)
