"""Table 6: verifying the four bug-fix pull requests.

Each PR is a SpecVariant update of mSpec-3+ (mSpec-3 with the verified
ZK-4712 fix) and still violates an invariant; the §5.4 resolution passes.
The rows, their budgets and verdicts are ``repro.zookeeper.specs.FIXES``.
"""

import pytest

from bench_common import check, once, print_table
from repro.zookeeper.specs import FIXES, hunt_spec

#: PR -> paper row (time, depth, states, invariant)
PAPER = {
    "PR-1848": ("274s", 21, 8_166_775, "I-8"),
    "PR-1930": ("17s", 13, 270_881, "I-12"),
    "PR-1993": ("34s", 15, 765_437, "I-11"),
    "PR-2111": ("38s", 15, 808_697, "I-11"),
}

_RESULTS = {}


@pytest.mark.parametrize("fix", list(FIXES))
def test_fix_verdict(benchmark, fix):
    *_, max_states, expected = FIXES[fix]
    result = once(
        benchmark,
        lambda: check(*hunt_spec(fix), max_states=max_states, max_time=260),
    )
    _RESULTS[fix] = result
    found = result.first_violation
    assert (found.invariant.ident if found else None) == expected


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = []
    for fix, result in _RESULTS.items():
        found = result.first_violation
        if found is None:
            rows.append((fix, f"{result.elapsed_seconds:.1f}s", "-",
                         str(result.states_explored), "none (passes)"))
            continue
        paper = PAPER[fix]
        rows.append(
            (
                fix,
                f"{result.elapsed_seconds:.1f}s ({paper[0]})",
                f"{found.depth} ({paper[1]})",
                f"{result.states_explored} ({paper[2]:,})",
                f"{found.invariant.ident} ({paper[3]})",
            )
        )
    print_table(
        "Table 6: fix verification, measured (paper)",
        ("Change", "Time", "Depth", "#States", "Inv."),
        rows,
    )
