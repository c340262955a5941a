"""Table 6: verifying the four bug-fix pull requests.

Each PR is modeled as a SpecVariant update of mSpec-3+ (mSpec-3 with the
verified ZK-4712 fix).  The checker searches for the invariant the paper
reports for each PR; the §5.4 resolution passes.
"""

import pytest

from bench_common import bench_config, hunt, once, print_table
from repro.checker import explore
from repro.zookeeper import final_fix_spec, zk4394_mask
from repro.zookeeper.specs import PR_VARIANTS

#: PR -> (targeted invariant family, paper row (time, depth, states, inv))
PAPER = {
    "PR-1848": ("I-8", ("274s", 21, 8_166_775, "I-8")),
    "PR-1930": ("I-12", ("17s", 13, 270_881, "I-12")),
    "PR-1993": ("I-11", ("34s", 15, 765_437, "I-11")),
    "PR-2111": ("I-11", ("38s", 15, 808_697, "I-11")),
}

_RESULTS = {}


@pytest.mark.parametrize("pr", list(PAPER))
def test_pr_still_buggy(benchmark, pr):
    family, _ = PAPER[pr]
    config = bench_config(
        max_txns=1 if family == "I-8" else 2,
        max_crashes=2,
    )

    def run():
        return hunt(
            "mSpec-3",
            config,
            family=family,
            variant=PR_VARIANTS[pr],
            max_time=260,
        )

    result = once(benchmark, run)
    _RESULTS[pr] = result
    assert result.found_violation, f"{pr} unexpectedly verified"
    assert result.first_violation.invariant.ident == family


def test_final_fix_verifies(benchmark):
    config = bench_config(max_txns=1, max_crashes=2)

    def run():
        spec = final_fix_spec(config)
        return explore(
            spec, max_states=120_000, max_time=120, mask=zk4394_mask
        )

    result = once(benchmark, run)
    _RESULTS["FinalFix"] = result
    assert not result.found_violation


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = []
    for pr, (family, paper) in PAPER.items():
        result = _RESULTS.get(pr)
        if result is None:
            continue
        violation = result.first_violation
        rows.append(
            (
                pr,
                f"{result.elapsed_seconds:.1f}s ({paper[0]})",
                f"{violation.depth} ({paper[1]})",
                f"{result.states_explored} ({paper[2]:,})",
                f"{violation.invariant.ident} ({paper[3]})",
            )
        )
    final = _RESULTS.get("FinalFix")
    if final is not None:
        rows.append(
            (
                "§5.4 fix",
                f"{final.elapsed_seconds:.1f}s",
                "-",
                str(final.states_explored),
                "none (passes)",
            )
        )
    print_table(
        "Table 6: fix verification, measured (paper)",
        ("Change", "Time", "Depth", "#States", "Inv."),
        rows,
    )
