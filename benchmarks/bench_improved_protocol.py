"""§5.4: the improved Zab protocol passes all ten protocol invariants.

Checks the three protocol variants (original atomic, improved ordered,
and the epoch-first ablation that ZooKeeper actually implemented) and
reports states/time/outcome.
"""

import pytest

from bench_common import once, print_table
from repro.checker import explore
from repro.zab import ZabConfig, zab_spec

EXPECTED = {
    "original": None,  # passes
    "improved": None,  # passes (the §5.4 protocol)
    "epoch_first": "I-8",  # the ablation: ZooKeeper's implemented order
}

_RESULTS = {}


@pytest.mark.parametrize("variant", list(EXPECTED))
def test_protocol_variant(benchmark, variant):
    config = ZabConfig(
        max_txns=1, max_crashes=2, max_epoch=3, variant=variant
    )

    def run():
        return explore(
            zab_spec(config), max_states=200_000, max_time=120
        )

    result = once(benchmark, run)
    _RESULTS[variant] = result
    if EXPECTED[variant] is None:
        assert not result.found_violation
    else:
        assert result.found_violation
        assert result.first_violation.invariant.ident == EXPECTED[variant]


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = []
    for variant, result in _RESULTS.items():
        outcome = (
            f"violates {result.first_violation.invariant.ident} at depth "
            f"{result.first_violation.depth}"
            if result.found_violation
            else ("passes (state space exhausted)" if result.completed
                  else "passes (within budget)")
        )
        rows.append(
            (
                variant,
                f"{result.elapsed_seconds:.1f}s",
                result.states_explored,
                outcome,
            )
        )
    print_table(
        "§5.4: protocol verification (original / improved / ablation)",
        ("Variant", "Time", "#States", "Outcome"),
        rows,
    )
