"""Ablations of the reproduction's design choices (DESIGN.md §5-6).

1. Search strategy: BFS (TLC's default, minimal traces) vs DFS to the
   first ZK-4394 violation.
2. Masking: the effect of masking the known ZK-4394 on the state space
   mSpec-1 explores (the paper's §4.1 adjustment).
3. Invariant filtering: checking a single family (the per-bug rows of
   Table 4) vs evaluating the full Table 2 catalogue on every state.
"""

import pytest

from bench_common import once, print_table
from repro.checker import explore
from repro.zookeeper import ZkConfig, make_spec, zk4394_mask

CFG = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)

_ROWS = {}


def _zk4394_spec():
    spec = make_spec("mSpec-1", CFG)
    spec.invariants = [i for i in spec.invariants if i.ident == "I-14"]
    return spec


@pytest.mark.parametrize("strategy", ["BFS", "DFS"])
def test_search_strategy(benchmark, strategy):
    def run():
        spec = _zk4394_spec()
        if strategy == "BFS":
            return explore(spec, max_states=200_000, max_time=120)
        return explore(
            spec, strategy="dfs", max_depth=30, max_states=200_000, max_time=120
        )

    result = once(benchmark, run)
    _ROWS[f"strategy/{strategy}"] = result
    assert result.found_violation
    if strategy == "BFS":
        assert result.first_violation.depth == 13


def test_masking_effect(benchmark):
    def run():
        masked = explore(
            make_spec("mSpec-1", CFG),
            max_states=150_000,
            max_time=90,
            mask=zk4394_mask,
        )
        unmasked = explore(make_spec("mSpec-1", CFG), max_states=150_000, max_time=90)
        return masked, unmasked

    masked, unmasked = once(benchmark, run)
    _ROWS["mask/on"] = masked
    _ROWS["mask/off"] = unmasked
    # unmasked: stops at the ZK-4394 violation; masked: explores past it
    assert unmasked.found_violation and not masked.found_violation
    assert masked.states_explored > unmasked.states_explored


def test_invariant_filtering(benchmark):
    def run():
        full = make_spec("mSpec-1", CFG)
        filtered = _zk4394_spec()
        full_result = explore(full, max_states=60_000, max_time=90)
        filtered_result = explore(filtered, max_states=60_000, max_time=90)
        return full_result, filtered_result

    full_result, filtered_result = once(benchmark, run)
    _ROWS["invariants/full"] = full_result
    _ROWS["invariants/family-only"] = filtered_result
    # both find the same bug; the filtered run pays less per state
    assert full_result.found_violation and filtered_result.found_violation
    assert (
        filtered_result.elapsed_seconds <= full_result.elapsed_seconds * 1.5
    )


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = []
    for name, result in _ROWS.items():
        found = result.first_violation
        rows.append(
            (
                name,
                f"{result.elapsed_seconds:.2f}s",
                result.states_explored,
                f"depth {found.depth}" if found else "no violation",
            )
        )
    print_table(
        "Ablations: strategy / masking / invariant filtering",
        ("Variant", "Time", "#States", "Outcome"),
        rows,
    )
