"""Table 1: the composition matrix of mixed-grained specifications.

Regenerates the matrix from the selections and benchmarks the composition
step itself (Remix's "composing them is straightforward").
"""

import pytest

from bench_common import bench_config, print_table
from repro.zookeeper.specs import SELECTIONS, make_spec

EXPECTED = {
    "SysSpec": ("Baseline", "Baseline", "Baseline", "Baseline"),
    "mSpec-1": ("Coarsened", "Coarsened", "Baseline", "Baseline"),
    "mSpec-2": ("Coarsened", "Coarsened", "Fine (atom.)", "Baseline"),
    "mSpec-3": (
        "Coarsened",
        "Coarsened",
        "Fine (atom.+concur.)",
        "Fine (concur.)",
    ),
    "mSpec-4": (
        "Baseline",
        "Baseline",
        "Fine (atom.+concur.)",
        "Fine (concur.)",
    ),
}

PRETTY = {
    "baseline": "Baseline",
    "coarsened": "Coarsened",
    "fine_atomic": "Fine (atom.)",
    "fine_concurrent": "Fine (atom.+concur.)",
}


def row_of(selection):
    return (
        PRETTY[selection["Election"]],
        PRETTY[selection["Discovery"]],
        PRETTY[selection["Synchronization"]],
        (
            "Fine (concur.)"
            if selection["Broadcast"] == "fine_concurrent"
            else PRETTY[selection["Broadcast"]]
        ),
    )


@pytest.mark.parametrize("name", list(EXPECTED))
def test_selection_matches_table1(name):
    assert row_of(SELECTIONS[name]) == EXPECTED[name]


@pytest.mark.parametrize("name", list(EXPECTED))
def test_composition_benchmark(benchmark, name):
    config = bench_config()
    spec = benchmark(lambda: make_spec(name, config))
    assert spec.name == name


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = [
        (name,) + row_of(SELECTIONS[name]) for name in EXPECTED
    ]
    print_table(
        "Table 1: mixed-grained specifications for log replication",
        ("Spec", "Election", "Discovery", "Synchronization", "Broadcast"),
        rows,
    )
