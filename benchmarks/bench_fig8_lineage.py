"""Figure 8: the lineage of bugs introduced in log replication.

Regenerates the bug-introduction DAG and its structural properties:
everything descends from the ZK-2678 optimizations; the merged ZK-3911
fix opened three new bug paths; the paper's six bugs were unfixed at
publication time.
"""

from repro.analysis.lineage import (
    descendants_of_optimization,
    generations,
    lineage_graph,
    render_ascii,
    roots,
    unfixed_at_publication,
)

PAPER_SIX = {"ZK-3023", "ZK-4394", "ZK-4643", "ZK-4646", "ZK-4685", "ZK-4712"}


def test_graph_construction(benchmark):
    graph = benchmark(lineage_graph)
    assert len(generations(graph)) == 4  # a cycle would raise CycleError


def test_structure_matches_figure8():
    graph = lineage_graph()
    assert roots(graph) == ["ZK-2678"]
    assert set(descendants_of_optimization(graph)) >= PAPER_SIX
    assert set(unfixed_at_publication(graph)) == PAPER_SIX
    assert set(graph["ZK-3911"]) == {
        "ZK-3023",
        "ZK-4685",
        "ZK-4712",
    }


def test_every_paper_bug_reachable_from_root():
    reachable = set(descendants_of_optimization(lineage_graph()))
    for bug in PAPER_SIX:
        assert bug in reachable


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    print()
    print(render_ascii())
    layers = generations()
    print(f"\n  {len(layers)} generations; "
          f"{len(descendants_of_optimization())} bugs descend from the "
          f"ZK-2678 optimizations")
