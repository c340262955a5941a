"""Tests for the efforts metrics (Table 3) and the bug lineage (Figure 8)."""

import graphlib

import pytest

from repro.analysis.efforts import measure, table3
from repro.analysis.lineage import (
    EDGES,
    ISSUES,
    descendants_of_optimization,
    generations,
    lineage_graph,
    render_ascii,
    roots,
    unfixed_at_publication,
)


class TestEfforts:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3()

    def test_three_rows(self, rows):
        assert [r.name for r in rows] == ["mSpec-1", "mSpec-2", "mSpec-3"]
        assert [r.base for r in rows] == ["SysSpec", "mSpec-1", "mSpec-2"]

    def test_coarsening_removes_actions(self, rows):
        # Table 3: mSpec-1 has 7 fewer actions than SysSpec (the eight
        # Election+Discovery actions collapse into one).
        assert rows[0].actions_delta == -7

    def test_coarsening_removes_variables(self, rows):
        assert rows[0].variables_delta < 0

    def test_fine_graining_adds_actions(self, rows):
        assert rows[1].actions_delta > 0
        assert rows[2].actions_delta > 0

    def test_fine_graining_adds_pointcuts(self, rows):
        assert rows[1].pointcuts_delta > 0
        assert rows[2].pointcuts_delta > 0

    def test_diffs_are_modest(self, rows):
        # The paper's point: each refinement is a few-hundred-line diff.
        for row in rows:
            assert row.lines_added + row.lines_removed < 500

    def test_measure_sysspec(self):
        metrics = measure("SysSpec")
        assert metrics.actions > 20
        assert metrics.pointcuts is None  # not deterministically mappable

    def test_row_str(self, rows):
        assert "mSpec-1 - SysSpec" in str(rows[0])


class TestLineage:
    def test_graph_is_a_dag(self):
        graph = lineage_graph()
        assert sorted(n for layer in generations(graph) for n in layer) == sorted(graph)
        assert len(graph) == 10
        assert sum(len(effects) for effects in graph.values()) == len(EDGES)

    def test_cycle_is_refused(self):
        graph = dict(lineage_graph(), **{"ZK-4712": ("ZK-2678",)})
        with pytest.raises(graphlib.CycleError):
            generations(graph)

    def test_root_is_the_optimization(self):
        assert roots() == ["ZK-2678"]

    def test_all_bugs_descend_from_the_optimization(self):
        assert set(descendants_of_optimization()) == set(ISSUES) - {"ZK-2678"}

    def test_paper_bugs_unfixed_at_publication(self):
        unfixed = set(unfixed_at_publication())
        assert unfixed == {
            "ZK-3023",
            "ZK-4394",
            "ZK-4643",
            "ZK-4646",
            "ZK-4685",
            "ZK-4712",
        }

    def test_zk3911_fix_opened_new_paths(self):
        graph = lineage_graph()
        assert set(graph["ZK-3911"]) == {
            "ZK-3023",
            "ZK-4685",
            "ZK-4712",
        }

    def test_generations_start_with_root(self):
        assert generations() == [
            ["ZK-2678"],
            ["ZK-2845", "ZK-3642", "ZK-4394", "ZK-4646"],
            ["ZK-3911", "ZK-4643"],
            ["ZK-3023", "ZK-4685", "ZK-4712"],
        ]

    def test_render_mentions_every_issue(self):
        text = render_ascii()
        for ident in ISSUES:
            assert ident in text
