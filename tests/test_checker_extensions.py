"""Tests for the checker extensions: coverage and pretty-printing."""

import pytest

from repro.checker import (
    explore,
    format_state,
    format_trace,
    measure_coverage,
)
from repro.tla.state import State

from conftest import SCHEMA, counter_spec

class TestCoverage:
    def test_counts_and_unfired(self):
        report = measure_coverage(counter_spec(y_bound=99, never_fires=True))
        assert report.fired["IncX"] > 0
        assert report.fired["IncY"] > 0
        assert report.unfired() == ["NeverFires"]
        assert 0 < report.coverage_fraction() < 1

    @pytest.mark.parametrize("roots,max_states", [(1, 5), (3, 1), (3, 2), (1, 0), (3, 0)])
    def test_reports_at_most_max_states(self, roots, max_states):
        # The engine's BFS rule, initial states included: the run stops
        # at the state that reaches the budget.
        def spec():
            return counter_spec(y_bound=99, roots=roots, never_fires=True)

        report = measure_coverage(spec(), max_states=max_states)
        assert report.states_explored == max_states
        assert not report.complete
        bfs = explore(spec(), max_states=max_states)
        assert bfs.states_explored == max_states

    def test_summary_mentions_unfired(self):
        report = measure_coverage(counter_spec(y_bound=99, never_fires=True))
        assert "UNFIRED: NeverFires" in report.summary()

    def test_zookeeper_mspec1_full_coverage(self):
        from repro.zookeeper import ZkConfig, make_spec

        spec = make_spec(
            "mSpec-1",
            ZkConfig(
                max_txns=1, max_crashes=1, max_partitions=1, max_epoch=3,
                max_msg_faults=1,
            ),
        )
        # The message-fault actions enlarge the state space, so the rare
        # FollowerProcessCOMMITInSync path needs a deeper exploration
        # budget than the pre-fault-lane 30k states.
        report = measure_coverage(spec, max_states=120_000, max_time=90)
        # every action of the composition is reachable
        assert report.coverage_fraction() == 1.0, report.unfired()
        # a max_states cut, never max_time
        assert (
            report.states_explored, sum(report.fired.values()), report.complete
        ) == (120_000, 319_859, False)


class TestPretty:
    def test_format_state_hides_prefixes(self):
        state = State.make(SCHEMA, x=1, y=2)
        text = format_state(state, hide=("y",), hide_prefixes=())
        assert "x = 1" in text and "y" not in text

    def test_format_trace_shows_diffs_only(self):
        spec = counter_spec()
        result = explore(spec)
        text = format_trace(
            result.first_violation.trace, hide=(), hide_prefixes=()
        )
        assert "State 0 (initial):" in text
        assert "Step 1: IncX" in text
        assert "x: 0 -> 1" in text
        # unchanged variables are not repeated per step
        assert text.count("y = 0") == 1

    def test_format_trace_truncates(self):
        spec = counter_spec()
        result = explore(spec)
        text = format_trace(
            result.first_violation.trace,
            hide=(),
            hide_prefixes=(),
            max_steps=2,
        )
        assert "more steps" in text

    def test_zookeeper_trace_renders(self):
        from repro.zookeeper import ZkConfig, make_spec

        spec = make_spec(
            "mSpec-1",
            ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3),
        )
        result = explore(spec, max_states=50_000, max_time=60)
        assert result.found_violation
        text = format_trace(result.first_violation.trace)
        assert "ElectionAndDiscovery" in text
        assert "msgs" not in text  # hidden by default
        # ghost variables are hidden (msg_fault_budget, which merely
        # *contains* "g_", is not a ghost and may appear)
        assert "g_delivered" not in text
        assert "g_committed" not in text
