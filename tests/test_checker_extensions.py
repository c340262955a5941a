"""Tests for the checker extensions: DFS, coverage, trace shrinking and
pretty-printing."""

import pytest

from repro.checker import (
    RandomWalker,
    explore,
    format_state,
    format_trace,
    measure_coverage,
    shrink_trace,
    violation_predicate,
)
from repro.checker.trace import Trace
from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State

SCHEMA = Schema(("x", "y"))


def counter_spec(max_x=4, y_bound=2):
    def inc_x(config, state):
        if state.x >= max_x:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:
            return None
        return {"y": state.y + 1}

    def noop_z(config, state):
        return None  # never enabled: coverage must flag it

    module = Module(
        "counter",
        [
            Action("IncX", inc_x, reads=["x"], writes=["x"]),
            Action("IncY", inc_y, reads=["x", "y"], writes=["y"]),
            Action("NeverFires", noop_z, reads=["x"], writes=["x"]),
        ],
    )
    return Specification(
        "counter",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= y_bound)],
        None,
    )


class TestDFS:
    def test_finds_a_violation(self):
        result = explore(counter_spec(), strategy="dfs", max_depth=20)
        assert result.found_violation
        assert result.first_violation.trace.final.y == 3

    def test_trace_replays(self):
        spec = counter_spec()
        result = explore(spec, strategy="dfs", max_depth=20)
        trace = result.first_violation.trace
        states = spec.replay(trace.labels, trace.initial)
        assert states[-1] == trace.final

    def test_completes_clean_space(self):
        result = explore(
            counter_spec(max_x=2, y_bound=9), strategy="dfs", max_depth=20
        )
        assert result.completed and not result.found_violation

    def test_depth_bound_blocks_deep_violation(self):
        result = explore(counter_spec(), strategy="dfs", max_depth=4)
        assert not result.found_violation

    def test_budget(self):
        result = explore(
            counter_spec(max_x=100, y_bound=99),
            strategy="dfs",
            max_depth=300,
            max_states=20,
        )
        assert result.budget_exhausted == "max_states"


class TestCoverage:
    def test_counts_and_unfired(self):
        report = measure_coverage(counter_spec(y_bound=99))
        assert report.fired["IncX"] > 0
        assert report.fired["IncY"] > 0
        assert report.unfired() == ["NeverFires"]
        assert 0 < report.coverage_fraction() < 1

    def test_summary_mentions_unfired(self):
        report = measure_coverage(counter_spec(y_bound=99))
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
        # the numbers the pre-expand_batch BFS over Specification.successors
        # produced at this budget (a max_states cut, never max_time)
        assert (
            report.states_explored, sum(report.fired.values()), report.complete
        ) == (120_001, 319_861, False)


class TestShrinking:
    def test_shrinks_random_walk_to_minimal(self):
        spec = counter_spec()
        # find a failing random walk (y reaches 3 eventually)
        walker = RandomWalker(spec, seed=1)
        failing = None
        for _ in range(200):
            trace = walker.walk(max_steps=30)
            if any(s.y > 2 for s in trace.states):
                cut = next(
                    k for k, s in enumerate(trace.states) if s.y > 2
                )
                failing = Trace(
                    states=trace.states[: cut + 1], labels=trace.labels[:cut]
                )
                break
        assert failing is not None
        shrunk = shrink_trace(
            spec, failing, violation_predicate(spec, "I-1")
        )
        assert len(shrunk) <= len(failing)
        assert len(shrunk) == 6  # the true minimum
        assert shrunk.final.y == 3

    def test_rejects_non_failing_trace(self):
        spec = counter_spec()
        init = spec.initial_states()[0]
        trace = Trace(states=[init], labels=[])
        with pytest.raises(ValueError):
            shrink_trace(spec, trace, violation_predicate(spec, "I-1"))

    def test_unknown_invariant(self):
        with pytest.raises(KeyError):
            violation_predicate(counter_spec(), "I-99")


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
