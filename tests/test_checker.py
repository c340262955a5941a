"""Tests for the BFS checker, random walker and traces."""

import pytest

from repro.checker import RandomWalker, Trace, explore
from repro.checker.trace import traces_project_equal
from repro.tla.action import Action, ActionLabel
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State

SCHEMA = Schema(("x", "y"))


def counter_spec(max_x=4, y_bound=2, constraint=None):
    def inc_x(config, state):
        if state.x >= max_x:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:
            return None
        return {"y": state.y + 1}

    module = Module(
        "counter",
        [
            Action("IncX", inc_x, reads=["x"], writes=["x"]),
            Action("IncY", inc_y, reads=["x", "y"], writes=["y"]),
        ],
    )
    return Specification(
        "counter",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= y_bound)],
        None,
        constraint=constraint,
    )


class TestBFS:
    def test_finds_minimal_depth_violation(self):
        result = explore(counter_spec())
        assert result.found_violation
        # minimal: x must reach 3 before y can (IncX*3 then IncY*3)
        assert result.first_violation.depth == 6

    def test_violation_trace_replays(self):
        spec = counter_spec()
        result = explore(spec)
        trace = result.first_violation.trace
        states = spec.replay(trace.labels, trace.initial)
        assert states[-1] == trace.final

    def test_completes_when_no_violation(self):
        result = explore(counter_spec(max_x=2, y_bound=5))
        assert result.completed
        assert not result.found_violation
        # states: x in 0..2, y in 0..x -> 1+2+3 = 6
        assert result.states_explored == 6

    def test_max_states_budget(self):
        result = explore(counter_spec(max_x=50, y_bound=99), max_states=10)
        assert result.budget_exhausted == "max_states"
        assert not result.completed

    def test_max_depth_budget(self):
        result = explore(counter_spec(y_bound=99), max_depth=2)
        assert result.max_depth <= 3
        assert not result.found_violation

    def test_run_to_completion_collects_violations(self):
        result = explore(
            counter_spec(max_x=4, y_bound=2),
            stop_at_first=False,
            violation_limit=100,
        )
        assert len(result.violations) > 1
        assert result.violated_invariant_ids() == ["I-1"]

    def test_violation_limit(self):
        result = explore(
            counter_spec(max_x=6, y_bound=1),
            stop_at_first=False,
            violation_limit=2,
        )
        assert len(result.violations) == 2
        assert result.budget_exhausted == "violation_limit"

    def test_error_states_are_terminal(self):
        # The violating state (y == 3) must not be expanded: no state
        # with y == 4 is reachable.
        result = explore(
            counter_spec(max_x=9, y_bound=2),
            stop_at_first=False,
            violation_limit=10_000,
        )
        for violation in result.violations:
            assert violation.trace.final.y == 3

    def test_mask_hides_and_prunes(self):
        masked = explore(
            counter_spec(), mask=lambda s: s.y >= 3, stop_at_first=False
        )
        assert not masked.found_violation
        assert masked.completed

    def test_constraint_bounds_exploration(self):
        spec = counter_spec(max_x=50, y_bound=99,
                            constraint=lambda cfg, s: s.x <= 2)
        result = explore(spec)
        assert result.completed
        assert max(s for s in [result.max_depth]) <= 6

    def test_check_wrapper(self):
        assert explore(counter_spec()).found_violation

    def test_summary_mentions_invariant(self):
        result = explore(counter_spec())
        assert "I-1" in result.summary()


class TestRandomWalker:
    def test_deterministic_by_seed(self):
        spec = counter_spec(y_bound=99)
        a = RandomWalker(spec, seed=3).traces(count=5, max_steps=10)
        b = RandomWalker(spec, seed=3).traces(count=5, max_steps=10)
        assert [t.labels for t in a] == [t.labels for t in b]

    def test_different_seeds_differ(self):
        spec = counter_spec(y_bound=99)
        a = RandomWalker(spec, seed=1).traces(count=8, max_steps=10)
        b = RandomWalker(spec, seed=2).traces(count=8, max_steps=10)
        assert [t.labels for t in a] != [t.labels for t in b]

    def test_walk_stops_in_deadlock(self):
        spec = counter_spec(max_x=1, y_bound=99)
        trace = RandomWalker(spec, seed=0).walk(max_steps=50)
        assert len(trace) <= 2  # IncX once, IncY once

    def test_stop_when_truncates(self):
        spec = counter_spec(y_bound=99)
        traces = RandomWalker(spec, seed=5).traces(
            count=10, max_steps=20, stop_when=lambda s: s.x >= 2
        )
        for trace in traces:
            for state in trace.states[:-1]:
                assert state.x < 2

    def test_zero_time_budget_yields_no_traces(self):
        # Same wall-clock test as every engine loop (elapsed >= budget).
        walker = RandomWalker(counter_spec(y_bound=99), seed=0)
        assert walker.traces(count=5, time_budget=0) == []

    def test_walk_states_consistent_with_labels(self):
        spec = counter_spec(y_bound=99)
        trace = RandomWalker(spec, seed=9).walk(max_steps=10)
        replayed = spec.replay(trace.labels, trace.initial)
        assert replayed == trace.states


class TestTrace:
    def test_length_mismatch_rejected(self):
        s = State.make(SCHEMA, x=0, y=0)
        with pytest.raises(ValueError):
            Trace(states=[s], labels=[ActionLabel("A")])

    def test_steps_iteration(self):
        s0 = State.make(SCHEMA, x=0, y=0)
        s1 = s0.set(x=1)
        trace = Trace(states=[s0, s1], labels=[ActionLabel("IncX")])
        steps = list(trace.steps())
        assert steps == [(s0, ActionLabel("IncX"), s1)]

    def test_projection_condenses_stuttering(self):
        s0 = State.make(SCHEMA, x=0, y=0)
        s1 = s0.set(y=1)  # invisible when projecting on x
        s2 = s1.set(x=1)
        trace = Trace(
            states=[s0, s1, s2],
            labels=[ActionLabel("IncY"), ActionLabel("IncX")],
        )
        assert trace.project(frozenset({"x"})) == ((0,), (1,))

    def test_traces_project_equal(self):
        s0 = State.make(SCHEMA, x=0, y=0)
        t1 = Trace(states=[s0, s0.set(y=1)], labels=[ActionLabel("IncY")])
        t2 = Trace(states=[s0], labels=[])
        assert traces_project_equal([t1], [t2], frozenset({"x"}))
        assert not traces_project_equal([t1], [t2], frozenset({"y"}))

    def test_describe_truncates(self):
        s0 = State.make(SCHEMA, x=0, y=0)
        states = [s0.set(x=i) for i in range(6)]
        trace = Trace(
            states=states, labels=[ActionLabel("IncX")] * 5
        )
        text = trace.describe(max_steps=3)
        assert "2 more" in text
