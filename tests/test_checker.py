"""Tests for the random walker and traces."""

import pytest

from repro.checker import RandomWalker, Trace
from repro.tla.action import ActionLabel
from repro.tla.state import State

from conftest import SCHEMA, counter_spec

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

