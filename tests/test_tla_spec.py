"""Tests for Specification, Invariant and CheckResult plumbing."""

import copy

import pytest

from repro.checker.result import CheckResult, Violation
from repro.checker.trace import Trace
from repro.tla.action import Action, ActionLabel
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State
from repro.tla.values import Rec

SCHEMA = Schema(("x",))


def spec_with_actions():
    def inc(config, state, by):
        if state.x + by > 3:
            return None
        return {"x": state.x + by}

    act = Action(
        "Inc",
        inc,
        params={"by": lambda cfg: [1, 2]},
        reads=["x"],
        writes=["x"],
    )
    return Specification(
        "steps",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0)],
        [Module("M", [act])],
        [Invariant("I-1", "bounded", lambda cfg, s: s.x <= 3)],
        None,
    )


class TestSpecification:
    def test_action_instances_enumerated_once(self):
        spec = spec_with_actions()
        assert spec.action_instances() is spec.action_instances()
        assert len(spec.action_instances()) == 2

    def test_successors_skip_noops_and_disabled(self):
        spec = spec_with_actions()
        state = State.make(SCHEMA, x=2)
        labels = [str(l) for l, _ in spec.successors(state)]
        assert labels == ["Inc(by=1)"]  # by=2 would exceed the bound

    def test_instance_for_label(self):
        spec = spec_with_actions()
        inst = spec.instance_for(ActionLabel("Inc", (("by", 2),)))
        assert inst.apply(None, State.make(SCHEMA, x=0)).x == 2

    def test_instance_for_unknown_label(self):
        spec = spec_with_actions()
        with pytest.raises(KeyError):
            spec.instance_for(ActionLabel("Nope"))

    def test_replay_success(self):
        spec = spec_with_actions()
        labels = [
            ActionLabel("Inc", (("by", 1),)),
            ActionLabel("Inc", (("by", 2),)),
        ]
        states = spec.replay(labels, spec.initial_states()[0])
        assert [s.x for s in states] == [0, 1, 3]

    def test_replay_disabled_step_raises(self):
        spec = spec_with_actions()
        labels = [ActionLabel("Inc", (("by", 2),))] * 2
        with pytest.raises(ValueError, match="replay failed"):
            spec.replay(labels, spec.initial_states()[0])



class TestInvariant:
    def test_full_name_with_instance(self):
        inv = Invariant("I-11", "bad state", lambda c, s: True, instance="X")
        assert inv.full_name == "I-11/X"

    def test_full_name_without_instance(self):
        inv = Invariant("I-1", "x", lambda c, s: True)
        assert inv.full_name == "I-1"


class TestCheckResult:
    def _violation(self, ident="I-1"):
        state = State.make(SCHEMA, x=9)
        return Violation(
            invariant=Invariant(ident, "bounded", lambda c, s: False),
            trace=Trace(states=[state], labels=[]),
        )

    def test_summary_no_violation(self):
        result = CheckResult(spec_name="s", completed=True)
        assert "completed" in result.summary()
        assert "no violation" in result.summary()

    def test_summary_budget(self):
        result = CheckResult(spec_name="s", budget_exhausted="max_time")
        assert "max_time" in result.summary()

    def test_violated_ids_deduplicated_in_order(self):
        result = CheckResult(spec_name="s")
        result.violations = [
            self._violation("I-2"),
            self._violation("I-1"),
            self._violation("I-2"),
        ]
        assert result.violated_invariant_ids() == ["I-2", "I-1"]

    def test_first_violation(self):
        result = CheckResult(spec_name="s")
        assert result.first_violation is None
        result.violations = [self._violation()]
        assert result.first_violation.depth == 0


class TestRecCopySemantics:
    """Regression: deepcopy of Rec used to recurse via __getattr__."""

    def test_deepcopy_returns_self(self):
        record = Rec(a=1, nested=(Rec(b=2),))
        assert copy.deepcopy(record) is record
        assert copy.copy(record) is record

    def test_deepcopy_inside_containers(self):
        data = {"k": [Rec(a=1)], "m": {0: Rec(b=2)}}
        cloned = copy.deepcopy(data)
        assert cloned["k"][0] is data["k"][0]
        assert cloned == data

    def test_private_attribute_probe_raises(self):
        with pytest.raises(AttributeError):
            Rec(a=1).__deepcopy_probe__
