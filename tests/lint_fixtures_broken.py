"""A deliberately non-conformant plugin: one trigger per live C-rule up
to C08 (C05 is retired), and a second plugin whose only fault is C09 (a
refused step is judged on a clone, so that plugin's ``clone()`` has to
be sound).

Kept in its own module so its Scenario subclass (scanned through the
prefix builders' globals) cannot leak C02 findings into the conformant
fixture plugin next door.
"""

from __future__ import annotations

import copy

from repro.remix.mapping import ActionMapping, MappedAction
from repro.system.plugin import FaultSchedule, ROLE_LEADER, Scenario, SystemPlugin
from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import State

from lint_fixtures import (
    SCHEMA,
    FixtureConfig,
    FixtureEnsemble,
    GoodPlugin,
    _inc,
    _non_negative,
    fixture_mapping,
)


def make_broken_spec(config):
    inc = Action(
        "Inc",
        _inc,
        params={"i": lambda cfg: range(cfg.n_servers)},
        reads=["x"],
        writes=["x"],
    )
    return Specification(
        "broken-fixture",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0, z=())],
        [Module("Counter", [inc])],
        [
            Invariant(
                "F-1", "NonNegative", _non_negative, reads=frozenset({"x"})
            )
        ],
        config,
    )


class BrokenDriver(Scenario):
    """Loops over a constant tuple containing an unknown action (C02)."""

    def haunt(self, leader):
        out = self
        for name in ("Phantom",):
            if out.can(name, i=leader):
                out = out.apply(name, i=leader)
        return out


def _ghost(spec, leader, quorum):
    scenario = BrokenDriver(spec)
    if scenario.can("Vanish", i=leader):
        scenario = scenario.apply("Vanish", i=leader)
    return scenario


class LeakyEnsemble(FixtureEnsemble):
    """A shallow clone() shares ``log`` with the original (C08 x2: the
    shared list, and a step on the clone that moves the original)."""

    def clone(self):
        return copy.copy(self)


class BrokenPlugin(SystemPlugin):
    """Every C-rule trips at least once."""

    name = "brokenfix"
    title = "lint fixture (broken)"
    grains = ("ok", "missing", "badmap")
    scenario_prefixes = {"ghost": _ghost}
    # No "none" schedule; unknown action, wrong parameter name and an
    # unknown role placeholder (C03 x4).
    fault_schedules = (
        FaultSchedule("crash-ghost", (("Ghost", (("i", ROLE_LEADER),)),)),
        FaultSchedule("bad-binding", (("Inc", (("who", ROLE_LEADER),)),)),
        FaultSchedule("bad-role", (("Inc", (("i", "bystander"),)),)),
    )
    compared_variables = ("x", "phantom")  # C04

    def default_config(self):
        return FixtureConfig()

    def make_spec(self, grain, config=None):
        if grain == "missing":
            raise KeyError(f"unknown or unmappable grain {grain!r}")  # C01
        return make_broken_spec(config or self.default_config())

    def make_mapping(self, grain):
        if grain != "ok":
            raise KeyError(f"no mapping for grain {grain!r}")  # C01
        return fixture_mapping()

    def ensemble_factory(self, config):
        return LeakyEnsemble

    def budget_limits(self, config):
        return {"Ghost": 1}  # C06

    # config_from_meta deliberately not implemented -> C07.


class HastyEnsemble(FixtureEnsemble):
    """``observe`` takes the message off the inbox and only then finds
    it has no use for it (C09): the refusal leaves the inbox shorter."""

    def __init__(self):
        super().__init__()
        self.inbox = ["hello"]

    def observe(self, label):
        self.inbox.pop()
        return False

    def clone(self):
        twin = super().clone()
        twin.inbox = list(self.inbox)
        return twin


class RefusingPlugin(GoodPlugin):
    """Conformant but for one mapped step that mutates, then refuses."""

    name = "refusefix"
    title = "lint fixture (refused step mutates)"

    def make_mapping(self, grain):
        entries = dict(super().make_mapping(grain).entries)
        entries["Observe"] = MappedAction(
            "Observe", lambda ens, label: ens.observe(label)
        )
        return ActionMapping(entries)

    def ensemble_factory(self, config):
        return HastyEnsemble
