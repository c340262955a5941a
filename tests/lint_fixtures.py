"""Fixture spec functions and a conformant plugin for the lint tests.

The module-level functions feed ``check_action`` directly; each is the
smallest function that trips (or deliberately avoids tripping) one
analyzer rule.  ``GoodPlugin`` is a complete, well-declared plugin that
must lint clean end to end.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

from repro.remix.mapping import ActionMapping, MappedAction
from repro.system.plugin import (
    FaultSchedule,
    ROLE_LEADER,
    Scenario,
    SystemPlugin,
)
from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State

SCHEMA = Schema(("x", "y", "z"))
SCHEMA_NAMES = set(SCHEMA.names)

GLOBAL_LOG = []


# --- D-rule triggers -----------------------------------------------------------

def reads_x_and_y(config, state, i):
    """Declared with reads=["x"] this under-declares y (D01)."""
    return {"x": state["x"] + state["y"]}


def reads_only_x(config, state, i):
    """Declared with reads=["x", "y"] this over-declares y (D02)."""
    return {"x": state["x"] + 1}


def writes_x_and_z(config, state, i):
    """Declared with writes=["x"] this under-declares z (D03)."""
    return {"x": state["x"] + 1, "z": 0}


def whole_state_read(config, state, i):
    """Hashing the whole state defeats any partial closure (D01/*)."""
    return {"x": hash(state)}


def dynamic_subscript(config, state, i):
    """A computed key is statically unresolvable (D05)."""
    return {"x": state[config.key] + 1}


# --- P-rule triggers -----------------------------------------------------------

def rolls_dice(config, state, i):
    """random breaks replayability (P01)."""
    return {"x": state["x"] + random.randrange(2)}


def iterates_set(config, state, i):
    """Iteration order over a set display is unstable (P02)."""
    total = 0
    for v in {1, 2, 3}:
        total += v * state["x"]
    return {"x": total}


def mutates_global(config, state, i):
    """Appending to a module global leaks across runs (P03)."""
    GLOBAL_LOG.append(i)
    return {"x": state["x"]}


def mutable_update_value(config, state, i):
    """A list in an update dict would alias across states (P04)."""
    return {"x": [state["x"]]}


# --- resolution cases the analyzer must get right (all lint clean) -------------

def alias_read(config, state, i):
    """Reading through a local alias of the state."""
    snap = state
    return {"x": snap["y"] + 1}


def _double_y(st, i):
    return st["y"] * 2


def helper_read(config, state, i):
    """Reads flow back from a helper the state is passed into."""
    return {"x": _double_y(state, i)}


def _bump_yz(st):
    return {"y": st["y"] + 1, "z": st["z"]}


def helper_updates(config, state, i):
    """A helper-built update dict, extended through a local."""
    updates = _bump_yz(state)
    updates["x"] = state["x"]
    return updates


def _pair_read(config, state, i, j):
    return {"x": state["x"] + state["y"]}


def wrapped_pair(config, state, pair):
    """The ``pairwise`` wrapper idiom the ZooKeeper spec uses."""
    return _pair_read(config, state, pair[0], pair[1])


def sorted_set_read(config, state, i):
    """sorted() over a set is order-insensitive: no P02."""
    return {"x": sum(sorted({state["x"], state["y"]}))}


def stdlib_metadata(config, state, i):
    """len()/sorted() on state values are metadata reads, not whole reads."""
    return {"x": len(state["z"])}


# --- a complete, conformant plugin ---------------------------------------------

@dataclass(frozen=True)
class FixtureConfig:
    n_servers: int = 2
    quorum_size: int = 2
    steps: int = 4


def _inc(config, state, i):
    if state["x"] >= config.steps:
        return None
    return {"x": state["x"] + 1}


def _observe(config, state, i):
    return {"y": state["x"]}


def _non_negative(config, state):
    return state["x"] >= 0


def make_fixture_spec(config):
    inc = Action(
        "Inc",
        _inc,
        params={"i": lambda cfg: range(cfg.n_servers)},
        reads=["x"],
        writes=["x"],
    )
    observe = Action(
        "Observe",
        _observe,
        params={"i": lambda cfg: range(cfg.n_servers)},
        reads=["x"],
        writes=["y"],
    )
    return Specification(
        "fixture",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0, z=())],
        [Module("Counter", [inc, observe])],
        [
            Invariant(
                "F-1", "NonNegative", _non_negative, reads=frozenset({"x"})
            )
        ],
        config,
    )


class FixtureDriver(Scenario):
    """Scenario subclass using the constant-tuple loop idiom (all names
    real: must not trip C02)."""

    def warmup(self, leader):
        order = ("Inc", "Observe")
        out = self
        for name in order:
            if out.can(name, i=leader):
                out = out.apply(name, i=leader)
        return out


def _count_up(spec, leader, quorum):
    scenario = FixtureDriver(spec)
    if scenario.can("Inc", i=leader):
        scenario = scenario.apply("Inc", i=leader)
    return scenario


class FixtureEnsemble:
    """The smallest implementation that honours the clone() contract
    (C08): one scalar, one mutable container that clone() copies."""

    def __init__(self):
        self.x = 0
        self.log = []

    def inc(self, label):
        self.x += 1
        self.log.append(label.args["i"])
        return True

    def clone(self):
        twin = type(self)()
        twin.x = self.x
        twin.log = list(self.log)
        return twin

    def snapshot(self):
        return {"x": self.x, "log": tuple(self.log)}


def fixture_mapping():
    return ActionMapping(
        {"Inc": MappedAction("Inc", lambda ens, label: ens.inc(label))}
    )


class GoodPlugin(SystemPlugin):
    """Fully declared fixture plugin: must produce zero findings."""

    name = "goodfix"
    title = "lint fixture (conformant)"
    grains = ("tick",)
    scenario_prefixes = {"count-up": _count_up}
    fault_schedules = (
        FaultSchedule("none"),
        FaultSchedule("poke-leader", (("Inc", (("i", ROLE_LEADER),)),)),
    )
    compared_variables = ("x",)

    def default_config(self):
        return FixtureConfig()

    def make_spec(self, grain, config=None):
        if grain not in self.grains:
            raise KeyError(f"unknown or unmappable grain {grain!r}")
        return make_fixture_spec(config or self.default_config())

    def make_mapping(self, grain):
        if grain not in self.grains:
            raise KeyError(f"unknown or unmappable grain {grain!r}")
        return fixture_mapping()

    def ensemble_factory(self, config):
        return FixtureEnsemble

    def budget_limits(self, config):
        return {"Inc": config.steps}

    def config_from_meta(self, meta):
        return FixtureConfig(**meta.get("config", {}))


# Keep an explicit use of ``copy`` so the import is not flagged unused;
# the D05 fixture below passes state into a stdlib callable.
def stdlib_opaque(config, state, i):
    """state handed to a stdlib function is unresolvable (D05)."""
    return {"x": copy.deepcopy(state)["x"]}
