"""Shared fixtures and helpers for the test suite: one copy each of the
counter specification, the run signature and a report's bytes."""

import json

import pytest

from repro.remix import spec_cache
from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State
from repro.tla.values import Rec, Txn, Zxid
from repro.zookeeper.config import ZkConfig
from repro.zookeeper.schema import initial_state

#: The ZooKeeper configuration of the differential tests.
SMALL = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)

SCHEMA = Schema(("x", "y"))


@pytest.fixture(autouse=True, scope="session")
def _isolated_spec_cache(tmp_path_factory):
    """Point the on-disk spec cache at a per-session temp directory so
    test runs never touch (or depend on) ~/.cache; disk-layer tests
    override the location themselves via spec_cache.set_disk_cache_dir."""
    import os

    os.environ.setdefault(
        "REPRO_SPEC_CACHE_DIR", str(tmp_path_factory.mktemp("spec-cache"))
    )
    yield


def pytest_collection_modifyitems(items):
    """Run each test once: ``from test_x import TestY`` in another test
    module collects every test of ``TestY`` a second time there, so a
    test collected from a module other than the one that defines it
    fails the collection.  Import constants and helpers, not tests."""
    strays = [
        item.nodeid
        for item in items
        if getattr(item, "function", None) is not None
        and item.function.__module__ != item.module.__name__
    ]
    if strays:
        raise pytest.UsageError(
            "tests collected outside the module that defines them: " + ", ".join(strays)
        )


@pytest.fixture
def fresh_cache():
    """Engines, prefixes and resume points are process-wide: the test
    starts and ends on an empty spec cache with its counters at zero, so
    a patched mapping or a compared counter cannot leak into another
    test."""
    spec_cache.clear()
    yield
    spec_cache.clear()


@pytest.fixture(scope="session")
def campaign_json():
    """``run_campaign(request).to_json()``, run once per distinct request
    in a session (each call gets its own copy): the default-matrix
    campaigns that several tests judge are the costliest runs in the
    suite.  ``stats=True`` also returns how far the run moved each
    ``spec_cache.stats()`` counter."""
    from repro.remix.campaign import run_campaign

    runs = {}

    def run(request, stats=False):
        key = json.dumps(request.to_json(), sort_keys=True)
        if key not in runs:
            before = spec_cache.stats()
            text = json.dumps(run_campaign(request).to_json())
            moved = {name: n - before.get(name, 0) for name, n in spec_cache.stats().items()}
            runs[key] = text, moved
        text, moved = runs[key]
        return (json.loads(text), dict(moved)) if stats else json.loads(text)

    return run


def report_bytes(report):
    """A campaign report (or its ``to_json()``) as sorted JSON without
    its one wall-clock field, ``campaign.elapsed_seconds``."""
    document = report if isinstance(report, dict) else report.to_json()
    campaign = {k: v for k, v in document["campaign"].items() if k != "elapsed_seconds"}
    return json.dumps({**document, "campaign": campaign}, sort_keys=True)


def run_sig(result):
    """What a run answers: states, transitions, depth and each violation's
    invariant and label chain, in the order recorded."""
    return (
        result.states_explored,
        result.transitions,
        result.max_depth,
        [
            (v.invariant.full_name, [str(label) for label in v.trace.labels])
            for v in result.violations
        ],
    )


def counter_spec(
    max_x=4, y_bound=2, constraint=None, roots=1, name="counter", never_fires=False
):
    """``x`` counts to ``max_x`` and ``y`` up to ``x``; invariant I-1 is
    ``y <= y_bound``.  ``roots`` initial states ``x = 0 .. roots - 1``;
    ``never_fires`` adds an action that is never enabled."""

    def inc_x(config, state):
        if state.x >= max_x:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:
            return None
        return {"y": state.y + 1}

    def noop_z(config, state):
        return None

    actions = [
        Action("IncX", inc_x, reads=["x"], writes=["x"]),
        Action("IncY", inc_y, reads=["x", "y"], writes=["y"]),
    ]
    if never_fires:
        actions.append(Action("NeverFires", noop_z, reads=["x"], writes=["x"]))
    return Specification(
        name,
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=x, y=0) for x in range(roots)],
        [Module("counter", actions)],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= y_bound)],
        None,
        constraint=constraint,
    )


def lying_spec():
    """IncY's guard reads ``x`` but declares only ``y`` -- an untruthful
    dependency declaration that poisons memo/kernel entries."""

    def inc_x(config, state):
        if state.x >= 3:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:  # reads x, undeclared
            return None
        return {"y": state.y + 1}

    module = Module(
        "liar",
        [
            Action("IncX", inc_x, reads=["x"], writes=["x"]),
            Action("IncY", inc_y, reads=["y"], writes=["y"]),
        ],
    )
    return Specification(
        "liar",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= 99)],
        None,
    )


def txn(epoch, counter, value=None):
    """Shorthand transaction constructor."""
    return Txn(Zxid(epoch, counter), value if value is not None else counter)


def zk_state(config=None, **overrides):
    """The ZooKeeper initial state with some variables overridden."""
    config = config or ZkConfig()
    state = initial_state(config)
    if overrides:
        state = state.set(**overrides)
    return state


def established(epoch, initial=(), committed=()):
    """A g_established record."""
    return Rec(epoch=epoch, initial=tuple(initial), committed=tuple(committed))
