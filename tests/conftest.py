"""Shared fixtures and helpers for the test suite."""

import json

import pytest

from repro.tla.values import Rec, Txn, Zxid
from repro.zookeeper.config import ZkConfig
from repro.zookeeper.schema import initial_state


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


@pytest.fixture(scope="session")
def campaign_json():
    """``run_campaign(request).to_json()``, run once per distinct request
    in a session (each call gets its own copy): the default-matrix
    campaigns that several tests judge are the costliest runs in the
    suite."""
    from repro.remix.campaign import run_campaign

    runs = {}

    def run(request):
        key = json.dumps(request.to_json(), sort_keys=True)
        if key not in runs:
            runs[key] = json.dumps(run_campaign(request).to_json())
        return json.loads(runs[key])

    return run


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


@pytest.fixture
def config():
    return ZkConfig()


@pytest.fixture
def small_config():
    """The standard small model-checking configuration used by the bug
    reproduction tests."""
    return ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)
