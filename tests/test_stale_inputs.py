"""The stale-input lane: every on-disk entry kind x every input its value
depends on, as one table.

The on-disk cache keys an entry by what deriving it read
(``repro.checker.bundle``): a compile bundle by the spec's functions,
configuration and deriving code; a scenario-prefix trace -- positive, or
the ``ScenarioError`` a coordinate that cannot be scripted raises -- by
that compile key plus the initial-state function, the scenario builder,
the fault schedule by value and the roles.  Each row warms one entry,
starts a fresh process image (memory caches cleared, same disk), edits
one input and looks the entry up again: where the kind reads the input
that must be a miss -- which then stores an entry the next process hits
-- and where it does not, a hit.

A source edit is simulated the way a new process would see it: the
memoized digest of the edited file or package changes.  A code edit is
simulated in-process: the function's code object changes, its file does
not, so the key must see the code itself.
"""

import dataclasses
import os
import sys

import pytest

import repro.analysis
import repro.raft
import repro.system
import repro.zookeeper
from repro.checker import bundle, disk_cache
from repro.remix import spec_cache
from repro.remix.registry import system_plugin
from repro.system.plugin import ROLE_FOLLOWER, ROLE_LEADER, ScenarioError
from repro.zookeeper import faults as zk_faults
from repro.zookeeper import scenarios as zk_scenarios

KINDS = ("prefix", "negative", "bundle")


@dataclasses.dataclass(frozen=True)
class Cell:
    """One grain of one system, a coordinate that scripts and one that
    cannot (its fault is not enabled there)."""

    system: str
    grain: str
    positive: tuple
    negative: tuple
    overrides: tuple = ()

    def config(self):
        config = system_plugin(self.system).campaign_config()
        return dataclasses.replace(config, **dict(self.overrides))


ZK = Cell(
    "zookeeper", "mSpec-1",
    ("election", "crash-follower", 2, 0),
    ("election", "message-duplicate", 2, 0),
)
RAFT = Cell(
    "raft", "raft-coarse",
    ("election", "crash-leader", 2, 0),
    ("election", "partition", 2, 0),
    overrides=(("max_partitions", 0),),
)


def look_up(kind, cell, config):
    """``"hit"`` or ``"miss"``: where ``kind``'s entry for ``cell`` came
    from in this process (memory caches start empty)."""
    if kind == "bundle":
        spec_cache.cached_spec(cell.grain, config, system=cell.system)
        counts = bundle.stats()
        hits, misses = counts["bundle_hits"], counts["bundle_misses"]
    else:
        coordinate = cell.positive if kind == "prefix" else cell.negative
        try:
            spec_cache.cached_prefix(cell.grain, config, *coordinate, system=cell.system)
        except ScenarioError:
            assert kind == "negative"
        else:
            assert kind == "prefix"
        counts = spec_cache.stats()
        hits, misses = counts["disk_hits"], counts["disk_misses"]
    assert (hits, misses) in ((1, 0), (0, 1)), counts
    return "hit" if hits else "miss"


# --- the inputs ----------------------------------------------------------------


def edit_source(monkeypatch, path):
    """What a new process sees after ``path`` (a file or package) was
    edited: another digest of it."""
    assert disk_cache.source_digest(path) is not None
    monkeypatch.setitem(disk_cache._SOURCE_DIGESTS, path, "edited")


def package(module):
    return os.path.dirname(module.__file__)


def edit_code(monkeypatch, fn):
    """``fn``'s body edited in place; its source file unchanged."""
    code = fn.__code__
    monkeypatch.setattr(fn, "__code__", code.replace(co_consts=code.co_consts + ("edited",)))


def elect_elsewhere(spec, leader, quorum):
    """ZooKeeper's election prefix, scripted by a builder that lives
    outside every package the spec reaches."""
    return zk_scenarios.Scenario(spec).elect(leader, quorum)


def move_the_builder(monkeypatch):
    monkeypatch.setitem(zk_scenarios.SCENARIO_PREFIXES, "election", elect_elsewhere)


def swap_roles(monkeypatch):
    """Every scheduled step aimed at the other server."""
    swap = {ROLE_LEADER: ROLE_FOLLOWER, ROLE_FOLLOWER: ROLE_LEADER}
    plugin_class = type(system_plugin("zookeeper"))
    monkeypatch.setattr(plugin_class, "fault_schedules", tuple(
        dataclasses.replace(schedule, steps=tuple(
            (action, tuple((param, swap.get(role, role)) for param, role in params))
            for action, params in schedule.steps
        ))
        for schedule in plugin_class.fault_schedules
    ))


def bump_codegen(monkeypatch):
    from repro.tla import codegen

    monkeypatch.setattr(codegen, "CODEGEN_VERSION", codegen.CODEGEN_VERSION + 1)


@dataclasses.dataclass(frozen=True)
class Row:
    """Edit one input, then expect, per kind in :data:`KINDS`, a miss or
    a hit.  ``setup`` runs before the warm-up, ``edit`` after it and may
    return the configuration to look up with."""

    input: str
    edit: object
    expect: tuple = ("miss", "miss", "miss")
    cell: Cell = ZK
    setup: object = None


ROWS = [
    Row("action-body", lambda mp, config: edit_code(mp, zk_faults.node_crash)),
    # PartitionStart's action function is unpack's lambda; partition_start
    # sits in its closure cell and nothing names it globally.
    Row("closure-helper", lambda mp, config: edit_code(mp, zk_faults.partition_start)),
    Row("spec-source", lambda mp, config: edit_source(mp, package(repro.zookeeper))),
    Row(
        "builder-module",
        lambda mp, config: edit_source(mp, elect_elsewhere.__globals__["__file__"]),
        expect=("miss", "miss", "hit"),
        setup=move_the_builder,
    ),
    Row("fault-steps", lambda mp, config: swap_roles(mp), expect=("miss", "miss", "hit")),
    # FaultSchedule.resolve and Scenario.apply script every prefix.
    Row("system-source", lambda mp, config: edit_source(mp, package(repro.system))),
    Row("analyzer-source", lambda mp, config: edit_source(mp, package(repro.analysis))),
    Row("config-field", lambda mp, config: dataclasses.replace(config, max_txns=2)),
    Row("codegen-version", lambda mp, config: bump_codegen(mp)),
    Row(
        "cache-tag",
        lambda mp, config: mp.setattr(sys.implementation, "cache_tag", "cpython-000"),
    ),
    # Isolation: one system's sources are nothing another's entries read.
    Row(
        "raft-source",
        lambda mp, config: edit_source(mp, package(repro.raft)),
        expect=("hit", "hit", "hit"),
    ),
    Row(
        "zookeeper-source",
        lambda mp, config: edit_source(mp, package(repro.zookeeper)),
        expect=("hit", "hit", "hit"),
        cell=RAFT,
    ),
]


@pytest.fixture
def disk(tmp_path):
    disk_cache.set_disk_cache_dir(str(tmp_path / "disk"))
    spec_cache.clear()
    yield
    disk_cache.set_disk_cache_dir(None)
    spec_cache.clear()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("row", ROWS, ids=[row.input for row in ROWS])
def test_an_edited_input_misses_exactly_where_it_is_read(row, kind, disk, monkeypatch):
    config = row.cell.config()
    if row.setup is not None:
        row.setup(monkeypatch)
    assert look_up(kind, row.cell, config) == "miss"  # cold
    spec_cache.clear()
    assert look_up(kind, row.cell, config) == "hit"  # warm, nothing edited
    spec_cache.clear()
    config = row.edit(monkeypatch, config) or config
    expected = row.expect[KINDS.index(kind)]
    assert look_up(kind, row.cell, config) == expected
    if expected == "miss":
        spec_cache.clear()  # ... and the miss stored what the next process hits
        assert look_up(kind, row.cell, config) == "hit"
