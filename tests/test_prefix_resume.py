"""A coordinate's scripted prefix is judged once per process -- and no
report can tell.

A campaign cell's runs all start with the cell coordinate's scripted
scenario + fault prefix.  The spec cache keeps, per coordinate, the
lockstep resume point at the prefix's end once the prefix was judged
clean on a fresh ensemble (``spec_cache.cached_resume_point``), and the
judges enter there on a ``clone()`` of it.  Every test here holds that
against a never-resuming reference: the same code with the cache lookup
patched to miss, so every run replays from step 0 on a fresh ensemble."""

import json
import threading
import time

import pytest

from repro.analysis.conformance import clone_defects
from repro.remix import minimize, spec_cache
from repro.remix.campaign import CampaignJob, run_campaign, run_cell
from repro.remix.mapping import ActionMapping, MappedAction
from repro.remix.minimize import (
    DIRECTION_TABLE,
    replay_min_trace,
)
from repro.remix.registry import system_plugin
from repro.remix.request import CampaignRequest
from repro.remix.service import serve_request
from repro.system.plugin import ScenarioError

SYSTEMS = ("zookeeper", "raft")
DIRECTIONS = ("topdown", "bottomup")
SEEDS = (7, 1007, 3, 42, 99)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Engines and resume points are process-wide: every test starts
    and ends on an empty cache, so a patched mapping or compared tuple
    cannot leak into another test."""
    spec_cache.clear()
    yield
    spec_cache.clear()


def never_resuming(monkeypatch):
    """The reference: the resume-point lookup always misses."""
    monkeypatch.setattr(minimize, "cached_resume_point", lambda *args: None)


def report_bytes(system, seed):
    report = run_campaign(
        CampaignRequest(system=system, seed=seed, directions=DIRECTIONS, shrink=True)
    ).to_json()
    report["campaign"].pop("elapsed_seconds")
    return json.dumps(report, sort_keys=True)


def coordinates(system):
    """Every applicable (grain, coordinate, prefix) of a system's
    campaign matrix."""
    plugin = system_plugin(system)
    config = plugin.campaign_config()
    leader = config.n_servers - 1
    for grain in plugin.grains:
        for scenario in plugin.scenario_names():
            for fault in plugin.fault_names():
                coordinate = (scenario, fault, leader, 0)
                try:
                    prefix = spec_cache.cached_prefix(
                        grain, config, *coordinate, system=system
                    )
                except ScenarioError:
                    continue
                yield grain, coordinate, prefix


# ----------------------------------------------------- the differential


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_reports_equal_the_never_resuming_reference(system, seed, monkeypatch):
    """Both directions, every grain, shrink on: cells, findings and
    ``min_trace``s byte for byte."""
    resumed = report_bytes(system, seed)
    stats = spec_cache.stats()
    assert stats["resume_hits"] > stats["resume_misses"] > 0
    with monkeypatch.context() as patch:
        never_resuming(patch)
        spec_cache.clear()
        reference = report_bytes(system, seed)
        assert spec_cache.stats()["resume_misses"] == 0
    assert resumed == reference


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_cached_point_is_a_fresh_full_replay(system):
    """For every applicable coordinate and both judges, the point handed
    out equals -- field by field, sharing nothing -- the ensemble a full
    replay of the prefix on a fresh ensemble leaves, and it is
    independent of the cached point itself."""
    config = system_plugin(system).campaign_config()
    checked = negative = 0
    for grain, coordinate, prefix in coordinates(system):
        for direction in DIRECTIONS:
            judge = DIRECTION_TABLE[direction].judge(
                grain, None, config, system, coordinate
            )
            point = judge._prefix_point(prefix.labels)
            if point is None:
                negative += 1
                continue
            fresh = judge.lockstep.start()
            if direction == "topdown":
                assert judge.lockstep.replay(prefix.trace(), resume=fresh).clean
            else:
                assert judge.lockstep.validate_labels(
                    prefix.labels, resume=fresh
                ).valid
                assert point[2] == prefix.states[-1]
            assert point[0] == len(prefix.labels)
            assert clone_defects(fresh[1], point[1]) == []
            _, cached = spec_cache._RESUME_POINTS[judge._prefix_key]
            assert clone_defects(cached[1], point[1]) == []
            checked += 1
    assert checked > 30
    # raft's planted bugs make its crash-restart prefixes diverge
    assert (negative > 0) == (system == "raft")


# ------------------------------------------------------ negative entries


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_a_refused_prefix_label_is_a_negative_entry(direction, monkeypatch):
    """A mapping whose entry for a prefix label refuses to step: the
    prefix's judgment is stuck, the entry negative, and the cell is what
    the from-scratch replay reports."""
    plugin = system_plugin("zookeeper")
    config = plugin.campaign_config()
    job = CampaignJob(
        0, "mSpec-1", "sync", "crash-follower", 7, 2, 12,
        direction=direction, system="zookeeper",
    )
    prefix = spec_cache.cached_prefix(
        job.grain, config, job.scenario, job.fault, config.n_servers - 1, 0
    )
    refused = prefix.labels[-1].name  # the injected crash
    real = plugin.make_mapping

    def stubbed(grain):
        entries = dict(real(grain).entries)
        entries[refused] = MappedAction(refused, lambda ensemble, label: False)
        return ActionMapping(entries)

    monkeypatch.setattr(plugin, "make_mapping", stubbed)
    spec_cache.clear()
    cell = run_cell(job, config)
    stats = spec_cache.stats()
    assert (stats["resume_misses"], stats["resume_hits"]) == (1, 0)
    assert stats["resume_negative"] == job.traces - 1
    never_resuming(monkeypatch)
    spec_cache.clear()
    assert run_cell(job, config) == cell
    if direction == "topdown":
        assert {f["kind"] for f in cell["findings"]} == {"action_stuck"}


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_an_unknown_compared_variable_is_a_negative_entry(
    direction, system, monkeypatch
):
    plugin = system_plugin(system)
    config = plugin.campaign_config()
    monkeypatch.setattr(
        plugin, "compared_variables", tuple(plugin.compared_variables) + ("typo",)
    )
    job = CampaignJob(
        0, plugin.grains[0], "election", "none", 7, 2, 8,
        direction=direction, system=system,
    )
    cell = run_cell(job, config)
    stats = spec_cache.stats()
    assert (stats["resume_misses"], stats["resume_negative"]) == (1, 1)
    assert "unknown_variable" in {f["kind"] for f in cell["findings"]}
    never_resuming(monkeypatch)
    spec_cache.clear()
    assert run_cell(job, config) == cell


def test_a_divergent_prefix_is_a_negative_entry(monkeypatch):
    """Raft's default build forgets its vote on restart: the judgment of
    a crash-restart prefix is not clean, and the cell says what the
    from-scratch replay says."""
    config = system_plugin("raft").campaign_config()
    for direction in DIRECTIONS:
        job = CampaignJob(
            0, "raft-coarse", "election", "crash-restart-follower", 7, 2, 8,
            direction=direction, system="raft",
        )
        spec_cache.clear()
        cell = run_cell(job, config)
        assert spec_cache.stats()["resume_negative"] == job.traces - 1
        assert cell["findings"]
        with monkeypatch.context() as patch:
            never_resuming(patch)
            assert run_cell(job, config) == cell


# ------------------------------------------------- who never consults it


@pytest.mark.parametrize("system", SYSTEMS)
def test_the_min_trace_checks_never_consult_the_cache(system, monkeypatch, campaign_json):
    # test_shrink_resume.py's reducible_min_traces replays through replay_min_trace
    report = campaign_json(
        CampaignRequest(system=system, seed=7, directions=DIRECTIONS, shrink=True)
    )
    consulted = []
    real = minimize.cached_resume_point

    def counting(*args):
        consulted.append(args[0])
        return real(*args)

    monkeypatch.setattr(minimize, "cached_resume_point", counting)
    config = system_plugin(system).campaign_config()
    assert all(
        replay_min_trace(finding, config, system) for finding in report["findings"]
    )
    assert consulted == []


# ---------------------------------------------------- the cache itself


def judge_and_prefix(direction="topdown"):
    config = system_plugin("zookeeper").campaign_config()
    coordinate = ("sync", "none", config.n_servers - 1, 0)
    prefix = spec_cache.cached_prefix("mSpec-1", config, *coordinate)
    judge = DIRECTION_TABLE[direction].judge(
        "mSpec-1", None, config, "zookeeper", coordinate
    )
    return judge, prefix


def test_clear_drops_the_points():
    judge, prefix = judge_and_prefix()
    assert judge._prefix_point(prefix.labels) is not None
    assert judge._prefix_point(prefix.labels) is not None
    assert judge._prefix_point(prefix.labels[:-1]) is None  # leaves the prefix
    stats = spec_cache.stats()
    assert [stats[f"resume_{kind}"] for kind in ("misses", "hits", "negative")] == [
        1, 1, 0,
    ]
    assert spec_cache._RESUME_POINTS
    spec_cache.clear()
    assert not spec_cache._RESUME_POINTS
    assert spec_cache.stats()["resume_hits"] == 0
    judge, prefix = judge_and_prefix()
    assert judge._prefix_point(prefix.labels) is not None
    assert spec_cache.stats()["resume_misses"] == 1


def test_the_counters_reach_the_report_event():
    """``resume_*`` are plain ``spec_cache.stats()`` counters, so the
    served report event's stats delta (and the server's ``stats`` answer,
    which is ``stats()`` itself) carries them."""
    events = []
    request = CampaignRequest(
        grains=("mSpec-1",), scenarios=("sync",), seeds=1, workers=1, shrink=True
    )
    assert serve_request(request, events.append) is not None
    delta = events[-1]["spec_cache"]
    resume = {key: delta[key] for key in delta if key.startswith("resume_")}
    assert sorted(resume) == ["resume_hits", "resume_misses", "resume_negative"]
    assert all(type(value) is int for value in resume.values())
    assert resume["resume_misses"] > 0 and resume["resume_hits"] > 0


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_racing_threads_judge_the_prefix_once(direction, monkeypatch):
    oracle = DIRECTION_TABLE[direction].judge
    judged = []
    real = oracle._clean_point

    def slow(self, prefix):
        judged.append(prefix)
        time.sleep(0.05)  # widen the race window
        return real(self, prefix)

    monkeypatch.setattr(oracle, "_clean_point", slow)
    points = []

    def take():
        judge, prefix = judge_and_prefix(direction)
        points.append(judge._prefix_point(prefix.labels))

    threads = [threading.Thread(target=take) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(judged) == 1
    assert len(points) == 2 and None not in points
    assert points[0][1] is not points[1][1]
    assert clone_defects(points[0][1], points[1][1]) == []
    stats = spec_cache.stats()
    assert (stats["resume_misses"], stats["resume_hits"]) == (1, 1)
