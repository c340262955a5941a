"""The system-plugin registry: lookup, isolation and cross-plugin
campaign behaviour (ISSUE 6's tentpole surface)."""

import functools
import json
from math import comb

import pytest

from repro.cli import main
from repro.raft.config import RaftConfig
from repro.remix import spec_cache
from repro.remix.campaign import campaign_jobs, run_campaign
from repro.remix.minimize import unreplayable_min_traces
from repro.remix.registry import (
    register_system,
    registered_systems,
    system_plugin,
)
from repro.remix.request import CampaignRequest
from repro.system.plugin import SystemPlugin
from repro.zab import ZabConfig
from repro.zookeeper import ZkConfig


pytestmark = pytest.mark.usefixtures("fresh_cache")


def small_raft_request(**overrides):
    kwargs = dict(
        system="raft",
        grains=("raft-coarse",),
        scenarios=("election", "commit"),
        faults=("none", "crash-restart-follower"),
        traces=1,
        max_steps=4,
        directions=("topdown", "bottomup"),
    )
    kwargs.update(overrides)
    return CampaignRequest(**kwargs)


class TestRegistry:
    def test_builtins_registered(self):
        assert registered_systems() == ["raft", "zookeeper"]

    def test_unknown_system_lists_registered_plugins(self):
        with pytest.raises(KeyError) as err:
            system_plugin("etcd")
        message = err.value.args[0]
        assert "unknown system 'etcd'" in message
        assert "raft" in message and "zookeeper" in message

    def test_unknown_system_cli_exit_2(self, capsys):
        assert main(["campaign", "--system", "etcd"]) == 2
        err = capsys.readouterr().err
        assert "unknown system 'etcd'" in err
        assert "zookeeper" in err

    def test_register_replaces_and_rejects_unnamed(self):
        class Stub(SystemPlugin):
            name = "stub-system"
            title = "stub"

        plugin = register_system(Stub())
        try:
            assert system_plugin("stub-system") is plugin
            replacement = register_system(Stub())
            assert system_plugin("stub-system") is replacement
        finally:
            from repro.remix import registry

            registry._SYSTEM_PLUGINS.pop("stub-system", None)
        with pytest.raises(ValueError):
            register_system(SystemPlugin())

    def test_plugin_axes_are_consistent(self):
        for name in registered_systems():
            plugin = system_plugin(name)
            assert plugin.name == name
            assert plugin.grains
            assert "none" in plugin.fault_names()
            for fault in plugin.fault_names():
                assert plugin.fault_schedule(fault).name == fault
            with pytest.raises(KeyError):
                plugin.fault_schedule("no-such-fault")

    def test_config_meta_round_trips(self):
        for name in registered_systems():
            plugin = system_plugin(name)
            config = plugin.campaign_config()
            meta = {"config": plugin.config_meta(config)}
            assert plugin.config_from_meta(meta) == config


class TestDigestIsolation:
    # On disk, one system's edits leave the other's entries hits: the
    # raft-source and zookeeper-source rows of tests/test_stale_inputs.py.

    def test_memory_cache_keys_include_system(self):
        config = system_plugin("raft").campaign_config()
        spec = spec_cache.cached_spec("raft-coarse", config, system="raft")
        again = spec_cache.cached_spec("raft-coarse", config, system="raft")
        assert spec is again
        with pytest.raises(KeyError):
            # the same grain name does not resolve through another plugin
            spec_cache.cached_spec("raft-coarse", None, system="zookeeper")


class TestRaftCampaign:
    def test_raft_campaign_finds_planted_bugs(self):
        report = run_campaign(small_raft_request(shrink=True))
        totals = report.totals
        assert totals["distinct_findings"] > 0
        assert totals["bottomup_findings"] > 0
        variables = {
            finding.get("variable")
            for finding in report.findings
            if finding["kind"] == "state_mismatch"
        }
        assert "voted_for" in variables
        assert report.meta["system"] == "raft"
        assert unreplayable_min_traces(report.to_json()) == []

    @pytest.mark.parametrize(
        "request_for",
        [
            pytest.param(small_raft_request, id="small"),
            # every grain, scenario and fault
            pytest.param(
                functools.partial(
                    CampaignRequest, system="raft", seed=7, directions=("topdown", "bottomup")
                ),
                id="default-matrix",
            ),
        ],
    )
    def test_raft_campaign_workers_identical(self, request_for, campaign_json):
        seq = campaign_json(request_for(workers=1, shrink=True))
        par = campaign_json(request_for(workers=2, shrink=True))
        for key in ("cells", "findings", "totals"):
            assert seq[key] == par[key], key

    def test_raft_report_is_reproducible(self):
        first = run_campaign(small_raft_request()).to_json()
        second = run_campaign(small_raft_request()).to_json()
        for key in ("cells", "findings", "totals"):
            assert json.dumps(first[key], sort_keys=True) == json.dumps(
                second[key], sort_keys=True
            ), key

    def test_fixed_variant_conforms(self):
        from repro.raft.config import FIXED_VARIANT

        plugin = system_plugin("raft")
        config = plugin.campaign_config().with_variant(FIXED_VARIANT)
        report = run_campaign(small_raft_request(config=config))
        assert report.totals["distinct_findings"] == 0

    def test_zookeeper_default_system_unchanged(self):
        request = CampaignRequest(
            grains=("mSpec-1",),
            scenarios=("election",),
            faults=("none",),
            traces=1,
            max_steps=2,
        )
        report = run_campaign(request)
        assert report.meta["system"] == "zookeeper"
        assert campaign_jobs(request)[0].system == "zookeeper"


class TestConfigs:
    @pytest.mark.parametrize(
        "config", [ZkConfig, RaftConfig, ZabConfig], ids=["zookeeper", "raft", "zab"]
    )
    def test_every_two_quorums_intersect(self, config):
        # Safety of every election and commit rests on this.
        for n in range(1, 7):
            cfg = config(n_servers=n)
            quorums = cfg.quorums()
            sizes = range(cfg.quorum_size, n + 1)
            assert len(set(quorums)) == len(quorums) == sum(comb(n, k) for k in sizes)
            assert all(cfg.is_quorum(q) and set(q) <= set(cfg.servers) for q in quorums)
            assert all(set(a) & set(b) for a in quorums for b in quorums)
            assert not cfg.is_quorum(cfg.servers[: cfg.quorum_size - 1])
            # a repeated vote counts once
            assert cfg.is_quorum((0,) * n) == (n == 1)

    @pytest.mark.parametrize("bound", ["max_partitions", "max_epoch", "max_msg_faults"])
    def test_zookeeper_refuses_a_negative_bound(self, bound):
        with pytest.raises(ValueError, match=f"{bound} must be at least 0, got -1"):
            ZkConfig(**{bound: -1})
        assert getattr(ZkConfig(**{bound: 0}), bound) == 0
