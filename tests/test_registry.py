"""The system-plugin registry: lookup, isolation and cross-plugin
campaign behaviour (ISSUE 6's tentpole surface)."""

import json

import pytest

from repro.cli import main
from repro.remix import spec_cache
from repro.remix.campaign import CampaignRequest, ConformanceCampaign
from repro.remix.minimize import unreplayable_min_traces
from repro.remix.registry import (
    register_system,
    registered_systems,
    system_plugin,
)
from repro.system.plugin import SystemPlugin


@pytest.fixture(autouse=True)
def fresh_cache():
    spec_cache.clear()
    yield
    spec_cache.clear()


def small_raft_campaign(**overrides):
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
    return ConformanceCampaign(CampaignRequest(**kwargs))


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
        report = small_raft_campaign(shrink=True).run()
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

    def test_raft_campaign_workers_identical(self):
        seq = small_raft_campaign(workers=1, shrink=True).run().to_json()
        par = small_raft_campaign(workers=2, shrink=True).run().to_json()
        for key in ("cells", "findings", "totals"):
            assert seq[key] == par[key], key

    def test_raft_report_is_reproducible(self):
        first = small_raft_campaign().run().to_json()
        second = small_raft_campaign().run().to_json()
        for key in ("cells", "findings", "totals"):
            assert json.dumps(first[key], sort_keys=True) == json.dumps(
                second[key], sort_keys=True
            ), key

    def test_fixed_variant_conforms(self):
        from repro.raft.config import FIXED_VARIANT

        plugin = system_plugin("raft")
        config = plugin.campaign_config().with_variant(FIXED_VARIANT)
        report = small_raft_campaign(config=config).run()
        assert report.totals["distinct_findings"] == 0

    def test_zookeeper_default_system_unchanged(self):
        campaign = ConformanceCampaign(
            CampaignRequest(
                grains=("mSpec-1",),
                scenarios=("election",),
                faults=("none",),
                traces=1,
                max_steps=2,
            )
        )
        report = campaign.run()
        assert report.meta["system"] == "zookeeper"
        assert campaign.jobs()[0].system == "zookeeper"
