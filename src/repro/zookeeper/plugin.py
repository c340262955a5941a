"""The ZooKeeper system plugin: the paper's subject system, packaged
behind the generic :class:`~repro.system.plugin.SystemPlugin` surface.

Loaded lazily by :func:`repro.remix.registry.system_plugin`; importing
this module registers the plugin under the name ``"zookeeper"``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from repro.impl.ensemble import Ensemble
from repro.remix.coordinator import COMPARED_VARIABLES
from repro.system.plugin import SystemPlugin
from repro.zookeeper.config import SpecVariant, ZkConfig
from repro.zookeeper.faults import FAULT_SCHEDULES
from repro.zookeeper.scenarios import SCENARIO_PREFIXES
from repro.zookeeper.specs import SELECTIONS


class ZooKeeperPlugin(SystemPlugin):
    """ZooKeeper/ZAB checked against the paper's multi-grained specs."""

    name = "zookeeper"
    title = "ZooKeeper atomic broadcast (ZAB) vs the multi-grained specs"
    grains = ("mSpec-1", "mSpec-2", "mSpec-3")
    scenario_prefixes = SCENARIO_PREFIXES
    fault_schedules = FAULT_SCHEDULES
    compared_variables = COMPARED_VARIABLES
    # repro.zab supplies the shared invariants; editing it must
    # invalidate this system's cached prefixes too.
    spec_source_packages = ("repro.tla", "repro.zookeeper", "repro.zab")

    def default_config(self) -> ZkConfig:
        """The stock three-server configuration."""
        return ZkConfig()

    def campaign_config(self) -> ZkConfig:
        """The standard campaign configuration: crash budget for the
        crash schedules plus one partition so the partition schedules are
        enabled, and one message fault for the delay/duplication
        schedules."""
        return ZkConfig(
            n_servers=3, max_txns=1, max_crashes=2, max_partitions=1,
            max_epoch=3, max_msg_faults=1,
        )

    def make_spec(self, grain: str, config=None):
        """Compose one of the multi-grained ZooKeeper specifications.

        Resolved through the module attribute at call time so tests can
        monkeypatch ``repro.zookeeper.specs.make_spec``."""
        from repro.zookeeper import specs

        return specs.make_spec(grain, config=config)

    def make_mapping(self, grain: str):
        """The grain's spec-action -> ensemble-step mapping."""
        from repro.remix.mapping import mapping_for

        if grain not in SELECTIONS:
            raise KeyError(
                f"unknown or unmappable grain {grain!r}; "
                f"options: {sorted(SELECTIONS)}"
            )
        return mapping_for(SELECTIONS[grain])

    def ensemble_factory(self, config: ZkConfig) -> Callable[[], Ensemble]:
        """Fresh simulated ensembles matching the config's variant."""
        return lambda: Ensemble(
            config.n_servers,
            config.variant,
            max_msg_faults=config.max_msg_faults,
        )

    def budget_limits(self, config: ZkConfig) -> Dict[str, int]:
        """Step budgets mirroring the spec's budget variables."""
        return {
            "NodeCrash": config.max_crashes,
            "PartitionStart": config.max_partitions,
            "LeaderProcessRequest": config.max_txns,
            "MessageDelay": config.max_msg_faults,
            "MessageDuplicate": config.max_msg_faults,
        }

    def config_from_meta(self, meta: Mapping[str, Any]) -> ZkConfig:
        """Rebuild the :class:`ZkConfig` from a report's meta block
        (pre-variant blocks fall back to the default variant)."""
        fields = dict(meta.get("config", {}))
        variant = fields.pop("variant", None)
        config = ZkConfig(**fields) if fields else self.campaign_config()
        if variant:
            config = config.with_variant(SpecVariant(**variant))
        return config


def _register():
    from repro.remix.registry import register_system

    register_system(ZooKeeperPlugin())


_register()
