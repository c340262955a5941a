"""The Raft system plugin: registers the toy Raft stack with the remix
campaign machinery.

Importing this module registers the plugin (the registry's builtin
loader does exactly that); everything the campaign needs -- grains,
prefixes, faults, mapping, ensemble and configuration plumbing -- hangs
off the one :class:`RaftPlugin` instance.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.raft import spec as raft_spec
from repro.raft.config import RaftConfig, RaftVariant
from repro.raft.impl import RaftEnsemble
from repro.raft.mapping import raft_mapping
from repro.raft.scenarios import FAULT_SCHEDULES, SCENARIO_PREFIXES
from repro.remix.registry import register_system
from repro.system.plugin import SystemPlugin


class RaftPlugin(SystemPlugin):
    """A compact Raft protocol behind the generic plugin surface."""

    name = "raft"
    title = "Toy Raft: coarse/fine election grains, full-log replication"
    grains = ("raft-coarse", "raft-fine")
    scenario_prefixes = SCENARIO_PREFIXES
    fault_schedules = FAULT_SCHEDULES
    compared_variables = (
        "role",
        "current_term",
        "voted_for",
        "log",
        "commit_index",
    )

    def default_config(self) -> RaftConfig:
        """The stock three-server configuration."""
        return RaftConfig()

    def campaign_config(self) -> RaftConfig:
        """Smaller bounds for tractable campaign cells."""
        return RaftConfig(
            n_servers=3,
            max_entries=1,
            max_crashes=2,
            max_partitions=1,
            max_term=2,
        )

    def make_spec(self, grain: str, config=None):
        """Compose one of the ``raft-*`` grains."""
        return raft_spec.make_spec(grain, config)

    def make_mapping(self, grain: str):
        """Both grains replay through the same mapping table."""
        if grain not in self.grains:
            raise KeyError(
                f"unknown or unmappable grain {grain!r}; "
                f"options: {sorted(self.grains)}"
            )
        return raft_mapping()

    def ensemble_factory(self, config: RaftConfig):
        """Fresh buggy-or-fixed ensembles per the config's variant."""
        return lambda: RaftEnsemble(config.n_servers, config.variant)

    def budget_limits(self, config: RaftConfig) -> Dict[str, int]:
        """Bottom-up exploration budgets.

        The election budgets bound term growth at the implementation
        level the way ``max_term`` bounds it in the model (each election
        or candidacy raises the cluster's maximum term by at most 1)."""
        return {
            "NodeCrash": config.max_crashes,
            "PartitionStart": config.max_partitions,
            "ClientRequest": config.max_entries,
            "ElectLeader": config.max_term,
            "BecomeCandidate": config.max_term,
        }

    def config_from_meta(self, meta: Mapping[str, Any]) -> RaftConfig:
        """Rebuild a :class:`RaftConfig` from a report's meta block."""
        fields = dict(meta.get("config") or {})
        variant = fields.pop("variant", None)
        config = RaftConfig(**fields) if fields else self.campaign_config()
        if variant:
            config = config.with_variant(RaftVariant(**variant))
        return config


register_system(RaftPlugin())
