"""The implementation adapter's ``clone()`` contract: the shrinker
judges every candidate on a ``clone()`` of the cursor it resumes from,
so a clone that shares one mutable container with its original lets a
rejected candidate move that cursor.  (The explorer no longer clones:
``tests/test_refusal.py``.)"""

import copy
import json

import pytest

from repro.analysis.conformance import clone_defects
from repro.impl import Ensemble
from repro.raft.impl import RaftEnsemble
from repro.remix import ImplExplorer
from repro.remix.campaign import CampaignRequest, run_campaign
from repro.remix.registry import system_plugin
from repro.remix.spec_cache import cached_mapping, cached_prefix, cached_spec
from repro.system.plugin import ScenarioError

SYSTEMS = ("zookeeper", "raft")


def explored_ensembles(system):
    """Every scenario x fault prefix of the finest grain, continued by
    seeded explorations: the ensembles a bottom-up campaign reaches."""
    plugin = system_plugin(system)
    config = plugin.campaign_config()
    grain = plugin.grains[-1]
    spec = cached_spec(grain, config, system=system)
    mapping = cached_mapping(grain, system=system)
    leader, follower = config.n_servers - 1, 0
    for scenario in plugin.scenario_names():
        for fault in plugin.fault_names():
            try:
                prefix = cached_prefix(
                    grain, config, scenario, fault, leader, follower,
                    system=system,
                )
            except ScenarioError:
                continue
            for seed, steps in ((0, 4), (1, 4), (0, 12), (1, 12)):
                explorer = ImplExplorer(
                    spec, mapping, plugin.ensemble_factory(config),
                    seed=seed, budgets=plugin.budget_limits(config),
                )
                _, ensemble, _ = explorer.explore(steps, prefix=prefix.labels)
                yield ensemble


class TestCloneIsStructurallySound:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_clone_shares_no_mutable_and_equals_deepcopy(self, system):
        ensembles = list(explored_ensembles(system))
        assert len(ensembles) >= 10
        for ensemble in ensembles:
            clone = ensemble.clone()
            # independent of the original, and re-pointed at its own
            # network wherever the original's nodes alias theirs ...
            assert clone_defects(ensemble, clone) == []
            # ... and field by field what the reference copy holds
            assert clone_defects(copy.deepcopy(ensemble), clone) == []
            assert clone.snapshot() == ensemble.snapshot()

    def test_zookeeper_walk_is_not_vacuous(self):
        """The explored ensembles put something in every kind of
        container ``ZkNode.clone`` / ``Network.clone`` has to copy."""
        seen = set()
        for ensemble in explored_ensembles("zookeeper"):
            clone = ensemble.clone()
            assert all(node.network is clone.network for node in clone.nodes)
            network = ensemble.network
            seen.update(
                name
                for name in ("disconnected", "down")
                if getattr(network, name)
            )
            if any(network.channels.values()):
                seen.add("channels")
            for node in ensemble.nodes:
                seen.update(
                    name
                    for name, value in vars(node).items()
                    if isinstance(value, (list, set)) and value
                )
        assert seen >= {
            "channels", "disconnected", "down", "history",
            "packets_not_committed", "packets_committed",
            "queued_requests", "committed_requests", "ackepoch_recv",
            "synced_sent", "newleader_acks", "uptodate_sent",
            "proposal_acks",
        }

    def test_a_field_forgotten_in_clone_is_reported(self):
        ensemble = Ensemble(3)
        ensemble.nodes[1].added_later = []  # not copied by ZkNode.clone
        assert clone_defects(ensemble, ensemble.clone()) == [
            ("Ensemble.nodes.1.added_later",
             "list is shared with the original"),
        ]

    def test_a_node_left_on_the_original_network_is_reported(self):
        ensemble = Ensemble(3)
        clone = ensemble.clone()
        clone.nodes[2].network = ensemble.network
        assert clone_defects(ensemble, clone) == [
            ("Ensemble.nodes.2.network",
             "does not point at the clone's own copy"),
        ]

    def test_an_unequal_clone_is_reported(self):
        ensemble = RaftEnsemble(3)
        clone = ensemble.clone()
        clone.nodes[0].log.append((1, 1))
        del clone.nodes[1].votes
        clone.entries_issued = 5
        assert [path for path, _ in clone_defects(ensemble, clone)] == [
            "RaftEnsemble.nodes.0.log",
            "RaftEnsemble.nodes.1",
            "RaftEnsemble.entries_issued",
        ]


class TestCloneMatchesDeepcopyReference:
    @pytest.mark.parametrize(
        "system, ensemble_cls",
        [("zookeeper", Ensemble), ("raft", RaftEnsemble)],
    )
    def test_bottomup_campaign_is_byte_identical(
        self, system, ensemble_cls, monkeypatch
    ):
        """``copy.deepcopy`` is the reference ``clone()``: swapping it
        in must not move one byte of a bottom-up campaign report."""

        def report():
            document = run_campaign(
                CampaignRequest(
                    system=system, seed=7, directions=("bottomup",),
                    shrink=True,
                )
            ).to_json()
            document["campaign"].pop("elapsed_seconds")
            return json.dumps(document, sort_keys=True)

        fast = report()
        monkeypatch.setattr(
            ensemble_cls, "clone", lambda self: copy.deepcopy(self)
        )
        assert report() == fast
