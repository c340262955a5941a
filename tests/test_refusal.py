"""Refusal is atomic: a mapped step that answers False has changed
nothing.  That sentence of the implementation-adapter contract is what
lets :class:`ImplExplorer` step the one live ensemble instead of a
``clone()`` per candidate; these tests hold it on explored states of
both plugins and hold the explorer to the clone-and-discard explorer it
replaced, kept here as the reference."""

import dataclasses
import random
import signal
from contextlib import contextmanager

import pytest

from repro.analysis.conformance import (
    clone_defects,
    refusal_defects,
    states_along,
)
from repro.checker.trace import Trace
from repro.impl import Ensemble
from repro.impl.exceptions import ImplError
from repro.raft.config import FIXED_VARIANT, RaftVariant
from repro.raft.impl import RaftEnsemble
from repro.remix import ImplExplorer
from repro.remix import minimize
from repro.remix.campaign import run_campaign
from repro.remix.coordinator import Coordinator
from repro.remix.registry import system_plugin
from repro.remix.request import CampaignRequest
from repro.remix.spec_cache import cached_mapping, cached_prefix, cached_spec
from repro.system.plugin import ScenarioError
from repro.tla.values import Txn, Zxid
from repro.zookeeper.config import FINAL_FIX, PR_1993, SpecVariant
from repro.zookeeper.scenarios import Scenario

from conftest import report_bytes

SYSTEMS = ("zookeeper", "raft")
SEEDS = (7, 1007, 3, 42, 99)


class CloneAndDiscardExplorer(ImplExplorer):
    """The explorer this repository ran until refusal became atomic:
    every candidate is stepped on ``ensemble.clone()`` and the clone is
    kept only when the step executed (or crashed).  It needs nothing of
    a refusing step, which makes it the reference."""

    def _try_step(self, ensemble, label):
        mapped = self.mapping.lookup(label)
        if mapped is None or not mapped.applies(ensemble, label):
            return None, None
        probe = ensemble.clone()
        try:
            ok = mapped.step(probe, label)
        except ImplError as exc:
            return probe, exc
        return (probe if ok else None), None

    def explore(self, max_steps=20, prefix=()):
        ensemble = self.ensemble_factory()
        executed = []
        budgets = self.budgets
        budget_used = {name: 0 for name in budgets}
        for label in prefix:
            committed, error = self._try_step(ensemble, label)
            if error is not None:
                executed.append(label)
                return executed, committed, error
            if committed is None:
                break
            ensemble = committed
            executed.append(label)
            if label.name in budget_used:
                budget_used[label.name] += 1
        for _ in range(max_steps):
            candidates = list(self._labels)
            self.rng.shuffle(candidates)
            progressed = False
            for label in candidates:
                if (
                    label.name in budgets
                    and budget_used[label.name] >= budgets[label.name]
                ):
                    continue
                committed, error = self._try_step(ensemble, label)
                if error is not None:
                    executed.append(label)
                    return executed, committed, error
                if committed is not None:
                    ensemble = committed
                    executed.append(label)
                    if label.name in budget_used:
                        budget_used[label.name] += 1
                    progressed = True
                    break
            if not progressed:
                break
        return executed, ensemble, None


def scripted_prefixes(system, grain, config):
    """The campaign's scenario x fault prefixes that exist for a grain."""
    plugin = system_plugin(system)
    for scenario in plugin.scenario_names():
        for fault in plugin.fault_names():
            try:
                yield cached_prefix(
                    grain, config, scenario, fault, config.n_servers - 1, 0,
                    system=system,
                ).labels
            except ScenarioError:
                continue


def explorer_for(cls, system, grain, config, seed, factory=None):
    plugin = system_plugin(system)
    return cls(
        cached_spec(grain, config, system=system),
        cached_mapping(grain, system=system),
        factory or plugin.ensemble_factory(config),
        seed=seed,
        budgets=plugin.budget_limits(config),
    )


# --- (a) the refusal oracle on explored ensembles ------------------------------


def audit(system, grain, config, factory=None, seeds=(0,), steps=8):
    """Explore from three scripted prefixes and run the oracle on every
    state the explorer visited (the executed labels re-derive them);
    returns the number of distinct states audited."""
    plugin = system_plugin(system)
    factory = factory or plugin.ensemble_factory(config)
    spec = cached_spec(grain, config, system=system)
    mapping = cached_mapping(grain, system=system)
    mapped_labels = [
        (inst.label, mapping.lookup(inst.label))
        for inst in spec.action_instances()
        if mapping.lookup(inst.label) is not None
    ]
    prefixes = list(scripted_prefixes(system, grain, config))
    runs = [
        explorer_for(
            ImplExplorer, system, grain, config, seed, factory
        ).explore(steps, prefix=prefix)[0]
        for prefix in random.Random(0).sample(prefixes, 3)
        for seed in seeds
    ]
    audited = 0
    for ensemble in states_along(factory, mapping, runs):
        assert refusal_defects(ensemble, mapped_labels) == []
        audited += 1
    return audited


ZK_VARIANTS = [
    SpecVariant(),
    SpecVariant(history_before_epoch="diff_only"),
    SpecVariant(history_before_epoch="full"),
    *(
        SpecVariant(**{field.name: True})
        for field in dataclasses.fields(SpecVariant)
        if field.type in (bool, "bool")
    ),
    PR_1993,
    FINAL_FIX,
]
DIVERGENCES = ("skip_epoch_update", "eager_broadcast", "wrong_ack_zxid")
ZK_GRAINS = system_plugin("zookeeper").grains


def variant_id(value):
    knobs = dataclasses.asdict(value)
    order = knobs.pop("history_before_epoch")
    on = [name for name, state in knobs.items() if state]
    return "+".join([order] * (order != "none") + on) or "v391"


class TestARefusedStepChangesNothing:
    def test_every_knob_is_in_the_grid(self):
        assert len(ZK_VARIANTS) == 3 + 6 + 2

    @pytest.mark.parametrize("grain", ZK_GRAINS)
    @pytest.mark.parametrize("variant", ZK_VARIANTS, ids=variant_id)
    def test_zookeeper_variants(self, grain, variant):
        config = dataclasses.replace(
            system_plugin("zookeeper").campaign_config(), variant=variant
        )
        assert audit("zookeeper", grain, config) >= 10

    @pytest.mark.parametrize("grain", ZK_GRAINS)
    @pytest.mark.parametrize("divergence", DIVERGENCES)
    @pytest.mark.parametrize("order", ["none", "full"])
    def test_zookeeper_divergences(self, grain, divergence, order):
        variant = SpecVariant(history_before_epoch=order)
        config = dataclasses.replace(
            system_plugin("zookeeper").campaign_config(), variant=variant
        )

        def factory():
            return Ensemble(
                config.n_servers, variant, divergence,
                max_msg_faults=config.max_msg_faults,
            )

        assert audit("zookeeper", grain, config, factory) >= 5

    @pytest.mark.parametrize("grain", system_plugin("raft").grains)
    @pytest.mark.parametrize(
        "variant",
        [
            RaftVariant(),
            RaftVariant(durable_vote=True),
            RaftVariant(reset_commit_on_restart=True),
            RaftVariant(clamp_commit=True),
            FIXED_VARIANT,
        ],
        ids=str,
    )
    def test_raft_variants(self, grain, variant):
        config = dataclasses.replace(
            system_plugin("raft").campaign_config(), variant=variant
        )
        assert audit("raft", grain, config, seeds=(0, 1), steps=14) >= 10


# --- the hang: a region that ignored its step's refusal ------------------------


@contextmanager
def hard_timeout(seconds):
    """SIGALRM raises in the main thread, so a spinning step is
    interrupted where a joined thread would spin on."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def follower_awaiting_newleader(variant, divergence=""):
    """Leader 2 holds a txn follower 0 lacks; 0 has taken the sync
    message and has NEWLEADER at the head of its channel, with a packet
    staged in ``packets_not_committed``."""
    ensemble = Ensemble(3, variant, divergence=divergence)
    ensemble.nodes[2].history = [Txn(Zxid(0, 1), 1)]
    assert ensemble.run_election(2, (0, 1, 2))
    assert ensemble.nodes[2].leader_sync_follower(0)
    assert ensemble.nodes[0].follower_process_sync_message(2)
    assert ensemble.nodes[0].packets_not_committed
    return ensemble


class TestNewleaderRegionRefusesInsteadOfSpinning:
    @pytest.mark.parametrize("order", ["none", "diff_only"])
    def test_lost_epoch_write_epoch_first(self, order):
        """``skip_epoch_update`` loses the epoch write, ``step_log``
        refuses for ever, and the region looped on it."""
        ensemble = follower_awaiting_newleader(
            SpecVariant(history_before_epoch=order), "skip_epoch_update"
        )
        before = ensemble.clone()
        with hard_timeout(5):
            assert ensemble.nodes[0].follower_process_newleader_atomic(2) is False
        assert clone_defects(before, ensemble) == []

    def test_history_first_with_another_leader(self):
        ensemble = follower_awaiting_newleader(
            SpecVariant(history_before_epoch="full")
        )
        ensemble.nodes[0].my_leader = 1
        before = ensemble.clone()
        with hard_timeout(5):
            assert ensemble.nodes[0].follower_process_newleader_atomic(2) is False
        assert clone_defects(before, ensemble) == []

    def test_the_region_still_executes(self):
        for order in ("none", "diff_only", "full"):
            ensemble = follower_awaiting_newleader(
                SpecVariant(history_before_epoch=order)
            )
            follower = ensemble.nodes[0]
            assert follower.follower_process_newleader_atomic(2) is True
            assert follower.history == [Txn(Zxid(0, 1), 1)]
            assert follower.current_epoch == follower.accepted_epoch == 1
            assert follower.newleader_recv


class TestAStuckReplayStepLeavesADefinedState:
    def test_replay_continues_from_the_state_before_the_stuck_step(self):
        """History-first order and a lost epoch write: the region used
        to log the staged packet and drain the queue before ReplyAck
        refused, and ``stop_on_discrepancy=False`` replayed on from
        there."""
        variant = SpecVariant(history_before_epoch="full")
        plugin = system_plugin("zookeeper")
        config = dataclasses.replace(plugin.campaign_config(), variant=variant)
        scripted = Scenario(cached_spec("mSpec-1", config)).elect(2, (0, 1, 2))
        scripted.apply("LeaderSyncFollower", pair=(2, 0))
        scripted.apply("FollowerProcessSyncMessage", pair=(0, 2))
        scripted.apply("FollowerProcessNEWLEADER", pair=(0, 2))
        trace = Trace(states=scripted.states, labels=scripted.labels)
        coordinator = Coordinator(
            cached_mapping("mSpec-1"),
            lambda: Ensemble(3, variant, divergence="skip_epoch_update"),
            plugin.compared_variables,
        )
        ensemble = coordinator.ensemble_factory()
        ensemble.nodes[2].history = [Txn(Zxid(0, 1), 1)]
        point = coordinator.advance((0, ensemble), trace.labels[:3])
        assert ensemble.nodes[0].packets_not_committed
        snapshot, before = ensemble.snapshot(), ensemble.clone()
        result = coordinator.replay(
            trace, stop_on_discrepancy=False, resume=point
        )
        assert [(d.kind, d.step) for d in result.discrepancies] == [
            ("action_stuck", 3)
        ]
        assert ensemble.snapshot() == snapshot
        assert clone_defects(before, ensemble) == []

    def test_baseline_ack_region_keeps_the_uptodate_acks_it_cannot_pass(self):
        ensemble = Ensemble(3)
        scripted = Scenario(cached_spec("mSpec-1", system_plugin(
            "zookeeper").campaign_config())).serving_cluster(2, (0, 1, 2))
        mapping = cached_mapping("mSpec-1")
        for label in scripted.labels:
            assert mapping.lookup(label).step(ensemble, label)
        leader = ensemble.nodes[2]
        # the baseline grain never consumes the followers' UPTODATE ACKs
        assert [m.mtype for m in ensemble.network.channels[(0, 2)]] == [
            "ACK_UPTODATE"
        ]
        before = ensemble.clone()
        assert leader.leader_process_ack_baseline(0) is False
        assert clone_defects(before, ensemble) == []


# --- (b) the live explorer against the clone-and-discard reference -------------


def outcome(cls, system, grain, config, seed, prefix):
    executed, ensemble, error = explorer_for(
        cls, system, grain, config, seed
    ).explore(12, prefix=prefix)
    return executed, ensemble.snapshot(), repr(error), ensemble


class TestLiveExplorerMatchesCloneAndDiscard:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_differential_runs(self, system):
        """Same labels, same final snapshot, same error -- and the same
        final ensemble field for field -- from every scripted prefix."""
        plugin = system_plugin(system)
        config = plugin.campaign_config()
        runs = errors = 0
        for grain in plugin.grains:
            for prefix in scripted_prefixes(system, grain, config):
                for seed in SEEDS:
                    live = outcome(
                        ImplExplorer, system, grain, config, seed, prefix
                    )
                    reference = outcome(
                        CloneAndDiscardExplorer, system, grain, config, seed,
                        prefix,
                    )
                    assert live[:3] == reference[:3]
                    assert clone_defects(reference[3], live[3]) == []
                    runs += 1
                    errors += live[2] != "None"
        assert runs >= 100 and errors > 0

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_differential_campaign_reports(self, system, monkeypatch, campaign_json):
        """Full bottom-up campaigns, shrink included, byte for byte."""
        requests = [
            CampaignRequest(system=system, seed=seed, directions=("bottomup",), shrink=True)
            for seed in SEEDS[:2]
        ]
        live = [campaign_json(request) for request in requests]
        monkeypatch.setattr(minimize, "ImplExplorer", CloneAndDiscardExplorer)
        reference = [run_campaign(request) for request in requests]
        assert list(map(report_bytes, reference)) == list(map(report_bytes, live))
        assert any(report["findings"] for report in live)


# --- (c) clone() is off the explorer's path ------------------------------------


class TestExploreNeverClones:
    @pytest.mark.parametrize(
        "system, ensemble_cls",
        [("zookeeper", Ensemble), ("raft", RaftEnsemble)],
    )
    def test_zero_clone_calls(self, system, ensemble_cls, monkeypatch):
        calls = []
        original = ensemble_cls.clone

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(ensemble_cls, "clone", counting)
        plugin = system_plugin(system)
        config = plugin.campaign_config()
        grain = plugin.grains[-1]
        prefix = next(scripted_prefixes(system, grain, config))
        executed, _, _ = explorer_for(
            ImplExplorer, system, grain, config, 7
        ).explore(12, prefix=prefix)
        assert len(executed) > len(prefix)
        assert calls == []
        explorer_for(
            CloneAndDiscardExplorer, system, grain, config, 7
        ).explore(12, prefix=prefix)
        assert len(calls) > len(executed)  # the counter does count
