"""The Raft plugin's model, implementation and planted bugs."""

import pytest

from repro.checker import explore
from repro.raft.config import FIXED_VARIANT, RaftConfig, RaftVariant
from repro.raft.impl import NO_VOTE, CommitAheadError, RaftEnsemble
from repro.raft.mapping import raft_mapping
from repro.raft.scenarios import FAULT_SCHEDULES, SCENARIO_PREFIXES
from repro.raft.spec import DOWN, FOLLOWER, LEADER, make_spec
from repro.system.plugin import Scenario, ScenarioError

CONFIG = RaftConfig(max_entries=1, max_crashes=1, max_partitions=1, max_term=2)


def elect(spec, leader=2, quorum=(0, 1, 2)):
    scenario = Scenario(spec)
    if any(a.name == "ElectLeader" for a in spec.actions):
        return scenario.apply("ElectLeader", i=leader, Q=tuple(quorum))
    scenario.apply("BecomeCandidate", i=leader)
    for voter in quorum:
        if voter != leader:
            scenario.apply("GrantVote", pair=(voter, leader))
    return scenario.apply("BecomeLeader", i=leader)


class TestSpec:
    def test_unknown_grain_raises(self):
        with pytest.raises(KeyError, match="unknown or unmappable grain"):
            make_spec("raft-medium")

    def test_coarse_and_fine_elect_equivalently(self):
        coarse = elect(make_spec("raft-coarse", CONFIG)).state
        fine = elect(make_spec("raft-fine", CONFIG)).state
        for variable in ("role", "current_term", "voted_for", "log"):
            assert coarse[variable] == fine[variable]
        assert coarse["role"] == (FOLLOWER, FOLLOWER, LEADER)
        assert coarse["voted_for"] == (2, 2, 2)

    def test_replication_and_commit(self):
        spec = make_spec("raft-coarse", CONFIG)
        scenario = elect(spec)
        scenario.apply("ClientRequest", i=2)
        scenario.apply("ReplicateLog", pair=(2, 0))
        scenario.apply("LeaderAdvanceCommit", i=2)
        scenario.apply("FollowerLearnCommit", pair=(0, 2))
        state = scenario.state
        assert state["log"][2] == ((1, 1),)
        assert state["commit_index"] == (1, 0, 1)

    def test_commit_requires_quorum_match(self):
        spec = make_spec("raft-coarse", CONFIG)
        scenario = elect(spec)
        scenario.apply("ClientRequest", i=2)
        # nobody replicated yet: only the leader's log matches
        assert not scenario.can("LeaderAdvanceCommit", i=2)

    def test_restart_resets_volatile_keeps_durable(self):
        spec = make_spec("raft-coarse", CONFIG)
        scenario = elect(spec)
        scenario.apply("ClientRequest", i=2)
        scenario.apply("ReplicateLog", pair=(2, 0))
        scenario.apply("LeaderAdvanceCommit", i=2)
        scenario.apply("FollowerLearnCommit", pair=(0, 2))
        scenario.apply("NodeCrash", i=0)
        assert scenario.state["role"][0] == DOWN
        scenario.apply("NodeRestart", i=0)
        state = scenario.state
        assert state["role"][0] == FOLLOWER
        assert state["commit_index"][0] == 0  # volatile
        assert state["voted_for"][0] == 2  # durable
        assert state["log"][0] == ((1, 1),)  # durable

    def test_model_is_safe(self):
        config = RaftConfig(
            max_entries=1, max_crashes=1, max_partitions=0, max_term=2
        )
        for grain in ("raft-coarse", "raft-fine"):
            result = explore(
                make_spec(grain, config), max_states=200_000, max_time=120
            )
            assert not result.found_violation, grain

    def test_up_to_date_restriction(self):
        spec = make_spec("raft-coarse", CONFIG)
        scenario = elect(spec)
        scenario.apply("ClientRequest", i=2)
        scenario.apply("ReplicateLog", pair=(2, 1))
        # server 0 never replicated: its log cannot win against 1 and 2
        with pytest.raises(ScenarioError):
            scenario.apply("ElectLeader", i=0, Q=(0, 1, 2))


class TestScenariosAndFaults:
    @pytest.mark.parametrize("grain", ["raft-coarse", "raft-fine"])
    @pytest.mark.parametrize("name", sorted(SCENARIO_PREFIXES))
    def test_prefixes_script_on_both_grains(self, grain, name):
        spec = make_spec(grain, CONFIG)
        scenario = SCENARIO_PREFIXES[name](spec, 2, (0, 1, 2))
        assert scenario.labels

    @pytest.mark.parametrize(
        "fault", [s.name for s in FAULT_SCHEDULES if s.name != "none"]
    )
    def test_fault_schedules_inject_after_commit(self, fault):
        spec = make_spec("raft-coarse", CONFIG)
        scenario = SCENARIO_PREFIXES["commit"](spec, 2, (0, 1, 2))
        schedule = next(s for s in FAULT_SCHEDULES if s.name == fault)
        schedule.inject(scenario, leader=2, follower=0)


class TestImpl:
    def drive(self, variant=None, commit=True):
        ensemble = RaftEnsemble(3, variant)
        assert ensemble.run_election(2, (0, 1, 2))
        if commit:
            assert ensemble.client_request(2)
            assert ensemble.replicate_log(2, 0)
            assert ensemble.leader_advance_commit(2)
            assert ensemble.follower_learn_commit(0, 2)
        return ensemble

    def test_snapshot_matches_model_after_commit(self):
        spec = make_spec("raft-coarse", CONFIG)
        scenario = SCENARIO_PREFIXES["commit"](spec, 2, (0, 1, 2))
        ensemble = self.drive()
        snapshot = ensemble.snapshot()
        for variable in (
            "role",
            "current_term",
            "voted_for",
            "log",
            "commit_index",
        ):
            assert snapshot[variable] == scenario.state[variable], variable

    def test_buggy_restart_forgets_vote_and_keeps_commit(self):
        ensemble = self.drive()
        assert ensemble.node_crash(0)
        assert ensemble.node_restart(0)
        assert ensemble.nodes[0].voted_for == NO_VOTE  # bug 1
        assert ensemble.nodes[0].commit_index == 1  # bug 2

    def test_fixed_restart_matches_model(self):
        ensemble = self.drive(FIXED_VARIANT)
        assert ensemble.node_crash(0)
        assert ensemble.node_restart(0)
        assert ensemble.nodes[0].voted_for == 2
        assert ensemble.nodes[0].commit_index == 0

    def test_unclamped_commit_raises(self):
        ensemble = self.drive(commit=False)
        assert ensemble.client_request(2)
        assert ensemble.replicate_log(2, 0)
        assert ensemble.leader_advance_commit(2)
        # server 1 voted (same term) but never replicated: its empty log
        # cannot hold the leader's commit index
        with pytest.raises(CommitAheadError):
            ensemble.follower_learn_commit(1, 2)

    def test_clamped_commit_is_stuck_not_raising(self):
        ensemble = self.drive(
            RaftVariant(clamp_commit=True), commit=False
        )
        assert ensemble.client_request(2)
        assert ensemble.replicate_log(2, 0)
        assert ensemble.leader_advance_commit(2)
        assert ensemble.follower_learn_commit(1, 2) is False

    def test_clone_isolates(self):
        ensemble = self.drive()
        before = ensemble.snapshot()
        clone = ensemble.clone()
        assert clone.snapshot() == before
        clone.node_crash(0)
        assert clone.client_request(2)
        assert clone.partition_start(1, 2)
        assert ensemble.nodes[0].role != DOWN
        assert ensemble.snapshot() == before
        assert not ensemble.disconnected
        assert clone.snapshot() != before

    def test_mapping_covers_both_grains(self):
        mapping = raft_mapping()
        for grain in ("raft-coarse", "raft-fine"):
            spec = make_spec(grain, CONFIG)
            for action in spec.actions:
                instances = [
                    inst
                    for inst in spec.action_instances()
                    if inst.label.name == action.name
                ]
                assert instances
                assert mapping.lookup(instances[0].label) is not None, (
                    action.name
                )
