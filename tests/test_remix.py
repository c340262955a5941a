"""Tests for the Remix framework: registry, mapping, coordinator and
conformance checking."""

import pytest

from repro.checker import RandomWalker, explore
from repro.checker.trace import Trace
from repro.impl import Ensemble
from repro.remix import Coordinator, SpecRegistry, mapping_for
from repro.tla.action import ActionLabel
from repro.tla.composition import CompositionError
from repro.zookeeper import V391, ZkConfig, make_spec
from repro.zookeeper.specs import SELECTIONS

CFG = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)


class TestRegistry:
    def test_modules_and_granularities(self):
        registry = SpecRegistry()
        assert "Synchronization" in registry.modules()
        assert set(registry.granularities("Synchronization")) == {
            "baseline",
            "fine_atomic",
            "fine_concurrent",
        }

    def test_compose_named(self):
        registry = SpecRegistry()
        spec = registry.compose_named("mSpec-2", CFG)
        assert spec.name == "mSpec-2"

    def test_compose_unknown_granularity(self):
        registry = SpecRegistry()
        with pytest.raises(KeyError, match="no 'ultra_fine'"):
            registry.compose(
                "bad",
                {
                    "Election": "coarsened",
                    "Discovery": "coarsened",
                    "Synchronization": "ultra_fine",
                    "Broadcast": "baseline",
                },
                CFG,
            )

    def test_register_new_granularity(self):
        # §3.5.1's extension point: a granularity registered at runtime
        # composes (through the registry's own entries) exactly like the
        # shipped granularity it wraps.
        from repro.zookeeper.sync_baseline import sync_baseline_module

        registry = SpecRegistry()
        registry.register("Synchronization", "custom", sync_baseline_module)
        assert registry.has("Synchronization", "custom")
        selection = dict(SELECTIONS["mSpec-1"], Synchronization="custom")
        custom = registry.compose("custom", selection, CFG)
        shipped = registry.compose_named("mSpec-1", CFG)

        def first_states(spec, count=500):
            frontier = list(spec.initial_states())
            seen = list(frontier)
            known = set(frontier)
            while frontier and len(seen) < count:
                state = frontier.pop(0)
                for _, successor in spec.successors(state):
                    if successor not in known:
                        known.add(successor)
                        seen.append(successor)
                        frontier.append(successor)
            return seen[:count]

        assert first_states(custom) == first_states(shipped)

    def test_incompatible_composition_rejected(self):
        registry = SpecRegistry()
        with pytest.raises(CompositionError, match="coarsened together"):
            registry.compose(
                "bad",
                {
                    "Election": "coarsened",
                    "Discovery": "baseline",
                    "Synchronization": "baseline",
                    "Broadcast": "baseline",
                },
                CFG,
            )

    def test_fine_broadcast_needs_concurrent_sync(self):
        registry = SpecRegistry()
        with pytest.raises(CompositionError, match="worker threads"):
            registry.compose(
                "bad",
                {
                    "Election": "coarsened",
                    "Discovery": "coarsened",
                    "Synchronization": "baseline",
                    "Broadcast": "fine_concurrent",
                },
                CFG,
            )


class TestMapping:
    def test_every_model_action_is_mapped(self):
        for name in ("mSpec-1", "mSpec-2", "mSpec-3"):
            spec = make_spec(name, CFG)
            mapping = mapping_for(SELECTIONS[name])
            unmapped = [
                a.name for a in spec.actions if mapping.lookup(
                    ActionLabel(a.name)
                ) is None
            ]
            assert not unmapped, f"{name}: unmapped actions {unmapped}"

    def test_sysspec_not_mappable(self):
        with pytest.raises(ValueError, match="coarsened"):
            mapping_for(SELECTIONS["SysSpec"])

    def test_pointcut_counts_grow_with_granularity(self):
        p1 = mapping_for(SELECTIONS["mSpec-1"]).total_pointcuts()
        p2 = mapping_for(SELECTIONS["mSpec-2"]).total_pointcuts()
        p3 = mapping_for(SELECTIONS["mSpec-3"]).total_pointcuts()
        assert p1 < p2 < p3


def replay_first_violation(spec_name, family=None, **checker_kw):
    spec = make_spec(spec_name, CFG)
    if family:
        spec.invariants = [i for i in spec.invariants if i.ident == family]
    result = explore(spec, max_states=100_000, max_time=120)
    assert result.found_violation
    return spec, result.first_violation.trace


class TestCoordinator:
    def coordinator(self, name, divergence=""):
        return Coordinator(
            mapping_for(SELECTIONS[name]),
            lambda: Ensemble(3, V391, divergence),
        )

    def test_replays_violating_trace_to_impl_bug(self):
        spec, trace = replay_first_violation("mSpec-1", "I-14")
        result = self.coordinator("mSpec-1").replay(
            trace, stop_on_discrepancy=False
        )
        assert result.impl_error is not None
        assert result.impl_error.bug_id == "ZK-4394"

    def test_unmapped_action_reported(self):
        spec = make_spec("mSpec-1", CFG)
        init = spec.initial_states()[0]
        trace = Trace(states=[init, init], labels=[ActionLabel("Bogus")])
        result = self.coordinator("mSpec-1").replay(trace)
        assert result.discrepancies[0].kind == "unmapped_action"

    def test_stuck_action_reported(self):
        spec = make_spec("mSpec-1", CFG)
        init = spec.initial_states()[0]
        # ElectionAndDiscovery with a non-maximal leader is refused by
        # the implementation.
        label = ActionLabel(
            "ElectionAndDiscovery", (("i", 0), ("Q", (0, 1, 2)))
        )
        trace = Trace(states=[init, init], labels=[label])
        result = self.coordinator("mSpec-1").replay(trace)
        assert result.discrepancies[0].kind == "action_stuck"

    def test_clean_replay_of_model_trace(self):
        spec = make_spec("mSpec-3", CFG)
        from repro.checker import RandomWalker

        trace = RandomWalker(spec, seed=4).walk(max_steps=20)
        result = self.coordinator("mSpec-3").replay(trace)
        assert result.clean, [str(d) for d in result.discrepancies]


class TestConformance:
    """§3.4's loop on the primitives: random model traces, each replayed
    at the code level through a coordinator."""

    def replay_walks(self, name, traces, max_steps, divergence="", seed=11):
        coordinator = Coordinator(
            mapping_for(SELECTIONS[name]),
            lambda: Ensemble(3, V391, divergence),
        )
        walker = RandomWalker(make_spec(name, CFG), seed=seed)
        results = [
            coordinator.replay(trace)
            for trace in walker.traces(count=traces, max_steps=max_steps)
        ]
        return results, [d for r in results for d in r.discrepancies]

    @pytest.mark.parametrize("name", ["mSpec-1", "mSpec-2", "mSpec-3"])
    def test_clean_conformance(self, name):
        results, discrepancies = self.replay_walks(name, 25, 25)
        assert not discrepancies, [str(d) for d in discrepancies[:3]]
        assert len(results) == 25
        assert sum(r.steps_executed for r in results) > 100

    def test_detects_missing_epoch_write(self):
        # "wrong variable assignments" (§3.4): currentEpoch never written.
        _, discrepancies = self.replay_walks(
            "mSpec-3", 40, 20, "skip_epoch_update"
        )
        assert any(d.variable == "current_epoch" for d in discrepancies)

    def test_detects_unrealistic_state_transition(self):
        # zabState jumps to BROADCAST at NEWLEADER time.
        _, discrepancies = self.replay_walks(
            "mSpec-3", 40, 20, "eager_broadcast"
        )
        assert any(d.variable == "zab_state" for d in discrepancies)

    def test_detects_wrong_ack_content(self):
        # "inconsistent message types" (§3.4): the NEWLEADER ACK carries
        # the wrong zxid, so the leader's ACKLD never fires.
        _, discrepancies = self.replay_walks(
            "mSpec-2", 120, 30, "wrong_ack_zxid", seed=3
        )
        assert discrepancies

    def test_confirm_violation_reports_bug(self):
        # §3.5.2: a safety-violating model trace, replayed to the end,
        # surfaces the implementation symptom.
        spec, trace = replay_first_violation("mSpec-1", "I-14")
        coordinator = Coordinator(
            mapping_for(SELECTIONS["mSpec-1"]), lambda: Ensemble(3, V391)
        )
        result = coordinator.replay(trace, stop_on_discrepancy=False)
        assert result.impl_error is not None
        assert result.impl_error.bug_id == "ZK-4394"
        assert type(result.impl_error).__name__ == "NullPointerException"

    def test_report_summary(self, capsys):
        from repro.cli import main

        main(["conformance", "mSpec-1", "--traces", "5", "--steps", "10"])
        assert "conformance: 5 traces" in capsys.readouterr().out
