"""Tests for the Remix framework: registry, mapping, coordinator and
conformance checking."""

import pytest

from repro.checker import explore
from repro.checker.trace import Trace
from repro.impl import Ensemble
from repro.remix import (
    ConformanceChecker,
    Coordinator,
    SpecRegistry,
    mapping_for,
)
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
        registry = SpecRegistry()
        registry.register("Synchronization", "custom", lambda cfg: None)
        assert registry.has("Synchronization", "custom")

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
    def checker(self, name, divergence="", seed=11):
        spec = make_spec(name, CFG)
        return ConformanceChecker(
            spec,
            SELECTIONS[name],
            lambda: Ensemble(3, V391, divergence),
            seed=seed,
        )

    @pytest.mark.parametrize("name", ["mSpec-1", "mSpec-2", "mSpec-3"])
    def test_clean_conformance(self, name):
        report = self.checker(name).run(traces=25, max_steps=25)
        assert report.conforms, [str(d) for d in report.discrepancies[:3]]
        assert report.steps_replayed > 100

    def test_detects_missing_epoch_write(self):
        # "wrong variable assignments" (§3.4): currentEpoch never written.
        report = self.checker("mSpec-3", "skip_epoch_update").run(
            traces=40, max_steps=20
        )
        assert not report.conforms
        assert any(
            d.variable == "current_epoch" for d in report.discrepancies
        )

    def test_detects_unrealistic_state_transition(self):
        # zabState jumps to BROADCAST at NEWLEADER time.
        report = self.checker("mSpec-3", "eager_broadcast").run(
            traces=40, max_steps=20
        )
        assert not report.conforms
        assert any(d.variable == "zab_state" for d in report.discrepancies)

    def test_detects_wrong_ack_content(self):
        # "inconsistent message types" (§3.4): the NEWLEADER ACK carries
        # the wrong zxid, so the leader's ACKLD never fires.
        report = self.checker("mSpec-2", "wrong_ack_zxid", seed=3).run(
            traces=120, max_steps=30
        )
        assert not report.conforms

    def test_confirm_violation_reports_bug(self):
        spec, trace = replay_first_violation("mSpec-1", "I-14")
        report = self.checker("mSpec-1").confirm_violation(trace)
        assert report is not None
        assert report.bug_id == "ZK-4394"
        assert "NullPointerException" in str(report)

    def test_report_summary(self):
        report = self.checker("mSpec-1").run(traces=5, max_steps=10)
        assert "5 traces" in report.summary()
