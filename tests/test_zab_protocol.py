"""Tests for the Zab protocol specification and the §5.4 improvement.

The headline protocol-level result: the original (atomic) protocol and
the improved (history-before-epoch) protocol satisfy all ten invariants;
the order ZooKeeper implemented (epoch first) violates I-8.
"""

import pytest

from repro.checker import explore
from repro.zab import ZabConfig, zab_spec


def small(variant, **kw):
    return ZabConfig(
        max_txns=kw.pop("max_txns", 1),
        max_crashes=kw.pop("max_crashes", 1),
        max_epoch=kw.pop("max_epoch", 2),
        variant=variant,
    )


class TestVariants:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ZabConfig(variant="nope")

    def test_spec_names_carry_variant(self):
        assert zab_spec(small("improved")).name == "Zab-improved"

    def test_original_uses_atomic_accept(self):
        spec = zab_spec(small("original"))
        names = [a.name for a in spec.actions]
        assert "FollowerAcceptNEWLEADER" in names

    def test_improved_splits_accept(self):
        spec = zab_spec(small("improved"))
        init = spec.initial_states()[0]
        # only the improved variant's split actions ever fire
        enabled_names = set()
        frontier = [init]
        for _ in range(4):
            nxt = []
            for state in frontier[:20]:
                for label, succ in spec.successors(state):
                    enabled_names.add(label.name)
                    nxt.append(succ)
            frontier = nxt
        assert "FollowerUpdateHistory" in enabled_names
        assert "FollowerAcceptNEWLEADER" not in enabled_names


class TestModelChecking:
    def test_original_protocol_passes(self):
        result = explore(
            zab_spec(small("original")), max_states=120_000, max_time=120
        )
        assert not result.found_violation

    def test_improved_protocol_passes(self):
        result = explore(
            zab_spec(small("improved")), max_states=120_000, max_time=120
        )
        assert not result.found_violation

    @pytest.mark.slow
    def test_improved_protocol_passes_with_more_faults(self):
        cfg = small("improved", max_crashes=2, max_epoch=3)
        result = explore(
            zab_spec(cfg), max_states=200_000, max_time=240
        )
        assert not result.found_violation

    @pytest.mark.slow
    def test_epoch_first_violates_i8(self):
        # The ablation of §5.4: the non-atomic epoch-before-history order
        # (what ZooKeeper implemented) breaks initial history integrity.
        cfg = small("epoch_first", max_crashes=2, max_epoch=3)
        result = explore(
            zab_spec(cfg), max_states=400_000, max_time=240
        )
        assert result.found_violation
        assert result.first_violation.invariant.ident == "I-8"
        labels = [l.name for l in result.first_violation.trace.labels]
        assert "FollowerUpdateEpochFirst" in labels
        assert "NodeCrash" in labels


class TestCoverage:
    def test_variant_gated_actions_are_the_only_unfired(self):
        from repro.checker import measure_coverage

        expected = {
            "original": {
                "FollowerUpdateHistory",
                "FollowerUpdateEpoch",
                "FollowerUpdateEpochFirst",
                "FollowerUpdateHistorySecond",
            },
            "improved": {
                "FollowerAcceptNEWLEADER",
                "FollowerUpdateEpochFirst",
                "FollowerUpdateHistorySecond",
            },
        }
        for variant, unfired in expected.items():
            spec = zab_spec(
                ZabConfig(
                    max_txns=1, max_crashes=1, max_epoch=2, variant=variant
                )
            )
            report = measure_coverage(spec, max_states=20_000, max_time=60)
            assert set(report.unfired()) == unfired
