"""Tests for bottom-up trace validation (§6's alternative approach)."""

import pytest

from repro.impl import Ensemble
from repro.remix import (
    ImplExplorer,
    TraceValidator,
    system_plugin,
)
from repro.remix.campaign import validation_findings
from repro.remix.mapping import ActionMapping
from repro.zookeeper import V391, ZkConfig, make_spec
from repro.zookeeper.mapping import mapping_for
from repro.zookeeper.scenarios import Scenario
from repro.zookeeper.specs import SELECTIONS

CFG = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)


BUDGETS = system_plugin("zookeeper").budget_limits
COMPARED = system_plugin("zookeeper").compared_variables


def explorer(name, seed, config=CFG, divergence="", spec=None):
    return ImplExplorer(
        spec or make_spec(name, config),
        mapping_for(SELECTIONS[name]),
        lambda: Ensemble(config.n_servers, V391, divergence),
        seed=seed,
        budgets=BUDGETS(config),
    )


class Validation:
    """An explorer feeding a validator: ``run`` validates one explored
    implementation run, ``runs`` a numbered series from one seed
    stream."""

    def __init__(self, name, divergence="", seed=5, config=CFG, compared=None):
        spec = make_spec(name, config)
        self.explorer = explorer(name, seed, config, divergence, spec)
        self.validator = TraceValidator(
            spec,
            mapping_for(SELECTIONS[name]),
            lambda: Ensemble(config.n_servers, V391, divergence),
            compared_variables=compared or COMPARED,
        )

    def run(self, max_steps, run=0):
        executed, _, _ = self.explorer.explore(max_steps)
        return self.validator.validate_labels(executed, run=run)

    def runs(self, runs, max_steps):
        return [self.run(max_steps, run) for run in range(runs)]


def issues_of(reports):
    return [issue for report in reports for issue in report.issues]


class TestImplExplorer:
    def test_explore_progresses(self):
        executed, ensemble, error = explorer("mSpec-3", 1).explore(
            max_steps=15
        )
        assert len(executed) >= 5
        assert error is None

    def test_respects_fault_budgets(self):
        seeded = explorer("mSpec-3", 2)
        for _ in range(5):
            executed, _, _ = seeded.explore(max_steps=20)
            crashes = sum(1 for l in executed if l.name == "NodeCrash")
            partitions = sum(
                1 for l in executed if l.name == "PartitionStart"
            )
            txns = sum(
                1 for l in executed if l.name == "LeaderProcessRequest"
            )
            assert crashes <= CFG.max_crashes
            assert partitions <= CFG.max_partitions
            assert txns <= CFG.max_txns

    def test_deterministic_by_seed(self):
        runs = [
            explorer("mSpec-1", 9).explore(max_steps=12)[0] for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestTraceValidator:
    @pytest.mark.parametrize("name", ["mSpec-1", "mSpec-2", "mSpec-3"])
    def test_shipped_impl_validates(self, name):
        reports = Validation(name).runs(10, max_steps=18)
        assert not issues_of(reports), [str(i) for i in issues_of(reports)[:3]]
        assert sum(report.steps_validated for report in reports) > 50

    def test_divergent_impl_rejected(self):
        reports = Validation("mSpec-3", divergence="skip_epoch_update").runs(
            20, max_steps=18
        )
        assert not all(report.valid for report in reports)
        assert any(
            issue.kind == "state_mismatch"
            and issue.variable == "current_epoch"
            for issue in issues_of(reports)
        )

    def test_eager_broadcast_rejected(self):
        reports = Validation("mSpec-3", divergence="eager_broadcast").runs(
            20, max_steps=18
        )
        assert not all(report.valid for report in reports)

    def test_unmapped_label_reported_not_crashed_on(self):
        """A label the mapping does not know (a hand-edited min_trace, a
        plugin with a partial mapping) used to die with AttributeError on
        ``None.step``; it is an ``unmapped_action`` issue that ends the
        run, as it is for the coordinator."""
        v = Validation("mSpec-1")
        executed, _, _ = v.explorer.explore(max_steps=10)
        cut = len(executed) // 2
        partial = dict(v.validator.mapping.entries)
        del partial[executed[cut].name]
        assert all(label.name in partial for label in executed[:cut])
        v.validator.mapping = ActionMapping(partial)
        report = v.validator.validate_labels(executed, run=3)
        assert [(i.kind, i.step, i.label, i.run) for i in report.issues] == [
            ("unmapped_action", cut, executed[cut], 3)
        ]
        assert report.steps_validated == cut
        assert report.executed == executed[:cut]
        assert report.impl_error is None and report.impl_error_step is None
        finding = validation_findings(report, executed, "mSpec-1", 3)[0]
        assert finding["kind"] == "unmapped_action"
        assert str(executed[cut]) in finding["detail"]

    def test_summary(self):
        report = Validation("mSpec-1").run(max_steps=10)
        assert (
            f"{report.steps_validated} impl steps validated, 0 issues"
            in report.summary()
        )


class TestUnknownVariable:
    """The Coordinator's PR-3 typo fix, ported to the validator: a
    compared variable absent from the snapshot must be reported, not
    silently skipped forever."""

    def test_typo_reported_not_silently_skipped(self):
        report = Validation(
            "mSpec-1", compared=COMPARED + ("historyy",)
        ).run(max_steps=6)
        bad = [i for i in report.issues if i.kind == "unknown_variable"]
        assert len(bad) == 1
        assert bad[0].variable == "historyy"
        assert "absent from the implementation snapshot" in str(bad[0])

    def test_known_variables_still_validated(self):
        # The typo is reported once per run, and the remaining (known)
        # variables are still compared -- validation does not abort.
        report = Validation(
            "mSpec-3", compared=("current_epoch", "historyy")
        ).run(max_steps=8)
        assert report.steps_validated > 0
        assert [i.kind for i in report.issues] == ["unknown_variable"]

    def test_valid_tuple_reports_nothing(self):
        report = Validation("mSpec-1").run(max_steps=6)
        assert not any(
            i.kind == "unknown_variable" for i in report.issues
        )

    def validator(self, ensemble_cls, compared=COMPARED):
        return TraceValidator(
            make_spec("mSpec-1", CFG),
            mapping_for(SELECTIONS["mSpec-1"]),
            lambda: ensemble_cls(CFG.n_servers, V391),
            compared_variables=compared,
        )

    def test_variable_the_model_lacks_is_reported_not_crashed_on(self):
        """Resolved against the snapshot alone, a variable only the
        implementation has raised ``KeyError`` at the first step's
        comparison; it is an ``unknown_variable`` naming the model side."""

        class WiderSnapshot(Ensemble):
            def snapshot(self):
                return dict(super().snapshot(), impl_only=(0, 0, 0))

        executed, _, _ = explorer("mSpec-1", 5).explore(max_steps=6)
        report = self.validator(
            WiderSnapshot, COMPARED + ("impl_only",)
        ).validate_labels(executed, run=2)
        assert [(i.kind, i.variable, i.run) for i in report.issues] == [
            ("unknown_variable", "impl_only", 2)
        ]
        assert "absent from the model schema --" in str(report.issues[0])
        assert report.steps_validated == len(executed)

    def test_a_mismatch_ends_validation_at_its_first_variable(self):
        class Lying(Ensemble):
            def snapshot(self):
                lie = ("lie",) * 3
                return dict(super().snapshot(), history=lie, state=lie)

        executed, _, _ = explorer("mSpec-1", 5).explore(max_steps=6)
        report = self.validator(Lying).validate_labels(executed)
        assert [(i.kind, i.step, i.variable) for i in report.issues] == [
            ("state_mismatch", 0, "state")
        ]


class TestRunAttribution:
    def test_issues_carry_their_run_index(self):
        reports = Validation(
            "mSpec-3", divergence="skip_epoch_update"
        ).runs(20, max_steps=18)
        mismatches = [
            i for i in issues_of(reports) if i.kind == "state_mismatch"
        ]
        assert mismatches
        runs = {i.run for i in mismatches}
        assert all(0 <= run < 20 for run in runs)
        # the divergence fires in more than one run, at colliding step
        # indices -- without the run index these would be ambiguous
        assert len(runs) > 1

    def test_unknown_variable_attributed_per_run(self):
        reports = Validation(
            "mSpec-1", compared=("state", "historyy")
        ).runs(3, max_steps=4)
        bad = [
            i for i in issues_of(reports) if i.kind == "unknown_variable"
        ]
        assert [i.run for i in bad] == [0, 1, 2]

    def test_run_rebuildable_from_report(self):
        # The (run, seed) pair identifies the exploration stream: a
        # fresh validator replaying runs 0..run reproduces the issue.
        v = Validation("mSpec-3", divergence="skip_epoch_update", seed=11)
        issues = issues_of(v.runs(20, max_steps=18))
        assert issues
        target = issues[0]
        replay = Validation(
            "mSpec-3", divergence="skip_epoch_update", seed=11
        )
        for run in range(target.run + 1):
            run_report = replay.run(max_steps=18, run=run)
        assert any(
            issue.kind == target.kind
            and issue.step == target.step
            and issue.label == target.label
            for issue in run_report.issues
        )


class TestScriptedPrefix:
    def prefix_labels(self, name="mSpec-1", config=None):
        config = config or ZkConfig(
            max_txns=1, max_crashes=2, max_partitions=1, max_epoch=3
        )
        spec = make_spec(name, config)
        scenario = Scenario(spec).elect(2, (0, 1, 2)).crash(0)
        return config, spec, scenario.labels

    def test_explore_executes_prefix_first(self):
        config, spec, labels = self.prefix_labels()
        executed, _, error = explorer("mSpec-1", 3, config).explore(
            max_steps=5, prefix=labels
        )
        assert error is None
        assert executed[: len(labels)] == list(labels)
        assert len(executed) > len(labels)

    def test_prefix_faults_consume_model_budgets(self):
        # The crash in the prefix counts against max_crashes: across many
        # seeds, prefix + suffix crashes never exceed the model budget.
        config, spec, labels = self.prefix_labels()
        for seed in range(8):
            executed, _, _ = explorer("mSpec-1", seed, config).explore(
                max_steps=15, prefix=labels
            )
            crashes = sum(1 for l in executed if l.name == "NodeCrash")
            partitions = sum(
                1 for l in executed if l.name == "PartitionStart"
            )
            assert crashes <= config.max_crashes
            assert partitions <= config.max_partitions

    def test_validate_labels_matches_validate_run(self):
        config, spec, labels = self.prefix_labels()
        v = Validation("mSpec-1", seed=4, config=config)
        executed, _, _ = v.explorer.explore(max_steps=6, prefix=labels)
        report = v.validator.validate_labels(executed)
        assert report.steps_validated > 0
        assert report.executed[: len(labels)] == list(labels)
