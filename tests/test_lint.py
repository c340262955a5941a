"""Tests for the static spec analyzer (``python -m repro lint``).

Covers the three passes (declarations, purity, conformance) on small
fixtures, the two PR-5 lying-declaration regressions against the real
ZooKeeper spec functions, the fingerprints and CLI plumbing, and the guarantee
that the shipped plugins lint clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lint_fixtures import (
    GoodPlugin,
    SCHEMA_NAMES,
    alias_read,
    dynamic_subscript,
    helper_read,
    helper_updates,
    iterates_set,
    mutable_update_value,
    mutates_global,
    reads_only_x,
    reads_x_and_y,
    rolls_dice,
    sorted_set_read,
    stdlib_metadata,
    stdlib_opaque,
    whole_state_read,
    wrapped_pair,
    writes_x_and_z,
)
from lint_fixtures_broken import BrokenPlugin, RefusingPlugin

from repro.analysis import SpecAnalyzer, lint_plugin, lint_systems
from repro.analysis.declarations import check_action
from repro.analysis.findings import make_finding
from repro.cli import main
from repro.tla.action import Action
from repro.remix import registry


def act(fn, reads=(), writes=(), sources=None):
    return Action(
        "Fixture",
        fn,
        params={"i": lambda cfg: range(2)},
        reads=reads,
        writes=writes,
        update_sources=sources or {},
    )


def lint_fn(fn, reads=(), writes=(), sources=None):
    return check_action(
        "fixture", act(fn, reads, writes, sources), SCHEMA_NAMES, SpecAnalyzer()
    )


def line_of(module, needle: str) -> int:
    """The 1-based line of the first source line containing ``needle``."""
    text = Path(module.__file__).read_text()
    for number, line in enumerate(text.splitlines(), 1):
        if needle in line:
            return number
    raise AssertionError(f"{needle!r} not found in {module.__file__}")


# --- D rules -------------------------------------------------------------------

class TestDeclarationRules:
    def test_d01_underdeclared_read(self):
        findings = lint_fn(reads_x_and_y, reads=["x"], writes=["x"])
        assert [f.rule for f in findings] == ["D01"]
        assert findings[0].variable == "y"
        assert findings[0].file.endswith("lint_fixtures.py")
        assert findings[0].severity == "error"

    def test_d01_whole_state_read(self):
        findings = lint_fn(whole_state_read, reads=["x"], writes=["x"])
        assert [f.rule for f in findings] == ["D01"]
        assert findings[0].variable == "*"

    def test_d02_overdeclared_read(self):
        findings = lint_fn(reads_only_x, reads=["x", "y"], writes=["x"])
        assert [f.rule for f in findings] == ["D02"]
        assert findings[0].variable == "y"
        assert findings[0].severity == "warning"

    def test_d03_undeclared_write(self):
        findings = lint_fn(writes_x_and_z, reads=["x"], writes=["x"])
        assert [f.rule for f in findings] == ["D03"]
        assert findings[0].variable == "z"

    def test_d04_overdeclared_write(self):
        findings = lint_fn(reads_only_x, reads=["x"], writes=["x", "y"])
        assert [f.rule for f in findings] == ["D04"]
        assert findings[0].variable == "y"

    def test_d05_dynamic_subscript(self):
        findings = lint_fn(dynamic_subscript, reads=["x"], writes=["x"])
        assert "D05" in {f.rule for f in findings}

    def test_d05_state_into_stdlib(self):
        findings = lint_fn(stdlib_opaque, reads=["x"], writes=["x"])
        assert "D05" in {f.rule for f in findings}

    def test_d06_missing_reads(self):
        findings = lint_fn(reads_only_x, writes=["x"])
        assert [f.rule for f in findings] == ["D06"]
        # The finding suggests the closure the analysis recovered.
        assert "'x'" in findings[0].message

    def test_d07_unknown_variable(self):
        findings = lint_fn(reads_only_x, reads=["x", "ghost"], writes=["x"])
        assert "D07" in {f.rule for f in findings}
        assert "ghost" in {f.variable for f in findings}

    def test_d07_sources_without_write(self):
        findings = lint_fn(
            reads_only_x,
            reads=["x"],
            writes=["x"],
            sources={"y": ["x"]},
        )
        assert "D07" in {f.rule for f in findings}


# --- P rules -------------------------------------------------------------------

class TestPurityRules:
    def test_p01_random(self):
        findings = lint_fn(rolls_dice, reads=["x"], writes=["x"])
        assert "P01" in {f.rule for f in findings}

    def test_p02_set_iteration(self):
        findings = lint_fn(iterates_set, reads=["x"], writes=["x"])
        assert "P02" in {f.rule for f in findings}

    def test_p03_global_mutation(self):
        findings = lint_fn(mutates_global, reads=["x"], writes=["x"])
        assert "P03" in {f.rule for f in findings}

    def test_p04_mutable_update_value(self):
        findings = lint_fn(mutable_update_value, reads=["x"], writes=["x"])
        assert "P04" in {f.rule for f in findings}


# --- resolution cases that must NOT trip anything ------------------------------

class TestCleanResolution:
    @pytest.mark.parametrize(
        "fn,reads,writes",
        [
            (alias_read, ["y"], ["x"]),
            (helper_read, ["y"], ["x"]),
            (helper_updates, ["x", "y", "z"], ["x", "y", "z"]),
            (wrapped_pair, ["x", "y"], ["x"]),
            (sorted_set_read, ["x", "y"], ["x"]),
            (stdlib_metadata, ["z"], ["x"]),
        ],
        ids=lambda v: getattr(v, "__name__", None) or "",
    )
    def test_clean(self, fn, reads, writes):
        assert lint_fn(fn, reads=reads, writes=writes) == []


# --- conformance (C rules) via the fixture plugins -----------------------------

class TestConformance:
    def test_good_plugin_is_clean(self):
        assert lint_plugin("goodfix", GoodPlugin()) == []

    def test_broken_plugin_trips_every_rule(self):
        findings = lint_plugin("brokenfix", BrokenPlugin())
        by_rule = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        # No D/P noise: the broken plugin's spec functions are declared
        # correctly; only the plugin contract is wrong.
        assert set(by_rule) == {
            "C01", "C02", "C03", "C04", "C06", "C07", "C08",
        }
        # C01: grain "missing" fails make_spec, "badmap" fails make_mapping.
        assert len(by_rule["C01"]) == 2
        assert {f.subject for f in by_rule["C01"]} == {
            "grain:missing",
            "grain:badmap",
        }
        # C02: a constant apply() arg and the constant-tuple loop idiom.
        assert {f.variable for f in by_rule["C02"]} == {"Vanish", "Phantom"}
        # C03: missing "none", unknown action, bad binding (reported
        # once per grain that defines Inc: ok and badmap), bad role.
        messages = " ".join(f.message for f in by_rule["C03"])
        assert len(by_rule["C03"]) == 5
        assert "'none'" in messages
        assert "'Ghost'" in messages
        assert "who" in messages
        assert "bystander" in messages
        assert {f.variable for f in by_rule["C04"]} == {"phantom"}
        assert {f.variable for f in by_rule["C06"]} == {"Ghost"}
        assert len(by_rule["C07"]) == 1
        assert by_rule["C07"][0].severity == "warning"
        # C08: the shallow clone shares its list, and a step on the
        # clone shows in the original's snapshot.
        leaks = {f.variable: f.message for f in by_rule["C08"]}
        assert set(leaks) == {"LeakyEnsemble.log", ""}
        assert "shared with the original" in leaks["LeakyEnsemble.log"]
        assert "changed the original's snapshot()" in leaks[""]

    def test_a_step_that_pops_then_refuses_is_c09(self):
        findings = lint_plugin("refusefix", RefusingPlugin())
        assert [(f.rule, f.subject, f.variable) for f in findings] == [
            ("C09", "step:Observe", "HastyEnsemble.inbox")
        ]
        assert findings[0].severity == "error"
        assert "Observe(i=0) answered False" in findings[0].message


# --- the PR-5 lying-declaration regressions ------------------------------------

class TestPR5Regressions:
    """Re-declare two real ZooKeeper actions with their pre-PR-5 buggy
    dependency declarations and prove the linter pins each missed read
    to the exact source line."""

    @pytest.fixture(scope="class")
    def zk_schema(self):
        plugin = registry.system_plugin("zookeeper")
        return set(plugin.make_spec("mSpec-3").schema.names)

    def test_node_crash_without_vote_sources(self, zk_schema):
        from repro.zookeeper import faults

        lying = Action(
            "NodeCrash",
            faults.node_crash,
            params={"i": lambda cfg: cfg.servers},
            reads=["state", "crash_budget"],
            writes=[
                "state",
                "zab_state",
                "msgs",
                "crash_budget",
                *faults._VOLATILE_WRITES,
            ],
            # update_sources={"current_vote": [...]} omitted: the bug.
        )
        findings = check_action("zookeeper", lying, zk_schema, SpecAnalyzer())
        assert {f.rule for f in findings} == {"D01"}
        by_var = {f.variable: f for f in findings}
        assert set(by_var) == {"current_epoch", "history"}
        assert by_var["current_epoch"].file.endswith(
            "src/repro/zookeeper/faults.py"
        )
        assert by_var["current_epoch"].line == line_of(
            faults, 'epoch=state["current_epoch"][i]'
        )
        assert by_var["history"].line == line_of(
            faults, 'zxid=last_zxid(state["history"][i])'
        )

    def test_log_request_without_session_source(self, zk_schema):
        from repro.zookeeper import sync_fine

        lying = Action(
            "FollowerSyncProcessorLogRequest",
            sync_fine.follower_sync_processor_log_request,
            params={"i": lambda cfg: cfg.servers},
            reads=["state", "queued_requests", "my_leader", "disconnected"],
            writes=["queued_requests", "history", "msgs"],
            update_sources={
                "history": ["queued_requests"],
                # "accepted_epoch" dropped from the msgs sources: the bug.
                "msgs": ["queued_requests"],
            },
        )
        findings = check_action("zookeeper", lying, zk_schema, SpecAnalyzer())
        assert {f.rule for f in findings} == {"D01"}
        [finding] = findings
        assert finding.variable == "accepted_epoch"
        assert finding.file.endswith("src/repro/zookeeper/sync_fine.py")
        assert finding.line == line_of(
            sync_fine, 'same_session = entry.epoch == state["accepted_epoch"][i]'
        )


# --- fingerprints ---------------------------------------------------------------

class TestFingerprints:
    def test_stable_across_runs(self):
        first = [f.fingerprint for f in lint_plugin("brokenfix", BrokenPlugin())]
        second = [f.fingerprint for f in lint_plugin("brokenfix", BrokenPlugin())]
        assert first and first == second

    def test_line_independent(self):
        a = make_finding("D01", "s", "action:A", "m", variable="x",
                         file="f.py", line=10)
        b = make_finding("D01", "s", "action:A", "m", variable="x",
                         file="f.py", line=99)
        assert a.fingerprint == b.fingerprint


# --- CLI -----------------------------------------------------------------------

@pytest.fixture()
def fixture_registry():
    registry.register_system(GoodPlugin())
    registry.register_system(BrokenPlugin())
    yield
    with registry._SYSTEMS_LOCK:
        registry._SYSTEM_PLUGINS.pop("goodfix", None)
        registry._SYSTEM_PLUGINS.pop("brokenfix", None)


class TestLintCLI:
    def test_clean_system_exits_zero(self, fixture_registry, capsys):
        assert main(["lint", "--system", "goodfix"]) == 0
        out = capsys.readouterr()
        assert "0 error(s), 0 warning(s)" in out.err

    def test_findings_exit_one(self, fixture_registry, capsys):
        assert main(["lint", "--system", "brokenfix"]) == 1
        out = capsys.readouterr()
        assert "C02" in out.out

    def test_json_report(self, fixture_registry, capsys):
        assert main(["lint", "--system", "brokenfix", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/1"
        assert payload["systems"] == ["brokenfix"]
        rules = {f["rule"] for f in payload["findings"]}
        assert "C02" in rules and "C07" in rules
        # every finding keeps its stable fingerprint
        assert all(len(f["fingerprint"]) == 12 for f in payload["findings"])

    def test_unknown_system_errors(self, capsys):
        assert main(["lint", "--system", "nope"]) == 2


# --- the shipped plugins must lint clean ---------------------------------------

class TestShippedPlugins:
    def test_zookeeper_and_raft_are_clean(self):
        report = lint_systems(["raft", "zookeeper"])
        assert report.errors == []
        assert report.warnings == []

