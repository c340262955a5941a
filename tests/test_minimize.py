"""Tests for campaign repro minimization: the oracle-generalized
shrinker, witness rebuild/replay round-trips, the coordinator's
compared-variable validation and the spec cache's single-flight
composition."""

import threading
import time

import pytest

from repro.checker.backends.fork import available
from repro.remix import spec_cache
from repro.remix.campaign import (
    CampaignJob,
    CampaignRequest,
    campaign_jobs,
    run_campaign,
    run_cell,
    trace_findings,
)
from repro.remix.coordinator import Coordinator
from repro.remix.minimize import (
    DIRECTION_TABLE,
    rebuild_witness,
    replay_min_trace,
    shrink_finding,
    unreplayable_min_traces,
)
from repro.remix.registry import system_plugin
from repro.impl import Ensemble
from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State
from repro.zookeeper import V391, make_spec
from repro.zookeeper.mapping import mapping_for
from repro.zookeeper.scenarios import Scenario
from repro.zookeeper.specs import SELECTIONS

CONFIG = system_plugin("zookeeper").campaign_config()

#: A tiny single-grain campaign that reproduces ZK-4394's NPE through
#: FollowerProcessCOMMITInSync on the mSpec-1/sync lanes.  (The walk
#: depth is tuned to the campaign config: composing the message-fault
#: actions reshuffled the random walks, and 16 steps no longer reach
#: the NPE at these seeds.)
NPE_CAMPAIGN = dict(
    grains=("mSpec-1",),
    scenarios=("sync",),
    faults=("none", "crash-follower", "partition"),
    seeds=3,
    traces=3,
    max_steps=20,
    seed=7,
)


@pytest.fixture(scope="module")
def npe_report():
    return run_campaign(CampaignRequest(**NPE_CAMPAIGN, shrink=True))


# ------------------------------------- a toy spec for the shrinker tests


SCHEMA = Schema(("x", "y"))


def counter_spec(max_x=4, y_bound=2):
    def inc_x(config, state):
        if state.x >= max_x:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:
            return None
        return {"y": state.y + 1}

    module = Module(
        "counter",
        [
            Action("IncX", inc_x, reads=["x"], writes=["x"]),
            Action("IncY", inc_y, reads=["x", "y"], writes=["y"]),
        ],
    )
    return Specification(
        "counter",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= y_bound)],
        None,
    )


# -------------------------------------------------- campaign minimization


class TestCampaignShrink:
    def test_npe_fingerprints_minimized(self, npe_report):
        npe = [
            f for f in npe_report.findings if f.get("bug_id") == "ZK-4394"
        ]
        assert npe, "campaign must reproduce the ZK-4394 NPE"
        for finding in npe:
            min_trace = finding["min_trace"]
            assert min_trace["status"] == "ok"
            # strictly shorter than the raw witness for the NPE
            assert min_trace["steps"] < finding["witness"]["steps"]

    def test_every_finding_never_longer_and_replayable(self, npe_report):
        assert npe_report.findings
        for finding in npe_report.findings:
            min_trace = finding["min_trace"]
            assert min_trace["status"] == "ok"
            assert min_trace["steps"] <= finding["witness"]["steps"]
            assert replay_min_trace(finding, CONFIG)
        # no config passed: reconstructed from the report's meta block
        assert unreplayable_min_traces(npe_report.to_json()) == []

    def test_config_round_trips_through_report_meta(self, npe_report):
        import json

        from repro.remix.campaign import config_from_meta
        from repro.zookeeper.config import ZkConfig

        meta = json.loads(json.dumps(npe_report.to_json()))["campaign"]
        assert config_from_meta(meta) == CONFIG
        custom = ZkConfig(
            n_servers=3, max_txns=2, max_crashes=1, max_partitions=0,
            max_epoch=3,
        ).with_variant(CONFIG.variant.with_(fix_follower_shutdown=True))
        report = run_campaign(
            CampaignRequest(
                grains=("mSpec-1",), scenarios=("election",),
                faults=("none",), traces=1, max_steps=2, config=custom,
            )
        )
        assert config_from_meta(report.to_json()["campaign"]) == custom
        # a meta block without a config falls back to the default
        assert config_from_meta({"system": "zookeeper"}) == CONFIG

    def test_witness_records_roles(self, npe_report):
        witness = npe_report.findings[0]["witness"]
        assert witness["leader"] == CONFIG.n_servers - 1
        assert witness["follower"] == 0

    def test_label_args_round_trip_preserves_types(self):
        import json

        from repro.remix.minimize import _args_from_json, _args_to_json

        for value in (3, (0, 2), ((1, 2), (3,)), frozenset({(0, 1), (2, 3)})):
            encoded = json.loads(json.dumps(_args_to_json(value)))
            assert _args_from_json(encoded) == value
            assert type(_args_from_json(encoded)) is type(value)

    def test_repros_keep_json_stdout_pure(self, tmp_path, capsys):
        import json

        from repro.cli import main

        code = main(
            [
                "campaign", "--grains", "mSpec-1", "--scenarios", "election",
                "--faults", "none", "--traces", "1", "--steps", "4",
                "--shrink", "--json", "-",
                "--repros", str(tmp_path / "repros"),
            ]
        )
        assert code == 0
        json.loads(capsys.readouterr().out)  # stdout is pure JSON

    def test_shrink_finding_without_witness(self):
        payload = shrink_finding(
            {"fingerprint": "aa", "grain": "mSpec-1"}, CONFIG
        )
        assert payload == {"status": "no_witness"}

    @pytest.mark.skipif(not available(), reason="needs fork")
    def test_shrink_deterministic_across_workers(self, npe_report):
        parallel_report = run_campaign(
            CampaignRequest(**NPE_CAMPAIGN, shrink=True, workers=2)
        )
        seq, par = npe_report.to_json(), parallel_report.to_json()
        for key in ("cells", "findings", "totals"):
            assert seq[key] == par[key], key

    def test_min_traces_counted_in_totals(self, npe_report):
        totals = npe_report.totals
        assert totals["min_traces"] == totals["distinct_findings"] > 0
        assert "minimized" in npe_report.summary()


# ------------------------------------------- the direction contract


#: One seed-7 cell with findings per (direction, system).
CONTRACT_CELLS = {
    ("topdown", "zookeeper"): ("mSpec-1", "broadcast", "crash-follower"),
    ("bottomup", "zookeeper"): ("mSpec-1", "election", "none"),
    ("topdown", "raft"): ("raft-coarse", "election", "none"),
    ("bottomup", "raft"): ("raft-coarse", "election", "none"),
}


@pytest.mark.parametrize("system", ["zookeeper", "raft"])
@pytest.mark.parametrize("direction", ["topdown", "bottomup"])
class TestDirectionContract:
    """What every direction owes the campaign, on every system: the
    cell's witness rebuilds the judged run, the judge reproduces the
    fingerprint from it, and the shrunk repro replays."""

    def job(self, direction, system, fault=None):
        grain, scenario, cell_fault = CONTRACT_CELLS[direction, system]
        return CampaignJob(
            0, grain, scenario, fault or cell_fault, 7, 2, 12,
            direction=direction, system=system,
        )

    def test_cell_to_witness_to_min_trace(self, direction, system):
        config = system_plugin(system).campaign_config()
        job = self.job(direction, system)
        cell = run_cell(job, config)
        assert cell["status"] == "ok" and cell["direction"] == direction
        assert cell["traces"] == 2 and cell["steps_replayed"] > 0
        assert cell == run_cell(job, config)  # a pure function of the job
        finding = cell["findings"][0]
        assert finding["direction"] == direction
        witness = finding["witness"]
        assert witness["direction"] == direction
        keys = DIRECTION_TABLE[direction]
        assert keys.seed_key in witness and keys.steps_key in witness

        run = rebuild_witness(job.grain, witness, config, system)
        assert len(run) == witness["steps"]
        judge = keys.judge(job.grain, finding["fingerprint"], config, system)
        assert judge(run)
        # a different fingerprint is not accepted by the same run
        assert not keys.judge(job.grain, "deadbeef", config, system)(run)

        payload = shrink_finding(dict(finding, count=1), config, system=system)
        assert payload["status"] == "ok"
        assert payload["steps"] <= payload["witness_steps"] == witness["steps"]
        # shrink_finding's pre-check plus the shrinker's own initial check
        assert payload["oracle_replays"] >= 2
        assert replay_min_trace(
            dict(finding, min_trace=payload), config, system
        )

    def test_inapplicable_fault_reported(self, direction, system):
        # No partition budget -> the partition schedule is never enabled.
        from dataclasses import replace

        config = replace(
            system_plugin(system).campaign_config(), max_partitions=0
        )
        cell = run_cell(self.job(direction, system, fault="partition"), config)
        assert cell["status"] == "inapplicable"
        assert "not enabled" in cell["reason"]
        assert cell["findings"] == []


@pytest.mark.parametrize("system", ["zookeeper", "raft"])
def test_cell_and_rebuild_derive_the_same_run(system, monkeypatch):
    """The drift alarm: over the seed-7 matrix, the run a cell judged is
    the run ``rebuild_witness`` returns for every finding's witness."""
    from repro.remix.campaign import _cell_seed

    plugin = system_plugin(system)
    config = plugin.campaign_config()
    judged = []
    for direction in DIRECTION_TABLE.values():
        original = direction.judge.judge

        def recording(self, run, index=0, original=original):
            judged.append(list(self.labels(run)))
            return original(self, run, index)

        monkeypatch.setattr(direction.judge, "judge", recording)
    request = CampaignRequest(
        system=system, seed=7, directions=("topdown", "bottomup"),
        grains=plugin.grains[:1],
    )
    checked = 0
    for job in campaign_jobs(request):
        del judged[:]
        cell = run_cell(job, config)
        runs = list(judged)
        direction = DIRECTION_TABLE[job.direction]
        for finding in cell["findings"]:
            witness = finding["witness"]
            index = next(
                i for i in range(job.traces)
                if _cell_seed(job, i) == witness[direction.seed_key]
            )
            rebuilt = rebuild_witness(job.grain, witness, config, system)
            assert list(direction.judge.labels(rebuilt)) == runs[index]
            checked += 1
    assert checked > 0


# --------------------------------------------- bottom-up minimization


class TestValidationShrink:
    """A fixed-seed bottom-up cell reproduces a known model/impl
    divergence (the simulator allows faults on nodes/pairs the model's
    guards forbid) and its witness shrinks to a replayable min_trace."""

    @pytest.fixture(scope="class")
    def validation_finding(self):
        job = CampaignJob(
            0, "mSpec-1", "election", "crash-follower", 0, 2, 12,
            direction="bottomup",
        )
        cell = run_cell(job, CONFIG)
        assert cell["findings"], "fixed-seed cell must reproduce"
        finding = dict(cell["findings"][0], count=1)
        return finding

    def test_shrinks_and_replays(self, validation_finding):
        payload = shrink_finding(validation_finding, CONFIG)
        assert payload["status"] == "ok"
        assert payload["steps"] <= payload["witness_steps"]
        # a model-disabled divergence needs only the enabling fault plus
        # the forbidden step -- the shrunk repro is tiny
        assert payload["steps"] <= 4
        finding = dict(validation_finding, min_trace=payload)
        assert replay_min_trace(finding, CONFIG)

    def test_campaign_shrink_handles_both_directions(self):
        report = run_campaign(
            CampaignRequest(
                grains=("mSpec-1",),
                scenarios=("election", "broadcast"),
                faults=("none", "crash-follower"),
                traces=1,
                max_steps=5,
                seed=7,
                directions=("topdown", "bottomup"),
                shrink=True,
            )
        )
        bottomup = [
            f for f in report.findings if f["direction"] == "bottomup"
        ]
        assert bottomup
        for finding in report.findings:
            assert finding["min_trace"]["status"] == "ok"
            assert replay_min_trace(finding, CONFIG)
        assert unreplayable_min_traces(report.to_json()) == []


# ------------------------------------- coordinator variable validation


class TestCompareValidation:
    def electing_trace(self):
        spec = make_spec("mSpec-1", CONFIG)
        return Scenario(spec).elect(2, (0, 1, 2)).trace()

    def coordinator(self, variables):
        return Coordinator(
            mapping_for(SELECTIONS["mSpec-1"]),
            lambda: Ensemble(3, V391),
            compared_variables=variables,
        )

    def test_typo_reported_not_silently_skipped(self):
        coordinator = self.coordinator(("state", "historyy"))
        result = coordinator.replay(self.electing_trace())
        kinds = [d.kind for d in result.discrepancies]
        assert "unknown_variable" in kinds
        bad = next(
            d for d in result.discrepancies if d.kind == "unknown_variable"
        )
        assert bad.variable == "historyy"
        assert "absent from the implementation snapshot" in str(bad)

    def test_known_variables_still_compared_when_not_stopping(self):
        coordinator = self.coordinator(("state", "historyy"))
        result = coordinator.replay(
            self.electing_trace(), stop_on_discrepancy=False
        )
        assert result.steps_executed == 1  # replay continued past the report
        assert [d.kind for d in result.discrepancies] == ["unknown_variable"]

    def test_valid_variables_report_nothing(self):
        coordinator = self.coordinator(("state", "history"))
        result = coordinator.replay(self.electing_trace())
        assert result.clean

    def test_unknown_variable_flows_into_findings(self):
        coordinator = self.coordinator(("historyy",))
        trace = self.electing_trace()
        result = coordinator.replay(trace, stop_on_discrepancy=False)
        findings = trace_findings(result, trace, "mSpec-1")
        assert findings and findings[0]["kind"] == "unknown_variable"
        assert findings[0]["variable"] == "historyy"

    def test_variable_the_model_lacks_is_reported_not_crashed_on(self):
        """A compared variable only the implementation snapshot has used
        to pass the snapshot-only check and raise ``KeyError`` from the
        first comparison; it is an ``unknown_variable`` naming the model
        side, and the known variables are still compared."""

        class WiderSnapshot(Ensemble):
            def snapshot(self):
                return dict(super().snapshot(), impl_only=(0, 0, 0))

        plugin = system_plugin("zookeeper")
        coordinator = Coordinator(
            spec_cache.cached_mapping("mSpec-1"),
            lambda: WiderSnapshot(3, V391),
            compared_variables=plugin.compared_variables + ("impl_only",),
        )
        result = coordinator.replay(
            self.electing_trace(), stop_on_discrepancy=False
        )
        assert result.steps_executed == 1
        (bad,) = result.discrepancies
        assert (bad.kind, bad.variable) == ("unknown_variable", "impl_only")
        assert "absent from the model schema --" in str(bad)
        # the typo is absent from both sides, and says so
        typo = self.coordinator(("historyy",)).replay(self.electing_trace())
        assert "the implementation snapshot and the model schema" in str(
            typo.discrepancies[0]
        )

    def test_every_mismatching_variable_of_a_step_in_compared_order(self):
        """The one-tuple comparison walks the variables only on a
        mismatch, and then reports each that differs, in compared order."""

        class Lying(Ensemble):
            def snapshot(self):
                lie = ("lie",) * 3
                return dict(super().snapshot(), history=lie, state=lie)

        coordinator = Coordinator(
            mapping_for(SELECTIONS["mSpec-1"]),
            lambda: Lying(3, V391),
            system_plugin("zookeeper").compared_variables,
        )
        result = coordinator.replay(self.electing_trace())
        assert [(d.kind, d.step, d.variable) for d in result.discrepancies] == [
            ("state_mismatch", 0, "state"),
            ("state_mismatch", 0, "history"),
        ]


# --------------------------------------------- spec cache single-flight


class TestSingleFlight:
    def test_concurrent_first_calls_compose_once(self, monkeypatch):
        import repro.zookeeper.specs as specs_module

        spec_cache.clear()
        real_make_spec = specs_module.make_spec
        calls = []

        def slow_make_spec(name, config):
            calls.append(name)
            time.sleep(0.05)  # widen the race window
            return real_make_spec(name, config)

        monkeypatch.setattr(specs_module, "make_spec", slow_make_spec)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    spec_cache.cached_spec("mSpec-1", CONFIG)
                )
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1  # exactly one composition
        assert len({id(spec) for spec in results}) == 1
        stats = spec_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        spec_cache.clear()

    def test_failed_composition_retries(self, monkeypatch):
        import repro.zookeeper.specs as specs_module

        spec_cache.clear()
        real_make_spec = specs_module.make_spec
        attempts = []

        def flaky_make_spec(name, config):
            attempts.append(name)
            if len(attempts) == 1:
                raise RuntimeError("boom")
            return real_make_spec(name, config)

        monkeypatch.setattr(specs_module, "make_spec", flaky_make_spec)
        with pytest.raises(RuntimeError, match="boom"):
            spec_cache.cached_spec("mSpec-1", CONFIG)
        spec = spec_cache.cached_spec("mSpec-1", CONFIG)  # key not poisoned
        assert spec is spec_cache.cached_spec("mSpec-1", CONFIG)
        spec_cache.clear()

    def test_prefix_scripting_is_single_flight(self, monkeypatch):
        # Two threads ask for one coordinate at once: one scripts it, the
        # other waits for it -- one miss, one hit, equal Scenarios.
        plugin = system_plugin("zookeeper")
        spec_cache.clear()
        spec_cache.cached_spec("mSpec-3", CONFIG)  # composed outside the race
        real = plugin.scenario_prefix
        scripted = []

        def slow_scenario_prefix(*args):
            scripted.append(args[0])
            time.sleep(0.2)  # widen the race window
            return real(*args)

        monkeypatch.setattr(plugin, "scenario_prefix", slow_scenario_prefix)
        barrier = threading.Barrier(2)
        results = []

        def ask():
            barrier.wait()
            results.append(
                spec_cache.cached_prefix("mSpec-3", CONFIG, "sync", "none", 2, 0)
            )

        spec_cache.set_disk_cache_dir("off")
        try:
            threads = [threading.Thread(target=ask) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            spec_cache.set_disk_cache_dir(None)
        assert scripted == ["sync"]
        stats = spec_cache.stats()
        assert (stats["prefix_misses"], stats["prefix_hits"]) == (1, 1)
        first, second = results
        assert first is not second
        assert (first.labels, first.states) == (second.labels, second.states)
        spec_cache.clear()

    def test_mapping_single_flight_returns_same_object(self):
        spec_cache.clear()
        first = spec_cache.cached_mapping("mSpec-2")
        assert first is spec_cache.cached_mapping("mSpec-2")
        spec_cache.clear()
