"""Tests for the conformance campaign: matrix enumeration, determinism,
dedup, JSON schema round-trip, the spec cache and the generic task pool."""

import json

import pytest

from repro.checker import parallel
from repro.remix import spec_cache
from repro.remix.campaign import (
    CampaignJob,
    CampaignReport,
    CampaignRequest,
    ConformanceCampaign,
    RequestError,
    canonical_value,
    dedup_min_traces,
    finding_fingerprint,
    merge_cells,
    new_fingerprints,
    parse_budget,
    run_cell,
)
from repro.remix.registry import system_plugin
from repro.zookeeper import make_spec
from repro.zookeeper.faults import FaultSchedule, fault_schedule, fault_schedules
from repro.zookeeper.scenarios import SCENARIO_PREFIXES, Scenario, scenario_prefix

PLUGIN = system_plugin("zookeeper")
campaign_config = PLUGIN.campaign_config


@pytest.fixture(autouse=True)
def fresh_cache():
    spec_cache.clear()
    yield
    spec_cache.clear()


def small_campaign(**overrides):
    kwargs = dict(
        grains=("mSpec-1",),
        scenarios=("election", "broadcast"),
        faults=("none", "crash-follower"),
        traces=1,
        max_steps=5,
        seed=7,
    )
    kwargs.update(overrides)
    return ConformanceCampaign(CampaignRequest(**kwargs))


class TestMatrix:
    def test_default_matrix_size(self):
        campaign = ConformanceCampaign(CampaignRequest(seeds=2))
        jobs = campaign.jobs()
        expected = (
            len(PLUGIN.grains)
            * len(PLUGIN.scenario_prefixes)
            * len(PLUGIN.fault_schedules)
            * 2
        )
        assert len(jobs) == expected
        assert [job.index for job in jobs] == list(range(expected))

    def test_scenario_fault_cells_at_least_12(self):
        cells = {
            (job.scenario, job.fault)
            for job in ConformanceCampaign(CampaignRequest()).jobs()
        }
        assert len(cells) >= 12

    def test_unmappable_grain_rejected(self):
        with pytest.raises(RequestError, match="grains: unknown value 'SysSpec'"):
            CampaignRequest(grains=("SysSpec",))

    def test_unknown_fault_rejected(self):
        with pytest.raises(RequestError, match="faults: unknown value 'meteor-strike'"):
            CampaignRequest(faults=("meteor-strike",))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(RequestError, match="scenarios: unknown value 'apocalypse'"):
            CampaignRequest(scenarios=("apocalypse",))

    def test_fault_schedules_enumeration(self):
        names = [schedule.name for schedule in fault_schedules()]
        assert names[0] == "none"
        assert len(names) == len(set(names)) >= 6
        for name in names:
            assert fault_schedule(name).name == name

    def test_fault_schedule_resolve_matches_inject(self):
        schedule = fault_schedule("crash-restart-follower")
        assert schedule.resolve(2, 0) == [
            ("NodeCrash", {"i": 0}),
            ("NodeRestart", {"i": 0}),
        ]

    def test_unknown_direction_rejected(self):
        with pytest.raises(RequestError, match="directions: unknown value 'sideways'"):
            CampaignRequest(directions=("sideways",))

    def test_both_directions_double_the_matrix(self):
        single = ConformanceCampaign(CampaignRequest()).jobs()
        both = ConformanceCampaign(
            CampaignRequest(directions=("topdown", "bottomup"))
        ).jobs()
        assert len(both) == 2 * len(single)
        assert [job.direction for job in both[: len(single)]] == [
            "topdown"
        ] * len(single)
        assert [job.direction for job in both[len(single):]] == [
            "bottomup"
        ] * len(single)

    def test_bottomup_cell_id_is_prefixed(self):
        job = CampaignJob(
            0, "mSpec-1", "election", "none", 7, 1, 4, direction="bottomup"
        )
        assert job.cell_id == "bottomup:mSpec-1/election/none/s7"
        topdown = CampaignJob(0, "mSpec-1", "election", "none", 7, 1, 4)
        assert topdown.cell_id == "mSpec-1/election/none/s7"

    def test_directions_get_distinct_cell_seeds(self):
        from repro.remix.campaign import _cell_seed

        topdown = CampaignJob(0, "mSpec-1", "election", "none", 7, 1, 4)
        bottomup = CampaignJob(
            0, "mSpec-1", "election", "none", 7, 1, 4, direction="bottomup"
        )
        assert _cell_seed(topdown, 0) != _cell_seed(bottomup, 0)


class TestCellExecution:
    def test_cell_runs_and_covers_actions(self):
        job = CampaignJob(0, "mSpec-1", "broadcast", "crash-leader", 7, 2, 6)
        cell = run_cell(job, campaign_config())
        assert cell["status"] == "ok"
        assert cell["traces"] == 2
        assert cell["steps_replayed"] > 0
        assert cell["actions_covered"] >= 2

    def test_validation_cell_runs_and_finds(self):
        # Fixed-seed bottom-up cell: the simulator allows partitioning a
        # crashed node, which the model forbids -- a divergence only the
        # bottom-up direction can surface (top-down replay never contains
        # a model-disabled action).
        job = CampaignJob(
            0, "mSpec-1", "election", "crash-follower", 0, 2, 12,
            direction="bottomup",
        )
        cell = run_cell(job, campaign_config())
        assert cell["status"] == "ok"
        assert cell["direction"] == "bottomup"
        assert cell["traces"] == 2
        assert cell["steps_replayed"] > 0
        assert cell["findings"], "expected a model-disabled finding"
        finding = cell["findings"][0]
        assert finding["direction"] == "bottomup"
        assert finding["kind"] == "model_disabled"
        witness = finding["witness"]
        assert witness["direction"] == "bottomup"
        assert "explorer_seed" in witness and "explorer_steps" in witness

    def test_validation_cell_is_deterministic(self):
        job = CampaignJob(
            0, "mSpec-1", "broadcast", "none", 7, 2, 8,
            direction="bottomup",
        )
        first = run_cell(job, campaign_config())
        second = run_cell(job, campaign_config())
        assert first == second

    def test_cell_seeds_differ_across_cells(self):
        from repro.remix.campaign import _cell_seed

        jobs = [
            CampaignJob(i, "mSpec-1", scenario, fault, 7, 1, 4)
            for i, (scenario, fault) in enumerate(
                [("election", "none"), ("election", "partition"),
                 ("sync", "none")]
            )
        ]
        seeds = {_cell_seed(job, 0) for job in jobs}
        assert len(seeds) == len(jobs)


class TestDeterminismAndDedup:
    def test_fixed_seed_reproducible(self):
        first = small_campaign().run().to_json()
        second = small_campaign().run().to_json()
        assert first["cells"] == second["cells"]
        assert first["findings"] == second["findings"]
        assert first["totals"] == second["totals"]

    @pytest.mark.skipif(not parallel.available(), reason="needs fork")
    def test_workers_do_not_change_findings(self):
        seq = small_campaign(workers=1).run().to_json()
        par = small_campaign(workers=2).run().to_json()
        assert seq["cells"] == par["cells"]
        assert seq["findings"] == par["findings"]
        assert seq["totals"] == par["totals"]

    @pytest.mark.skipif(not parallel.available(), reason="needs fork")
    def test_mixed_direction_campaign_deterministic_across_workers(self):
        kw = dict(directions=("topdown", "bottomup"))
        seq = small_campaign(workers=1, **kw).run().to_json()
        par = small_campaign(workers=2, **kw).run().to_json()
        assert seq["cells"] == par["cells"]
        assert seq["findings"] == par["findings"]
        assert seq["totals"] == par["totals"]
        assert seq["totals"]["bottomup_findings"] > 0

    def test_bottomup_findings_disjoint_from_topdown(self):
        report = small_campaign(
            directions=("topdown", "bottomup")
        ).run()
        by_direction = {"topdown": set(), "bottomup": set()}
        for finding in report.findings:
            by_direction[finding["direction"]].add(finding["fingerprint"])
        assert not (by_direction["topdown"] & by_direction["bottomup"])

    def test_merge_dedups_identical_findings(self):
        jobs = [
            CampaignJob(0, "mSpec-1", "election", "none", 7, 1, 4),
            CampaignJob(1, "mSpec-1", "sync", "none", 7, 1, 4),
        ]
        finding = {
            "fingerprint": "abcd", "kind": "state_mismatch",
            "detail": "x differs",
        }
        results = [
            dict(grain="mSpec-1", scenario="election", fault="none", seed=7,
                 status="ok", traces=1, steps_replayed=4, actions_covered=2,
                 discrepancies=1, impl_bugs=0, findings=[dict(finding)]),
            dict(grain="mSpec-1", scenario="sync", fault="none", seed=7,
                 status="ok", traces=1, steps_replayed=4, actions_covered=2,
                 discrepancies=1, impl_bugs=0, findings=[dict(finding)]),
        ]
        report = merge_cells({}, jobs, results)
        assert len(report.findings) == 1
        assert report.findings[0]["count"] == 2
        assert report.findings[0]["cells"] == [
            "mSpec-1/election/none/s7", "mSpec-1/sync/none/s7",
        ]
        assert report.totals["discrepancies"] == 2
        assert report.totals["distinct_findings"] == 1

    def test_finding_counts_aggregate_to_cell_totals(self):
        report = small_campaign(
            scenarios=("sync",), faults=("crash-restart-follower",),
            grains=("mSpec-2",), traces=2, max_steps=10,
        ).run()
        totals = report.totals
        assert sum(f["count"] for f in report.findings) == (
            totals["discrepancies"] + totals["impl_bugs"]
        )

    def test_skipped_jobs_recorded(self):
        report = small_campaign(budget=1e-9).run()
        assert report.totals["skipped"] == report.totals["cells"] > 0
        assert report.findings == []


class TestReportSchema:
    def test_json_round_trip(self):
        report = small_campaign().run()
        blob = json.dumps(report.to_json())
        back = CampaignReport.from_json(json.loads(blob))
        assert back.cells == report.cells
        assert back.findings == report.findings
        assert back.totals == report.totals
        assert back.meta == report.meta

    def test_wrong_schema_rejected(self):
        # /4 is the only accepted report version: nothing upgrades /1-/3.
        for schema in ("bogus/9", "repro.campaign/1", "repro.campaign/3"):
            with pytest.raises(ValueError, match="unsupported campaign schema"):
                CampaignReport.from_json(
                    {"schema": schema, "campaign": {}, "cells": [], "findings": []}
                )

    def test_new_fingerprints_gate(self):
        report = CampaignReport(
            meta={},
            cells=[],
            findings=[
                {"fingerprint": "aa", "kind": "impl_bug"},
                {"fingerprint": "bb", "kind": "state_mismatch"},
            ],
        )
        empty = CampaignReport(meta={}, cells=[], findings=[])
        assert new_fingerprints(report, empty) == ["aa"]
        known = CampaignReport(
            meta={}, cells=[],
            findings=[{"fingerprint": "aa", "kind": "impl_bug"}],
        )
        assert new_fingerprints(report, known) == []

    def test_cli_rejects_unsupported_baseline_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.remix import campaign

        def must_not_run(*args, **kwargs):
            raise AssertionError("the campaign ran before the baseline check")

        monkeypatch.setattr(campaign, "run_campaign", must_not_run)
        path = tmp_path / "baseline.json"
        for schema in ("bogus/9", "repro.campaign/3"):
            path.write_text(
                json.dumps({"schema": schema, "campaign": {}, "cells": [], "findings": []})
            )
            assert main(["campaign", "--baseline", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"campaign: baseline {path}" in err
            assert f"unsupported campaign schema {schema!r}" in err

    def test_checked_in_baseline_round_trips_unchanged(self):
        import pathlib

        path = pathlib.Path(__file__).parent.parent / (
            ".github/campaign-baseline.json"
        )
        data = json.loads(path.read_text())
        assert CampaignReport.from_json(data).to_json() == data

    def test_parse_budget(self):
        assert parse_budget("5s") == 5.0
        assert parse_budget("2m") == 120.0
        assert parse_budget("90") == 90.0
        assert parse_budget("500ms") == 0.5
        with pytest.raises(ValueError):
            parse_budget("soon")
        with pytest.raises(ValueError):
            parse_budget("-3s")

    def test_canonical_value_is_order_stable(self):
        left = canonical_value(frozenset({(1, 2), (0, 5), (3, 1)}))
        right = canonical_value(frozenset({(3, 1), (1, 2), (0, 5)}))
        assert left == right
        assert finding_fingerprint({"v": left}) == finding_fingerprint(
            {"v": right}
        )


class TestDiskCache:
    """The on-disk persistence layer: repeated 'CLI invocations' (fresh
    in-memory caches) warm-start from persisted prefix traces."""

    @pytest.fixture(autouse=True)
    def isolated_dir(self, tmp_path):
        spec_cache.set_disk_cache_dir(str(tmp_path / "disk"))
        yield
        spec_cache.set_disk_cache_dir(None)

    def test_second_invocation_warm_starts(self, tmp_path):
        # Cache on == cache off: every grain of both plugins, both
        # directions, shrink on -- reports byte-equal off, cold and warm.
        def report(system):
            payload = small_campaign(
                system=system, grains=None, scenarios=None, faults=None,
                max_steps=4, directions=("topdown", "bottomup"), shrink=True,
            ).run().to_json()
            payload["campaign"].pop("elapsed_seconds", None)
            return json.dumps(payload, sort_keys=True)

        for system in ("zookeeper", "raft"):
            spec_cache.set_disk_cache_dir("off")
            spec_cache.clear()
            off = report(system)
            spec_cache.set_disk_cache_dir(str(tmp_path / system))
            spec_cache.clear()
            cold = report(system)
            stats = spec_cache.stats()
            assert stats["disk_hits"] == 0 and stats["disk_misses"] > 0, stats
            spec_cache.clear()  # a fresh process, same disk
            warm = report(system)
            stats = spec_cache.stats()
            assert stats["disk_hits"] > 0 and stats["disk_misses"] == 0, stats
            assert stats["bundle_misses"] == 0, stats
            assert cold == off and warm == off

    def test_cached_prefix_round_trip(self):
        config = campaign_config()
        built = spec_cache.cached_prefix(
            "mSpec-1", config, "broadcast", "crash-follower", 2, 0
        )
        spec_cache.clear()
        loaded = spec_cache.cached_prefix(
            "mSpec-1", config, "broadcast", "crash-follower", 2, 0
        )
        assert spec_cache.stats()["disk_hits"] == 1
        assert loaded.labels == built.labels
        assert [s.values for s in loaded.states] == [
            s.values for s in built.states
        ]
        assert loaded.state == built.state

    def test_prefix_is_fresh_per_call(self):
        config = campaign_config()
        first = spec_cache.cached_prefix(
            "mSpec-1", config, "election", "none", 2, 0
        )
        first.labels.append("mutation")
        second = spec_cache.cached_prefix(
            "mSpec-1", config, "election", "none", 2, 0
        )
        assert "mutation" not in second.labels

    # An edited input is a row of tests/test_stale_inputs.py.

    def test_corrupt_entry_recomputes(self, tmp_path):
        import glob

        config = campaign_config()
        args = ("mSpec-1", config, "election", "none", 2, 0)
        built = spec_cache.cached_prefix(*args)
        # UnpicklingError, and a GET opcode whose operand is not an int
        # (ValueError): whatever the unpickler raises is a miss.
        for damage in (b"not a pickle", b"garbage\n"):
            # (compile bundles live beside the prefixes, under kernels-*)
            (path,) = glob.glob(str(tmp_path / "disk" / "prefixes-*" / "*.pkl"))
            with open(path, "wb") as fh:
                fh.write(damage)
            spec_cache.clear()
            prefix = spec_cache.cached_prefix(*args)
            assert prefix.labels == built.labels  # rebuilt, not crashed
            stats = spec_cache.stats()
            assert stats["disk_hits"] == 0 and stats["disk_misses"] == 1
            spec_cache.clear()  # ... and the entry was rewritten
            assert spec_cache.cached_prefix(*args).labels == built.labels
            assert spec_cache.stats()["disk_hits"] == 1

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        spec_cache.set_disk_cache_dir("off")
        config = campaign_config()
        spec_cache.cached_prefix("mSpec-1", config, "election", "none", 2, 0)
        stats = spec_cache.stats()
        assert stats["disk_hits"] == stats["disk_misses"] == 0


class TestMinTraceAliases:
    def finding(self, fingerprint, labels, direction="topdown", **extra):
        return dict(
            fingerprint=fingerprint,
            kind="state_mismatch",
            grain="mSpec-1",
            direction=direction,
            detail=f"finding {fingerprint}",
            count=1,
            cells=[f"cell-{fingerprint}"],
            min_trace={"status": "ok", "steps": len(labels), "labels": labels},
            **extra,
        )

    def test_same_min_trace_groups_into_aliases(self):
        labels = [{"name": "NodeCrash", "args": {"i": 0}}]
        findings = [
            self.finding("aa", labels),
            self.finding("bb", labels),
            self.finding("cc", [{"name": "NodeCrash", "args": {"i": 1}}]),
        ]
        deduped = dedup_min_traces(findings)
        assert [f["fingerprint"] for f in deduped] == ["aa", "cc"]
        aliases = deduped[0]["aliases"]
        assert [a["fingerprint"] for a in aliases] == ["bb"]
        assert aliases[0]["cells"] == ["cell-bb"]

    def test_directions_and_grains_never_group(self):
        labels = [{"name": "NodeCrash", "args": {"i": 0}}]
        findings = [
            self.finding("aa", labels, direction="topdown"),
            self.finding("bb", labels, direction="bottomup"),
        ]
        assert len(dedup_min_traces(findings)) == 2

    def test_unshrunk_findings_pass_through(self):
        findings = [
            {"fingerprint": "aa", "kind": "impl_bug",
             "min_trace": {"status": "unreproducible"}},
            {"fingerprint": "bb", "kind": "impl_bug"},
        ]
        assert dedup_min_traces(list(findings)) == findings

    def test_aliased_fingerprints_survive_in_report(self):
        labels = [{"name": "NodeCrash", "args": {"i": 0}}]
        report = CampaignReport(
            meta={},
            cells=[],
            findings=dedup_min_traces(
                [self.finding("aa", labels), self.finding("bb", labels)]
            ),
        )
        assert report.fingerprints() == ["aa", "bb"]
        assert report.totals["distinct_findings"] == 1
        assert report.totals["aliased_findings"] == 1
        # the baseline gate keeps recognizing the aliased fingerprint
        baseline = CampaignReport(
            meta={}, cells=[],
            findings=[{"fingerprint": "bb", "kind": "state_mismatch"}],
        )
        assert new_fingerprints(report, baseline, kind="state_mismatch") == ["aa"]

    def test_baseline_aliases_count_as_known(self):
        # Alias grouping is first-seen: a later run may promote a
        # fingerprint the baseline stores only as an alias to its own
        # representative.  The gate must not flag it as new.
        labels = [{"name": "NodeCrash", "args": {"i": 0}}]
        baseline = CampaignReport(
            meta={},
            cells=[],
            findings=[
                dict(
                    self.finding("head", labels),
                    kind="impl_bug",
                    aliases=[{"fingerprint": "ali", "kind": "impl_bug"}],
                )
            ],
        )
        report = CampaignReport(
            meta={},
            cells=[],
            findings=[dict(self.finding("ali", labels), kind="impl_bug")],
        )
        assert new_fingerprints(report, baseline, kind="impl_bug") == []


class TestSpecCache:
    def test_same_key_returns_same_object(self):
        config = campaign_config()
        first = spec_cache.cached_spec("mSpec-1", config)
        second = spec_cache.cached_spec("mSpec-1", config)
        assert first is second
        stats = spec_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_distinct_configs_distinct_specs(self):
        first = spec_cache.cached_spec("mSpec-1", campaign_config())
        second = spec_cache.cached_spec(
            "mSpec-1", campaign_config().with_variant(
                campaign_config().variant.with_(fix_follower_shutdown=True)
            )
        )
        assert first is not second

    def test_cached_mapping(self):
        assert spec_cache.cached_mapping("mSpec-3") is spec_cache.cached_mapping(
            "mSpec-3"
        )


class TestScenarioIndex:
    def test_instance_named_matches_linear_scan(self):
        spec = make_spec("mSpec-1", campaign_config())
        inst = spec.instance_named("NodeCrash", {"i": 1})
        assert inst is not None
        by_scan = [
            candidate
            for candidate in spec.action_instances()
            if candidate.label.name == "NodeCrash"
            and candidate.label.args == {"i": 1}
        ]
        assert inst is by_scan[0]

    def test_instance_named_unknown_is_none(self):
        spec = make_spec("mSpec-1", campaign_config())
        assert spec.instance_named("Bogus", {"i": 1}) is None
        assert spec.instance_named("NodeCrash", {"i": 99}) is None

    def test_scenario_prefixes_cover_all_grains(self):
        for grain in PLUGIN.grains:
            spec = spec_cache.cached_spec(grain, campaign_config())
            for name in SCENARIO_PREFIXES:
                prefix = scenario_prefix(name, spec, 2, (0, 1, 2))
                assert len(prefix.labels) > 0

    def test_fault_injection_applies_steps(self):
        spec = spec_cache.cached_spec("mSpec-1", campaign_config())
        scenario = Scenario(spec).serving_cluster()
        before = len(scenario.labels)
        fault_schedule("crash-restart-follower").inject(scenario, 2, 0)
        assert len(scenario.labels) == before + 2
        assert scenario.labels[-2].name == "NodeCrash"
        assert scenario.labels[-1].name == "NodeRestart"

    def test_custom_schedule_roles_resolve(self):
        spec = spec_cache.cached_spec("mSpec-1", campaign_config())
        scenario = Scenario(spec).serving_cluster()
        schedule = FaultSchedule(
            "custom", (("PartitionStart", (("pair", "leader-follower-pair"),)),)
        )
        schedule.inject(scenario, 2, 0)
        assert scenario.labels[-1].args == {"pair": (0, 2)}
