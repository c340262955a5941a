"""Tests of the benchmark itself, at ``--smoke`` scale.

Run with ``python -m pytest bench/tests -q`` from the repository root
(tier-1's ``testpaths`` does not include this directory).  They check
the contract file against the code, that one command prints every
metric, that outputs are a function of the seed, that tracing is inert
and fully undone, and that ``--compare`` judges by the bounds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402
from bench.trace import Tracer, install  # noqa: E402
from bench.reference import reference_s  # noqa: E402
from bench.workloads import LAYERS, WORKLOADS, pass_seed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke --trace`` run of all five workloads, seed 7."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = run_bench("--smoke", "--trace", "--json", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text())


def test_contract_matches_the_code():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (name, row["why"]) for name, row in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == [
        row[:3] for row in LAYERS]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_one_command_prints_every_metric_with_its_unit(smoke):
    stdout, document = smoke
    for name in WORKLOADS:
        assert f"== {name} " in stdout
    sections = stdout.split("== ")[1:]
    assert len(sections) == len(WORKLOADS)
    for section in sections:
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s+(\S+)\s+{re.escape(metric['unit'])}\s",
                section, re.M), metric["name"]
        assert re.search(r"failed_share\s+0\.0000 ratio", section)
    assert set(document["machine"]) == {"nproc", "python", "platform",
                                        "loadavg_1min", "git_commit"}
    for record in document["runs"]:
        assert record["failed"] == 0 and record["problems"] == []
        assert all(row["value"] > 0 for row in record["metrics"].values())
        assert list(record["layer"]) == [m["name"] for m in CONTRACT["per_layer"]]
        assert record["layer"]["trace.overhead_ratio"] > 0


def test_result_line_is_the_contract(smoke):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_bench("--smoke", "--workload", "hunt-zk", "--seed", "11",
                         "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: row["unit"] for name, row in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in CONTRACT[key]}


def test_outputs_are_a_function_of_the_seed(smoke, tmp_path):
    _, document = smoke
    first = {run["workload"]: run["answers"] for run in document["runs"]}
    out = tmp_path / "again.json"
    for seed in ("7", "8"):
        for name in ("campaign-topdown", "campaign-bottomup"):
            done = run_bench("--smoke", "--workload", name, "--seed", seed,
                             "--json", str(out))
            assert done.returncode == 0, done.stdout + done.stderr
    again = json.loads(out.read_text())["runs"]
    for record in again:
        same = record["answers"]["digest"] == first[record["workload"]]["digest"]
        assert same == (record["seed"] == 7), (record["workload"], record["seed"])


def test_passes_of_a_seeded_workload_get_distinct_seeds():
    for name, row in WORKLOADS.items():
        seeds = {pass_seed(name, 7, index) for index in range(6)}
        assert pass_seed(name, 7, 0) == 7
        assert len(seeds) == (1 if row["kind"] == "check" else 6), name
    assert reference_s() > 0


def test_tracing_is_inert_and_fully_restored():
    from repro.checker import engine
    from repro.remix import campaign, mapping, service, spec_cache
    from repro.remix.request import CampaignRequest

    watched = [(engine.CompiledSpec, "expand_batch"), (engine, "kernel_trusted"),
               (campaign, "run_campaign"), (campaign, "execute_campaign_task"),
               (mapping.ActionMapping, "lookup"), (service, "run_campaign"),
               (CampaignRequest, "from_json")]
    before = [vars(owner)[attr] for owner, attr in watched]
    request = CampaignRequest(**WORKLOADS["campaign-bottomup"]["smoke"], seed=7)

    def report_bytes():
        report = campaign.run_campaign(request).to_json()
        report["campaign"].pop("elapsed_seconds")
        return json.dumps(report, sort_keys=True)

    spec_cache.set_disk_cache_dir("off")
    try:
        untraced = report_bytes()
        tracer = Tracer()
        install(tracer)
        try:
            assert all(vars(owner)[attr] is not original
                       for (owner, attr), original in zip(watched, before))
            traced = report_bytes()
        finally:
            tracer.restore()
    finally:
        spec_cache.set_disk_cache_dir(None)
    assert traced == untraced
    assert [vars(owner)[attr] for owner, attr in watched] == before
    rows = tracer.aggregate()
    assert rows["campaign.run"]["calls"] == 1
    assert rows["validation.explore"]["self_s"] <= rows["validation.explore"]["total_s"]
    assert rows["impl.step"]["calls"] > 0


def _result_set(path: Path, value: float) -> str:
    rows = {m["name"]: {"value": value, "unit": m["unit"], "min": value,
                        "max": value * 1.01, "n": 3} for m in CONTRACT["end_to_end"]}
    path.write_text(json.dumps({"machine": {}, "runs": [
        {"workload": "hunt-zk", "seed": 7, "failed": 0, "metrics": rows}]}))
    return str(path)


def test_compare_judges_by_the_bounds(tmp_path, capsys):
    base = _result_set(tmp_path / "a.json", 1.0)
    assert bench_run.compare(base, _result_set(tmp_path / "same.json", 1.02)) == 0
    assert "regression" not in capsys.readouterr().out
    assert bench_run.compare(base, _result_set(tmp_path / "slow.json", 1.5)) == 1
    assert "regression" in capsys.readouterr().out


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "hunt-zk", "--seed", "1", "--seconds", "10",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
