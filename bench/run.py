#!/usr/bin/env python3
"""The repository's benchmark: ``python bench/run.py``.

One command runs the five workloads of ``BENCHMARK.json`` (or the one
named by ``--workload``), prints every metric by name with its unit,
checks every output against ``bench/expected.json`` and exits non-zero
on a wrong verdict or report.  It claims no gain: it is the ruler later
changes are measured with.

This driver imports nothing from the program.  Each *pass* of a
workload runs in a fresh interpreter (``bench/passes.py``), one at a
time; every end-to-end timing is the median of the timed passes, in
reference seconds (``bench/reference.py``: scaled by how fast the box
ran a fixed piece of work next to the timed interval).
``--trace`` adds the micro-probes and one extra pass per workload with
``bench/trace.py`` installed, and prints the per-layer table; end-to-end
numbers never come from the traced pass.

    python bench/run.py                        # all workloads, seed 7
    python bench/run.py --workload hunt-zk --seed 3 --trace --json out.json
    python bench/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# Import our siblings as the package `bench`, never as top-level modules:
# the script directory on sys.path would let bench/trace.py shadow the
# standard library's `trace`.
if not __package__:  # run as a script, not imported as bench.run
    sys.path[0] = str(ROOT)

from bench.reference import NOMINAL_S  # noqa: E402
from bench.workloads import (  # noqa: E402
    LAYER_MOVES, TWO_CORE_ROWS, WORKLOADS, pass_seed, passes_for,
)

BENCH = ROOT / "bench"
OUT = BENCH / "out"
PASS_TIMEOUT = 170.0


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -------------------------------------------------------------- machine


def machine_record() -> Dict[str, Any]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > 0.5 * nproc:
        print(f"warning: 1-min load average {load:.2f} exceeds 0.5 x nproc "
              f"({nproc}); timings will be noisy", file=sys.stderr)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1min": load,
        "git_commit": commit,
    }


# --------------------------------------------------------------- passes


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``bench/out`` for one run's spec cache,
    journal and ``TMPDIR``; removed on exit."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))
    (workdir / "tmp").mkdir()
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def spawn_pass(workdir: Path, *args: str) -> Dict[str, Any]:
    """Run ``bench.passes`` in a fresh interpreter; return its result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Socket workers resolve the disk cache from the environment; nothing
    # the benchmark starts may read ~/.cache or write outside the checkout.
    env["REPRO_SPEC_CACHE_DIR"] = str(workdir / "cache")
    env["TMPDIR"] = str(workdir / "tmp")
    command = [sys.executable, "-m", "bench.passes", "--workdir", str(workdir),
               "--spawned-at", repr(time.monotonic()), *args]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"pass {' '.join(args)} exited {done.returncode}")
    return json.loads(lines[-1])


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    """One metric over the timed passes: the median, with the range."""
    return {"value": statistics.median(values), "unit": unit,
            "min": min(values), "max": max(values), "n": len(values)}


def check_expected(name: str, scale: str, seed: int, result: Dict[str, Any],
                   expected: Dict[str, Any]) -> List[str]:
    """Compare one pass's answers with the hand-written ones."""
    kind = WORKLOADS[name]["kind"]
    answers = result["answers"]
    problems = []
    if kind == "check":
        for spec, got in answers.items():
            want = expected[name][spec]
            flat = dict(got)
            flat.update(flat.pop("violation") or {"family": None})
            for key, value in want.items():
                if flat.get(key) != value:
                    problems.append(f"{spec}: {key} is {flat.get(key)!r}, expected {value!r}")
    elif kind == "campaign":
        if expected[name].get("requires_zk4394_impl_bug") and scale == "default":
            if not answers["zk4394_impl_bug"]:
                problems.append("report has no ZK-4394 impl_bug finding")
        want = expected[name]["digest"].get(scale)
        if seed == expected["seed"] and want and answers["digest"] != want:
            problems.append(f"report digest {answers['digest']} != pinned {want}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 contract: Dict[str, Any], expected: Dict[str, Any],
                 probes: Optional[Dict[str, float]]) -> Dict[str, Any]:
    """All passes of one workload; returns the run record."""
    kind = WORKLOADS[name]["kind"]

    def arguments(index: int) -> List[str]:
        return ["--workload", name, "--scale", scale,
                "--seed", str(pass_seed(name, seed, index))]

    with scratch_dir("run-") as workdir:
        cold = None
        if kind != "check":
            cold = spawn_pass(workdir, *arguments(0), "--cold")
        # Campaign passes each get their own seed, so each checks its own
        # report; the other kinds repeat pass 1's outputs (checked below),
        # so pass 1 alone runs the independent checks.
        timed = [spawn_pass(workdir, *arguments(index), "--pass-id", str(index + 1),
                            *(["--verify"] if index == 0 or kind == "campaign" else []))
                 for index in range(passes_for(name, seconds, scale))]
        traced = None
        if trace:  # pass 1 again, with the wrappers in
            trace_path = OUT / f"trace-{name}.jsonl"
            trace_path.unlink(missing_ok=True)
            traced = spawn_pass(workdir, *arguments(0), "--pass-id", str(len(timed) + 1),
                                "--trace-out", str(trace_path))

    # Every duration is reported in reference seconds: the pass's own
    # seconds, scaled by how fast the box ran the reference work around
    # the timed interval (1.0 = the reference box at full speed).
    for run in filter(None, [cold, traced, *timed]):
        run["speed"] = NOMINAL_S / run["reference_s"]
    units = units_of(contract)
    metrics = {
        "setup_s": _summary([run["setup_s"] * run["speed"] for run in timed],
                            units["setup_s"]),
        "time_to_result_s": _summary([run["result_s"] * run["speed"] for run in timed],
                                     units["time_to_result_s"]),
        "throughput_per_s": _summary(
            [run["units"] / (run["work_s"] * run["speed"]) for run in timed],
            units["throughput_per_s"]),
        "peak_rss_mb": _summary([run["peak_rss_mb"] for run in timed], units["peak_rss_mb"]),
    }

    problems: List[str] = []
    attempted = 0
    every = [(f"pass {index + 1}", pass_seed(name, seed, index), run)
             for index, run in enumerate(timed)]
    if traced:
        every.append(("traced pass", seed, traced))
    for what, input_seed, run in every:
        attempted += run["attempted"]
        found = run["problems"] + check_expected(name, scale, input_seed, run, expected)
        problems += [f"{what}: {text}" for text in found]
        if input_seed == seed and run["answers"] != timed[0]["answers"]:
            problems.append(f"{what}: outputs differ from pass 1")
    record = {
        "workload": name, "seed": seed, "scale": scale, "passes": len(timed),
        "metrics": metrics, "attempted": attempted,
        "failed": min(attempted, len(problems)), "problems": problems,
        "answers": timed[0]["answers"],
        "speed": statistics.median(run["speed"] for run in timed),
        "wall_s": statistics.median(run["result_s"] for run in timed),
    }
    if traced:
        names = [entry["name"] for entry in contract["per_layer"]]
        layer = dict.fromkeys(names, 0.0)
        spans = traced["layer"].pop("spans")
        for row in spans.values():
            row["total_s"] *= traced["speed"]
            row["self_s"] *= traced["speed"]
        layer.update(probes or {})  # the probes' own process: raw seconds
        layer.update({key: _in_reference(value, units[key], traced["speed"])
                      for key, value in traced["layer"].items()})
        if cold:
            layer["spec_cache.prewarm_cold_s"] = cold["work_s"] * cold["speed"]
        latencies = [x * run["speed"] for run in timed for x in run["latencies"]]
        if len(latencies) >= 4:
            layer["service.request_latency_p75_s"] = statistics.quantiles(latencies, n=4)[2]
        # Pass 1 is the same input untraced.
        layer["trace.overhead_ratio"] = (
            traced["work_s"] * traced["speed"] / (timed[0]["work_s"] * timed[0]["speed"]))
        record["layer"] = {key: layer[key] for key in names}
        record["spans"] = spans
        # share = seconds spent under a span / the traced pass's own time:
        # what a faster layer could save at most (probe rows have none).
        pass_s = record["traced_pass_s"] = (
            (traced["setup_s"] + traced["work_s"]) * traced["speed"])
        record["share"] = {key: record["layer"][key] / pass_s for key in traced["layer"]
                           if units[key] == "s"}
    return record


def _in_reference(value: float, unit: str, speed: float) -> float:
    """A traced pass's number in reference seconds (counts and ratios
    pass through)."""
    if unit in ("s", "us"):
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def units_of(contract: Dict[str, Any]) -> Dict[str, str]:
    """Metric name -> unit, end-to-end and per-layer alike."""
    return {entry["name"]: entry["unit"]
            for key in ("end_to_end", "per_layer") for entry in contract[key]}


# ------------------------------------------------------------- printing


def print_record(record: Dict[str, Any], units: Dict[str, str], nproc: int) -> None:
    workload = WORKLOADS[record["workload"]]
    print(f"== {record['workload']}  seed {record['seed']}, {record['passes']} timed "
          f"pass(es), scale {record['scale']}")
    print(f"   time_to_result_s is {workload['result']}; throughput_per_s counts "
          f"{workload['unit']}")
    print(f"   times are in reference seconds: the box ran at {record['speed']:.2f} of "
          f"reference speed, so the median pass waited {record['wall_s']:.4f} wall seconds")
    for name, row in record["metrics"].items():
        print(f"  {name:<20} {row['value']:>14.4f} {row['unit']:<5} "
              f"min {row['min']:.4f}  max {row['max']:.4f}  n={row['n']}")
    print(f"  {'failed_share':<20} {record['failed'] / record['attempted']:>14.4f} "
          f"{'ratio':<5} {record['failed']} of {record['attempted']} operations")
    for problem in record["problems"]:
        print(f"  WRONG: {problem}")
    if "layer" not in record:
        return
    pass_s = record["traced_pass_s"]
    print(f"  -- per layer (one traced pass of {pass_s:.3f} s; share = value / pass time)")
    for name, value in record["layer"].items():
        unit = units[name]
        share = f"{record['share'][name]:6.1%}" if name in record["share"] else "      "
        shown = f"{value:>14.4f}"
        if name in TWO_CORE_ROWS and nproc < 2:
            shown = f"{'unmeasured':>14}"
        print(f"  {name:<42} {shown} {unit:<6} {share}  -> {LAYER_MOVES[name]}")
    print("  -- spans (calls, total s, self s, self share)")
    for name, row in sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<42} {row['calls']:>8} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f} {row['self_s'] / pass_s:6.1%}")


# -------------------------------------------------------------- compare


def _spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (the statistic
    the bounds are calibrated against); needs four values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: B against A, in units of the
    metric's bound.  ``unresolved`` when either set's own spread is
    wider than the bound; exit 1 on any regression or unresolved row."""
    contract = load_contract()
    sets = []
    for path in (path_a, path_b):
        with open(path) as fh:
            sets.append(json.load(fh)["runs"])
    bad = 0
    print(f"{'workload':<18} {'metric':<18} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict")
    for name in WORKLOADS:
        runs = [[run for run in runs if run["workload"] == name] for runs in sets]
        if not all(runs):
            continue
        failed = sum(run["failed"] for both in runs for run in both)
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = ([run["metrics"][key]["value"] for run in side] for side in runs)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            if min(len(a), len(b)) >= 4:
                spread = max(_spread(a), _spread(b))
            else:  # too few runs for quartiles: fall back to the passes' range
                spread = max((run["metrics"][key]["max"] - run["metrics"][key]["min"])
                             / run["metrics"][key]["value"] for both in runs for run in both)
            verdict = "ok"
            if spread > bound and key != "setup_s":
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            if failed:
                verdict = "failed operations"
            bad += verdict != "ok"
            print(f"{name:<18} {key:<18} {med_a:>12.4f} {med_b:>12.4f} "
                  f"{worse:>+9.1%} {spread:>8.1%} {bound:>6.0%}  {verdict}")
    return 1 if bad else 0


# ----------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per workload; buys timed passes")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add the traced pass and the micro-probes")
    parser.add_argument("--smoke", action="store_true",
                        help="the sub-two-second scale the benchmark's own tests use")
    parser.add_argument("--json", dest="json_out", metavar="OUT",
                        help="write (or append this invocation's runs to) a result set")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result sets against the bounds")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2

    contract = load_contract()
    with open(BENCH / "expected.json") as fh:
        expected = json.load(fh)
    machine = machine_record()
    units = units_of(contract)
    scale = "smoke" if args.smoke else "default"
    probes = None
    if args.trace:
        with scratch_dir("probes-") as workdir:
            probes = spawn_pass(workdir, "--probes", "--scale", scale)

    records = []
    for name in [args.workload] if args.workload else list(WORKLOADS):
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              scale, contract, expected, probes)
        print_record(record, units, machine["nproc"])
        records.append(record)

    if args.json_out:
        document = {"machine": machine, "runs": []}
        if os.path.exists(args.json_out):
            with open(args.json_out) as fh:
                document["runs"] = json.load(fh)["runs"]
        document["runs"] += records
        with open(args.json_out, "w") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")

    failed = sum(record["failed"] for record in records)
    if args.workload:
        # The driver's contract: one JSON object as the last line.
        record = records[0]
        metrics = (
            {key: {"value": value, "unit": units[key]}
             for key, value in record["layer"].items()}
            if args.trace else
            {key: {"value": row["value"], "unit": row["unit"]}
             for key, row in record["metrics"].items()}
        )
        print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
