"""Table 5: verification efficiency of the five specifications.

Mode (a): stop at the first violation.  Mode (b): run to completion
within the budgets.  The paper's shape to reproduce:

- Baseline and mSpec-4 drown in the fine-grained Election state space
  (paper: >24h; here: budget exhausted without reaching a violation,
  except mSpec-4 which eventually finds one -- paper 8h32m);
- mSpec-1 finishes without violations (ZK-4394 masked);
- mSpec-2 finds I-8, mSpec-3 finds a violation fastest.

Besides the pytest-benchmark entry points, this file is CI's perf
gate::

    python benchmarks/bench_table5_efficiency.py \
        --max-time 60 --min-ratio 1.5 --json BENCH_engine.json

which emits the ``BENCH_engine.json`` artifact: the generated kernel
A/B'd against the reference expander
(``ExplorationEngine(reference=True)``) per :data:`AB_ROWS` row, with a
hard equal-enumeration check.
"""

import argparse
import json
import math
import sys
import time

import pytest

from bench_common import bench_config, check, once, print_table
from repro.zookeeper import make_spec, zk4394_mask

#: spec -> paper row for mode (a): (time, depth, states, invariant)
PAPER_A = {
    "SysSpec": (">24h", 26, 2_271_335_268, "None"),
    "mSpec-1": ("12m20s", 56, 17_586_953, "None"),
    "mSpec-2": ("1m15s", 21, 2_237_960, "I-8"),
    "mSpec-3": ("11s", 13, 77_179, "I-10"),
    "mSpec-4": ("8h32m6s", 24, 967_810_552, "I-10"),
}

#: budgets proportional to the spec's expected cost
BUDGETS = {
    "SysSpec": dict(max_states=120_000, max_time=60),
    "mSpec-1": dict(max_states=400_000, max_time=90),
    "mSpec-2": dict(max_states=400_000, max_time=120),
    "mSpec-3": dict(max_states=400_000, max_time=120),
    "mSpec-4": dict(max_states=200_000, max_time=90),
}

_FIRST = {}
_COMPLETE = {}


@pytest.mark.parametrize("name", list(PAPER_A))
def test_stop_at_first_violation(benchmark, name):
    config = bench_config()

    def run():
        return check(make_spec(name, config), zk4394_mask, **BUDGETS[name])

    result = once(benchmark, run)
    _FIRST[name] = result
    if name in ("mSpec-2", "mSpec-3"):
        assert result.found_violation, f"{name} should find a violation"
    if name in ("SysSpec", "mSpec-1"):
        assert not result.found_violation


@pytest.mark.parametrize("name", ["mSpec-2", "mSpec-3"])
def test_run_to_completion(benchmark, name):
    config = bench_config()

    def run():
        return check(
            make_spec(name, config),
            zk4394_mask,
            stop_at_first=False,
            violation_limit=500,
            max_states=450_000,
            max_time=150,
        )

    result = once(benchmark, run)
    _COMPLETE[name] = result
    assert len(result.violations) >= 1


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = []
    for name, paper in PAPER_A.items():
        result = _FIRST.get(name)
        if result is None:
            continue
        found = result.first_violation
        rows.append(
            (
                name,
                f"{result.elapsed_seconds:.1f}s ({paper[0]})",
                f"{found.depth if found else result.max_depth} ({paper[1]})",
                f"{result.states_explored} ({paper[2]:,})",
                f"{found.invariant.ident if found else 'None'} ({paper[3]})",
            )
        )
    print_table(
        "Table 5a: first violation, measured (paper)",
        ("Spec", "Time", "Depth", "#States", "Violated"),
        rows,
    )
    rows_b = []
    for name, result in _COMPLETE.items():
        rows_b.append(
            (
                name,
                f"{result.elapsed_seconds:.1f}s",
                result.states_explored,
                len(result.violations),
                ", ".join(result.violated_invariant_ids()),
            )
        )
    print_table(
        "Table 5b: run to completion (bounded)",
        ("Spec", "Time", "#States", "#Violations", "Invariants"),
        rows_b,
    )
    # The paper's ordering: fine-grained mixed specs detect violations,
    # the baseline and mSpec-1 (masked) find none, and mSpec-3 is the
    # fastest to a violation.
    assert _FIRST["mSpec-3"].elapsed_seconds <= _FIRST["mSpec-2"].elapsed_seconds
    if _COMPLETE:
        assert len(_COMPLETE["mSpec-3"].violated_invariant_ids()) >= 1


# --------------------------------------------- CLI: kernel vs reference

#: The kernel-vs-reference A/B lane: one row per (protocol, spec, budget),
#: kernel-trusted specs only (an untrusted spec *is* the reference arm).
#: The rows deliberately span both memoization regimes.  The ZooKeeper
#: specs have wide dependency closures (the hot ``state`` variable sits in
#: nearly every closure), so the outcome memo misses there and what the
#: kernel saves is the applier calls its guard prefixes filter -- those
#: rows feed the regression floor.  The Raft plugin specs have narrow
#: closures, so memo replay is the dominant cost -- ``raft-fine@150k`` is
#: the ``--min-ratio`` gate row.  Raft appears at two budgets because memo
#: hit rates (and so the kernel advantage) grow with frontier depth; the
#: pair records that trend.
AB_ROWS = (
    ("zookeeper", "SysSpec", 30_000),
    ("zookeeper", "mSpec-1", 30_000),
    ("zookeeper", "mSpec-2", 30_000),
    ("zookeeper", "mSpec-3", 30_000),
    ("raft", "raft-coarse", 100_000),
    ("raft", "raft-fine", 100_000),
    ("raft", "raft-coarse", 150_000),
    ("raft", "raft-fine", 150_000),
)

#: The row the --min-ratio gate applies to.
AB_GATE_ROW = "raft-fine@150k"

#: Every row must stay above this kernel/reference floor (the worst
#: committed row is ``SysSpec@30k`` at 2.40x).
AB_FLOOR = 1.5

#: Ratios this script can no longer measure, because the arms they
#: compared against were deleted (PR 12): the seed checker
#: (``checker/legacy.py``) and the interpreted-incremental successor path
#: (``--compile off``).  Frozen here, with the commit that measured them,
#: so README's speedup-over-seed story stays sourced.
HISTORICAL = {
    "measured_at": "e251435 (PR 9), 1-CPU runner, min-of-2 CPU time",
    "kernel_vs_seed_checker": {
        "SysSpec@30k": 1.597,
        "mSpec-2@30k": 2.039,
        "mSpec-3@30k": 1.982,
        "raft-coarse@100k": 2.818,
        "raft-fine@100k": 4.668,
        "raft-coarse@150k": 3.278,
        "raft-fine@150k": 4.701,
        "geomean": 2.788,
    },
    "kernel_vs_interpreted_incremental": {
        "SysSpec@30k": 1.058,
        "mSpec-2@30k": 1.092,
        "mSpec-3@30k": 0.983,
        "raft-coarse@100k": 1.323,
        "raft-fine@100k": 1.698,
        "raft-coarse@150k": 1.371,
        "raft-fine@150k": 1.727,
        "geomean": 1.293,
    },
    "interpreted_incremental_vs_full_recompute": {
        "SysSpec": 1.029,
        "mSpec-1": 1.18,
        "mSpec-2": 1.567,
        "mSpec-3": 1.177,
        "mSpec-4": 1.162,
        "aggregate@6k": 1.215,
    },
}


def _ab_spec(protocol, name):
    if protocol == "zookeeper":
        from repro.zookeeper import zk4394_mask
        from repro.zookeeper.specs import SELECTIONS, build_spec

        return build_spec(name, SELECTIONS[name], bench_config()), zk4394_mask
    from repro.raft.config import RaftConfig
    from repro.raft.spec import make_spec as raft_make_spec

    return raft_make_spec(name, RaftConfig()), None


def run_ab_reference(max_time, reps=2):
    """The ``BENCH_engine.json`` artifact: kernel vs reference expander.

    Per row, runs the engine on the generated kernel and with
    ``reference=True`` under the same sequential state budget,
    interleaved for ``reps`` repetitions with the minimum CPU time kept
    per arm (min-of-N cancels runner drift far better than wall-clock
    means).  Enumeration must be bitwise-identical between the arms --
    states, transitions and violations are compared and a mismatch is a
    hard failure, not a statistic.
    """
    from repro.checker.engine import ExplorationEngine

    rows = {}
    for protocol, name, max_states in AB_ROWS:
        times = {"kernel": [], "reference": []}
        explored = {}
        for _ in range(reps):
            for arm in times:
                spec, mask = _ab_spec(protocol, name)
                engine = ExplorationEngine(
                    spec,
                    "bfs",
                    max_states=max_states,
                    max_time=max_time,
                    mask=mask,
                    reference=arm == "reference",
                )
                t0 = time.process_time()
                result = engine.run()
                times[arm].append(time.process_time() - t0)
                explored[arm] = (
                    result.states_explored,
                    result.transitions,
                    sorted(v.invariant.full_name for v in result.violations),
                )
                mode = engine.core.memo_stats()["mode"]
                if (mode == "reference") != (arm == "reference"):
                    raise SystemExit(f"{name}: {arm} arm ran in {mode} mode")
        if explored["kernel"] != explored["reference"]:
            raise SystemExit(
                f"kernel/reference enumeration mismatch on {name}: "
                f"{explored['kernel']} vs {explored['reference']}"
            )
        best = {arm: min(ts) for arm, ts in times.items()}
        rows[f"{name}@{max_states // 1000}k"] = {
            "spec": name,
            "protocol": protocol,
            "max_states": max_states,
            "states_explored": explored["kernel"][0],
            "kernel_seconds": round(best["kernel"], 3),
            "reference_seconds": round(best["reference"], 3),
            "kernel_speedup": round(best["reference"] / best["kernel"], 3),
        }
    speedups = [row["kernel_speedup"] for row in rows.values()]
    return {
        "schema": "repro.bench-engine/2",
        "workload": {"max_time": max_time, "reps": reps, "timer": "process_time"},
        "rows": rows,
        "aggregate": {
            "geomean_kernel_speedup": round(
                math.exp(sum(math.log(v) for v in speedups) / len(speedups)), 3
            ),
            "min_kernel_speedup": min(speedups),
            "gate_row": AB_GATE_ROW,
            "gate_kernel_speedup": rows[AB_GATE_ROW]["kernel_speedup"],
        },
        "historical": HISTORICAL,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="the BENCH_engine.json artifact: generated kernel vs "
        "reference expander per AB_ROWS row (own state budgets), "
        "sequential, min-of-2 CPU time, with a hard equal-enumeration check"
    )
    parser.add_argument("--max-time", type=float, default=15.0)
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        help=f"exit 1 unless the gate row ({AB_GATE_ROW}) reaches this "
        f"kernel/reference speedup and every row stays at or above the "
        f"{AB_FLOOR} floor",
    )
    args = parser.parse_args(argv)
    report = run_ab_reference(args.max_time)
    text = json.dumps(report, indent=2)
    print(text)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    if args.min_ratio is not None:
        agg = report["aggregate"]
        gate, floor = agg["gate_kernel_speedup"], agg["min_kernel_speedup"]
        if gate < args.min_ratio or floor < AB_FLOOR:
            print(
                f"kernel gate FAILED: {AB_GATE_ROW} kernel/reference ratio "
                f"{gate} (required {args.min_ratio}), worst row {floor} "
                f"(floor {AB_FLOOR})",
                file=sys.stderr,
            )
            return 1
        print(
            f"kernel gate ok: {AB_GATE_ROW} ratio {gate} >= {args.min_ratio}, "
            f"worst row {floor} >= {AB_FLOOR}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
