"""The benchmark's workloads, as data.

Nothing here imports ``repro``: the driver (``run.py``) reads names and
scales from this table, the pass process (``passes.py``) turns one row
into calls on the program.  Workload names are fixed -- later issues
cite them -- and each carries the reason it exists (the same sentence
``BENCHMARK.json`` records).

A *pass* is one ``repro check`` / ``repro campaign`` / ``repro serve``
lifetime in a fresh interpreter.  Passes are short (1-2.5 s of work on
the 2-core reference box) and several: the run reports the median pass,
in reference seconds (``reference.py``; "Calibration" in ``README.md``).
``passes`` is how many timed passes the driver's ``--seconds 10`` buys;
``smoke`` is the sub-two-second shape ``bench/tests`` runs.
"""

from __future__ import annotations

#: ``--seconds`` the ``passes`` counts below are sized for.
NOMINAL_SECONDS = 10.0
MIN_PASSES = 3
#: Distance between the seeds of a run's passes: wider than any window a
#: pass uses itself (``seeds`` replicas, ``serve-warm``'s ``S+i``).
SEED_STRIDE = 1000

#: The rows of ``repro.cli.cmd_hunt`` this benchmark runs, verbatim:
#: (bug, spec, config kwargs, invariant family, instance, masked).
#: ZK-3023 (2.2 s), ZK-4712 (6.4 s) and ZK-4643/4646 (>100k states each)
#: stay with ``repro bugs``: a pass must be short (above).
HUNTS = {
    "ZK-4394": ("mSpec-1", {"max_txns": 1, "max_crashes": 1}, "I-14",
                "COMMIT_UNMATCHED_IN_SYNC", False),
    "ZK-4685": ("mSpec-3", {"max_txns": 2, "max_crashes": 1}, "I-12",
                "ACK_BEFORE_NEWLEADER_ACK", True),
}

_CAMPAIGN = {"system": "zookeeper", "shrink": True,
             "workers": 1, "backend": "fork"}

WORKLOADS = {
    "hunt-zk": {
        "kind": "check",
        "unit": "states",
        "result": "time to verdict",
        "why": (
            "Two of the paper's ZooKeeper bug hunts, BFS to the first "
            "violation: wide dependency closures put the kernels in the "
            "memo-miss, applier-bound regime; compile and counterexample "
            "rebuild are on the path."
        ),
        "passes": 7,
        "default": {"hunts": ["ZK-4394", "ZK-4685"]},
        "smoke": {"hunts": ["ZK-4394"]},
    },
    "check-raft": {
        "kind": "check",
        "unit": "states",
        "result": "time to verdict",
        "why": (
            "raft-coarse and raft-fine BFS to a fixed state budget, no "
            "violation: narrow closures, memo-hit regime, so the strategy "
            "loop, visited set and fingerprint deltas own the time."
        ),
        "passes": 7,
        "default": {"system": "raft", "grains": ["raft-coarse", "raft-fine"],
                    "max_states": 40_000},
        "smoke": {"system": "raft", "grains": ["raft-coarse", "raft-fine"],
                  "max_states": 4_000},
    },
    "campaign-topdown": {
        "kind": "campaign",
        "unit": "cells",
        "result": "time to report",
        "why": (
            "Top-down campaign over every grain, scenario and fault with "
            "shrink and journal on: ~7 ms cells make spec_cache, the "
            "walker, Coordinator.replay, shrink, merge and fsync-per-cell "
            "journaling all visible."
        ),
        "passes": 6,
        "default": dict(_CAMPAIGN, directions=["topdown"], seeds=2, traces=2,
                        max_steps=16),
        "smoke": dict(_CAMPAIGN, directions=["topdown"], grains=["mSpec-1"],
                      seeds=1, traces=2, max_steps=16),
    },
    "campaign-bottomup": {
        "kind": "campaign",
        "unit": "cells",
        "result": "time to report",
        "why": (
            "Bottom-up campaign on mSpec-3: ~50 ms cells live "
            "in ImplExplorer.explore, validate_labels and the impl "
            "simulator, which top-down never calls; journal and merge do "
            "almost nothing here."
        ),
        "passes": 6,
        "default": dict(_CAMPAIGN, directions=["bottomup"], grains=["mSpec-3"],
                        seeds=1, traces=1, max_steps=12),
        "smoke": dict(_CAMPAIGN, directions=["bottomup"], grains=["mSpec-1"],
                      scenarios=["election"], seeds=1, traces=1, max_steps=12),
    },
    "serve-warm": {
        "kind": "serve",
        "unit": "requests",
        "result": "request latency p50",
        "why": (
            "One closed-loop client, a resident CampaignServer, 32-cell "
            "requests on 2 socket workers: only here do service, request, "
            "backends.sockets, supervision and the JSON wire do most of "
            "the work."
        ),
        "passes": 4,
        "default": {"requests": 3,
                    "request": {"system": "zookeeper",
                                "directions": ["topdown"],
                                "grains": ["mSpec-1"], "seeds": 1,
                                "shrink": True, "backend": "socket",
                                "workers": 2}},
        "smoke": {"requests": 1,
                  "request": {"system": "zookeeper",
                              "directions": ["topdown"],
                              "grains": ["mSpec-1"],
                              "scenarios": ["election", "sync"], "seeds": 1,
                              "shrink": True, "backend": "socket",
                              "workers": 2}},
    },
}

SCALES = ("default", "smoke")


def pass_seed(name: str, seed: int, index: int) -> int:
    """The seed of timed pass ``index`` (0-based) of a run started with
    ``--seed seed``.  The cost of a campaign depends on its seed (how
    many findings it has to shrink: +-12% for 32 bottom-up cells), so the
    passes of a seeded workload are different campaigns from one seed
    family and the run reports their median; a ``check`` workload has no
    random input.  Pass 1 runs ``seed`` itself."""
    if WORKLOADS[name]["kind"] == "check":
        return seed
    return seed + SEED_STRIDE * index


def passes_for(name: str, seconds: float, scale: str) -> int:
    """How many timed passes ``--seconds`` buys (smoke: always one)."""
    if scale == "smoke":
        return 1
    return max(MIN_PASSES, round(WORKLOADS[name]["passes"] * seconds / NOMINAL_SECONDS))


#: The per-layer metrics, outermost layer last: (name, unit, better,
#: which end-to-end metric on which workload the row should move --
#: written before measuring; "flat" names where it must NOT move).
#: ``BENCHMARK.json`` repeats name/unit/better; the test suite holds the
#: two in step.
LAYERS = [
    ("tla.compose_s", "s", "lower", "setup_s @ all"),
    ("analysis.kernel_trusted_s", "s", "lower",
     "time_to_result_s @ hunt-zk; flat @ check-raft"),
    ("tla.codegen.emit_s", "s", "lower", "time_to_result_s @ hunt-zk"),
    ("tla.codegen.kernel_lines", "count", "lower", "time_to_result_s @ hunt-zk"),
    ("engine.compile_s", "s", "lower",
     "time_to_result_s @ hunt-zk (masked specs recompile per engine)"),
    ("engine.expand_batch_s", "s", "lower",
     "throughput_per_s @ hunt-zk (miss-bound) and @ check-raft (hit-bound)"),
    ("engine.expand_batch_calls", "count", "lower", "explains expand_batch_s"),
    ("engine.loop_self_s", "s", "lower",
     "throughput_per_s @ check-raft; small @ hunt-zk"),
    ("engine.trace_rebuild_s", "s", "lower",
     "time_to_result_s @ hunt-zk; flat @ check-raft"),
    ("engine.memo.outcome_hit_rate", "ratio", "higher",
     "explains throughput_per_s: higher @ check-raft than @ hunt-zk"),
    ("engine.memo.guard_hit_rate", "ratio", "higher", "explains throughput_per_s"),
    ("engine.memo.entries", "count", "lower", "peak_rss_mb @ hunt-zk, check-raft"),
    ("engine.memo.demoted_groups", "count", "lower", "explains throughput_per_s"),
    ("engine.step_s", "s", "lower",
     "throughput_per_s @ campaign-topdown; flat @ campaign-bottomup"),
    ("fingerprint.full_us", "us", "lower", "throughput_per_s @ check-raft"),
    ("fingerprint.delta_us", "us", "lower", "throughput_per_s @ check-raft"),
    ("visited.set_add_us", "us", "lower", "throughput_per_s @ check-raft"),
    ("visited.shared_add_us", "us", "lower", "throughput_per_s @ check-raft (workers > 1)"),
    ("visited.shared_load_factor", "ratio", "lower", "explains shared_add_us"),
    ("tla.state.set_many_us", "us", "lower", "throughput_per_s @ hunt-zk"),
    ("tla.values.rec_replace_us", "us", "lower", "throughput_per_s @ hunt-zk"),
    ("parallel.workers2_ratio", "ratio", "higher",
     "diagnostic for ROADMAP item 1; unmeasured when nproc < 2"),
    ("spec_cache.prewarm_cold_s", "s", "lower", "first-ever setup_s @ campaigns"),
    ("spec_cache.hit_rate", "ratio", "higher", "setup_s @ campaigns"),
    ("spec_cache.disk_hit_rate", "ratio", "higher",
     "setup_s @ campaigns; time_to_result_s @ serve-warm"),
    ("spec_cache.disk_misses_per_warm_request", "count", "lower",
     "time_to_result_s @ serve-warm"),
    ("campaign.cell_p50_s", "s", "lower", "throughput_per_s @ both campaigns"),
    ("campaign.cell_p90_s", "s", "lower", "throughput_per_s @ both campaigns"),
    ("campaign.first_finding_s", "s", "lower", "what a campaign user sees first"),
    ("campaign.merge_s", "s", "lower", "time_to_result_s @ both campaigns"),
    ("campaign.self_s", "s", "lower",
     "time_to_result_s @ both campaigns; backend start/stop @ serve-warm"),
    ("coordinator.replay_s", "s", "lower",
     "throughput_per_s @ campaign-topdown; flat @ campaign-bottomup"),
    ("coordinator.steps_per_s", "1/s", "higher", "throughput_per_s @ campaign-topdown"),
    ("validation.explore_s", "s", "lower",
     "throughput_per_s @ campaign-bottomup; flat @ campaign-topdown"),
    ("validation.explore_self_s", "s", "lower",
     "throughput_per_s @ campaign-bottomup (deepcopy probes)"),
    ("validation.validate_labels_s", "s", "lower", "throughput_per_s @ campaign-bottomup"),
    ("validation.probe_useful_share", "ratio", "higher",
     "explains explore_self_s: executed labels / probes"),
    ("impl.step_s", "s", "lower", "throughput_per_s @ both campaigns"),
    ("impl.snapshot_s", "s", "lower", "throughput_per_s @ both campaigns"),
    ("minimize.shrink_finding_s", "s", "lower", "time_to_result_s @ both campaigns"),
    ("minimize.oracle_calls", "count", "lower", "explains shrink_finding_s"),
    ("minimize.oracle_accept_share", "ratio", "higher", "explains shrink_finding_s"),
    ("journal.record_us", "us", "lower",
     "time_to_result_s @ campaign-topdown; <2% @ campaign-bottomup"),
    ("journal.records", "count", "lower", "explains record_us x records"),
    ("backends.map_s", "s", "lower",
     "time_to_result_s @ serve-warm; flat @ inline workloads"),
    ("backends.first_result_s", "s", "lower", "time_to_result_s @ serve-warm"),
    ("backends.retries", "count", "lower", "time_to_result_s @ serve-warm"),
    ("backends.inline_task_us", "us", "lower", "throughput_per_s @ both campaigns"),
    ("backends.fork_roundtrip_us", "us", "lower", "pipe side of ROADMAP item 3"),
    ("backends.socket_roundtrip_us", "us", "lower", "time_to_result_s @ serve-warm"),
    ("backends.socket_spawn_s", "s", "lower", "time_to_result_s @ serve-warm"),
    ("service.request_parse_us", "us", "lower", "time_to_result_s @ serve-warm"),
    ("service.stream_bytes", "bytes", "lower", "time_to_result_s @ serve-warm"),
    ("service.events", "count", "lower", "time_to_result_s @ serve-warm"),
    ("service.self_s", "s", "lower", "time_to_result_s @ serve-warm"),
    ("service.request_latency_p75_s", "s", "lower",
     "tail of time_to_result_s @ serve-warm (too few samples for a bound)"),
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced pass time"),
]

LAYER_MOVES = {name: moves for name, _, _, moves in LAYERS}

#: Probe rows that need a second core: printed ``unmeasured`` (0 in the
#: JSON) when ``nproc < 2`` -- never a guess.
TWO_CORE_ROWS = ("parallel.workers2_ratio", "backends.fork_roundtrip_us",
                 "backends.socket_roundtrip_us", "backends.socket_spawn_s")
