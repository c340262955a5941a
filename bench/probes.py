"""Micro-probes: the ``*_us`` rows and the two parallel diagnostics.

Run once per ``--trace`` invocation, in their own interpreter, outside
any pass.  Each probe times one public operation of one layer in
isolation, on inputs sampled from the program's own specs, so a change
to that layer moves its row even when the end-to-end workloads bury it.
Rows that need a second core print ``unmeasured`` (and read 0 in the
JSON) when ``nproc < 2``.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Dict, List, Tuple

ECHO = "repro.checker.backends.testing:echo"


def _sample_steps(spec, count: int, seed: int) -> List[Tuple[Any, Any]]:
    """``count`` (state, successor) pairs from seeded random walks."""
    from repro.checker import RandomWalker

    pairs: List[Tuple[Any, Any]] = []
    walker = RandomWalker(spec, seed=seed)
    while len(pairs) < count:
        states = walker.walk(40).states
        if len(states) < 2:
            break
        pairs.extend(zip(states, states[1:]))
    return pairs[:count]


def fingerprint_probe(samples: int) -> Dict[str, float]:
    """Full recompute vs name-keyed delta, on sampled states per system."""
    from repro.checker import Fingerprinter, IncrementalFingerprinter
    from repro.remix.registry import system_plugin

    full_s = delta_s = 0.0
    steps = 0
    for system, grain in (("zookeeper", "mSpec-3"), ("raft", "raft-fine")):
        plugin = system_plugin(system)
        spec = plugin.make_spec(grain, plugin.default_config())
        pairs = _sample_steps(spec, samples, seed=11)
        updates = [
            {name: after[name] for name in spec.schema.names
             if before[name] is not after[name]}
            for before, after in pairs
        ]
        full = Fingerprinter()
        started = time.perf_counter()
        for _, after in pairs:
            full.of_values(after.values)
        full_s += time.perf_counter() - started
        incremental = IncrementalFingerprinter(spec.schema)
        started = time.perf_counter()
        for (before, _), update in zip(pairs, updates):
            incremental.delta(before.values, update)
        delta_s += time.perf_counter() - started
        steps += len(pairs)
    return {
        "fingerprint.full_us": 1e6 * full_s / steps,
        "fingerprint.delta_us": 1e6 * delta_s / steps,
    }


def visited_probe(inserts: int) -> Dict[str, float]:
    """Builtin ``set`` vs the shared-memory table, same fingerprints."""
    from repro.checker import visited

    rng = random.Random(5)
    fingerprints = [rng.getrandbits(64) for _ in range(inserts)]
    seen: set = set()
    started = time.perf_counter()
    for fp in fingerprints:
        seen.add(fp)
    rows = {"visited.set_add_us": 1e6 * (time.perf_counter() - started) / inserts,
            "visited.shared_add_us": 0.0, "visited.shared_load_factor": 0.0}
    if visited.available():
        table = visited.SharedVisitedSet(visited.suggest_capacity(inserts))
        try:
            started = time.perf_counter()
            for fp in fingerprints:
                table.add(fp)
            rows["visited.shared_add_us"] = (
                1e6 * (time.perf_counter() - started) / inserts)
            rows["visited.shared_load_factor"] = table.inserts / table.capacity
        finally:
            table.close()
    return rows


def values_probe(rounds: int) -> Dict[str, float]:
    """``State.set_many`` and ``Rec.replace`` on a ZooKeeper state."""
    from repro.remix.registry import system_plugin
    from repro.tla.values import Rec

    plugin = system_plugin("zookeeper")
    spec = plugin.make_spec("mSpec-3", plugin.default_config())
    before, after = _sample_steps(spec, 1, seed=3)[0]
    update = {name: after[name] for name in spec.schema.names
              if before[name] is not after[name]}
    started = time.perf_counter()
    for _ in range(rounds):
        before.set_many(update)
    set_many_s = time.perf_counter() - started
    record = Rec(mtype="ACK", zxid=(1, 2), epoch=1, source=0)
    started = time.perf_counter()
    for _ in range(rounds):
        record.replace(mtype="COMMIT")
    replace_s = time.perf_counter() - started
    return {"tla.state.set_many_us": 1e6 * set_many_s / rounds,
            "tla.values.rec_replace_us": 1e6 * replace_s / rounds}


def parallel_probe(max_states: int) -> Dict[str, float]:
    """raft-fine BFS throughput with 2 workers over 1 (``dedupe=rounds``)."""
    if (os.cpu_count() or 1) < 2:
        return {"parallel.workers2_ratio": 0.0}
    from repro.checker import ExplorationEngine
    from repro.remix.registry import system_plugin

    plugin = system_plugin("raft")
    rates = []
    for workers in (1, 2):
        spec = plugin.make_spec("raft-fine", plugin.default_config())
        started = time.perf_counter()
        result = ExplorationEngine(
            spec, workers=workers, dedupe="rounds", max_states=max_states
        ).run()
        rates.append(result.states_explored / (time.perf_counter() - started))
    return {"parallel.workers2_ratio": rates[1] / rates[0]}


def backends_probe(tasks: int) -> Dict[str, float]:
    """Task round-trip through each backend with the ``echo`` handler:
    the pipe-vs-TCP row.  ``socket_spawn_s`` is a fresh socket backend's
    first one-task map (spawn + connect + handshake + one round-trip)."""
    from repro.checker.backends import InlineBackend, create_backend

    payload = [{"value": index} for index in range(tasks)]
    rows = {"backends.fork_roundtrip_us": 0.0,
            "backends.socket_roundtrip_us": 0.0, "backends.socket_spawn_s": 0.0}
    inline = InlineBackend(ECHO)
    started = time.perf_counter()
    inline.map(payload)
    rows["backends.inline_task_us"] = 1e6 * (time.perf_counter() - started) / tasks
    if (os.cpu_count() or 1) < 2:
        return rows
    for kind in ("fork", "socket"):
        started = time.perf_counter()
        backend = create_backend(kind, ECHO, 2)
        try:
            backend.map(payload[:1])
            if kind == "socket":
                rows["backends.socket_spawn_s"] = time.perf_counter() - started
            started = time.perf_counter()
            results = backend.map(payload)
            elapsed = time.perf_counter() - started
        finally:
            backend.close()
        if results != payload:
            raise RuntimeError(f"{kind} backend echoed the wrong results")
        rows[f"backends.{kind}_roundtrip_us"] = 1e6 * elapsed / tasks
    return rows


def run_all(scale: str) -> Dict[str, float]:
    """Every probe row, by ``BENCHMARK.json`` name; ``smoke`` runs each
    probe at a tenth of its size."""
    rows: Dict[str, float] = {}
    for probe, size in ((fingerprint_probe, 2000), (visited_probe, 200_000),
                        (values_probe, 50_000), (parallel_probe, 40_000),
                        (backends_probe, 2000)):
        rows.update(probe(size // 10 if scale == "smoke" else size))
    return rows
