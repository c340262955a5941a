"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
and prints it side by side with the paper-reported values (EXPERIMENTS.md
records the comparison).  Absolute numbers differ -- pure-Python
exploration at laptop scale vs TLC on a 96-core server -- but the *shape*
(who finds what, which invariant fires, relative ordering) must match.

This module used to be ``benchmarks/conftest.py``; it was renamed so the
top-level module name ``conftest`` unambiguously resolves to
``tests/conftest.py`` when the two directories are collected together
(the seed suite failed collection over exactly that clash).

Environment knobs:

- ``REPRO_BENCH_SCALE=small`` keeps every bench under ~1 min;
- ``REPRO_BENCH_REPORT`` redirects the rendered tables.
"""

import os

from repro.checker.engine import ExplorationEngine
from repro.zookeeper import ZkConfig, zk4394_mask
from repro.zookeeper.specs import SELECTIONS, build_spec

#: Scale knob: REPRO_BENCH_SCALE=small keeps every bench under ~1 min.
SCALE = os.environ.get("REPRO_BENCH_SCALE", "normal")

def bench_config(**kw):
    """The Table 5 configuration shape (3 servers, 2 txns, 2 crashes,
    2 partitions) at laptop scale."""
    defaults = dict(
        n_servers=3, max_txns=2, max_crashes=2, max_partitions=0, max_epoch=3
    )
    defaults.update(kw)
    return ZkConfig(**defaults)


def hunt(spec_name, config, family=None, variant=None, **engine_kw):
    """One model-checking run of a Table 1 grain with ZK-4394 masked,
    optionally restricted to an invariant family (Tables 5 and 6; the
    Table 4 rows are ``repro.zookeeper.specs.hunt_spec``)."""
    if variant is not None:
        config = config.with_variant(variant)
    spec = build_spec(spec_name, SELECTIONS[spec_name], config)
    if family is not None:
        spec.invariants = [inv for inv in spec.invariants if inv.ident == family]
    return check(spec, zk4394_mask, **engine_kw)


def check(spec, mask, max_states=2_000_000, max_time=240, **engine_kw):
    """Run the engine on a composed spec under the harness's scale knob."""
    if SCALE == "small":
        # Calibrated to the engine's ~8-9k states/sec: big enough that
        # mSpec-2 still reaches its I-8 violation (~300k states), small
        # enough to keep each bench under ~1 min.
        max_states = min(max_states, 320_000)
        max_time = min(max_time, 60)
    return ExplorationEngine(
        spec,
        max_states=max_states,
        max_time=max_time,
        mask=mask,
        **engine_kw,
    ).run()


REPORT_FILE = os.environ.get(
    "REPRO_BENCH_REPORT", os.path.join(os.path.dirname(__file__), "..", "bench_reports.txt")
)


def print_table(title, headers, rows):
    """Render one experiment table (stdout + bench_reports.txt, since
    pytest captures stdout unless -s is given)."""
    widths = [
        max(len(str(headers[k])), *(len(str(r[k])) for r in rows))
        for k in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    out = [f"\n=== {title} ===", line, "-" * len(line)]
    for row in rows:
        out.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(out)
    print(text)
    try:
        with open(REPORT_FILE, "a") as fh:
            fh.write(text + "\n")
    except OSError:
        pass


def once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
