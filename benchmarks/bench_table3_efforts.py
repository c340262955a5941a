"""Table 3: the effort of writing multi-grained specifications.

Regenerates the spec-diff metrics (lines, variables, actions,
instrumentation pointcuts) from this repository's modules and benchmarks
the measurement itself.
"""

from bench_common import print_table, once
from repro.analysis.efforts import table3

PAPER = {
    "mSpec-1": ("+64, -342", "29 (-8)", "16 (-7)", "31 (+0)"),
    "mSpec-2": ("+34, -19", "29 (+0)", "17 (+1)", "32 (+1)"),
    "mSpec-3": ("+188, -118", "31 (+2)", "19 (+2)", "36 (+4)"),
}

_ROWS = []


def test_measure_efforts(benchmark):
    rows = once(benchmark, table3)
    _ROWS.extend(rows)
    assert len(rows) == 3
    # the shape of Table 3: coarsening removes actions, refining adds them
    assert rows[0].actions_delta < 0
    assert rows[1].actions_delta > 0 and rows[2].actions_delta > 0
    assert rows[1].pointcuts_delta > 0 and rows[2].pointcuts_delta > 0


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    out = []
    for row in _ROWS:
        paper = PAPER[row.name]
        pc_delta = (
            f"{row.pointcuts_delta:+d}"
            if row.pointcuts_delta is not None
            else "n/a"  # SysSpec is not deterministically mappable
        )
        out.append(
            (
                f"{row.name} - {row.base}",
                f"+{row.lines_added}, -{row.lines_removed} ({paper[0]})",
                f"{row.variables} ({row.variables_delta:+d}) "
                f"(paper {paper[1]})",
                f"{row.actions} ({row.actions_delta:+d}) "
                f"(paper {paper[2]})",
                f"{row.pointcuts} ({pc_delta}) "
                f"(paper {paper[3]})",
            )
        )
    print_table(
        "Table 3: specification efforts, measured (paper)",
        ("Spec diff", "Lines", "Variables", "Actions", "Instr."),
        out,
    )
