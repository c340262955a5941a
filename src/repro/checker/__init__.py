"""Explicit-state model checkers built on the unified exploration engine:
BFS (the TLC substitute), DFS, random walk, coverage and rendering.  The
delta-debugging loop behind the campaign's shrink stage lives in
:mod:`repro.checker.shrink`."""

from repro.checker.coverage import CoverageReport, measure_coverage
from repro.checker.engine import (
    STRATEGIES,
    CompiledSpec,
    ExplorationEngine,
    compiled_for,
    explore,
)
from repro.checker.fingerprint import Fingerprinter, IncrementalFingerprinter
from repro.checker.pretty import format_state, format_trace
from repro.checker.random_walk import RandomWalker
from repro.checker.result import CheckResult, Violation
from repro.checker.trace import Trace

__all__ = [
    "CheckResult",
    "CompiledSpec",
    "CoverageReport",
    "ExplorationEngine",
    "Fingerprinter",
    "IncrementalFingerprinter",
    "RandomWalker",
    "STRATEGIES",
    "compiled_for",
    "Trace",
    "Violation",
    "explore",
    "format_state",
    "format_trace",
    "measure_coverage",
]
