"""Analyses over the specs: the static spec linter (``python -m repro
lint``), plus the paper's effort table and bug-lineage figure.

The linter is what this package exports: the checker imports it to decide
kernel trust, so importing the package must stay cheap.  The effort table
(:mod:`repro.analysis.efforts`, which pulls in the campaign stack) and the
lineage figure (:mod:`repro.analysis.lineage`, which pulls in a graph
library) are imported from their own modules by the few callers that
want them.
"""

from repro.analysis.deps import SpecAnalyzer, Summary
from repro.analysis.findings import (
    RULES,
    Finding,
    LintReport,
    Rule,
    baseline_error,
    new_fingerprints,
)
from repro.analysis.lint import lint_plugin, lint_system, lint_systems

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "SpecAnalyzer",
    "Summary",
    "baseline_error",
    "lint_plugin",
    "lint_system",
    "lint_systems",
    "new_fingerprints",
]
