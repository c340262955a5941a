"""Lint findings: the rule catalog, finding records and the report.

The static spec analyzer (``python -m repro lint``) emits
:class:`Finding` records with stable fingerprints and ``file:line``
locations, collected into a :class:`LintReport` with a JSON form
(schema ``repro.lint/1``).  CI gates on zero findings.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Report schema identifier.
SCHEMA = "repro.lint/1"

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, severity and a one-line summary."""

    ident: str
    title: str
    severity: str
    summary: str


#: The rule catalog (documented in ``docs/linting.md``).
RULES: Dict[str, Rule] = {
    rule.ident: rule
    for rule in (
        # --- dependency declarations (the PR-5 memoization contract) ---
        Rule(
            "D01", "under-declared-read", ERROR,
            "an action/invariant reads a state variable outside its "
            "declared dependency closure (reads | writes | "
            "update_sources) -- memoized outcomes would be wrong",
        ),
        Rule(
            "D02", "over-declared-read", WARNING,
            "a declared read or update source is never actually read -- "
            "it widens memo keys and lowers the hit rate for nothing",
        ),
        Rule(
            "D03", "undeclared-write", ERROR,
            "an action may return an update for a variable outside its "
            "declared writes (validate_updates would raise at runtime)",
        ),
        Rule(
            "D04", "over-declared-write", WARNING,
            "a declared write is never present in any returned update "
            "dict -- it widens the interference matrix for nothing",
        ),
        Rule(
            "D05", "unresolved-analysis", WARNING,
            "the analyzer could not fully resolve the function's state "
            "accesses, so its declarations are only partially checked",
        ),
        Rule(
            "D06", "missing-reads-declaration", WARNING,
            "no reads declaration: the dependency closure is unknown and "
            "the incremental engine cannot memoize this function",
        ),
        Rule(
            "D07", "invalid-declaration", ERROR,
            "a declaration names a variable outside the spec schema, or "
            "declares update sources for a variable it does not write",
        ),
        # --- purity / determinism -------------------------------------
        Rule(
            "P01", "nondeterministic-call", ERROR,
            "a spec function calls a nondeterministic or environment-"
            "reading API (random/time/os/uuid/open/...)",
        ),
        Rule(
            "P02", "unordered-iteration", WARNING,
            "iteration over an unordered set where the visit order can "
            "leak into the outcome; iterate a sorted() copy instead",
        ),
        Rule(
            "P03", "global-mutation", ERROR,
            "a spec function mutates module-global state, breaking "
            "replay determinism and cross-process reproducibility",
        ),
        Rule(
            "P04", "mutable-state-value", ERROR,
            "a mutable (unhashable) value is stored into State, which "
            "would break fingerprinting and the visited set",
        ),
        # --- plugin contract ------------------------------------------
        Rule(
            "C01", "grain-resolution", ERROR,
            "a declared grain does not resolve through make_spec / "
            "make_mapping",
        ),
        Rule(
            "C02", "unknown-scenario-action", ERROR,
            "a scenario prefix applies an action name no grain defines",
        ),
        Rule(
            "C03", "invalid-fault-schedule", ERROR,
            "a fault schedule names an unknown action, mismatched "
            "parameters or an unknown role placeholder (or the required "
            "'none' schedule is missing)",
        ),
        Rule(
            "C04", "compared-variable-missing", ERROR,
            "a compared_variables entry is not in every grain's schema",
        ),
        # C05 (uncovered-source-module) is retired, not reused:
        # fingerprints key on the rule id.
        Rule(
            "C06", "unknown-budget-action", ERROR,
            "a budget_limits key is not an action of any grain",
        ),
        Rule(
            "C07", "config-roundtrip", WARNING,
            "config_meta / config_from_meta do not round-trip",
        ),
        Rule(
            "C08", "clone-contract", ERROR,
            "the implementation ensemble's clone() is missing, unequal "
            "to the original or shares mutable state with it, so a "
            "shrink candidate would move the cursor it resumed from",
        ),
        Rule(
            "C09", "refused-step-mutates", ERROR,
            "a mapped implementation step answered False after changing "
            "the ensemble; the bottom-up explorer steps the live ensemble "
            "and relies on a refusal having changed nothing",
        ),
    )
}


def _relpath(filename: str) -> str:
    """A machine-independent path for fingerprints and display.

    Paths under the repository (the parent of the ``repro`` package's
    ``src`` directory) are made relative to it; anything else is left
    untouched (fixture specs in test temp dirs, for example).
    """
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.dirname(os.path.dirname(package_dir))
    absolute = os.path.abspath(filename)
    if absolute.startswith(root + os.sep):
        return os.path.relpath(absolute, root)
    return filename


@dataclass(frozen=True)
class Finding:
    """One lint finding, locatable and stably fingerprintable.

    ``subject`` names the checked entity (``action:NodeCrash``,
    ``invariant:R-1``, ``plugin:zookeeper``); ``variable`` the state
    variable or item at issue (may be empty).  ``file`` is stored
    repo-relative so fingerprints agree across machines.
    """

    rule: str
    system: str
    subject: str
    message: str
    variable: str = ""
    file: str = ""
    line: int = 0

    @property
    def severity(self) -> str:
        return RULES[self.rule].severity

    @property
    def fingerprint(self) -> str:
        """Stable identity: rule + system + subject + variable + file.

        The line number is deliberately excluded so unrelated edits that
        shift code do not churn fingerprints (same policy as the
        campaign's impl-bug fingerprints).
        """
        payload = "|".join(
            (self.rule, self.system, self.subject, self.variable, self.file)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def location(self) -> str:
        if not self.file:
            return "<unknown>"
        return f"{self.file}:{self.line}" if self.line else self.file

    def format(self) -> str:
        rule = RULES[self.rule]
        variable = f" [{self.variable}]" if self.variable else ""
        return (
            f"{self.location()}: {self.severity}: "
            f"{self.rule} {rule.title}: {self.system}/{self.subject}"
            f"{variable}: {self.message}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "rule": self.rule,
            "title": RULES[self.rule].title,
            "severity": self.severity,
            "system": self.system,
            "subject": self.subject,
            "variable": self.variable,
            "message": self.message,
            "file": self.file,
            "line": self.line,
        }


def make_finding(
    rule: str,
    system: str,
    subject: str,
    message: str,
    variable: str = "",
    file: str = "",
    line: int = 0,
) -> Finding:
    """Build a finding, normalizing the file path for fingerprinting."""
    return Finding(
        rule=rule,
        system=system,
        subject=subject,
        message=message,
        variable=variable,
        file=_relpath(file) if file else "",
        line=line,
    )


class LintReport:
    """Findings across the linted systems, JSON-serializable."""

    def __init__(self, systems: Sequence[str], findings: Iterable[Finding]):
        self.systems: Tuple[str, ...] = tuple(systems)
        self.findings: List[Finding] = list(findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "systems": list(self.systems),
            "counts": {
                "findings": len(self.findings),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
            },
            "findings": [f.to_json() for f in self.findings],
        }

    def summary(self) -> str:
        return (
            f"lint: {len(self.systems)} system(s) "
            f"({', '.join(self.systems)}): "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )

