"""Checking Action/Invariant declarations against the analyzed truth.

Compares each action's declared ``reads`` / ``writes`` /
``update_sources`` (and each invariant's ``reads``) with the
:class:`~repro.analysis.deps.Summary` the AST analysis computed,
emitting the D-series findings:

- **D01 under-declared-read** -- a read outside the declared dependency
  closure.  This is the soundness bug class ``--debug-deps`` catches at
  runtime (and only on visited states): memoized outcomes would be
  reused across states that differ in the undeclared variable.
- **D02 over-declared-read** -- declared-but-never-read variables that
  widen memo keys and lower the hit rate.
- **D03/D04** -- the same two directions for writes.
- **D05** -- the analysis could not fully resolve the function.
- **D06** -- no reads declaration at all (memoization disabled).
- **D07** -- declarations naming variables outside the schema, or
  update sources for variables the action does not write.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.deps import Access, SpecAnalyzer
from repro.analysis.findings import Finding, make_finding
from repro.tla.action import Action
from repro.tla.spec import Invariant, Specification


def _location(fn) -> Tuple[str, int]:
    from repro.tla.action import function_location

    location = function_location(fn)
    return location if location is not None else ("", 0)


def _dedupe(findings: Iterable[Finding]) -> List[Finding]:
    seen: Set[Tuple] = set()
    out: List[Finding] = []
    for finding in findings:
        key = (finding.fingerprint, finding.line, finding.message)
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return out


def check_action(
    system: str,
    action: Action,
    schema: Set[str],
    analyzer: SpecAnalyzer,
) -> List[Finding]:
    """All declaration findings for one action of one composed spec."""
    subject = f"action:{action.name}"
    summary = analyzer.analyze(action.fn, state_positions=(1,))
    file, line = _location(action.fn)
    findings: List[Finding] = []

    def emit(rule, message, variable="", at: Optional[Access] = None):
        findings.append(
            make_finding(
                rule,
                system,
                subject,
                message,
                variable=variable,
                file=at.file if at is not None else file,
                line=at.line if at is not None else line,
            )
        )

    # D07: declarations must stay inside the schema and be consistent.
    declared_sources: Set[str] = set()
    for target, source_vars in sorted(action.update_sources.items()):
        declared_sources |= source_vars
        if target not in action.writes:
            emit(
                "D07",
                f"update_sources declares sources for {target!r}, which "
                "is not in the action's writes",
                variable=target,
            )
    for group, names in (
        ("reads", action.reads),
        ("writes", action.writes),
        ("update_sources", declared_sources),
    ):
        for name in sorted(set(names) - schema):
            emit(
                "D07",
                f"declared {group} variable {name!r} is not in the spec "
                "schema",
                variable=name,
            )

    # Analyzed accesses outside the schema would KeyError at runtime.
    for var in sorted(set(summary.reads) - schema):
        emit(
            "D07",
            f"reads variable {var!r} which is not in the spec schema",
            variable=var,
            at=summary.reads[var],
        )
    analyzed_reads = {var for var in summary.reads if var in schema}

    # D05: partial resolution limits what the declaration check proves.
    for access in summary.unresolved:
        emit(
            "D05",
            f"analysis could not resolve: {access.detail}; the "
            "declaration check for this function is incomplete",
            at=access,
        )

    closure = action.dependency_closure()
    if closure is None:
        detail = ""
        if summary.reads_resolved:
            detail = (
                "; analysis suggests reads covering "
                f"{sorted(analyzed_reads)}"
                if analyzed_reads
                else "; analysis found no state reads"
            )
        emit(
            "D06",
            "no reads declaration: the incremental engine cannot "
            f"memoize this action{detail}",
        )
    else:
        # D01: soundness -- every resolved read must be inside the
        # declared closure, and whole-state access is incompatible with
        # declaring a (necessarily partial) closure at all.
        for var in sorted(analyzed_reads - closure):
            access = summary.reads[var]
            emit(
                "D01",
                f"reads {var!r} ({access.detail}) outside the declared "
                f"dependency closure {sorted(closure)}; memoized "
                "outcomes would be reused across states that differ in "
                f"{var!r}",
                variable=var,
                at=access,
            )
        for access in summary.whole_reads:
            emit(
                "D01",
                f"whole-state access ({access.detail}) is incompatible "
                "with the declared dependency closure",
                variable="*",
                at=access,
            )
        # D02: performance -- declared dependencies never actually read.
        if summary.reads_resolved:
            declared_read = set(action.reads) | declared_sources
            for var in sorted((declared_read & schema) - analyzed_reads):
                emit(
                    "D02",
                    f"declares a dependency on {var!r} but never reads "
                    "it; the declaration widens memo keys for nothing",
                    variable=var,
                )

    # D03: soundness -- may-written keys must be declared
    # (validate_updates would raise at runtime, but only on paths a run
    # happens to take).
    for var in sorted(set(summary.writes) - action.writes):
        access = summary.writes[var]
        emit(
            "D03",
            f"may return an update for undeclared variable {var!r}",
            variable=var,
            at=access,
        )
    for access in summary.writes_unknown:
        emit(
            "D05",
            "returned update keys are not statically resolvable; the "
            "writes declaration is unchecked",
            at=access,
        )
    # D04: performance -- declared writes never produced.
    if summary.writes_resolved and not summary.unresolved:
        for var in sorted((action.writes & schema) - set(summary.writes)):
            emit(
                "D04",
                f"declares a write of {var!r} but never returns an "
                "update for it",
                variable=var,
            )

    for issue in summary.purity:
        findings.append(
            make_finding(
                issue.rule,
                system,
                subject,
                issue.message,
                file=issue.file,
                line=issue.line,
            )
        )
    return _dedupe(findings)


def check_invariant(
    system: str,
    invariant: Invariant,
    schema: Set[str],
    analyzer: SpecAnalyzer,
) -> List[Finding]:
    """Declaration findings for one invariant predicate."""
    subject = f"invariant:{invariant.full_name}"
    summary = analyzer.analyze(invariant.predicate, state_positions=(1,))
    file, line = _location(invariant.predicate)
    findings: List[Finding] = []

    def emit(rule, message, variable="", at: Optional[Access] = None):
        findings.append(
            make_finding(
                rule,
                system,
                subject,
                message,
                variable=variable,
                file=at.file if at is not None else file,
                line=at.line if at is not None else line,
            )
        )

    for name in sorted(set(invariant.reads) - schema):
        emit(
            "D07",
            f"declared reads variable {name!r} is not in the spec schema",
            variable=name,
        )
    for var in sorted(set(summary.reads) - schema):
        emit(
            "D07",
            f"reads variable {var!r} which is not in the spec schema",
            variable=var,
            at=summary.reads[var],
        )
    analyzed_reads = {var for var in summary.reads if var in schema}

    for access in summary.unresolved:
        emit(
            "D05",
            f"analysis could not resolve: {access.detail}; the "
            "declaration check for this predicate is incomplete",
            at=access,
        )

    declared = set(invariant.reads)
    if not declared:
        detail = ""
        if summary.reads_resolved:
            detail = (
                f"; analysis suggests reads={sorted(analyzed_reads)}"
                if analyzed_reads
                else "; analysis found no state reads"
            )
        emit(
            "D06",
            "no reads declaration: the engine re-evaluates this "
            f"invariant on every state{detail}",
        )
    else:
        for var in sorted(analyzed_reads - declared):
            access = summary.reads[var]
            emit(
                "D01",
                f"reads {var!r} ({access.detail}) outside the declared "
                f"reads {sorted(declared)}; memoized verdicts would be "
                f"reused across states that differ in {var!r}",
                variable=var,
                at=access,
            )
        for access in summary.whole_reads:
            emit(
                "D01",
                f"whole-state access ({access.detail}) is incompatible "
                "with the declared reads",
                variable="*",
                at=access,
            )
        if summary.reads_resolved:
            for var in sorted((declared & schema) - analyzed_reads):
                emit(
                    "D02",
                    f"declares a dependency on {var!r} but never reads "
                    "it; the declaration widens memo keys for nothing",
                    variable=var,
                )

    for issue in summary.purity:
        findings.append(
            make_finding(
                issue.rule,
                system,
                subject,
                issue.message,
                file=issue.file,
                line=issue.line,
            )
        )
    return _dedupe(findings)


def check_spec(
    system: str, spec: Specification, analyzer: SpecAnalyzer
) -> List[Finding]:
    """Declaration findings for a composed spec."""
    schema = set(spec.schema.names)
    findings: List[Finding] = []
    for action in spec.actions:
        findings.extend(check_action(system, action, schema, analyzer))
    for invariant in spec.invariants:
        findings.extend(
            check_invariant(system, invariant, schema, analyzer)
        )
    return findings
