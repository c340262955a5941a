"""Checking declarations against the analyzed truth.

Compares what each function of a composed spec declares -- an action's
``reads`` / ``writes`` / ``update_sources``, the ``reads`` of an
invariant and of the state constraint -- with the
:class:`~repro.analysis.deps.Summary` the AST analysis computed,
emitting the D-series findings:

- **D01 under-declared-read** -- a read outside the variables the
  kernel keys the function's memo on.  This is the soundness bug class
  ``--debug-deps`` catches at runtime (and only on visited states):
  memoized outcomes or verdicts would be reused across states that
  differ in the undeclared variable.
- **D02 over-declared-read** -- declared-but-never-read variables that
  widen memo keys and lower the hit rate.
- **D03/D04** -- the same two directions for an action's writes.
- **D05** -- the analysis could not fully resolve the function.
- **D06** -- no reads declaration at all (memoization disabled).
- **D07** -- declarations naming variables outside the schema, or
  update sources for variables the action does not write.

One check (:func:`check_declaration`) covers every entry of
:func:`~repro.tla.spec.memoized_declarations`; an action adds the write
side.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.analysis.deps import SpecAnalyzer
from repro.analysis.findings import Finding, make_finding
from repro.tla.action import Action, function_location
from repro.tla.spec import Declaration, Specification, memoized_declarations


def _dedupe(findings: Iterable[Finding]) -> List[Finding]:
    seen: Set[Tuple] = set()
    out: List[Finding] = []
    for finding in findings:
        key = (finding.fingerprint, finding.line, finding.message)
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return out


def check_declaration(
    system: str, decl: Declaration, schema: Set[str], analyzer: SpecAnalyzer
) -> List[Finding]:
    """All declaration findings for one entry of
    :func:`~repro.tla.spec.memoized_declarations`: the read side (D07,
    D05, D06, D01 in both forms, D02 and the purity rules) for any
    function with declared reads, and for an action the write side (D03,
    D04, D07 on ``writes`` / ``update_sources``)."""
    summary = analyzer.analyze(decl.fn)
    file, line = function_location(decl.fn) or ("", 0)
    findings: List[Finding] = []

    def emit(rule, message, variable="", at=None):
        """``at``: the access (or purity issue) the finding points to."""
        findings.append(
            make_finding(
                rule,
                system,
                f"{decl.kind}:{decl.name}",
                message,
                variable=variable,
                file=at.file if at is not None else file,
                line=at.line if at is not None else line,
            )
        )

    action = decl.source if decl.kind == "action" else None
    sources: Set[str] = set()
    if action is not None:
        for target, source_vars in sorted(action.update_sources.items()):
            sources |= source_vars
            if target not in action.writes:
                emit(
                    "D07",
                    f"update_sources declares sources for {target!r}, which "
                    "is not in the action's writes",
                    variable=target,
                )
        for group, names in (("writes", action.writes), ("update_sources", sources)):
            for name in sorted(names - schema):
                emit(
                    "D07",
                    f"declared {group} variable {name!r} is not in the spec schema",
                    variable=name,
                )

    # --- the read side ------------------------------------------------
    for name in sorted(decl.reads - schema):
        emit(
            "D07",
            f"declared reads variable {name!r} is not in the spec schema",
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

    if not decl.reads:
        detail = ""
        if summary.reads_resolved:
            detail = (
                f"; analysis suggests reads {sorted(analyzed_reads)}"
                if analyzed_reads
                else "; analysis found no state reads"
            )
        emit(
            "D06",
            f"no reads declaration: the engine evaluates this {decl.kind} "
            f"on every state{detail}",
        )
    else:
        # D01: soundness -- every resolved read must be inside what the
        # memo is keyed on, and whole-state access is incompatible with
        # declaring a (necessarily partial) key at all.
        key = decl.key if decl.key is not None else decl.reads
        for var in sorted(analyzed_reads - key):
            access = summary.reads[var]
            emit(
                "D01",
                f"reads {var!r} ({access.detail}) outside the declared "
                f"memo key {sorted(key)}; memoized results would be "
                f"reused across states that differ in {var!r}",
                variable=var,
                at=access,
            )
        for access in summary.whole_reads:
            emit(
                "D01",
                f"whole-state access ({access.detail}) is incompatible "
                "with the declared memo key",
                variable="*",
                at=access,
            )
        # D02: performance -- declared dependencies never actually read.
        if summary.reads_resolved:
            for var in sorted(((decl.reads | sources) & schema) - analyzed_reads):
                emit(
                    "D02",
                    f"declares a dependency on {var!r} but never reads "
                    "it; the declaration widens memo keys for nothing",
                    variable=var,
                )

    for issue in summary.purity:
        emit(issue.rule, issue.message, at=issue)

    # --- the write side -----------------------------------------------
    if action is not None:
        # D03: soundness -- may-written keys must be declared
        # (validate_updates would raise at runtime, but only on paths a
        # run happens to take).
        for var in sorted(set(summary.writes) - action.writes):
            emit(
                "D03",
                f"may return an update for undeclared variable {var!r}",
                variable=var,
                at=summary.writes[var],
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
    return _dedupe(findings)


def check_action(
    system: str, action: Action, schema: Set[str], analyzer: SpecAnalyzer
) -> List[Finding]:
    """All declaration findings for one action of one composed spec."""
    return check_declaration(system, Declaration.of_action(action), schema, analyzer)


def check_spec(
    system: str, spec: Specification, analyzer: SpecAnalyzer
) -> List[Finding]:
    """Declaration findings for a composed spec: every action, every
    invariant and the state constraint."""
    schema = set(spec.schema.names)
    findings: List[Finding] = []
    for decl in memoized_declarations(spec):
        findings.extend(check_declaration(system, decl, schema, analyzer))
    return findings
