"""The lint orchestrator behind ``python -m repro lint``.

Runs the three static passes over a system plugin -- declaration
checking (:mod:`repro.analysis.declarations`), purity (folded into the
same analysis) and plugin conformance (:mod:`repro.analysis.
conformance`) -- and collects the findings into one
:class:`~repro.analysis.findings.LintReport`.

Almost everything here is static: grains are *composed* (that much
runs plugin code) and no state space is explored.  The two dynamic
checks are C08, which builds one fresh implementation ensemble and
steps a clone of it once, and C09, which scripts the plugin's scenario x
fault prefixes and steps clones through every mapped label along them.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.analysis.deps import SpecAnalyzer
from repro.analysis.findings import Finding, LintReport


def lint_plugin(
    system: str,
    plugin,
    config=None,
    analyzer: Optional[SpecAnalyzer] = None,
) -> List[Finding]:
    """All findings for one plugin instance (any SystemPlugin works,
    registered or not -- tests lint fixture plugins directly)."""
    from repro.analysis import conformance, declarations

    analyzer = analyzer or SpecAnalyzer()
    if config is None:
        config = plugin.default_config()
    specs, findings = conformance.build_specs(system, plugin, config)

    seen = {
        (f.fingerprint, f.line, f.message) for f in findings
    }

    def add(batch: Iterable[Finding]) -> None:
        for finding in batch:
            key = (finding.fingerprint, finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                findings.append(finding)

    # A multi-grained plugin shares most actions across grains; the
    # fingerprint dedupe above keeps each defect reported once even
    # though every grain's composition is checked.
    for grain in plugin.grains:
        spec = specs.get(grain)
        if spec is None:
            continue
        add(declarations.check_spec(system, spec, analyzer))

    add(conformance.check_plugin(system, plugin, config, specs))
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.variable, f.subject))
    return findings


def lint_system(
    name: str, analyzer: Optional[SpecAnalyzer] = None
) -> List[Finding]:
    """Findings for one registered system."""
    from repro.remix.registry import system_plugin

    return lint_plugin(name, system_plugin(name), analyzer=analyzer)


def lint_systems(names: Sequence[str]) -> LintReport:
    """Lint several registered systems into one report."""
    findings: List[Finding] = []
    analyzer = SpecAnalyzer()
    for name in names:
        findings.extend(lint_system(name, analyzer=analyzer))
    return LintReport(systems=tuple(names), findings=findings)
