"""Plugin-contract conformance checks (the C-series lint rules).

Statically validates the promises a :class:`repro.system.plugin.
SystemPlugin` makes to the campaign machinery: grains compose, scenario
prefixes script real actions, fault schedules resolve, compared
variables exist in every grain, the spec-cache source digest covers
every module the specs actually depend on, budgets name real actions,
configurations round-trip through report metadata, the implementation
ensemble honours the ``clone()`` contract and a mapped step that
refuses has changed nothing.
"""

from __future__ import annotations

import ast
import inspect
from collections import deque
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.findings import Finding, make_finding
from repro.analysis.sources import function_node
from repro.system.plugin import (
    ROLE_FOLLOWER,
    ROLE_LEADER,
    ROLE_LINK,
    ROLE_ORDERED_PAIR,
    ROLE_PAIR,
    Scenario,
    SystemPlugin,
)
from repro.tla.action import ActionLabel
from repro.tla.spec import Specification

_ROLES = frozenset(
    {ROLE_LEADER, ROLE_FOLLOWER, ROLE_PAIR, ROLE_LINK, ROLE_ORDERED_PAIR}
)

#: Packages the engine itself owns: edits to them are handled by the
#: engine-version component of the cache key, not the source digest.
ENGINE_PACKAGES = ("repro.tla", "repro.system")


def _plugin_location(plugin: SystemPlugin) -> Tuple[str, int]:
    try:
        file = inspect.getsourcefile(type(plugin)) or ""
        _, line = inspect.getsourcelines(type(plugin))
    except (OSError, TypeError):
        return "", 0
    return file, line


def build_specs(
    system: str, plugin: SystemPlugin, config: Any
) -> Tuple[Dict[str, Specification], List[Finding]]:
    """Compose every grain (C01); returns the ones that resolved."""
    file, line = _plugin_location(plugin)
    specs: Dict[str, Specification] = {}
    findings: List[Finding] = []
    for grain in plugin.grains:
        subject = f"grain:{grain}"
        try:
            specs[grain] = plugin.make_spec(grain, config=config)
        except Exception as exc:
            findings.append(
                make_finding(
                    "C01",
                    system,
                    subject,
                    f"make_spec failed: {exc!r}",
                    file=file,
                    line=line,
                )
            )
            continue
        try:
            plugin.make_mapping(grain)
        except Exception as exc:
            findings.append(
                make_finding(
                    "C01",
                    system,
                    subject,
                    f"make_mapping failed: {exc!r}",
                    file=file,
                    line=line,
                )
            )
    return specs, findings


class _ScriptedNames(ast.NodeVisitor):
    """Constant action names passed to ``.apply(...)`` / ``.can(...)``.

    Also follows the common indirection where a method assigns a tuple
    of constant action names to a local and loops over it::

        order = ("FollowerConnect", "LeaderHandleConnect", ...)
        for name in order:
            self.apply(name, ...)
    """

    def __init__(self) -> None:
        self.names: List[Tuple[str, int]] = []
        self._const_seqs: Dict[str, Tuple[str, ...]] = {}
        self._loop_vars: Dict[str, Tuple[str, ...]] = {}

    @staticmethod
    def _constant_strings(node: ast.AST) -> Optional[Tuple[str, ...]]:
        if isinstance(node, (ast.Tuple, ast.List)):
            items = []
            for element in node.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                items.append(element.value)
            return tuple(items)
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        strings = self._constant_strings(node.value)
        if strings is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._const_seqs[target.id] = strings
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        strings = self._constant_strings(node.iter)
        if strings is None and isinstance(node.iter, ast.Name):
            strings = self._const_seqs.get(node.iter.id)
        if strings is not None and isinstance(node.target, ast.Name):
            self._loop_vars[node.target.id] = strings
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("apply", "can")
            and node.args
        ):
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                self.names.append((arg.value, node.lineno))
            elif isinstance(arg, ast.Name) and arg.id in self._loop_vars:
                for name in self._loop_vars[arg.id]:
                    self.names.append((name, node.lineno))
        self.generic_visit(node)


def _scripted_names(fn: Any) -> Tuple[List[Tuple[str, int]], str]:
    """(action name, line) pairs scripted by a function, plus its file."""
    node = function_node(fn)
    if node is None:
        return [], ""
    visitor = _ScriptedNames()
    visitor.visit(node)
    code = getattr(fn, "__code__", None)
    return visitor.names, code.co_filename if code is not None else ""


def _scenario_classes(plugin: SystemPlugin) -> Set[type]:
    """Scenario subclasses reachable from the prefix builders' modules."""
    classes: Set[type] = set()
    for builder in plugin.scenario_prefixes.values():
        for value in getattr(builder, "__globals__", {}).values():
            if (
                isinstance(value, type)
                and issubclass(value, Scenario)
                and value is not Scenario
            ):
                classes.add(value)
    return classes


def check_scenarios(
    system: str, plugin: SystemPlugin, actions: Set[str]
) -> List[Finding]:
    """C02: every scripted action name must exist in some grain."""
    findings: List[Finding] = []
    scanned: List[Tuple[str, Any]] = [
        (f"scenario:{name}", builder)
        for name, builder in plugin.scenario_prefixes.items()
    ]
    for cls in sorted(_scenario_classes(plugin), key=lambda c: c.__name__):
        for name, member in sorted(vars(cls).items()):
            if callable(member) and hasattr(member, "__code__"):
                scanned.append((f"scenario-helper:{cls.__name__}.{name}", member))
    for subject, fn in scanned:
        names, file = _scripted_names(fn)
        for action, line in names:
            if action not in actions:
                findings.append(
                    make_finding(
                        "C02",
                        system,
                        subject,
                        f"applies action {action!r}, which no grain "
                        "defines",
                        variable=action,
                        file=file,
                        line=line,
                    )
                )
    return findings


def check_faults(
    system: str,
    plugin: SystemPlugin,
    specs: Dict[str, Specification],
) -> List[Finding]:
    """C03: fault schedules resolve against the composed grains."""
    file, line = _plugin_location(plugin)
    findings: List[Finding] = []

    def emit(subject: str, message: str, variable: str = "") -> None:
        findings.append(
            make_finding(
                "C03", system, subject, message,
                variable=variable, file=file, line=line,
            )
        )

    if "none" not in plugin.fault_names():
        emit(
            "faults",
            "no 'none' schedule: the campaign's fault axis requires a "
            "no-op baseline entry",
        )
    # Parameter signatures per action name, per grain that defines it.
    signatures: Dict[str, Dict[str, Set[str]]] = {}
    for grain, spec in specs.items():
        for action in spec.actions:
            signatures.setdefault(action.name, {})[grain] = set(action.params)
    for schedule in plugin.fault_schedules:
        subject = f"fault:{schedule.name}"
        for step_name, params in schedule.steps:
            if step_name not in signatures:
                emit(
                    subject,
                    f"step applies action {step_name!r}, which no grain "
                    "defines",
                    variable=step_name,
                )
                continue
            given = {key for key, _ in params}
            for grain, expected in sorted(signatures[step_name].items()):
                if given != expected:
                    emit(
                        subject,
                        f"step {step_name!r} binds parameters "
                        f"{sorted(given)} but grain {grain} declares "
                        f"{sorted(expected)}",
                        variable=step_name,
                    )
            for key, role in params:
                if role not in _ROLES:
                    emit(
                        subject,
                        f"step {step_name!r} parameter {key!r} uses "
                        f"unknown role placeholder {role!r} (expected "
                        f"one of {sorted(_ROLES)})",
                        variable=step_name,
                    )
    return findings


def check_compared_variables(
    system: str,
    plugin: SystemPlugin,
    specs: Dict[str, Specification],
) -> List[Finding]:
    """C04: compared variables must exist in every grain's schema."""
    file, line = _plugin_location(plugin)
    findings: List[Finding] = []
    for variable in plugin.compared_variables:
        missing = sorted(
            grain
            for grain, spec in specs.items()
            if variable not in spec.schema.names
        )
        if missing:
            findings.append(
                make_finding(
                    "C04",
                    system,
                    "compared_variables",
                    f"compared variable {variable!r} is missing from "
                    f"grain schema(s): {missing}",
                    variable=variable,
                    file=file,
                    line=line,
                )
            )
    return findings


def check_source_coverage(
    system: str, plugin: SystemPlugin, modules: Iterable[str]
) -> List[Finding]:
    """C05: every repro module the specs depend on must be covered by
    ``spec_source_packages`` (else edits would not invalidate the
    on-disk spec cache)."""
    file, line = _plugin_location(plugin)
    covered = tuple(plugin.spec_source_packages) + ENGINE_PACKAGES

    def is_covered(module: str) -> bool:
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in covered
        )

    findings: List[Finding] = []
    for module in sorted(set(modules)):
        if module.startswith("repro.") and not is_covered(module):
            findings.append(
                make_finding(
                    "C05",
                    system,
                    "spec_source_packages",
                    f"spec functions depend on module {module!r}, which "
                    "no spec_source_packages entry covers; editing it "
                    "would not invalidate the cached prefixes",
                    variable=module,
                    file=file,
                    line=line,
                )
            )
    return findings


def check_budgets(
    system: str, plugin: SystemPlugin, config: Any, actions: Set[str]
) -> List[Finding]:
    """C06: budget keys must be actions of some grain."""
    file, line = _plugin_location(plugin)
    findings: List[Finding] = []
    try:
        limits = plugin.budget_limits(config)
    except Exception as exc:
        return [
            make_finding(
                "C06",
                system,
                "budget_limits",
                f"budget_limits raised: {exc!r}",
                file=file,
                line=line,
            )
        ]
    for name in sorted(set(limits) - actions):
        findings.append(
            make_finding(
                "C06",
                system,
                "budget_limits",
                f"budgets action {name!r}, which no grain defines",
                variable=name,
                file=file,
                line=line,
            )
        )
    return findings


def check_config_roundtrip(
    system: str, plugin: SystemPlugin, config: Any
) -> List[Finding]:
    """C07: config_meta / config_from_meta must round-trip."""
    file, line = _plugin_location(plugin)

    def finding(message: str) -> Finding:
        return make_finding(
            "C07", system, "config", message, file=file, line=line
        )

    try:
        meta = plugin.config_meta(config)
    except Exception as exc:
        return [finding(f"config_meta raised: {exc!r}")]
    try:
        rebuilt = plugin.config_from_meta(
            {"system": system, "config": dict(meta)}
        )
    except NotImplementedError:
        return [
            finding(
                "config_from_meta is not implemented; campaign reports "
                "for this system cannot be re-verified or resumed"
            )
        ]
    except Exception as exc:
        return [finding(f"config_from_meta raised: {exc!r}")]
    try:
        again = plugin.config_meta(rebuilt)
    except Exception as exc:
        return [finding(f"config_meta raised on the rebuilt config: {exc!r}")]
    if again != meta:
        return [
            finding(
                "config_meta(config_from_meta(meta)) != meta; reports "
                "would silently verify against a different configuration"
            )
        ]
    return []


def _shareable(value: Any) -> bool:
    """True for a value a clone may share with its original: ``None``
    and anything hashable *by value* (numbers, strings, tuples and
    frozensets of such, frozen dataclasses, ``Rec``/``Txn``/``Zxid``).
    Lists, sets, dicts, deques and plain objects are not."""
    if value is None:
        return True
    if type(value).__hash__ in (None, object.__hash__):
        return False
    try:
        hash(value)
    except TypeError:  # e.g. a tuple holding a set
        return False
    return True


def _fields(value: Any) -> Dict[Any, Any]:
    """The attributes of a plain object (``__dict__`` and ``__slots__``)."""
    fields = dict(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(value, name):
                fields[name] = getattr(value, name)
    return fields


def clone_defects(original: Any, clone: Any) -> List[Tuple[str, str]]:
    """``(path, problem)`` wherever ``clone`` is not an independent,
    equal copy of ``original``: a mutable container or object shared by
    identity, a missing field, a differing value, or aliasing inside
    ``original`` (every node pointing at the one network) that the clone
    does not reproduce among its own objects."""
    defects: List[Tuple[str, str]] = []
    twin_of: Dict[int, Any] = {}

    def walk(path: str, a: Any, b: Any) -> None:
        if _shareable(a):
            if a != b:
                defects.append((path, f"is {b!r}, the original has {a!r}"))
            return
        if id(a) in twin_of:
            if twin_of[id(a)] is not b:
                defects.append(
                    (path, "does not point at the clone's own copy")
                )
            return
        twin_of[id(a)] = b
        if a is b:
            defects.append(
                (path, f"{type(a).__name__} is shared with the original")
            )
            return
        if type(a) is not type(b):
            defects.append(
                (path, f"is a {type(b).__name__}, not a {type(a).__name__}")
            )
            return
        if isinstance(a, set):  # elements are hashable, so shareable
            if a != b:
                defects.append((path, f"is {b!r}, the original has {a!r}"))
            return
        if isinstance(a, dict):
            ours, theirs = a, b
        elif isinstance(a, (list, tuple, deque)):
            ours, theirs = dict(enumerate(a)), dict(enumerate(b))
        else:
            ours, theirs = _fields(a), _fields(b)
        if ours.keys() != theirs.keys():
            odd = sorted(map(repr, ours.keys() ^ theirs.keys()))
            defects.append((path, f"entries {', '.join(odd)} do not pair up"))
        for key, value in ours.items():
            if key in theirs:
                walk(f"{path}.{key}", value, theirs[key])

    walk(type(original).__name__, original, clone)
    return defects


def _step_a_clone(
    plugin: SystemPlugin, specs: Dict[str, Specification], ensemble: Any
) -> Optional[ActionLabel]:
    """Step a clone of ``ensemble`` through the first mapped action that
    applies to it; the label stepped, or None when none applies."""
    for grain, spec in specs.items():
        try:
            mapping = plugin.make_mapping(grain)
        except Exception:  # already a C01 finding
            continue
        for inst in spec.action_instances():
            mapped = mapping.lookup(inst.label)
            if mapped is not None and mapped.step(
                ensemble.clone(), inst.label
            ):
                return inst.label
    return None


def check_clone_contract(
    system: str,
    plugin: SystemPlugin,
    config: Any,
    specs: Dict[str, Specification],
) -> List[Finding]:
    """C08: the ensemble's ``clone()`` is an independent, equal copy."""
    file, line = _plugin_location(plugin)

    def finding(message: str, variable: str = "") -> Finding:
        return make_finding(
            "C08", system, "ensemble", message,
            variable=variable, file=file, line=line,
        )

    try:
        ensemble = plugin.ensemble_factory(config)()
        before = ensemble.snapshot()
        clone = ensemble.clone()
        after = clone.snapshot()
    except Exception as exc:
        return [
            finding(
                "ensemble_factory(config)().clone() / .snapshot() "
                f"raised: {exc!r}"
            )
        ]
    findings = [
        finding(f"clone(): {path} {problem}", variable=path)
        for path, problem in clone_defects(ensemble, clone)
    ]
    if after != before:
        findings.append(
            finding("the clone's snapshot() differs from the original's")
        )
    # One real step on a clone must leave the original where it was.
    try:
        label = _step_a_clone(plugin, specs, ensemble)
    except Exception as exc:
        findings.append(finding(f"stepping a clone raised: {exc!r}"))
    else:
        if label is not None and ensemble.snapshot() != before:
            findings.append(
                finding(
                    f"stepping a clone through {label} changed the "
                    "original's snapshot(): a shrink candidate would "
                    "move the cursor it resumed from"
                )
            )
    return findings


def _scripted_prefixes(
    plugin: SystemPlugin, spec: Specification, config: Any
) -> List[Tuple[ActionLabel, ...]]:
    """The labels of every scenario x fault prefix a campaign scripts on
    ``spec`` (the campaign's leader/follower choice); combinations that
    cannot be scripted are skipped, as the campaign skips their cells."""
    leader, follower = config.n_servers - 1, 0
    prefixes: List[Tuple[ActionLabel, ...]] = []
    for name in plugin.scenario_names():
        try:
            base = plugin.scenario_prefix(
                name, spec, leader, range(config.n_servers)
            )
        except Exception:  # ScenarioError, or already a C02 finding
            continue
        for schedule in plugin.fault_schedules:
            faulted = Scenario(spec, base.state)
            try:
                schedule.inject(faulted, leader, follower)
            except Exception:  # ScenarioError, or already a C03 finding
                continue
            prefixes.append(tuple(base.labels + faulted.labels))
    return prefixes


def refusal_defects(
    ensemble: Any, mapped_labels: Iterable[Tuple[ActionLabel, Any]]
) -> List[Tuple[ActionLabel, str, str]]:
    """``(label, path, problem)`` for every mapped step that answers
    False on a clone of ``ensemble`` and leaves that clone changed.

    The first pass costs one :func:`clone_defects` walk, not one per
    label: every refusing step runs on a copy of what the refusals
    before it left behind, so a single comparison at the end vouches for
    all of them (short of one refusal exactly undoing another's write).
    Only when it finds a difference is each label judged on its own."""
    mapped_labels = list(mapped_labels)

    def refused(probe: Any, label: ActionLabel, mapped: Any) -> bool:
        try:
            return not mapped.step(probe, label)
        except Exception:  # a crash may leave anything behind
            return False

    chain = ensemble.clone()
    for label, mapped in mapped_labels:
        trial = chain.clone()
        if refused(trial, label, mapped):
            chain = trial
    if not clone_defects(ensemble, chain):
        return []
    defects = []
    for label, mapped in mapped_labels:
        probe = ensemble.clone()
        if refused(probe, label, mapped):
            defects.extend(
                (label, path, problem)
                for path, problem in clone_defects(ensemble, probe)
            )
    return defects


def states_along(
    factory: Any, mapping: Any, runs: Iterable[Sequence[ActionLabel]]
) -> Iterator[Any]:
    """The ensemble at every distinct state along ``runs`` (label
    sequences driven on a fresh ensemble each; a shared beginning is
    visited once).  A run ends where a step refuses or crashes.  The
    ensemble yielded is the one being driven: look, or clone it."""
    seen: Set[Tuple[ActionLabel, ...]] = set()
    for run in runs:
        labels = tuple(run)
        ensemble = factory()
        for taken in range(len(labels) + 1):
            if labels[:taken] not in seen:
                seen.add(labels[:taken])
                yield ensemble
            if taken == len(labels):
                break
            mapped = mapping.lookup(labels[taken])
            try:
                if mapped is None or not mapped.step(ensemble, labels[taken]):
                    break
            except Exception:  # the implementation crashed: run over
                break


def check_refusal_contract(
    system: str,
    plugin: SystemPlugin,
    config: Any,
    specs: Dict[str, Specification],
) -> List[Finding]:
    """C09: a mapped step that answers False has changed nothing.

    Per grain, a fresh ensemble is driven along every scripted scenario
    x fault prefix and :func:`refusal_defects` judges every mapped label
    at each state on the way."""
    file, line = _plugin_location(plugin)
    findings: Dict[Tuple[str, str], Finding] = {}
    for grain, spec in specs.items():
        try:
            mapping = plugin.make_mapping(grain)
            factory = plugin.ensemble_factory(config)
        except Exception:  # already a C01 / C08 finding
            continue
        mapped_labels = [
            (inst.label, mapped)
            for inst in spec.action_instances()
            for mapped in [mapping.lookup(inst.label)]
            if mapped is not None
        ]
        prefixes = _scripted_prefixes(plugin, spec, config)
        for ensemble in states_along(factory, mapping, prefixes):
            for label, path, problem in refusal_defects(
                ensemble, mapped_labels
            ):
                findings.setdefault(
                    (label.name, path),
                    make_finding(
                        "C09",
                        system,
                        f"step:{label.name}",
                        f"{label} answered False on a state of grain "
                        f"{grain} after changing it: {path} {problem}",
                        variable=path,
                        file=file,
                        line=line,
                    ),
                )
    return list(findings.values())


def check_plugin(
    system: str,
    plugin: SystemPlugin,
    config: Any,
    specs: Dict[str, Specification],
    modules: Iterable[str],
) -> List[Finding]:
    """All C-series findings for one plugin and its composed grains."""
    actions = {
        action.name for spec in specs.values() for action in spec.actions
    }
    findings: List[Finding] = []
    findings.extend(check_scenarios(system, plugin, actions))
    findings.extend(check_faults(system, plugin, specs))
    findings.extend(check_compared_variables(system, plugin, specs))
    findings.extend(check_source_coverage(system, plugin, modules))
    findings.extend(check_budgets(system, plugin, config, actions))
    findings.extend(check_config_roundtrip(system, plugin, config))
    findings.extend(check_clone_contract(system, plugin, config, specs))
    findings.extend(check_refusal_contract(system, plugin, config, specs))
    return findings
