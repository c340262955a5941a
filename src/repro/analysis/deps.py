"""AST-based dependency and purity analysis of spec functions.

:class:`SpecAnalyzer` walks an action/guard/invariant function's AST and
computes a :class:`Summary` of the state variables it reads (resolving
through local aliases, derived states from ``state.set(...)``, wrapper
lambdas and helper calls within the spec packages), the update keys it
may return (its may-write set), and any purity/determinism hazards it
contains.  :mod:`repro.analysis.declarations` compares the summary
against the declarations on :class:`repro.tla.action.Action` and
:class:`repro.tla.spec.Invariant`.

The analysis is deliberately conservative: anything it cannot resolve is
recorded in ``Summary.unresolved`` (surfacing as a D05 finding) rather
than silently ignored, so a clean lint really does mean the declared
dependency closures were verified.
"""

from __future__ import annotations

import ast
import builtins
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis import purity, sources
from repro.analysis.sources import UNRESOLVED

#: State methods that read the entire state.
STATE_WHOLE = frozenset({"values", "items", "diff"})

#: State methods/attributes that only touch variable-name metadata.
STATE_NEUTRAL = frozenset({"schema", "keys"})

#: Builtins for which a state argument only exposes variable *names*
#: (State is a Mapping over the schema), not values.
METADATA_BUILTINS = frozenset(
    {"len", "sorted", "list", "tuple", "set", "frozenset", "iter",
     "enumerate", "zip"}
)

_MAX_DEPTH = 24

_STDLIB = frozenset(getattr(sys, "stdlib_module_names", ()))


@dataclass(frozen=True)
class Access:
    """One state-variable access site."""

    var: str
    file: str
    line: int
    detail: str = ""


@dataclass(frozen=True)
class Issue:
    """One purity/determinism hazard."""

    rule: str
    message: str
    file: str
    line: int


@dataclass
class Summary:
    """What a spec function reads, writes and depends on."""

    reads: Dict[str, Access] = field(default_factory=dict)
    whole_reads: List[Access] = field(default_factory=list)
    writes: Dict[str, Access] = field(default_factory=dict)
    writes_unknown: List[Access] = field(default_factory=list)
    returns_other: bool = False
    purity: List[Issue] = field(default_factory=list)
    unresolved: List[Access] = field(default_factory=list)

    @property
    def reads_resolved(self) -> bool:
        """True when every state access was statically resolved."""
        return not self.whole_reads and not self.unresolved

    @property
    def writes_resolved(self) -> bool:
        return not self.writes_unknown


@dataclass
class ExprInfo:
    """Static classification of an expression's value."""

    kind: str = "other"  # "state" | "dict" | "other"
    keys: Dict[str, Access] = field(default_factory=dict)
    unknown: bool = False  # dict with unresolvable keys


class SpecAnalyzer:
    """Analyzes live spec functions, memoizing per function object.

    One analyzer instance is shared across a lint run so helpers reached
    from many actions (``_volatile_reset``, the ``prims`` library, ...)
    are analyzed once.
    """

    def __init__(self):
        self._cache: Dict[Tuple[int, FrozenSet[str]], Summary] = {}
        self._keepalive: List[Any] = []  # pin ids used as cache keys
        self._active: Set[Tuple[int, FrozenSet[str]]] = set()

    def analyze(self, fn: Any) -> Summary:
        """Analyze ``fn`` with its second positional parameter bound to
        the state: the ``(config, state, **params)`` signature of every
        action, invariant and constraint."""
        code = getattr(fn, "__code__", None)
        if code is None:
            summary = Summary()
            summary.unresolved.append(
                Access("", "", 0, "callable has no Python code object")
            )
            return summary
        names = frozenset(code.co_varnames[1:2] if code.co_argcount > 1 else ())
        return self._analyze(fn, names, 0)

    def _analyze(
        self, fn: Any, state_params: FrozenSet[str], depth: int
    ) -> Summary:
        key = (id(fn), state_params)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        summary = Summary()
        code = getattr(fn, "__code__", None)
        if code is None:
            return summary
        if key in self._active or depth > _MAX_DEPTH:
            # Recursion (or a pathological helper chain): approximate the
            # repeated frame with the empty summary; the first frame
            # still records everything the body touches.
            return summary
        node = sources.function_node(fn)
        if node is None:
            summary.unresolved.append(
                Access(
                    "", code.co_filename, code.co_firstlineno,
                    f"source for {code.co_name} unavailable",
                )
            )
            self._remember(key, fn, summary)
            return summary
        self._active.add(key)
        try:
            visitor = _FunctionVisitor(self, fn, summary, state_params, depth)
            visitor.run(node)
        finally:
            self._active.discard(key)
        self._remember(key, fn, summary)
        return summary

    def _remember(self, key, fn, summary: Summary) -> None:
        self._cache[key] = summary
        self._keepalive.append(fn)


class _FunctionVisitor(ast.NodeVisitor):
    """One function body's walk; helper calls recurse via the analyzer."""

    def __init__(
        self,
        analyzer: SpecAnalyzer,
        fn: Any,
        summary: Summary,
        state_params: FrozenSet[str],
        depth: int,
    ):
        self.analyzer = analyzer
        self.fn = fn
        self.code = fn.__code__
        self.file = self.code.co_filename
        self.summary = summary
        self.state_names: Set[str] = set(state_params)
        self.locals: Set[str] = set(self.code.co_varnames) | set(
            self.code.co_cellvars
        )
        self.shadow: Set[str] = set()
        self.dicts: Dict[str, Tuple[Dict[str, Access], bool]] = {}
        self.set_locals: Set[str] = set()
        self.depth = depth
        self._exempt: Set[int] = set()
        self._suppress_returns = 0

    def run(self, node: ast.AST) -> None:
        if isinstance(node, ast.Lambda):
            self._record_return(self._eval(node.body), node.body)
        else:
            for stmt in node.body:
                self.visit(stmt)

    # --- recording -----------------------------------------------------------

    def _read(self, var: str, node: ast.AST, detail: str = "") -> None:
        self.summary.reads.setdefault(
            var, Access(var, self.file, getattr(node, "lineno", 0), detail)
        )

    def _whole(self, node: ast.AST, detail: str) -> None:
        self.summary.whole_reads.append(
            Access("*", self.file, getattr(node, "lineno", 0), detail)
        )

    def _unresolved(self, node: ast.AST, detail: str) -> None:
        self.summary.unresolved.append(
            Access("", self.file, getattr(node, "lineno", 0), detail)
        )

    def _purity(self, rule: str, message: str, node: ast.AST) -> None:
        self.summary.purity.append(
            Issue(rule, message, self.file, getattr(node, "lineno", 0))
        )

    def _merge(self, callee: Summary) -> None:
        for var, access in callee.reads.items():
            self.summary.reads.setdefault(var, access)
        self.summary.whole_reads.extend(callee.whole_reads)
        self.summary.purity.extend(callee.purity)
        self.summary.unresolved.extend(callee.unresolved)

    # --- small predicates ----------------------------------------------------

    def _is_state(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Name)
            and node.id in self.state_names
            and node.id not in self.shadow
        )

    def _is_local(self, name: str) -> bool:
        return name in self.locals or name in self.shadow

    def _unordered_iter(self, node: ast.AST) -> bool:
        if purity.is_set_display(node):
            return True
        return (
            isinstance(node, ast.Name)
            and node.id in self.set_locals
            and node.id not in self.shadow
        )

    def _resolve(self, node: ast.AST) -> Tuple[Any, str]:
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if not isinstance(root, ast.Name) or self._is_local(root.id):
            return UNRESOLVED, ""
        return sources.resolve_chain(self.fn, node)

    def _constant_strings(self, node: ast.AST) -> Optional[Set[str]]:
        """A statically known collection of variable names, or None."""
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out: Set[str] = set()
            for element in node.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                out.add(element.value)
            return out
        value, _ = self._resolve(node)
        if isinstance(value, (tuple, list, set, frozenset)) and all(
            isinstance(item, str) for item in value
        ):
            return set(value)
        return None

    # --- expression evaluation ----------------------------------------------

    def _eval(self, node: ast.AST) -> ExprInfo:
        """Visit an expression and classify its value (state alias /
        update dict / other); the value position of assignments and
        returns, where a bare state name is aliasing, not a read."""
        if isinstance(node, ast.Name):
            if self._is_state(node):
                return ExprInfo("state")
            if node.id in self.dicts and node.id not in self.shadow:
                keys, unknown = self.dicts[node.id]
                return ExprInfo("dict", dict(keys), unknown)
            self.visit(node)
            return ExprInfo()
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Dict):
            return self._eval_dict(node)
        if isinstance(node, ast.IfExp):
            self.visit(node.test)
            return self._combine(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            info = self._eval(node.values[0])
            for value in node.values[1:]:
                info = self._combine(info, self._eval(value))
            return info
        self.visit(node)
        return ExprInfo()

    @staticmethod
    def _combine(left: ExprInfo, right: ExprInfo) -> ExprInfo:
        if left.kind == "state" and right.kind == "state":
            return ExprInfo("state")
        if left.kind == "dict" or right.kind == "dict":
            keys: Dict[str, Access] = {}
            keys.update(left.keys)
            keys.update(right.keys)
            unknown = left.unknown or right.unknown
            # A dict on one branch and e.g. None on the other is still a
            # may-write of the dict branch's keys.
            return ExprInfo("dict", keys, unknown)
        return ExprInfo()

    def _eval_dict(self, node: ast.Dict) -> ExprInfo:
        keys: Dict[str, Access] = {}
        unknown = False
        for key, value in zip(node.keys, node.values):
            if key is None:  # ** expansion
                info = self._eval(value)
                if info.kind == "dict":
                    keys.update(info.keys)
                    unknown = unknown or info.unknown
                else:
                    unknown = True
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys[key.value] = Access(
                    key.value, self.file, key.lineno, "update key"
                )
                hazard = purity.mutable_value(value)
                if hazard:
                    self._purity(
                        "P04",
                        f"update value for {key.value!r}: {hazard}",
                        value,
                    )
            else:
                self.visit(key)
                unknown = True
            self.visit(value)
        return ExprInfo("dict", keys, unknown)

    # --- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._eval_call(node)

    def _eval_call(self, node: ast.Call) -> ExprInfo:
        func = node.func
        if isinstance(func, ast.Attribute):
            if self._is_state(func.value):
                return self._state_method(node, func.attr)
            base = func.value.id if isinstance(func.value, ast.Name) else None
            if (
                base is not None
                and base in self.dicts
                and base not in self.shadow
            ):
                return self._dict_method(base, func.attr, node)
            if base is not None and not self._is_local(base):
                base_value = sources.resolve_name(self.fn, base)
                if (
                    isinstance(base_value, (list, dict, set, bytearray))
                    and func.attr in purity.MUTATOR_METHODS
                ):
                    self._purity(
                        "P03",
                        f"mutates module-global {base!r} via .{func.attr}()",
                        node,
                    )
                    self._visit_args(node)
                    return ExprInfo()
            target, dotted = self._resolve(func)
            if target is not UNRESOLVED:
                reason = purity.banned_call(target, dotted)
                if reason:
                    self._purity("P01", reason, node)
                    self._visit_args(node)
                    return ExprInfo()
                if callable(target):
                    return self._call_function(node, target, dotted)
            self._visit_args(node, unresolved=func)
            return ExprInfo()
        if isinstance(func, ast.Name):
            name = func.id
            if self._is_local(name):
                self._visit_args(node, unresolved=func)
                return ExprInfo()
            target = sources.resolve_name(self.fn, name)
            if target is UNRESOLVED:
                self._visit_args(node, unresolved=func)
                return ExprInfo()
            reason = purity.banned_call(target, name)
            if reason:
                self._purity("P01", reason, node)
                self._visit_args(node)
                return ExprInfo()
            if target is getattr(builtins, name, None):
                return self._builtin_call(node, name)
            if callable(target):
                return self._call_function(node, target, name)
            self._visit_args(node, unresolved=func)
            return ExprInfo()
        # Computed callee, e.g. a call on a call's result.
        self.visit(func)
        self._visit_args(node, unresolved=func)
        return ExprInfo()

    def _state_method(self, node: ast.Call, attr: str) -> ExprInfo:
        if attr in ("set", "set_many"):
            for arg in node.args:
                self._eval(arg)
            for kw in node.keywords:
                if kw.arg is not None:
                    hazard = purity.mutable_value(kw.value)
                    if hazard:
                        self._purity(
                            "P04",
                            f"state.set({kw.arg}=...): {hazard}",
                            kw.value,
                        )
                self.visit(kw.value)
            return ExprInfo("state")
        if attr == "get":
            if (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                self._read(node.args[0].value, node, "state.get")
            else:
                self._unresolved(node, "state.get with a dynamic name")
            for arg in node.args[1:]:
                self.visit(arg)
            return ExprInfo()
        if attr == "project":
            names = (
                self._constant_strings(node.args[0]) if node.args else None
            )
            if names is None:
                self._unresolved(node, "state.project with dynamic names")
            else:
                for name in sorted(names):
                    self._read(name, node, "state.project")
            return ExprInfo()
        if attr in STATE_WHOLE:
            self._whole(node, f"state.{attr}() touches every variable")
            self._visit_args(node)
            return ExprInfo()
        if attr in STATE_NEUTRAL:
            self._visit_args(node)
            return ExprInfo()
        self._unresolved(node, f"unrecognized state method .{attr}()")
        self._visit_args(node)
        return ExprInfo()

    def _dict_method(self, name: str, attr: str, node: ast.Call) -> ExprInfo:
        keys, unknown = self.dicts[name]
        if attr == "update":
            for arg in node.args:
                info = self._eval(arg)
                if info.kind == "dict":
                    keys.update(info.keys)
                    unknown = unknown or info.unknown
                else:
                    unknown = True
            for kw in node.keywords:
                if kw.arg is not None:
                    keys[kw.arg] = Access(
                        kw.arg, self.file, node.lineno, "dict.update key"
                    )
                    hazard = purity.mutable_value(kw.value)
                    if hazard:
                        self._purity(
                            "P04",
                            f"update value for {kw.arg!r}: {hazard}",
                            kw.value,
                        )
                    self.visit(kw.value)
                else:
                    info = self._eval(kw.value)
                    if info.kind == "dict":
                        keys.update(info.keys)
                        unknown = unknown or info.unknown
                    else:
                        unknown = True
            self.dicts[name] = (keys, unknown)
            return ExprInfo()
        if attr == "copy":
            return ExprInfo("dict", dict(keys), unknown)
        if attr in ("pop", "popitem", "clear", "setdefault"):
            # Local-dict mutation we do not model: may-write stays sound
            # for pop/clear (over-approximate), setdefault adds a key.
            if attr == "setdefault" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    keys[first.value] = Access(
                        first.value, self.file, node.lineno, "setdefault"
                    )
                else:
                    unknown = True
                self.dicts[name] = (keys, unknown)
            self._visit_args(node)
            return ExprInfo()
        self._visit_args(node)
        return ExprInfo()

    def _builtin_call(self, node: ast.Call, name: str) -> ExprInfo:
        if name in purity.ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.SetComp, ast.ListComp)):
                    self._exempt.add(id(arg))
        if name == "dict":
            keys: Dict[str, Access] = {}
            unknown = False
            for arg in node.args:
                if self._is_state(arg):
                    self._whole(arg, "dict(state) copies every variable")
                    unknown = True
                    continue
                info = self._eval(arg)
                if info.kind == "dict":
                    keys.update(info.keys)
                    unknown = unknown or info.unknown
                else:
                    unknown = True
            for kw in node.keywords:
                if kw.arg is not None:
                    keys[kw.arg] = Access(
                        kw.arg, self.file, node.lineno, "dict() key"
                    )
                    self.visit(kw.value)
                else:
                    info = self._eval(kw.value)
                    if info.kind == "dict":
                        keys.update(info.keys)
                        unknown = unknown or info.unknown
                    else:
                        unknown = True
            return ExprInfo("dict", keys, unknown)
        if name in ("list", "tuple") and node.args and self._unordered_iter(
            node.args[0]
        ):
            self._purity(
                "P02",
                f"{name}() over an unordered set: the element order is "
                "not deterministic across processes; use sorted()",
                node,
            )
        if name in METADATA_BUILTINS:
            for arg in node.args:
                if not self._is_state(arg):  # state arg: names only
                    self.visit(arg)
            for kw in node.keywords:
                self.visit(kw.value)
            return ExprInfo()
        # Any other builtin consuming the state sees every value.
        for arg in node.args:
            if self._is_state(arg):
                self._whole(arg, f"state passed to builtin {name}()")
            else:
                self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        return ExprInfo()

    def _call_function(self, node: ast.Call, target: Any, dotted: str) -> ExprInfo:
        code = getattr(target, "__code__", None)
        if code is None:
            # A C-implemented callable (or class): a state argument is
            # opaque, so treat it as a whole-state read.
            for arg in node.args:
                if self._is_state(arg):
                    self._whole(arg, f"state passed to {dotted or 'callable'}")
                else:
                    self.visit(arg)
            for kw in node.keywords:
                if self._is_state(kw.value):
                    self._whole(
                        kw.value, f"state passed to {dotted or 'callable'}"
                    )
                else:
                    self.visit(kw.value)
            return ExprInfo()
        module = getattr(target, "__module__", "") or ""
        params = list(code.co_varnames[: code.co_argcount])
        state_params: Set[str] = set()
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self.visit(arg.value)
                continue
            if self._is_state(arg):
                if index < len(params):
                    state_params.add(params[index])
                else:
                    self._unresolved(
                        arg, f"state passed through *args of {dotted}"
                    )
            else:
                self._eval(arg)
        for kw in node.keywords:
            if kw.arg is not None and self._is_state(kw.value):
                if kw.arg in params:
                    state_params.add(kw.arg)
                else:
                    self._unresolved(
                        kw.value, f"state passed as **kwargs to {dotted}"
                    )
            else:
                self.visit(kw.value)
        root = module.split(".", 1)[0]
        if root in _STDLIB:
            if state_params:
                self._unresolved(
                    node, f"state passed to stdlib callable {dotted}"
                )
            return ExprInfo()
        callee = self.analyzer._analyze(
            target, frozenset(state_params), self.depth + 1
        )
        self._merge(callee)
        if callee.writes_unknown:
            return ExprInfo("dict", dict(callee.writes), True)
        if callee.writes:
            return ExprInfo("dict", dict(callee.writes), False)
        if callee.returns_other:
            return ExprInfo()
        return ExprInfo("dict", {}, False)

    def _visit_args(
        self, node: ast.Call, unresolved: Optional[ast.AST] = None
    ) -> None:
        callee = ""
        if unresolved is not None:
            try:
                callee = ast.unparse(unresolved)
            except Exception:  # pragma: no cover - unparse is total in 3.9+
                callee = "<callee>"
        for arg in node.args:
            if self._is_state(arg):
                if unresolved is not None:
                    self._unresolved(
                        arg, f"state passed to unresolved callable {callee}"
                    )
                else:
                    self._whole(arg, "state passed to opaque callable")
            else:
                self.visit(arg)
        for kw in node.keywords:
            if self._is_state(kw.value):
                if unresolved is not None:
                    self._unresolved(
                        kw.value,
                        f"state passed to unresolved callable {callee}",
                    )
                else:
                    self._whole(kw.value, "state passed to opaque callable")
            else:
                self.visit(kw.value)

    # --- state access syntax --------------------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_state(node.value) and isinstance(node.ctx, ast.Load):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(
                index.value, str
            ):
                self._read(index.value, node, "state subscript")
            else:
                self._unresolved(node, "state subscript with a dynamic name")
            return
        self.visit(node.value)
        self.visit(node.slice)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._is_state(node.value):
            attr = node.attr
            if attr in STATE_WHOLE:
                self._whole(node, f"state.{attr} touches every variable")
            elif attr in STATE_NEUTRAL or attr in (
                "set", "set_many", "get", "project",
            ):
                pass
            else:
                self._read(attr, node, "state attribute")
            return
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self.visit(node.left)
        for op, comparator in zip(node.ops, node.comparators):
            if self._is_state(comparator) and isinstance(
                op, (ast.In, ast.NotIn)
            ):
                continue  # `name in state` is schema-membership metadata
            if self._is_state(comparator):
                self._whole(comparator, "whole-state comparison")
                continue
            self.visit(comparator)

    def visit_Name(self, node: ast.Name) -> None:
        # Reached only through generic traversal, i.e. a context no
        # handler claimed: a bare state reference there conservatively
        # counts as reading everything.
        if isinstance(node.ctx, ast.Load) and self._is_state(node):
            self._whole(node, "bare state reference")

    # --- statements -----------------------------------------------------------

    def visit_Return(self, node: ast.Return) -> None:
        if self._suppress_returns:
            if node.value is not None:
                self._eval(node.value)
            return
        if node.value is None:
            return
        self._record_return(self._eval(node.value), node.value)

    def _record_return(self, info: ExprInfo, node: ast.AST) -> None:
        if self._suppress_returns:
            return
        if info.kind == "dict":
            for key, access in info.keys.items():
                self.summary.writes.setdefault(key, access)
            if info.unknown:
                self.summary.writes_unknown.append(
                    Access(
                        "", self.file, getattr(node, "lineno", 0),
                        "returned update keys not statically resolvable",
                    )
                )
            return
        if isinstance(node, ast.Constant) and node.value is None:
            return
        self.summary.returns_other = True

    def visit_Assign(self, node: ast.Assign) -> None:
        info = self._eval(node.value)
        for target in node.targets:
            self._assign_target(target, node.value, info)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        info = self._eval(node.value)
        self._assign_target(node.target, node.value, info)

    def _assign_target(
        self, target: ast.AST, value: ast.AST, info: ExprInfo
    ) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            self.dicts.pop(name, None)
            self.set_locals.discard(name)
            if name in self.state_names and info.kind != "state":
                self.state_names.discard(name)
            if info.kind == "state":
                self.state_names.add(name)
            elif info.kind == "dict":
                self.dicts[name] = (dict(info.keys), info.unknown)
            elif purity.is_set_display(value):
                self.set_locals.add(name)
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and base.id in self.dicts:
                keys, unknown = self.dicts[base.id]
                index = target.slice
                if isinstance(index, ast.Constant) and isinstance(
                    index.value, str
                ):
                    keys[index.value] = Access(
                        index.value, self.file, target.lineno, "dict assign"
                    )
                    hazard = purity.mutable_value(value)
                    if hazard:
                        self._purity(
                            "P04",
                            f"update value for {index.value!r}: {hazard}",
                            value,
                        )
                else:
                    unknown = True
                    self.visit(index)
                self.dicts[base.id] = (keys, unknown)
                return
            if isinstance(base, ast.Name) and not self._is_local(base.id):
                if sources.resolve_name(self.fn, base.id) is not UNRESOLVED:
                    self._purity(
                        "P03",
                        f"assigns into module-global {base.id!r}",
                        target,
                    )
            self.visit(target.value)
            self.visit(target.slice)
            return
        if isinstance(target, ast.Attribute):
            root = target.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and not self._is_local(root.id):
                if sources.resolve_name(self.fn, root.id) is not UNRESOLVED:
                    self._purity(
                        "P03",
                        f"assigns attribute on module-global {root.id!r}",
                        target,
                    )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, value, ExprInfo())

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        target = node.target
        root = target
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if (
            isinstance(root, ast.Name)
            and root is not target
            and not self._is_local(root.id)
            and sources.resolve_name(self.fn, root.id) is not UNRESOLVED
        ):
            self._purity(
                "P03", f"augments module-global {root.id!r} in place", node
            )
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self.visit(target.value)

    def visit_Global(self, node: ast.Global) -> None:
        self._purity(
            "P03",
            f"declares global {', '.join(node.names)} for rebinding",
            node,
        )

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._purity(
            "P03",
            f"declares nonlocal {', '.join(node.names)} for rebinding",
            node,
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_state(node.iter):
            pass  # iterating a State yields variable names (metadata)
        else:
            if self._unordered_iter(node.iter):
                self._purity(
                    "P02",
                    "iteration over an unordered set: the visit order can "
                    "leak into the outcome; iterate sorted(...) instead",
                    node.iter,
                )
            self.visit(node.iter)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    # --- nested scopes --------------------------------------------------------

    def _shadow_args(self, args: ast.arguments) -> List[str]:
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        added = [name for name in names if name not in self.shadow]
        self.shadow.update(added)
        return added

    def _unshadow(self, added: List[str]) -> None:
        self.shadow.difference_update(added)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for default in node.args.defaults + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        added = self._shadow_args(node.args)
        self._suppress_returns += 1
        try:
            self.visit(node.body)
        finally:
            self._suppress_returns -= 1
            self._unshadow(added)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        added = self._shadow_args(node.args)
        self._suppress_returns += 1
        try:
            for stmt in node.body:
                self.visit(stmt)
        finally:
            self._suppress_returns -= 1
            self._unshadow(added)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _visit_comprehension(self, node: ast.AST, elements: List[ast.AST]) -> None:
        added: List[str] = []
        for gen in node.generators:
            if self._is_state(gen.iter):
                pass  # names only
            else:
                if (
                    self._unordered_iter(gen.iter)
                    and id(node) not in self._exempt
                ):
                    self._purity(
                        "P02",
                        "comprehension over an unordered set feeds an "
                        "order-sensitive consumer; use sorted(...)",
                        gen.iter,
                    )
                self.visit(gen.iter)
            for name in _target_names(gen.target):
                if name not in self.shadow:
                    self.shadow.add(name)
                    added.append(name)
        for gen in node.generators:
            for condition in gen.ifs:
                self.visit(condition)
        for element in elements:
            self.visit(element)
        self._unshadow(added)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, [node.elt])

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, [node.elt])

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node, [node.elt])

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, [node.key, node.value])


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for element in target.elts:
            out.extend(_target_names(element))
        return out
    return []
