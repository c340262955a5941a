"""Compile bundles: what compiling a specification *derives*, persisted.

A :class:`~repro.tla.spec.Specification` holds closures and cannot be
pickled, but everything :class:`~repro.checker.engine.CompiledSpec`
derives from one is closure-free: the analyzer's trust verdict, each
instance's guard prefix (:mod:`repro.tla.guards`) and the code object of
the emitted kernel (:mod:`repro.tla.codegen`).  A bundle holds those
three, ``{trusted: True, guard_prefixes, kernel_sha1, kernel_code}``, in
the on-disk cache (:mod:`repro.checker.disk_cache`) so that a fresh
process loads them -- 1 ms -- instead of importing the analyzer, tracing
135 appliers and ``compile()``-ing 3 000 generated lines again.

The key covers everything the derivation read
---------------------------------------------

The namespace directory names the interpreter (``cache_tag``), the
kernel emitter's ``CODEGEN_VERSION`` and a digest of the deriving code
(``repro/tla``, ``repro/analysis``, ``repro/checker/engine.py`` and this
file).  The entry names the *shape signature* of the compile -- spec
name, the configuration *by value* (:meth:`_Signature.config`; not
``repr``, which for a class without ``__repr__`` is an address), schema,
per instance its label, binding,
declarations and function, the invariants in order, constraint and mask
-- plus a digest of the source files beside every module a spec function
lives in or reaches through its globals (:meth:`_Signature.reach`), which
is where the helpers the analyzer and the tracer followed live.

A function is identified by what it *is*, never by its name: its code
bytes, names and constants, and -- recursively -- the functions in its
closure cells and defaults.  Two ``lambda``\\ s with one ``__qualname__``
and different bodies get different keys; so do two copies of one wrapper
lambda around different functions.  A function with no source file, or a
closure cell holding anything but a function, module, class or primitive
constant, makes the compile :class:`Unpersistable`: derive-only, never a
guess.

Only trusted bundles are written, so loading one *is* the trust verdict;
an untrusted spec's warning is computed in every process.  The kernel's
code object is self-verifying: the source text is always re-emitted and
the stored code is used only when the SHA-1 of that text matches
(:meth:`Bundle.kernel`).
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
import threading
from types import CodeType, FunctionType, ModuleType
from typing import Any, Dict, Iterator, List, Optional, Set

from repro.checker import disk_cache
from repro.tla.guards import GuardPrefix

_LOCK = threading.Lock()
_STATS = {"bundle_hits": 0, "bundle_misses": 0, "bundle_stale": 0}

_PRIMITIVES = (int, str, bool, float, bytes, type(None))
_STDLIB = getattr(sys, "stdlib_module_names", frozenset())


class Unpersistable(Exception):
    """The compile depends on something no key can name."""


def stats() -> Dict[str, int]:
    """Bundle traffic: ``bundle_hits`` (kernel loaded), ``bundle_misses``
    (no usable entry: derived and stored), ``bundle_stale`` (entry loaded
    but its kernel was compiled from other source: recompiled, rewritten)."""
    with _LOCK:
        return dict(_STATS)


def reset_stats() -> None:
    with _LOCK:
        for counter in _STATS:
            _STATS[counter] = 0


def _count(counter: str) -> None:
    with _LOCK:
        _STATS[counter] += 1


def _constant(value: Any) -> str:
    """Canonical text of a primitive constant, independent of the hash
    seed (a ``frozenset`` literal's iteration order is not)."""
    if type(value) in _PRIMITIVES:
        return repr(value)
    if type(value) is tuple:
        return "(" + ",".join(_constant(item) for item in value) + ")"
    if type(value) is frozenset:
        return "{" + ",".join(sorted(_constant(item) for item in value)) + "}"
    raise Unpersistable(f"constant of type {type(value).__name__}")


def _codes(code: CodeType) -> Iterator[CodeType]:
    """``code`` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _codes(const)


class _Signature:
    """A running SHA-1 over what a compile depends on, and the source
    files that dependence reaches."""

    def __init__(self) -> None:
        self.sha1 = hashlib.sha1()
        self.sources: Set[str] = set()
        self._functions: Dict[int, int] = {}
        self._reached: Set[CodeType] = set()

    def text(self, *parts: Any) -> None:
        for part in parts:
            self.sha1.update(str(part).encode("utf-8"))
            self.sha1.update(b"\0")

    def names(self, names: Any) -> None:
        """A set of declared variable names (or None / empty)."""
        self.text(",".join(sorted(names or ())))

    def code(self, code: CodeType) -> None:
        self.sha1.update(code.co_code)
        self.text(
            code.co_argcount,
            code.co_posonlyargcount,
            code.co_kwonlyargcount,
            code.co_flags,
            code.co_names,
            code.co_varnames,
            code.co_freevars,
            code.co_cellvars,
        )
        for const in code.co_consts:
            if isinstance(const, CodeType):
                self.code(const)
            else:
                self.text(_constant(const))

    def function(self, fn: Any) -> None:
        """What ``fn`` is: its code, and the values its closure cells and
        defaults hold."""
        if not isinstance(fn, FunctionType):
            raise Unpersistable(f"{type(fn).__name__} is not a plain function")
        known = self._functions.get(id(fn))
        if known is not None:
            self.text("function", known)  # seen before (or a closure cycle)
            return
        self._functions[id(fn)] = len(self._functions)
        self.module(fn.__module__)
        self.code(fn.__code__)
        try:
            cells = [cell.cell_contents for cell in fn.__closure__ or ()]
        except ValueError:
            raise Unpersistable("unset closure cell") from None
        for value in cells + list(fn.__defaults__ or ()):
            self.value(value)
        for name, value in sorted((fn.__kwdefaults__ or {}).items()):
            self.text(name)
            self.value(value)
        self.reach(fn)

    def value(self, value: Any) -> None:
        if isinstance(value, FunctionType):
            self.function(value)
        elif isinstance(value, ModuleType):
            self.text("module", value.__name__)
            self.module(value.__name__)
        elif isinstance(value, type):
            self.text("class", value.__module__, value.__qualname__)
            self.module(value.__module__)
        else:
            self.text(_constant(value))

    def config(self, value: Any) -> None:
        """A model configuration, by value.  ``repr`` will not do: a
        plain class without ``__repr__`` (``ZabConfig``) prints its
        address, which differs between processes that should share an
        entry and can coincide between configs that must not.  Constants
        go in as such; a dataclass or plain object goes in as its class
        and its attributes, recursively; anything else is
        :class:`Unpersistable`."""
        try:
            self.text(_constant(value))
            return
        except Unpersistable:
            pass
        if isinstance(value, (list, tuple)):
            self.text(type(value).__name__, len(value))
            for item in value:
                self.config(item)
            return
        fields = getattr(value, "__dict__", None)
        if isinstance(value, type) or not isinstance(fields, dict):
            raise Unpersistable(f"configuration value of type {type(value).__name__}")
        cls = type(value)
        self.text("object", cls.__module__, cls.__qualname__)
        self.module(cls.__module__)
        for name, item in sorted(fields.items()):
            self.text(name)
            self.config(item)

    def module(self, name: str) -> None:
        """Put the source beside module ``name`` under the key: its
        package's directory, or its own file for a top-level module."""
        if name.split(".", 1)[0] in _STDLIB:
            return  # the namespace names the interpreter
        module = sys.modules.get(name)
        file = getattr(module, "__file__", None)
        if not file:
            raise Unpersistable(f"module {name!r} has no source file")
        self.sources.add(
            os.path.dirname(file) if getattr(module, "__package__", "") else file
        )

    def reach(self, fn: FunctionType) -> None:
        """Follow ``fn``'s global names to the modules its helpers live in
        (the analyzer and the tracer followed the same calls).  Only
        *where* a helper lives goes under the key -- the digest of that
        source covers what it says."""
        pending = [fn]
        while pending:
            current = pending.pop()
            if current.__code__ in self._reached:
                continue
            self._reached.add(current.__code__)
            scope = current.__globals__
            for code in _codes(current.__code__):
                for name in code.co_names:
                    value = scope.get(name)
                    if isinstance(value, FunctionType):
                        if value.__module__.split(".", 1)[0] not in _STDLIB:
                            self.module(value.__module__)
                            pending.append(value)
                    elif isinstance(value, ModuleType):
                        self.module(value.__name__)
                    elif isinstance(value, type):
                        self.module(value.__module__)


def function_identity(fn: Any) -> Optional[bytes]:
    """A digest of what ``fn`` is (code and closure, never its name), or
    None when that cannot be named."""
    signature = _Signature()
    try:
        signature.function(fn)
    except Unpersistable:
        return None
    return signature.sha1.digest()


def _deriving_sources() -> List[str]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [
        os.path.join(root, "tla"),
        os.path.join(root, "analysis"),
        os.path.join(root, "checker", "engine.py"),
        os.path.abspath(__file__),
    ]


def _namespace() -> str:
    """The directory bundles of this interpreter, emitter and deriving
    code live in."""
    from repro.tla.codegen import CODEGEN_VERSION

    digest = hashlib.sha1(
        f"{sys.implementation.cache_tag}/{sys.version}/codegen/{CODEGEN_VERSION}".encode()
    )
    for path in _deriving_sources():
        digest.update(str(disk_cache.source_digest(path)).encode())
    return f"kernels-{digest.hexdigest()[:20]}"


def _entry_key(core: Any) -> str:
    """The shape signature of one compile plus the digests of the source
    it reaches.  Raises :class:`Unpersistable`."""
    spec = core.spec
    signature = _Signature()
    signature.text(spec.name, *spec.schema.names)
    signature.config(spec.config)
    actions: Dict[int, int] = {}
    for instance in spec.action_instances():
        action = instance.action
        index = actions.get(id(action))
        if index is None:
            index = actions[id(action)] = len(actions)
            signature.text(action.name)
            signature.names(action.reads)
            signature.names(action.writes)
            for target, sources in sorted(action.update_sources.items()):
                signature.text(target)
                signature.names(sources)
            signature.function(action.fn)
        signature.text(index, repr(instance.binding))
    for invariant in core.invariants:
        signature.text(invariant.ident, invariant.instance)
        signature.names(invariant.reads)
        signature.function(invariant.predicate)
    for predicate in (core.constraint, core.mask):
        signature.text("predicate")
        if predicate is not None:
            signature.names(getattr(predicate, "reads", None))
            signature.function(predicate)
    # What the sources say, not where this checkout keeps them.
    digests = [disk_cache.source_digest(path) for path in signature.sources]
    if None in digests:
        raise Unpersistable("unreadable source")
    signature.text(*sorted(digests))
    return signature.sha1.hexdigest()


class Bundle:
    """One compile's persisted products, while that compile runs.

    :meth:`open` finds the entry (or answers None: derive-only);
    ``guard_prefixes`` is what was loaded, or None until
    ``CompiledSpec._analyze`` derives them; :meth:`kernel` hands out the
    code object; :meth:`save` writes back what had to be derived."""

    __slots__ = ("path", "guard_prefixes", "kernel_sha1", "kernel_code", "loaded", "dirty")

    def __init__(self, path: str):
        self.path = path
        self.guard_prefixes: Optional[List[GuardPrefix]] = None
        self.kernel_sha1 = ""
        self.kernel_code = b""
        #: An entry was found: a trusted compile of exactly this shape.
        self.loaded = False
        #: Something was derived here that the entry does not hold.
        self.dirty = False

    @classmethod
    def open(cls, core: Any) -> Optional["Bundle"]:
        """The bundle for ``core``'s compile, loaded when the disk has
        it; None with persistence off or a compile no key can name."""
        if disk_cache.disk_dir() is None:
            return None
        try:
            path = disk_cache.entry_path(_namespace(), _entry_key(core))
        except Unpersistable:
            return None
        assert path is not None
        bundle = cls(path)
        payload = disk_cache.load(path)
        prefixes = payload.get("guard_prefixes") if isinstance(payload, dict) else None
        if (
            isinstance(payload, dict)
            and payload.get("trusted") is True
            and isinstance(prefixes, list)
            and len(prefixes) == core.n_instances
            and all(isinstance(prefix, GuardPrefix) for prefix in prefixes)
            and isinstance(payload.get("kernel_sha1"), str)
            and isinstance(payload.get("kernel_code"), bytes)
        ):
            bundle.guard_prefixes = prefixes
            bundle.kernel_sha1 = payload["kernel_sha1"]
            bundle.kernel_code = payload["kernel_code"]
            bundle.loaded = True
        else:
            _count("bundle_misses")
            bundle.dirty = True
        return bundle

    def kernel(self, source: str, filename: str) -> CodeType:
        """The code object of emitted ``source``: the stored one when it
        was compiled from byte-identical text, else a fresh ``compile()``
        (which :meth:`save` then writes back)."""
        sha1 = hashlib.sha1(source.encode("utf-8")).hexdigest()
        if self.loaded:
            if sha1 == self.kernel_sha1:
                try:
                    code = marshal.loads(self.kernel_code)
                    _count("bundle_hits")
                    return code
                except (EOFError, ValueError, TypeError):
                    pass
            _count("bundle_stale")
            self.dirty = True
        code = compile(source, filename, "exec")
        self.kernel_sha1, self.kernel_code = sha1, marshal.dumps(code)
        return code

    def save(self) -> None:
        """Persist the bundle.  The caller vouches that the spec is
        kernel-trusted: a stored bundle *is* that verdict."""
        disk_cache.store(
            self.path,
            {
                "trusted": True,
                "guard_prefixes": self.guard_prefixes,
                "kernel_sha1": self.kernel_sha1,
                "kernel_code": self.kernel_code,
            },
        )
        self.dirty = False
