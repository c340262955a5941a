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

This is the on-disk cache's one key discipline; the scenario-prefix
traces of :mod:`repro.remix.spec_cache` follow it too.  The namespace
directory (:func:`namespace`) names the interpreter (``cache_tag``), the
payload format, the kernel emitter's ``CODEGEN_VERSION`` and a digest of
the deriving code (``repro/tla``, ``repro/analysis``,
``repro/checker/engine.py``, this file) plus ``repro/system``, which
scripts the prefixes.  The entry names a :class:`Signature` of what was
read.  For a compile that is its *shape* -- spec name, the configuration
*by value* (:meth:`Signature.config`; not ``repr``, which for a class
without ``__repr__`` is an address), schema, per instance its label,
binding, declarations and function, the invariants in order and the
constraint (a mask is folded into both) -- plus a digest of the source
files beside every module a spec function lives in or reaches through
its globals (:meth:`Signature.reach`) or through the bases of a class it
names, which is where the helpers the analyzer and the tracer followed
live.  :func:`signature` keeps that key
on the compile, so a prefix key can build on it.

A function is identified by what it *is*, never by its name: its code
bytes, names and constants, and -- recursively -- the functions in its
closure cells and defaults.  Two ``lambda``\\ s with one ``__qualname__``
and different bodies get different keys; so do two copies of one wrapper
lambda around different functions.  A function with no source file, or a
closure cell holding anything but a function, module, class or primitive
constant, makes the entry :class:`Unpersistable`: derive-only, never a
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
from repro.tla.spec import memoized_declarations

#: Bump when the payload format of either entry kind changes.
_DISK_FORMAT = 1

_LOCK = threading.Lock()
_STATS = {"bundle_hits": 0, "bundle_misses": 0, "bundle_stale": 0}

_PRIMITIVES = (int, str, bool, float, bytes, type(None))
_STDLIB = getattr(sys, "stdlib_module_names", frozenset())

#: Module name -> the source path that stands for it ("" for the
#: standard library), memoized: a loaded module does not move.
_MODULE_SOURCES: Dict[str, str] = {}


class Unpersistable(Exception):
    """The entry depends on something no key can name."""


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


def _module_source(name: str) -> str:
    if name.split(".", 1)[0] in _STDLIB:
        return ""  # the namespace names the interpreter
    module = sys.modules.get(name)
    file = getattr(module, "__file__", None)
    if not file:
        raise Unpersistable(f"module {name!r} has no source file")
    return os.path.dirname(file) if getattr(module, "__package__", "") else file


def _codes(code: CodeType) -> Iterator[CodeType]:
    """``code`` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _codes(const)


class Signature:
    """A running SHA-1 over what a cache entry depends on, and the source
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
            self.cls(value)
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
        self.cls(cls)
        for name, item in sorted(fields.items()):
            self.text(name)
            self.config(item)

    def module(self, name: str) -> None:
        """Put the source beside module ``name`` under the key: its
        package's directory, or its own file for a top-level module."""
        source = _MODULE_SOURCES.get(name)
        if source is None:
            source = _MODULE_SOURCES[name] = _module_source(name)
        if source:
            self.sources.add(source)

    def cls(self, value: type) -> None:
        """Put a class's source under the key with every base's: a
        subclass's behaviour lives anywhere up its MRO."""
        for base in value.__mro__:
            self.module(base.__module__)

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
                        self.cls(value)

    def hexdigest(self) -> str:
        """The key: everything fed in, plus what the reached sources say
        (not where this checkout keeps them).  Raises
        :class:`Unpersistable` for an unreadable source."""
        digests = [disk_cache.source_digest(path) for path in self.sources]
        if None in digests:
            raise Unpersistable("unreadable source")
        self.text(*sorted(digests))
        return self.sha1.hexdigest()


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DERIVING_SOURCES = (
    os.path.join(_ROOT, "tla"),
    os.path.join(_ROOT, "analysis"),
    os.path.join(_ROOT, "checker", "engine.py"),
    os.path.abspath(__file__),
    os.path.join(_ROOT, "system"),
)


def namespace(kind: str) -> str:
    """The directory entries of ``kind`` (``kernels``, ``prefixes``)
    live in under this interpreter, payload format, emitter and deriving
    code."""
    from repro.tla.codegen import CODEGEN_VERSION

    digest = hashlib.sha1(
        f"{sys.implementation.cache_tag}/{sys.version}/format/{_DISK_FORMAT}"
        f"/codegen/{CODEGEN_VERSION}".encode()
    )
    for path in _DERIVING_SOURCES:
        digest.update(str(disk_cache.source_digest(path)).encode())
    return f"{kind}-{digest.hexdigest()[:20]}"


def _entry_key(core: Any) -> str:
    """The shape signature of one compile plus the digests of the source
    it reaches.  Raises :class:`Unpersistable`."""
    spec = core.spec
    signature = Signature()
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
    for decl in memoized_declarations(spec):
        if decl.kind != "action":
            signature.text(decl.kind, decl.name)
            signature.names(decl.reads)
            signature.function(decl.fn)
    return signature.hexdigest()


def signature(core: Any) -> Optional[str]:
    """``core``'s compile key (:func:`_entry_key`), computed once per
    compile and kept on it; None for a compile no key can name."""
    if core.signature is None:
        try:
            core.signature = _entry_key(core)
        except Unpersistable:
            core.signature = ""
    return core.signature or None


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
        key = signature(core)
        if key is None:
            return None
        path = disk_cache.entry_path(namespace("kernels"), key)
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
