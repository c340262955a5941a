"""Guard prefixes: the ``WHEN`` part of an action, recovered mechanically.

Event-B writes an event as ``WHEN guards THEN actions``; an
:class:`~repro.tla.action.Action` function fuses the two -- a few
comparisons that ``return None``, then the update.  On the fine-grained
ZooKeeper specifications nearly every applier call the kernel makes ends
in one of those early returns, and a Python call costs ten times the
comparison it wraps.  This module recovers the comparisons, so
:func:`repro.tla.codegen.emit_kernel` can inline them ahead of the calls.

:func:`guard_prefix` runs a pre-bound applier on a *symbolic* state whose
values only remember the path they were reached by (``state[name]``,
constant subscripts, attribute access).  Every truth test on such a value
-- ``bool(path)``, a comparison of a path with a constant or with another
path, or ``constant in path`` -- is a *decision* the tracer answers from
a script.  A constant is a literal (``int``, ``str``, ``bool``,
``None``) or a tuple or frozenset of constants.  Decision *k* becomes an
:class:`Atom` of the prefix iff, with decisions ``0..k-1`` answered the
passing way, exactly one answer of *k* makes the real function return
``None`` without asking anything further.  Both answers returning
``None`` means the instance can never fire.  Neither answer returning
``None`` makes an atom in one shape only: a run of ``path == C1``,
``path == C2``, ... decisions (what ``path in (C1, C2)`` asks) whose
``True`` answers all go on the same way and whose last ``False`` returns
``None`` folds into the single atom ``path in (C1, C2)``.  Anything else
-- neither answer returning ``None``, or anything a symbolic value does
not model (iteration, ``len``, hashing and
so ``path in {...}``, arithmetic, ``path in path``, a non-constant
operand, a call, a different decision order on replay) -- ends the prefix
there.  An instance with no prefix simply keeps the applier call.

Atoms stay in the function's own evaluation order, so evaluating a prefix
on a real state dereferences exactly what the function would have
dereferenced by the time it asked that decision.

What Python does not let a value intercept, the tracer cannot see:
identity tests (``is`` / ``is not``), ``isinstance`` / ``type`` and an
``except`` clause catching the failure of a dereference.  A spec whose
control flow depends on one of those *for a state-derived value* gets a
wrong prefix; ``--debug-deps`` (kernel == reference expander on every
batch) is the check, the same assurance level ``update_sources`` has.  See
``docs/linting.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Container, FrozenSet, List, NamedTuple, Optional, Tuple

#: A path into the state: the variable name, then ``("[]", key)`` /
#: ``(".", attribute)`` steps.
Path = Tuple[Any, ...]

#: Guards are a handful of comparisons; the cap only bounds a function
#: that asks decisions in a loop.
MAX_ATOMS = 16

#: Runs of the function a prefix with disjunctive atoms stands for (the
#: product of their sizes); every later decision is asked on each.
MAX_WAYS = 32

_LITERALS = (int, str, bool, type(None))

#: The container types a constant may be (of constants).
CONTAINERS = (tuple, frozenset)


def _constant(value: Any) -> bool:
    """A literal, or a tuple or frozenset of constants: what a decision
    may compare a path against, or look for in one."""
    kind = type(value)
    if kind in _LITERALS:
        return True
    return kind in CONTAINERS and all(_constant(item) for item in value)


# A prefix is plain data -- NamedTuples of variable names, subscripts,
# attribute names and constants, no reference to the applier it came from
# -- and a pure function of the function's source and the config.  That
# is the contract :mod:`repro.checker.bundle` pickles it under: keep it
# so (no callables, no State-derived objects in an Atom).


class Const(NamedTuple):
    """A constant operand (what tells it from a :data:`Path` operand)."""

    value: Any


class Test(NamedTuple):
    """One truth test on the state: ``bool(left)`` for op ``"bool"``,
    ``right in left`` for op ``"contains"`` (``right`` a :class:`Const`),
    else ``left op right`` with ``right`` a :class:`Const` or a path --
    op ``"in"`` only as a folded disjunction, ``right`` a tuple.  ``!=``
    is recorded as ``==`` and ``not in`` as ``in``, the answer flipped."""

    op: str
    left: Path
    right: Any = None


class Atom(NamedTuple):
    """A test and the answer that lets the action go on; the other
    answer makes it return ``None`` at once."""

    test: Test
    passing: bool


class GuardPrefix(NamedTuple):
    atoms: Tuple[Atom, ...]
    #: The function returns ``None`` whatever the state holds.
    dead: bool = False


NO_PREFIX = GuardPrefix(())


class Untraceable(BaseException):
    """The function did something to a state-derived value the tracer
    does not model.  A ``BaseException``, so a spec helper's ``except
    Exception`` cannot swallow it."""


class BeyondScript(BaseException):
    """The function asked for a decision the script does not answer."""


class _Run:
    """One execution of an applier against a script of answers.

    ``stopped`` keeps the *first* reason the run left the modelled world
    (``"more"`` / ``"untraceable"``), so even a function that swallows
    the exception cannot turn a derailed run into a verdict."""

    __slots__ = ("script", "asked", "stopped")

    def __init__(self, script: Tuple[bool, ...]):
        self.script = script
        self.asked: List[Test] = []
        self.stopped = ""

    def decide(self, test: Test) -> bool:
        k = len(self.asked)
        self.asked.append(test)
        if k >= len(self.script):
            self.stopped = self.stopped or "more"
            raise BeyondScript()
        return self.script[k]

    def unmodelled(self) -> Any:
        self.stopped = self.stopped or "untraceable"
        raise Untraceable()


class _Opaque:
    """Every operation Python lets a class intercept, refused.  (Those it
    would refuse by itself with a ``TypeError`` are refused with
    :class:`Untraceable` instead, which no spec code catches.)"""

    __slots__ = ("_run",)
    _run: _Run

    def _refuse(self, *args: Any, **kwargs: Any) -> Any:
        return self._run.unmodelled()


_BINARY = ("add sub mul matmul truediv floordiv mod divmod pow lshift rshift and xor or").split()
for _name in (
    "getattr getitem bool eq ne lt le gt ge hash len iter contains reversed call "
    "index int float complex round trunc floor ceil neg pos abs invert str format bytes"
).split() + _BINARY + ["r" + _op for _op in _BINARY]:
    setattr(_Opaque, f"__{_name}__", _Opaque._refuse)


def _comparison(op: str, flip: bool = False) -> Callable[..., Any]:
    def compare(self: "_Sym", other: Any) -> Any:
        if type(other) is _Sym:
            right: Any = other._path
        elif _constant(other):
            right = Const(other)
        else:
            return self._run.unmodelled()
        return _Cmp(self._run, Test(op, self._path, right), flip)

    return compare


class _Sym(_Opaque):
    """A state-derived value that only knows its path."""

    __slots__ = ("_path",)

    def __init__(self, run: _Run, path: Path):
        self._run = run
        self._path = path

    def __getitem__(self, key: Any) -> "_Sym":
        if type(key) not in (int, str):
            return self._run.unmodelled()  # slices, symbolic subscripts
        return _Sym(self._run, self._path + (("[]", key),))

    def __getattr__(self, name: str) -> "_Sym":
        if name.startswith("_"):
            return self._run.unmodelled()
        return _Sym(self._run, self._path + ((".", name),))

    def __bool__(self) -> bool:
        return self._run.decide(Test("bool", self._path))

    def __contains__(self, item: Any) -> bool:
        if not _constant(item):
            return self._run.unmodelled()  # a path, a Rec, a list, ...
        return self._run.decide(Test("contains", self._path, Const(item)))

    __eq__ = _comparison("==")
    __ne__ = _comparison("==", flip=True)
    __lt__ = _comparison("<")
    __le__ = _comparison("<=")
    __gt__ = _comparison(">")
    __ge__ = _comparison(">=")
    __hash__ = _Opaque._refuse  # defining __eq__ would reset it to None


class _Cmp(_Opaque):
    """A comparison not yet tested for truth: the test is the decision."""

    __slots__ = ("_test", "_flip")

    def __init__(self, run: _Run, test: Test, flip: bool):
        self._run = run
        self._test = test
        self._flip = flip

    def __bool__(self) -> bool:
        return self._run.decide(self._test) ^ self._flip


class _SymState(_Opaque):
    """``state[name]`` / ``state.name`` and nothing else of ``State``."""

    __slots__ = ("_names",)

    def __init__(self, run: _Run, names: Container[str]):
        self._run = run
        self._names = names

    def __getitem__(self, name: Any) -> _Sym:
        if name not in self._names:
            return self._run.unmodelled()
        return _Sym(self._run, (name,))

    __getattr__ = __getitem__


class _Way(NamedTuple):
    """One run of the function: the answers it was given, how it ended
    (``"none"`` / ``"value"`` returned, ``"more"`` decisions wanted,
    ``"untraceable"``) and the decisions it asked."""

    script: Tuple[bool, ...]
    ended: str
    asked: List[Test]

    def after(self) -> Tuple[str, List[Test]]:
        """How the run went on past its script."""
        return self.ended, self.asked[len(self.script) :]


def _execute(
    applier: Callable, config: Any, names: Container[str], script: Tuple[bool, ...]
) -> _Way:
    """Run the applier under ``script``."""
    run = _Run(script)
    result = None
    try:
        result = applier(config, _SymState(run, names))
    except (Untraceable, BeyondScript):
        pass
    except Exception:
        # Whatever the function raised on a symbolic state says nothing
        # about real ones; the instance keeps its applier call.
        run.stopped = run.stopped or "untraceable"
    return _Way(script, run.stopped or ("none" if result is None else "value"), run.asked)


def _ending(ways: List[_Way]) -> str:
    """``"none"`` when every run returned None, ``"go"`` when none did,
    ``""`` when they disagree."""
    nones = {way.ended == "none" for way in ways}
    if len(nones) != 1:
        return ""
    return "none" if nones.pop() else "go"


def _next_decision(ways: List[_Way]) -> Optional[Test]:
    """The decision every run asks right after its script, if they all
    ask one and the same."""
    tests = {way.asked[len(way.script)] if way.ended == "more" else None for way in ways}
    return tests.pop() if len(tests) == 1 else None


def guard_prefix(
    applier: Callable, config: Any, names: Container[str], reads: FrozenSet[str]
) -> GuardPrefix:
    """The guard prefix of one pre-bound applier (see the module text).

    ``names`` are the schema's variables, ``reads`` the action's declared
    reads.  A prefix that mentions a variable outside ``reads`` is
    dropped: a disabled bit the kernel stores in a memo entry, or lets a
    child inherit through ``affects``, must be a function of the declared
    reads alone.

    A disjunctive atom passes in several ways (``path == C1``, or not and
    ``path == C2``, ...), so the tracer keeps one run per way through the
    atoms found so far and asks every later decision on each: an atom
    must be one, with one failing answer, on all of them.
    """

    def extend(ways: List[_Way], answer: bool) -> Optional[List[_Way]]:
        """Each run again, answering its next decision ``answer``; None
        when one asks its decisions in another order than before."""
        runs = []
        for way in ways:
            again = _execute(applier, config, names, way.script + (answer,))
            asked = len(way.script) + 1
            if again.asked[:asked] != way.asked[:asked]:
                return None
            runs.append(again)
        return runs

    start = _execute(applier, config, names, ())
    if start.ended == "none":
        return GuardPrefix((), dead=True)
    atoms: List[Atom] = []
    ways = [start]
    while len(atoms) < MAX_ATOMS:
        test = _next_decision(ways)
        if test is None:
            break
        passed, failed = extend(ways, True), extend(ways, False)
        if passed is None or failed is None:
            break
        endings = (_ending(passed), _ending(failed))
        if endings == ("none", "none"):
            return _declared(GuardPrefix(tuple(atoms), dead=True), reads)
        if endings == ("go", "none"):
            atoms.append(Atom(test, True))
            ways = passed
        elif endings == ("none", "go"):
            atoms.append(Atom(test, False))
            ways = failed
        elif endings == ("go", "go") and _equality(test, test.left):
            folded = _disjunction(test, passed, failed, extend)
            if folded is None:
                break
            atoms.append(folded[0])
            ways = folded[1]
        else:
            break
    return _declared(GuardPrefix(tuple(atoms)), reads)


def _equality(test: Test, left: Path) -> bool:
    """``test`` is ``left == constant``."""
    return test.op == "==" and test.left == left and isinstance(test.right, Const)


def _disjunction(
    test: Test,
    passed: List[_Way],
    failed: List[_Way],
    extend: Callable[[List[_Way], bool], Optional[List[_Way]]],
) -> Optional[Tuple[Atom, List[_Way]]]:
    """Fold the run of decisions ``path == C1``, ``path == C2``, ... that
    ``path in (C1, C2, ...)`` asks into that one atom, and the runs past
    it: every ``True`` answer must go on exactly as the first does, and
    the last ``False`` must return None.  ``passed`` / ``failed`` are the
    runs answering ``test``, the first decision, each way."""
    left, first = test.left, passed
    constants: List[Any] = []
    passing: List[_Way] = []
    while True:
        if any(way.after() != was.after() for way, was in zip(passed, first)):
            return None
        constants.append(test.right.value)
        passing += passed
        if len(passing) > MAX_WAYS:
            return None
        ending = _ending(failed)
        if ending == "none":
            return Atom(Test("in", left, Const(tuple(constants))), True), passing
        following = _next_decision(failed)
        if ending != "go" or following is None or not _equality(following, left):
            return None
        yes, no = extend(failed, True), extend(failed, False)
        if yes is None or no is None:
            return None
        test, passed, failed = following, yes, no


def _declared(prefix: GuardPrefix, reads: FrozenSet[str]) -> GuardPrefix:
    if all(variables(atom) <= reads for atom in prefix.atoms):
        return prefix
    return NO_PREFIX


def paths(atom: Atom) -> Tuple[Path, ...]:
    """The state paths an atom dereferences, left operand first."""
    test = atom.test
    if test.op == "bool" or isinstance(test.right, Const):
        return (test.left,)
    return (test.left, test.right)


def variables(atom: Atom) -> FrozenSet[str]:
    return frozenset(path[0] for path in paths(atom))


def expression(path: Path, root: str) -> str:
    """Python source for ``path``, ``root`` standing for its variable."""
    return root + "".join(
        f"[{step!r}]" if kind == "[]" else f".{step}" for kind, step in path[1:]
    )


def literal(value: Any) -> str:
    """Python source for a constant.  Not ``repr``: a frozenset lists its
    items in hash order, which ``PYTHONHASHSEED`` changes."""
    if type(value) is frozenset:
        items = ", ".join(sorted(literal(item) for item in value))
        return f"frozenset({{{items}}})" if value else "frozenset()"
    if type(value) is tuple:
        items = ", ".join(literal(item) for item in value)
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


def condition(atom: Atom, left: str, right: str = "", passing: bool = True) -> str:
    """Python source that is true iff ``atom`` passes (``passing=False``:
    iff it fails), over source for its operands: the left path and the
    right path or constant."""
    test = atom.test
    want = atom.passing == passing
    if test.op == "bool":
        return left if want else f"not {left}"
    if test.op == "contains":
        return f"{right} {'in' if want else 'not in'} {left}"
    if test.op == "in":
        return f"{left} {'in' if want else 'not in'} {right}"
    if test.op == "==":
        return f"{left} {'==' if want else '!='} {right}"
    return f"{'' if want else 'not '}{left} {test.op} {right}"


def render(atom: Atom) -> str:
    """An atom with variable names for roots and constants spelled out
    (``--stats``, docs)."""
    right = atom.test.right
    if isinstance(right, Const):
        source = literal(right.value)
    else:
        source = "" if right is None else expression(right, right[0])
    return condition(atom, expression(atom.test.left, atom.test.left[0]), source)
