"""Guard prefixes: the ``WHEN`` part of an action, recovered mechanically.

Event-B writes an event as ``WHEN guards THEN actions``; an
:class:`~repro.tla.action.Action` function fuses the two -- a few
comparisons that ``return None``, then the update.  On the fine-grained
ZooKeeper specifications nearly every applier call the kernel makes ends
in one of those early returns, and a Python call costs ten times the
comparison it wraps.  This module recovers the comparisons, so
:func:`repro.tla.codegen.emit_kernel` can inline them ahead of the calls.

:func:`guard_prefix` runs a pre-bound applier on a *symbolic* state whose
values only remember the term they were reached by: a path
(``state[name]``, constant subscripts, attribute access) or a path
shifted by an int (``path + k``, ``path - k``, again and again).  Every
truth test on such a value -- ``bool(term)``, a comparison of a term
with a constant or with another term, or ``constant in path`` -- is a
*decision* the tracer answers from a script.  A constant is a literal
(``int``, ``str``, ``bool``, ``None``) or a tuple or frozenset of
constants.  A run asked the same decision twice gets the first answer
again (state values are immutable), and one that found a term equal to
a constant answers it unequal to every other constant (state values have
transitive equality), so the tracer only branches on what the function
has not learnt yet.

The prefix is a decision tree, grown from the function's first decision
with the decisions before it answered the way the tree got there:

- exactly one answer makes the real function return ``None`` without
  asking anything further: an :class:`Atom`, and the tree goes on past
  its other answer;
- both answers return ``None``: a *disabled leaf* -- the instance cannot
  fire past this point (at the root: it never can);
- neither answer returns ``None``: a :class:`Branch`, and the tracer
  follows each answer to an arm of its own.  A run of ``path == C1``,
  ``path == C2``, ... decisions (what ``path in (C1, C2)`` asks) whose
  ``True`` answers all go on the same way folds into the single test
  ``path in (C1, C2)``: an atom when its last ``False`` returns
  ``None``, a branch when that goes on too.  A branch is kept only if
  some arm below it can disable the instance -- it has an atom or a
  disabled leaf -- so a function that counts (``reachable += 1`` per
  live follower, then ``reachable >= quorum``) gets a complete tree, and
  one that merely computes its update from the answers gets none.

A run answers ``True`` to every decision past its script, so the run
that answers a node's decision ``True`` is the node's own and growing a
node costs one new run.  A path's value is one object, as a real
state's is, so a tuple comparison's identity shortcut skips the same
``==`` on both; it lives as long as the trace, so later runs reuse it
and every value and test derived from it.

Anything else -- the runs disagreeing on whether they return ``None``,
or anything a symbolic value does not model (iteration, ``len``, hashing
and so ``path in {...}``, arithmetic other than ``path ± int``,
``path in path``, a non-constant operand, a call, a different decision
order on replay) -- ends that arm of the tree there, as does the
:data:`MAX_TESTS` cap.  An instance whose walk ends in such an arm
simply keeps the applier call.

Atoms stay in the function's own evaluation order, and every root-to-leaf
walk is one run of the function, so evaluating a prefix on a real state
dereferences exactly what the function would have dereferenced by the
time it asked that decision, and computes exactly what it computes: an
offset term is emitted as written (``ct[1] + 1 > 3``), never normalised.

What Python does not let a value intercept, the tracer cannot see:
identity tests (``is`` / ``is not``), ``isinstance`` / ``type`` and an
``except`` clause catching the failure of a dereference.  A spec whose
control flow depends on one of those *for a state-derived value* gets a
wrong prefix; ``--debug-deps`` (kernel == reference expander on every
batch) is the check, the same assurance level ``update_sources`` has.  See
``docs/linting.md``.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

#: A path into the state: the variable name, then ``("[]", key)`` /
#: ``(".", attribute)`` steps.
Path = Tuple[Any, ...]

#: Decisions the tracer answers both ways for one applier, over the whole
#: tree -- what bounds its size and the runs it costs -- and decisions a
#: run answers past its script.  ElectLeader's tree over a three-server
#: quorum holds 12 and LeaderShutdown's 13; the cap bounds a function
#: that asks decisions in a loop, or compares many votes: tracing a
#: grain costs 1.3-1.7 times what atom chains did.
MAX_TESTS = 16

#: Runs of the function a prefix with disjunctive atoms stands for (the
#: product of their sizes); every later decision is asked on each.
MAX_WAYS = 32

_LITERALS = (int, str, bool, type(None))

#: The container types a constant may be (of constants).
CONTAINERS = (tuple, frozenset)


def _constant(value: Any) -> bool:
    """A literal, or a tuple or frozenset of constants: what a decision
    may compare a term against, or look for in a path."""
    kind = type(value)
    if kind in _LITERALS:
        return True
    return kind in CONTAINERS and all(_constant(item) for item in value)


# A prefix is plain data -- NamedTuples of variable names, subscripts,
# attribute names and constants, no reference to the applier it came from
# -- and a pure function of the function's source and the config.  That
# is the contract :mod:`repro.checker.bundle` pickles it under: keep it
# so (no callables, no State-derived objects in an Atom or a Branch).


class Const(NamedTuple):
    """A constant operand (what tells it from a term operand)."""

    value: Any


class Offset(NamedTuple):
    """The term ``base + k`` (op ``"+"``) or ``base - k`` (op ``"-"``):
    ``base`` a :data:`Path` or another offset, ``k`` an int."""

    base: Any
    op: str
    k: int


class Test(NamedTuple):
    """One truth test on the state: ``bool(left)`` for op ``"bool"``,
    ``right in left`` for op ``"contains"`` (``left`` a path, ``right`` a
    :class:`Const`), else ``left op right`` with ``left`` a term and
    ``right`` a :class:`Const` or a term -- op ``"in"`` only as a folded
    disjunction, ``right`` a tuple.  ``!=`` is recorded as ``==`` and
    ``not in`` as ``in``, the answer flipped."""

    op: str
    left: Any
    right: Any = None


class Atom(NamedTuple):
    """A test and the answer that lets the action go on; the other
    answer makes it return ``None`` at once."""

    test: Test
    passing: bool


class Branch(NamedTuple):
    """A test the action goes on past either way: ``true`` and ``false``
    are the prefixes of its two arms (each a :class:`GuardPrefix`)."""

    test: Test
    true: Any
    false: Any


class GuardPrefix(NamedTuple):
    """A node of the decision tree: atoms, then a branch or nothing.
    ``dead``: past the tests above it the function returns ``None``
    whatever the state holds -- whatever its atoms answer, too."""

    atoms: Tuple[Atom, ...]
    dead: bool = False
    branch: Optional[Branch] = None


NO_PREFIX = GuardPrefix(())


class Untraceable(BaseException):
    """The function did something to a state-derived value the tracer
    does not model.  A ``BaseException``, so a spec helper's ``except
    Exception`` cannot swallow it."""


class BeyondScript(BaseException):
    """The function asked more decisions past its script than a tree
    could hold."""


class _Run:
    """The execution of an applier against a script of answers, and past
    its end ``True`` to every decision, so that the run also stands for
    every longer script it answered the same way.  One object serves
    every run of a trace (:meth:`begin` starts the next), so the
    symbolic values that refer to it outlive a run.

    ``stopped`` keeps the *first* reason the run left the modelled world
    (``"more"`` / ``"untraceable"``), so even a function that swallows
    the exception cannot turn a derailed run into a verdict."""

    __slots__ = ("script", "asked", "known", "equal", "stopped")

    def begin(self, script: Tuple[bool, ...]) -> None:
        self.script = script
        self.asked: List[Test] = []
        #: The answers given so far, and per term the constant it was
        #: found equal to.
        self.known: Dict[Test, bool] = {}
        self.equal: Dict[Any, Const] = {}
        self.stopped = ""

    def decide(self, test: Test) -> bool:
        if self.stopped:
            # The function swallowed the signal: nothing it asks from
            # here on is a decision of the modelled world.
            raise BeyondScript()
        known = self.known
        answer = known.get(test)
        if answer is not None:
            return answer
        op, left, right = test
        equality = op == "==" and type(right) is Const
        if equality:
            equal = self.equal.get(left)
            if equal is not None and equal.value != right.value:
                return False  # a term equal to one constant is no other
        asked = self.asked
        k = len(asked)
        asked.append(test)
        script = self.script
        if k < len(script):
            answer = script[k]
        elif k < len(script) + MAX_TESTS:
            answer = True
        else:
            self.stopped = self.stopped or "more"
            raise BeyondScript()
        known[test] = answer
        if answer and equality:
            self.equal[left] = right
        return answer

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


#: What builds a test, a constant or an offset on the tracer's hot path:
#: a NamedTuple's own ``__new__`` is a Python-level call.
_new = tuple.__new__


def _comparison(op: str, flip: bool = False) -> Callable[..., Any]:
    def compare(self: "_Sym", other: Any) -> Any:
        kind = type(other)
        if kind is _Sym:
            key: Any = (op, flip, id(other))
        elif kind in _LITERALS or _constant(other):
            key = (op, flip, kind, other)
        else:
            return self._run.unmodelled()
        made = self._made
        cmp = made.get(key)
        if cmp is None:
            right = other._term if kind is _Sym else _new(Const, (other,))
            cmp = made[key] = _Cmp(self._run, _new(Test, (op, self._term, right)), flip)
        return cmp

    return compare


def _shift(op: str) -> Callable[..., Any]:
    def shift(self: "_Sym", k: Any) -> Any:
        if type(k) is not int:
            return self._run.unmodelled()
        key = (op, k)
        made = self._made
        value = made.get(key)
        if value is None:
            value = made[key] = _Sym(self._run, Offset(self._term, op, k))
        return value

    return shift


class _Sym(_Opaque):
    """A state-derived value that only knows its term.

    A path's value is one object per trace, and so are the values and
    tests derived from it (``_made`` holds them by how they were
    derived): a real state gives back the same object for the same path,
    so a tuple comparison's identity shortcut skips the same ``==`` here
    as there -- and a run after the first finds what it derives already
    made."""

    __slots__ = ("_term", "_made")

    def __init__(self, run: _Run, term: Any):
        self._run = run
        self._term = term
        self._made: Dict[Any, Any] = {}

    def _step(self, key: Any, step: Tuple[str, Any]) -> "_Sym":
        if type(self._term) is Offset:
            return self._run.unmodelled()
        self._made[key] = value = _Sym(self._run, self._term + (step,))
        return value

    def __getitem__(self, key: Any) -> "_Sym":
        if type(key) is not int and type(key) is not str:
            return self._run.unmodelled()  # slices, symbolic subscripts
        value = self._made.get(key)
        return self._step(key, ("[]", key)) if value is None else value

    def __getattr__(self, name: str) -> "_Sym":
        if name.startswith("_"):
            return self._run.unmodelled()
        key = (".", name)
        value = self._made.get(key)
        return self._step(key, key) if value is None else value

    def __bool__(self) -> bool:
        test = self._made.get(("bool",))
        if test is None:
            test = self._made[("bool",)] = _new(Test, ("bool", self._term, None))
        return self._run.decide(test)

    def __contains__(self, item: Any) -> bool:
        if type(self._term) is Offset or not _constant(item):
            return self._run.unmodelled()  # a path, a Rec, a list, ...
        key = ("contains", type(item), item)
        test = self._made.get(key)
        if test is None:
            test = self._made[key] = _new(Test, ("contains", self._term, _new(Const, (item,))))
        return self._run.decide(test)

    __eq__ = _comparison("==")
    __ne__ = _comparison("==", flip=True)
    __lt__ = _comparison("<")
    __le__ = _comparison("<=")
    __gt__ = _comparison(">")
    __ge__ = _comparison(">=")
    __add__ = _shift("+")
    __sub__ = _shift("-")
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

    __slots__ = ("_names", "_roots")

    def __init__(self, run: _Run, names: Container[str]):
        self._run = run
        self._names = names
        self._roots: Dict[str, _Sym] = {}

    def __getitem__(self, name: Any) -> _Sym:
        value = self._roots.get(name)
        if value is None:
            if name not in self._names:
                return self._run.unmodelled()
            value = self._roots[name] = _Sym(self._run, (name,))
        return value

    __getattr__ = __getitem__


class _Way(NamedTuple):
    """One way through the function: the answers it was given, and the
    run that stands for it (its script a prefix of ``script``, the rest
    of ``script`` all ``True``): how that run ended (``"none"`` /
    ``"value"`` returned, ``"more"`` decisions than it could answer,
    ``"untraceable"``) and every decision it asked."""

    script: Tuple[bool, ...]
    ended: str
    asked: List[Test]

    @property
    def end(self) -> str:
        """How the way goes on past its script: ``"more"`` (another
        decision), or how the run ended."""
        return "more" if len(self.asked) > len(self.script) else self.ended

    def next(self) -> Optional[Test]:
        """The decision the way asks past its script, if any."""
        return self.asked[len(self.script)] if self.end == "more" else None

    def after(self) -> Tuple[str, List[Test]]:
        """How the run goes on past the way's script when every later
        decision is answered ``True``."""
        return self.ended, self.asked[len(self.script) :]


def _execute(applier: Callable, config: Any, state: _SymState, script: Tuple[bool, ...]) -> _Way:
    """Run the applier under ``script``."""
    run = state._run
    run.begin(script)
    result = None
    try:
        result = applier(config, state)
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
    nones = {way.end == "none" for way in ways}
    if len(nones) != 1:
        return ""
    return "none" if nones.pop() else "go"


def _next_decision(ways: List[_Way]) -> Optional[Test]:
    """The decision every run asks right after its script, if they all
    ask one and the same."""
    tests = {way.next() for way in ways}
    return tests.pop() if len(tests) == 1 else None


def guard_prefix(
    applier: Callable, config: Any, names: Container[str], reads: FrozenSet[str]
) -> GuardPrefix:
    """The guard prefix of one pre-bound applier (see the module text).

    ``names`` are the schema's variables, ``reads`` the action's declared
    reads.  A prefix with a test anywhere in its tree that mentions a
    variable outside ``reads`` is dropped: a disabled bit the kernel
    stores in a memo entry, or lets a child inherit through ``affects``,
    must be a function of the declared reads alone.

    A disjunctive atom passes in several ways (``path == C1``, or not and
    ``path == C2``, ...), so the tracer keeps one run per way through the
    tree so far and asks every later decision on each: an atom must be
    one, with one failing answer, on all of them, and a branch splits
    every one of them.
    """

    runs_of: Dict[Tuple[bool, ...], _Way] = {}
    state = _SymState(_Run(), names)

    def execute(script: Tuple[bool, ...]) -> _Way:
        """The run under ``script`` (a folded disjunction and the branch
        that replaces it when it does not fold ask for the same ones)."""
        way = runs_of.get(script)
        if way is None:
            way = runs_of[script] = _execute(applier, config, state, script)
        return way

    def extend(ways: List[_Way], answer: bool) -> Optional[List[_Way]]:
        """Each way again, answering its next decision ``answer``; None
        when a run asks its decisions in another order than before.  A
        ``True`` answer is the way's own run going on, unless that run
        stopped right there."""
        runs = []
        for way in ways:
            script = way.script + (answer,)
            n = len(script)
            if answer and n <= len(way.asked) - (way.ended == "more"):
                runs.append(_new(_Way, (script, way.ended, way.asked)))
                continue
            again = execute(script)
            if again.asked[:n] != way.asked[:n]:
                return None
            runs.append(again)
        return runs

    budget = [MAX_TESTS]

    def grow(ways: List[_Way]) -> GuardPrefix:
        """The tree from where ``ways`` stand."""
        atoms: List[Atom] = []
        while budget[0] > 0:
            test = _next_decision(ways)
            if test is None:
                break
            budget[0] -= 1
            passed, failed = extend(ways, True), extend(ways, False)
            if passed is None or failed is None:
                break
            endings = (_ending(passed), _ending(failed))
            if endings == ("none", "none"):
                return GuardPrefix(tuple(atoms), dead=True)
            if endings == ("go", "none"):
                atoms.append(Atom(test, True))
                ways = passed
                continue
            if endings == ("none", "go"):
                atoms.append(Atom(test, False))
                ways = failed
                continue
            if endings != ("go", "go"):
                break
            folded = _disjunction(test, passed, failed, extend) if _equality(test) else None
            if folded is not None:
                test, passed, failed = folded
                if failed is None:
                    atoms.append(Atom(test, True))
                    ways = passed
                    continue
            true, false = grow(passed), grow(failed)
            if true.dead and false.dead:
                return GuardPrefix(tuple(atoms), dead=True)
            if true != NO_PREFIX or false != NO_PREFIX:
                return GuardPrefix(tuple(atoms), branch=Branch(test, true, false))
            break
        return GuardPrefix(tuple(atoms))

    start = execute(())
    if start.end == "none":
        return GuardPrefix((), dead=True)
    return _declared(grow([start]), reads)


def _equality(test: Test, left: Any = None) -> bool:
    """``test`` is ``term == constant`` (on ``left``, when given)."""
    return (
        test.op == "=="
        and isinstance(test.right, Const)
        and (left is None or test.left == left)
    )


def _disjunction(
    test: Test,
    passed: List[_Way],
    failed: List[_Way],
    extend: Callable[[List[_Way], bool], Optional[List[_Way]]],
) -> Optional[Tuple[Test, List[_Way], Optional[List[_Way]]]]:
    """Fold the run of decisions ``term == C1``, ``term == C2``, ... that
    ``term in (C1, C2, ...)`` asks into that one test, as far as every
    ``True`` answer goes on exactly as the first does (the same decisions
    and the same end, every later one answered ``True``; where they part
    later, the tree past the fold ends).  Returns the test, the runs past
    its ``True`` answer and those past its ``False`` one -- None when
    they return None, and the test is an atom.  None when
    fewer than two decisions fold and the last ``False`` goes on: that
    is a branch on ``test`` itself.  ``passed`` / ``failed`` are the runs
    answering ``test``, the first decision, each way."""
    left, first = test.left, passed
    constants: List[Any] = []
    passing: List[_Way] = []
    while True:
        constants.append(test.right.value)
        passing += passed
        if len(passing) > MAX_WAYS:
            return None
        ending = _ending(failed)
        folded = Test("in", left, Const(tuple(constants)))
        if ending == "none":
            return folded, passing, None
        if ending != "go":
            return None
        following = _next_decision(failed)
        if following is None or not _equality(following, left):
            break
        yes, no = extend(failed, True), extend(failed, False)
        if yes is None or no is None:
            break
        if any(way.after() != was.after() for way, was in zip(yes, first)):
            break
        test, passed, failed = following, yes, no
    return (folded, passing, failed) if len(constants) > 1 else None


def all_tests(prefix: GuardPrefix) -> Iterator[Test]:
    """Every test of the tree, a dead node's atoms included, in the
    order a walk down the ``true`` arms first would meet them."""
    for atom in prefix.atoms:
        yield atom.test
    branch = prefix.branch
    if branch is not None:
        yield branch.test
        yield from all_tests(branch.true)
        yield from all_tests(branch.false)


def shape(prefix: GuardPrefix) -> Tuple[int, int]:
    """``(atoms, branches)`` a kernel evaluates for the tree (a dead
    node's atoms are never evaluated)."""
    if prefix.dead:
        return 0, 0
    atoms, branches = len(prefix.atoms), 0
    branch = prefix.branch
    if branch is not None:
        for arm in (branch.true, branch.false):
            more, deeper = shape(arm)
            atoms, branches = atoms + more, branches + deeper
        branches += 1
    return atoms, branches


def _declared(prefix: GuardPrefix, reads: FrozenSet[str]) -> GuardPrefix:
    if all(variables(test) <= reads for test in all_tests(prefix)):
        return prefix
    return NO_PREFIX


def base(term: Any) -> Path:
    """The path a term shifts."""
    while type(term) is Offset:
        term = term.base
    return term


def terms(test: Test) -> Tuple[Any, ...]:
    """The state-derived operands of a test, left first."""
    if test.op == "bool" or isinstance(test.right, Const):
        return (test.left,)
    return (test.left, test.right)


def paths(test: Test) -> Tuple[Path, ...]:
    """The state paths a test dereferences, left operand first."""
    return tuple(base(term) for term in terms(test))


def variables(test: Test) -> FrozenSet[str]:
    return frozenset(path[0] for path in paths(test))


def expression(path: Path, root: str) -> str:
    """Python source for ``path``, ``root`` standing for its variable."""
    return root + "".join(
        f"[{step!r}]" if kind == "[]" else f".{step}" for kind, step in path[1:]
    )


def shifted(term: Any, source: str) -> str:
    """Python source for ``term``, ``source`` standing for its path: the
    offsets as written, never normalised (``x + 1 - 1`` is not ``x`` for
    every value)."""
    if type(term) is Offset:
        return f"{shifted(term.base, source)} {term.op} {term.k}"
    return source


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


def condition(test: Test, answer: bool, left: str, right: str = "") -> str:
    """Python source that is true iff ``test`` answers ``answer``, over
    source for its operands: the left term and the right term or
    constant."""
    if test.op == "bool":
        return left if answer else f"not {left}"
    if test.op == "contains":
        return f"{right} {'in' if answer else 'not in'} {left}"
    if test.op == "in":
        return f"{left} {'in' if answer else 'not in'} {right}"
    if test.op == "==":
        return f"{left} {'==' if answer else '!='} {right}"
    return f"{'' if answer else 'not '}{left} {test.op} {right}"


def _spelled(test: Test, answer: bool) -> str:
    """``test`` answering ``answer``, variable names for roots and
    constants spelled out."""
    operands = [shifted(term, expression(base(term), base(term)[0])) for term in terms(test)]
    if isinstance(test.right, Const):
        operands.append(literal(test.right.value))
    return condition(test, answer, *operands)


def render(prefix: GuardPrefix) -> List[str]:
    """A prefix as lines of pseudo-Python (``--stats``, docs): an atom a
    line, spelled the way it passes; a branch as ``if`` / ``else`` with
    its arms indented; ``False`` for a disabled leaf; ``...`` for an arm
    the tree knows nothing more of."""
    if prefix.dead:
        return ["False"]
    lines = [_spelled(atom.test, atom.passing) for atom in prefix.atoms]
    branch = prefix.branch
    if branch is not None:
        arms = ((f"if {_spelled(branch.test, True)}:", branch.true), ("else:", branch.false))
        for head, arm in arms:
            lines.append(head)
            lines += ["    " + line for line in render(arm) or ["..."]]
    return lines
