"""The unified state-space exploration engine.

:class:`ExplorationEngine` is the scheduler every checking strategy plugs
into; :func:`explore` is its one-call form.

Strategies
----------

``bfs``
    Layered (round-synchronous) breadth-first search.  The visited set
    stores 64-bit fingerprints (:mod:`repro.checker.fingerprint`) instead
    of full states; each visited state is one link in two flat columns
    indexed in discovery order (:class:`Links`: parent index, instance
    index) and counterexamples are rebuilt by replaying the label chain
    from the initial state.  A level waiting to be expanded is flat
    columns too (:class:`Level`), turned back into rows one chunk at a
    time.
``dfs``
    Bounded depth-first search for a quick first violation.

The one seeded model walk is not a strategy:
:class:`~repro.checker.random_walk.RandomWalker` generates the traces a
conformance campaign replays on the code, one :meth:`CompiledSpec.step`
at a time.

Every strategy is one in-process loop that owns its visited-fingerprint
set, and every strategy is deterministic in its arguments: no verdict
depends on scheduling.  Parallelism lives one level up, in the
conformance campaign, whose cells are independent.

One successor path
------------------

Both strategies and the walker obtain successors through
:meth:`CompiledSpec.expand_batch`, which has exactly two things behind it:

- the **generated kernel** (:mod:`repro.tla.codegen`) is what runs:
  each action's guard prefix (:mod:`repro.tla.guards`) evaluated inline,
  so a disabled instance costs a comparison instead of an applier call;
  whole outcomes (verdict, update bindings, fingerprint delta) memoized
  per dependency closure, disabled bits inherited from the parent
  through the ``affects`` interference matrix, invariant and constraint
  verdicts memoized per declared-reads projection, all fused into one
  emitted function, whose classification block is also
  ``CompiledSpec.classify_values`` (this module never builds a memo key);
- the **reference expander** (:meth:`CompiledSpec.reference_expand`) is
  what *defines* the behaviour: ``Specification.successors`` plus a full
  fingerprint -- no memo, no inherited bits, no deltas.

The kernel is sound exactly when the declarations it memoizes on are
truthful -- each action's ``reads`` / ``writes`` / ``update_sources``,
each invariant's ``reads`` and the state constraint's ``.reads``, one list
(:func:`~repro.tla.spec.memoized_declarations`) --
so it is emitted only for specs the static analyzer proves
(:func:`kernel_trusted`); any other spec runs on the reference expander,
loudly (one warning per spec, and ``memo_stats()["mode"] ==
"reference"``).  ``debug=True`` (``--debug-deps``) emits the kernel
regardless and cross-checks every batch it expands against the reference
expander, successors and verdicts both -- the one proof obligation
between the two.  ``reference=True`` pins a run to the reference
expander (the differential arm of the tests and of the
``bench_table5_efficiency.py`` perf gate).

A mask is not a compile input: ``ExplorationEngine(mask=)`` folds it
into the specification once (:func:`~repro.tla.spec.masked`), and
everything below sees only a specification.

A state is a row of small ints
------------------------------

Each :class:`CompiledSpec` numbers the distinct values of every schema
slot once (its *value table*: ``codes[slot]`` maps a value to its code,
``values[slot]`` and ``digests[slot]`` map a code back to the value and
to its :meth:`Fingerprinter.slot_digest
<repro.checker.fingerprint.Fingerprinter.slot_digest>`, ``pairs[slot]``
to the one ``(slot, code)`` tuple every memo entry shares), and the whole
successor path runs on codes: a row is ``(fp, codes, known)``, memo keys
are projections of codes, a fingerprint delta is two list indexings per
changed slot.  Values are decoded only where a function needs them -- an
applier or predicate on a memo miss, a guard-prefix atom, a chosen walk
step, a counterexample.  Codes are local to one compile: they never
reach a report.

The contract is the one the outcome memo already relied on: **equal
values are one value.**  The first representative of an equality class
that a slot sees is the one every later state of that slot decodes to
(``True`` and ``1``, or two equal records, share a code), exactly as a
memo hit has always replayed the value objects the first miss stored.

Also on the hot path: invariants are evaluated once per distinct state,
``State`` objects are only materialized for memo misses and reported
traces, and the cyclic garbage collector is suspended during exploration
(states are immutable; exploration allocates millions of short-lived
tuples that the generational GC would repeatedly scan).
"""

from __future__ import annotations

import gc
import random
import struct
import sys
import threading
import time
import warnings
from array import array
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checker.bundle import Bundle
from repro.checker.fingerprint import Fingerprinter
from repro.checker.result import CheckResult, Violation
from repro.checker.trace import Trace
from repro.tla.guards import NO_PREFIX, GuardPrefix, guard_prefix, render, shape
from repro.tla.spec import Specification, masked, memoized_declarations
from repro.tla.state import State

#: Strategy names accepted by the engine (and the CLI ``--strategy`` flag).
STRATEGIES = ("bfs", "dfs")

#: BFS levels are swept through ``expand_batch`` in chunks of this many
#: rows.  Large enough to amortize batch setup, small enough that budget
#: checks between chunks keep truncated runs from over-expanding far
#: past ``max_states``, and that the one chunk of rows rebuilt from a
#: packed level (:meth:`Level.rows`) stays small.
_KERNEL_CHUNK = 512

#: Lint rules that block kernel emission.  The kernel replays memoized
#: update bindings and verdicts keyed on declared reads, which is sound
#: exactly when those declarations are honest: D01 (reads outside the
#: key), D03 (undeclared writes), D05/D07 (unresolvable / malformed
#: declarations) and the purity rules P01-P04 each break that contract.
#: D02/D04 (over-declaration) and D06 (no declaration at all) are
#: harmless: over-declared keys only widen memo keys, and undeclared
#: functions are evaluated on every state.
_TRUST_BLOCKING = frozenset({"D01", "D03", "D05", "D07", "P01", "P02", "P03", "P04"})

def trust_blocker(spec: Specification) -> str:
    """Why the static analyzer does not prove the declarations a kernel
    for this spec relies on (``""``: it does).

    Runs the static analyzer over every action and every memoized
    predicate of :func:`~repro.tla.spec.memoized_declarations` (an
    action's reads and writes build the interference matrix even without
    a closure) and reports the first
    finding of a trust-critical rule (:data:`_TRUST_BLOCKING`), or the
    analyzer's own exception.  Nothing is cached here: a compile keeps its
    verdict (``CompiledSpec.blocker``), :func:`compiled_for` shares one
    compile per spec, and across processes a loaded compile bundle is the
    verdict.
    """
    schema_names = set(spec.schema.names)
    try:
        from repro.analysis.declarations import check_declaration
        from repro.analysis.deps import SpecAnalyzer

        analyzer = SpecAnalyzer()
        for decl in memoized_declarations(spec):
            if decl.kind != "action" and decl.key is None:
                continue  # evaluated on every state: nothing rests on it
            findings = check_declaration(spec.name, decl, schema_names, analyzer)
            rule = next((f.rule for f in findings if f.rule in _TRUST_BLOCKING), "")
            if rule:
                return f"{decl.kind} {decl.name} fails lint rule {rule}"
    except Exception as error:
        return f"the static analyzer raised {error!r}"
    return ""


def kernel_trusted(spec: Specification, bundle: Optional[Bundle] = None) -> bool:
    """Whether the declarations a kernel for this spec relies on are
    proven, so it may run.

    A loaded compile ``bundle`` *is* the proof (only trusted bundles are
    written, under a key that covers everything the analyzer read);
    without one the analyzer runs (:func:`trust_blocker`).  An untrusted
    verdict is never silent: the first blocking function and rule (or the
    analyzer's own exception) is raised as a ``RuntimeWarning``, once per
    compile, because such a spec runs on the slower reference expander.
    """
    if bundle is not None and bundle.loaded:
        return True
    blocker = trust_blocker(spec)
    if blocker:
        warnings.warn(
            f"spec {spec.name!r} is not kernel-trusted ({blocker}; rule "
            f"catalog: docs/linting.md): running on the slower reference "
            f"expander (--debug-deps emits and cross-checks the kernel anyway)",
            RuntimeWarning,
            stacklevel=2,
        )
    return not blocker


#: A frontier row, the unit ``expand_batch`` consumes: (fingerprint, the
#: state's value codes in the compile's value table, inherited
#: known-disabled bitmask -- the reference expander ignores the last).
Row = Tuple[int, Tuple[int, ...], int]

#: Candidate successor record produced by :meth:`CompiledSpec.expand_batch`:
#: (instance_index, successor_codes, fingerprint, child_known_disabled,
#:  violated_invariant_indices, within_constraint)
Candidate = Tuple[int, Tuple[int, ...], int, int, Tuple[int, ...], bool]


class Links:
    """The states a search reached, one link each, in discovery order.

    State *i* was first reached from state ``parents[i]`` by action
    instance ``actions[i]``: two flat ``array`` columns, a few bytes per
    state instead of a dict entry and a tuple.  The initial states are
    :meth:`root`-ed first, so they own the indices below ``len(inits)``
    and every walk back from a link ends at one of them."""

    __slots__ = ("core", "inits", "parents", "actions")

    def __init__(self, core: "CompiledSpec"):
        self.core = core
        self.inits: List[State] = []
        self.parents = array("I")
        n = core.n_instances
        self.actions = array("B" if n <= 1 << 8 else "H" if n <= 1 << 16 else "I")

    def __len__(self) -> int:
        return len(self.parents)

    def root(self, init: State) -> int:
        """Link an initial state (before any successor); its index."""
        index = len(self.parents)
        assert index == len(self.inits), "initial states are linked first"
        self.inits.append(init)
        self.parents.append(index)
        self.actions.append(0)
        return index

    def trace(self, index: int) -> Trace:
        """The counterexample ending at link ``index``: the label chain
        walked back to its initial state, replayed forward."""
        chain: List[int] = []
        while index >= len(self.inits):
            chain.append(self.actions[index])
            index = self.parents[index]
        chain.reverse()
        core = self.core
        labels = [core.labels[i] for i in chain]
        return Trace(states=core.spec.replay(labels, self.inits[index]), labels=labels)


class Level:
    """One BFS level, stored as flat columns: fingerprints in
    ``array('Q')``, every row's codes in one array of ``len(schema)``
    items per row, known-disabled masks in ``array('Q')`` (a list when
    the spec has more than 64 action instances) and each row's link
    index.  A queued raft state costs ~40 bytes here instead of the ~260
    of an ``(fp, codes, known)`` tuple row.

    The loop that fills a level appends a row's codes as ``pack(*codes)``
    to ``codes``.  The codes column is 16-bit until the value table holds
    a code that needs more (a code indexes ``values[slot]``, so the
    table's size bounds every code); :meth:`fit` widens it, and is called
    after each ``expand_batch`` call, before its candidates are appended.
    :meth:`rows` rebuilds one chunk's rows just before it is expanded,
    so at most one chunk of row objects is alive at a time."""

    __slots__ = ("width", "fps", "codes", "pack", "known", "links")

    def __init__(self, core: "CompiledSpec"):
        self.width = len(core.schema)
        self.fps = array("Q")
        self.codes = array("H")
        self.pack = struct.Struct(f"{self.width}H").pack
        self.known: Any = array("Q") if core.n_instances <= 64 else []
        self.links = array("I")
        self.fit(core.values)

    def __len__(self) -> int:
        return len(self.links)

    def fit(self, values: List[List[Any]]) -> None:
        """Widen the codes column (and ``pack``) if ``values`` outgrew it."""
        n = max(map(len, values), default=0)
        typecode = "H" if n <= 1 << 16 else "I" if n <= 1 << 32 else "Q"
        if typecode != self.codes.typecode:
            self.codes = array(typecode, self.codes)
            self.pack = struct.Struct(f"{self.width}{typecode}").pack

    def rows(self, lo: int, hi: int) -> List[Row]:
        """The ``(fp, codes, known)`` rows ``lo`` up to ``hi``.  Zipping
        ``width`` references to one iterator cuts the codes into row
        tuples in C."""
        width = self.width
        flat = iter(self.codes[lo * width : hi * width])
        return list(zip(self.fps[lo:hi], zip(*[flat] * width), self.known[lo:hi]))


def out_of_time(start: float, max_time: Optional[float]) -> bool:
    """The one wall-clock budget test every strategy loop shares."""
    return max_time is not None and time.monotonic() - start >= max_time


class CompiledSpec:
    """A specification pre-resolved for the exploration hot path.

    :meth:`expand_batch` is the only way successors leave this class.
    Behind it sits the generated kernel -- or, for ``reference=True`` and
    for specs :func:`kernel_trusted` rejects, :meth:`reference_expand`.
    Kernel mode flattens everything the emitted code needs into parallel
    lists indexed by action-instance position: the pre-bound applier
    callables and their guard prefixes, the read/write interference matrix
    ``affects`` (bit *i* of ``affects[j]`` is set when instance *i* reads
    a variable instance *j* writes), and the outcome / invariant memo
    groups.  Reference
    mode builds none of that: no memo of any kind, so it is an
    independent oracle for the memoized path.  Both modes own a value
    table (:meth:`encode` / :meth:`decode`) and speak codes.
    """

    __slots__ = (
        "spec",
        "config",
        "schema",
        "fingerprinter",
        "codes",
        "values",
        "digests",
        "pairs",
        "_mint_lock",
        "labels",
        "appliers",
        "actions",
        "affects",
        "outcome_groups",
        "outcome_memos",
        "outcome_stats",
        "idle_outcomes",
        "shared_changes",
        "shared_masks",
        "guard_prefixes",
        "direct",
        "eager",
        "ungrouped",
        "invariant_fns",
        "inv_groups",
        "inv_memos",
        "inv_ungrouped",
        "constraint_slots",
        "constraint_memo",
        "constraint",
        "n_instances",
        "debug",
        "bundle",
        "signature",
        "blocker",
        "compile",
        "kernel",
        "kernel_source",
        "classify_values",
        "expand_calls",
        "_label_index",
        "_last_adapt",
        "demoted_groups",
    )

    #: Invariant / constraint verdict memo entries kept per
    #: declared-reads projection before reset.
    VERDICT_MEMO_LIMIT = 1 << 18

    #: Outcome memo entries kept per dependency-closure group before
    #: reset (entries hold update tuples, so the cap is tighter than the
    #: bitmask-valued verdict memos).
    OUTCOME_MEMO_LIMIT = 1 << 17

    #: Expansions between adaptive hit-rate sweeps; also the minimum
    #: per-group lookup window before a demotion verdict (small enough to
    #: shed a cold wide group early in a run, large enough that the early
    #: all-miss warmup phase cannot demote a group that is about to get
    #: hot).
    ADAPT_INTERVAL = 1024

    #: Window hit-rate floors.  A *wide* group (closure spanning more than
    #: half the schema -- the PR-5 static heuristic dropped these outright)
    #: must earn its near-unique projection keys with a decent hit rate; a
    #: narrow group's key is cheap, so it is only dropped when essentially
    #: nothing hits.
    ADAPT_WIDE_RATE = 0.10
    ADAPT_NARROW_RATE = 0.02

    def __init__(self, spec: Specification, debug: bool = False, reference: bool = False):
        self.spec = spec
        self.config = spec.config
        self.schema = spec.schema
        self.fingerprinter = Fingerprinter()
        # The value table, one column per slot.  It only grows, and the
        # emitted kernel binds these lists, so they are never replaced.
        slots = range(len(self.schema))
        self.codes: List[Dict[Any, int]] = [{} for _ in slots]
        self.values: List[List[Any]] = [[] for _ in slots]
        self.digests: List[List[int]] = [[] for _ in slots]
        # ``pairs[slot][code] == (slot, code)``: the one copy of a change
        # pair every outcome memo item holds.
        self.pairs: List[List[Tuple[int, int]]] = [[] for _ in slots]
        # `serve` expands one resident compile on several request threads.
        self._mint_lock = threading.Lock()
        self.debug = debug
        instances = spec.action_instances()
        self.n_instances = len(instances)
        self.labels = [inst.label for inst in instances]
        self._label_index = {label: i for i, label in enumerate(self.labels)}
        self.actions = [inst.action for inst in instances]
        self.invariant_fns = [inv.predicate for inv in spec.invariants]
        self.constraint = spec.constraint
        # Reference-mode layout: nothing grouped, nothing memoized.
        self.appliers: List[Callable] = []
        self.affects: List[int] = []
        self.outcome_groups: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        self.guard_prefixes: List[GuardPrefix] = []
        self.direct: Tuple[int, ...] = ()
        self.ungrouped: Tuple[int, ...] = tuple(range(self.n_instances))
        # Invariant groups: (declared-reads slots, invariant indices).
        self.inv_groups: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        self.inv_ungrouped: Tuple[int, ...] = tuple(range(len(self.invariant_fns)))
        # The constraint's declared-reads slots (None: evaluated on every
        # state, never memoized).
        self.constraint_slots: Optional[Tuple[int, ...]] = None
        self.constraint_memo: dict = {}
        self.kernel: Optional[Callable] = None
        self.kernel_source: Optional[str] = None
        #: ``classify_values(codes, state=None)``: :meth:`verdicts`, or in
        #: kernel mode the kernel's emitted ``_classify``, which memoizes.
        self.classify_values = self.verdicts
        # What an earlier process derived for exactly this compile, from
        # the on-disk cache (None: persistence off, or a compile no key
        # can name).  The reference expander derives nothing.  The key it
        # is found under stays in ``signature`` (repro.checker.bundle.signature).
        self.signature: Optional[str] = None
        self.bundle = None if reference else Bundle.open(self)
        #: ``"loaded"`` when the kernel's code object came from the bundle.
        self.compile = "fresh"
        #: This compile's trust verdict: why the analyzer does not prove
        #: the spec's declarations, ``""`` when it does -- or when nobody
        #: asked (``reference=True``; ``debug=True``, whose per-batch
        #: cross-check *is* the trust decision and which emits the kernel
        #: whatever the analyzer says).
        self.blocker = ""
        compiled = not reference
        if compiled and not debug and not kernel_trusted(spec, self.bundle):
            # The rare path (no shipped composition takes it): ask once
            # more for the reason kernel_trusted() warned about.
            self.blocker = trust_blocker(spec)
            compiled = False
        if compiled:
            self._analyze(instances)
        # Memo telemetry (--stats): per-group [misses, skipped,
        # window_lookups, window_misses] cells (the last two are the
        # adaptive monitor's snapshot).  Lookups are derived -- every
        # expansion either looks a live group up or skips it because all
        # its members are known disabled, so lookups(group) ==
        # expand_calls - skipped and only the miss and skip branches pay
        # an increment.
        self.expand_calls = 0
        self._last_adapt = 0
        self.outcome_memos: List[dict] = [{} for _ in self.outcome_groups]
        self.outcome_stats: List[List[int]] = [
            [0, 0, 0, 0] for _ in self.outcome_groups
        ]
        self.inv_memos: List[dict] = [{} for _ in self.inv_groups]
        # What outcome memo entries share, across every group, every
        # demotion re-emit and every request thread (store_outcome):
        # the entry of a miss with no enabled change, ``gd -> (gd,)``;
        # each change tuple, and each item of a wide group (one dict:
        # their shapes never compare equal); each mask of an entry with
        # changes.
        self.idle_outcomes: Dict[int, Tuple[int]] = {}
        self.shared_changes: Dict[tuple, tuple] = {}
        self.shared_masks: Dict[int, int] = {}
        self.demoted_groups: List[dict] = []
        # Instances evaluated on every state they are not proven disabled
        # in: demoted-group instances (skippable via inherited disabled
        # bits) plus undeclared-reads instances (never skippable).
        self.eager = self.direct + self.ungrouped
        if compiled:
            self._emit_kernel()
            self._persist()

    def _persist(self) -> None:
        """Write back what this compile had to derive, and let go of the
        bundle: a demotion re-emit is an in-process layout nobody stores.
        Only a trusted spec is ever written -- the debug lane, which did
        not need the verdict to run, asks for it here."""
        bundle, self.bundle = self.bundle, None
        if bundle is None:
            return
        if not bundle.dirty:
            self.compile = "loaded"
        elif bundle.loaded or not self.debug or not trust_blocker(self.spec):
            bundle.save()

    def _analyze(self, instances: list) -> None:
        """Kernel-mode layout: pre-bound appliers, the interference
        matrix, and the outcome / invariant / constraint memo groups the
        emitted code is specialized on."""
        spec = self.spec
        positions = spec.schema.positions
        self.appliers = [
            partial(inst.action.fn, **dict(inst.binding))
            if inst.binding
            else inst.action.fn
            for inst in instances
        ]
        # Guard prefixes: the comparisons each applier opens with, which
        # the kernel evaluates inline before it would call the applier.
        # They are a pure function of source and config, so a loaded
        # bundle already holds them.
        bundle = self.bundle
        if bundle is not None and bundle.guard_prefixes is not None:
            self.guard_prefixes = bundle.guard_prefixes
        else:
            variables = spec.schema._index
            self.guard_prefixes = [
                guard_prefix(applier, spec.config, variables, inst.action.reads)
                for applier, inst in zip(self.appliers, instances)
            ]
            if bundle is not None:
                bundle.guard_prefixes = self.guard_prefixes
        reads = [inst.action.reads for inst in instances]
        writes = [inst.action.writes for inst in instances]
        # An action with no declared reads has an *unknown* guard
        # dependency set (the Action API default), not an empty one: it
        # must be re-evaluated in every state, so every writer "affects"
        # it.
        undeclared = 0
        readers: Dict[str, int] = {}  # variable -> the instances reading it
        for i, read_set in enumerate(reads):
            if not read_set:
                undeclared |= 1 << i
            for name in read_set:
                readers[name] = readers.get(name, 0) | 1 << i
        for write_set in writes:
            bits = undeclared
            for name in write_set:
                bits |= readers.get(name, 0)
            self.affects.append(bits)
        # Outcome memoization, by dependency *closure* (Action.
        # dependency_closure: reads | writes | update_sources).  The
        # closure determines the function's entire outcome -- the
        # enabled/disabled verdict and every update value -- so the memo
        # stores, per projection of the state onto the closure, the full
        # per-instance outcome vector: the group's disabled bitmask plus
        # the (slot, new-value) changes and fingerprint delta of the
        # enabled members.  A state whose closure projection was seen
        # before (in particular: a child whose projection the parent's
        # action left untouched) inherits the verdict and the memoized
        # update bindings without re-evaluating anything, turning the
        # per-state guard sweep from O(actions) into O(affected actions).
        # Every declared-closure instance starts memoized, however wide
        # the closure: the adaptive hit-rate monitor (_adapt) demotes
        # groups whose projections turn out near-unique at runtime.
        #
        # Invariant and constraint verdicts are memoized by their declared
        # reads (``Invariant.reads`` / ``fn.reads``).  Both are pure state
        # predicates, so both outcomes are cacheable per projection: the
        # epoch constraint reads only ``accepted_epoch`` (``errors`` too
        # once the ZK-4394 mask is folded in), so its verdict replays
        # from a narrow projection instead of building a State per
        # candidate.  Predicates without (resolvable) declarations
        # are evaluated on every state.  Which function is keyed on what
        # is memoized_declarations()'s answer, the one trust proves.
        decls = memoized_declarations(spec)
        closures = {id(d.source): d.key for d in decls if d.kind == "action"}
        by_closure: Dict[Tuple[int, ...], List[int]] = {}
        ungrouped: List[int] = []
        for i, inst in enumerate(instances):
            closure = closures[id(inst.action)]
            if closure is None:
                ungrouped.append(i)  # unread guard: never memoized
                continue
            by_closure.setdefault(positions(closure), []).append(i)
        self.outcome_groups = [
            (slots, tuple(members)) for slots, members in by_closure.items()
        ]
        self.ungrouped = tuple(ungrouped)
        by_inv_reads: Dict[Tuple[int, ...], List[int]] = {}
        inv_ungrouped: List[int] = []
        for i, decl in enumerate(d for d in decls if d.kind == "invariant"):
            if decl.key is None:
                inv_ungrouped.append(i)
            else:
                by_inv_reads.setdefault(positions(decl.key), []).append(i)
        self.inv_groups = [
            (slots, tuple(group_members)) for slots, group_members in by_inv_reads.items()
        ]
        self.inv_ungrouped = tuple(inv_ungrouped)
        for decl in decls:
            if decl.kind == "constraint" and decl.key is not None:
                self.constraint_slots = positions(decl.key)

    def _emit_kernel(self) -> None:
        """(Re-)emit the batch kernel for the current group layout.

        Called at compose time and again after adaptive demotion; the
        emitted code binds the *current* memo dicts and stats cells, so
        surviving groups keep their warm memos across re-emission.
        """
        from repro.tla.codegen import emit_kernel

        self.kernel_source, self.kernel, self.classify_values = emit_kernel(self)

    # ------------------------------------------------------ value table

    def mint(self, slot: int, value: Any) -> int:
        """The code of ``value`` in ``slot``, numbering it if it is new.

        Callers try ``codes[slot].get(value)`` first; this is the miss
        path.  Minting is check-then-act on shared lists, so it runs under
        one lock and re-checks inside it: two threads expanding the same
        resident compile must never hand out one code for two values.
        The digest, the change pair and the value are appended before the
        code is published, so a lock-free reader that finds a code can
        index all three."""
        with self._mint_lock:
            codes = self.codes[slot]
            code = codes.get(value)
            if code is None:
                values = self.values[slot]
                code = len(values)
                self.digests[slot].append(self.fingerprinter.slot_digest(slot, value))
                self.pairs[slot].append((slot, code))
                values.append(value)
                codes[value] = code
            return code

    def store_outcome(self, memo: dict, key: Any, items: List[tuple], gd: int) -> None:
        """File a miss's outcome in its group's memo: ``(item0, ...,
        gd)`` with the mask shared, or the one shared ``(gd,)`` when no
        member had a change.  ``setdefault`` keeps each shared object one
        even when two request threads miss on one mask at once (a race
        could only ever lose sharing, never correctness).

        A memo that reaches :attr:`OUTCOME_MEMO_LIMIT` is reset, and with
        it the shared dicts, so they never hold more than what the memos
        filed since."""
        if len(memo) >= self.OUTCOME_MEMO_LIMIT:
            memo.clear()
            self.idle_outcomes.clear()
            self.shared_changes.clear()
            self.shared_masks.clear()
        if items:
            items.append(self.shared_masks.setdefault(gd, gd))
            memo[key] = tuple(items)
        else:
            memo[key] = self.idle_outcomes.setdefault(gd, (gd,))

    def encode(self, values: Sequence[Any]) -> Tuple[int, ...]:
        """A values tuple as a row of codes (minting what is new)."""
        out = []
        for slot, (codes, value) in enumerate(zip(self.codes, values)):
            code = codes.get(value)
            if code is None:
                code = self.mint(slot, value)
            out.append(code)
        return tuple(out)

    def row(self, values: Sequence[Any]) -> Tuple[int, Tuple[int, ...]]:
        """``(fp, codes)`` of a values tuple: the one way a state enters
        the successor path.  The fingerprint is the XOR of the table's
        digests, so a value is hashed once per compile, when it is
        minted."""
        codes = self.encode(values)
        fp = 0
        for column, code in zip(self.digests, codes):
            fp ^= column[code]
        return fp, codes

    def decode(self, codes: Sequence[int]) -> Tuple[Any, ...]:
        """The values tuple a row of codes stands for."""
        return tuple([column[code] for column, code in zip(self.values, codes)])

    def step(
        self,
        codes: Tuple[int, ...],
        state_fp: int,
        known_disabled: int,
        rng: random.Random,
    ):
        """One walk step; its caller is :class:`~repro.checker.random_walk.RandomWalker`.

        Expands with ``seen=None`` -- every state-changing successor, in
        instance order, exactly the distribution
        ``Specification.successors`` enumerates (and one ``rng.choice``
        consuming the same entropy) -- and returns
        ``(instance_index, codes, fp, known_disabled)`` for the chosen
        successor, or ``None`` in a dead end.  The caller decodes the
        chosen successor if it needs a ``State``.
        """
        ((_, _, candidates),) = self.expand_batch(
            [(state_fp, codes, known_disabled)], classify_candidates=False
        )
        if not candidates:
            return None
        return rng.choice(candidates)[:4]

    # ------------------------------------------------- the successor path

    def expand_batch(
        self,
        rows: Sequence[Row],
        seen: Optional[set] = None,
        classify_candidates: bool = True,
    ) -> List[Tuple[int, int, List[Candidate]]]:
        """Expand a whole frontier batch: the engine's one successor path.

        ``rows`` are ``(fp, codes, known_disabled)`` frontier entries --
        a BFS chunk or a single DFS pop / walk step.
        Returns ``[(entry_fp, transitions, candidates), ...]`` in entry
        order.  ``transitions`` counts every state-changing successor
        (including already-seen ones).  ``seen`` is the caller's
        fingerprint set; candidate fingerprints are added to it, so every
        candidate returned is new to it.
        ``seen=None`` emits every state-changing successor exactly in
        instance order -- the walker uses it to draw from the full
        successor distribution.  Successors are rows of codes; decoding
        one is the caller's choice.
        """
        self.expand_calls += len(rows)
        kernel = self.kernel
        if kernel is None:
            return [
                (fp,) + self.reference_expand(codes, seen, classify_candidates)
                for fp, codes, _ in rows
            ]
        if self.expand_calls - self._last_adapt >= self.ADAPT_INTERVAL:
            self._adapt()
            kernel = self.kernel  # demotion re-emits
        if self.debug:
            self._debug_check_batch(kernel, rows)
        return kernel(rows, seen, classify_candidates)

    def reference_expand(
        self,
        codes: Tuple[int, ...],
        seen: Optional[set] = None,
        classify_candidates: bool = True,
    ) -> Tuple[int, List[Candidate]]:
        """The reference expander: ``Specification.successors`` plus a
        fingerprint, and nothing else.

        Deliberately naive -- every instance is applied to every state,
        every successor is fingerprinted in full (:meth:`row`: the XOR
        of every slot's digest), no verdict is inherited
        or memoized -- because it is the definition the kernel is checked
        against (``--debug-deps``, the differential tests) and the path a
        spec with unproven declarations runs on.  The row is decoded on
        the way in and each successor encoded on the way out.  Returns
        ``(transitions, candidates)`` with ``known_disabled`` always 0.
        """
        index_of = self._label_index
        transitions = 0
        candidates: List[Candidate] = []
        state = State(self.schema, self.decode(codes))
        for label, nxt in self.spec.successors(state):
            transitions += 1
            fp, successor = self.row(nxt.values)
            if seen is not None:
                if fp in seen:
                    continue
                seen.add(fp)
            if classify_candidates:
                viols, ok = self.verdicts(successor, nxt)
            else:
                viols, ok = (), True
            candidates.append((index_of[label], successor, fp, 0, viols, ok))
        return transitions, candidates

    def verdicts(
        self, codes: Tuple[int, ...], state: Optional[State] = None
    ) -> Tuple[Tuple[int, ...], bool]:
        """(violated invariant indices, within constraint) of a row of
        codes, by evaluating every invariant and the constraint on its
        state (the caller's, or the decoded row): the definition the
        kernel's memoized classification must reproduce."""
        if state is None:
            state = State(self.schema, self.decode(codes))
        config = self.config
        viols = tuple(i for i, fn in enumerate(self.invariant_fns) if not fn(config, state))
        return viols, self.constraint is None or bool(self.constraint(config, state))

    def _debug_check_batch(self, kernel: Callable, rows: Sequence[Row]) -> None:
        """Debug mode: cross-check the kernel against the reference
        expander on every entry, so a lying declaration that poisons a
        kernel memo entry -- or wrongly inherits a known-disabled bit --
        is caught at the first state it mis-expands or misjudges.  Both
        sides speak this compile's codes, so equal successors are equal
        rows; the reference side's verdicts are :meth:`verdicts`, never
        the memos under test."""
        for (_, codes, _), (_, _, got) in zip(rows, kernel(rows, None, True)):
            _, want = self.reference_expand(codes)
            if [c[:3] for c in got] == [c[:3] for c in want]:
                for mine, truth in zip(got, want):
                    if mine[4:] != truth[4:]:
                        raise self._verdict_error(mine[1], mine[4:], truth[4:])
                continue
            got_by = {c[0]: (self.decode(c[1]), c[2]) for c in got}
            want_by = {c[0]: (self.decode(c[1]), c[2]) for c in want}
            idx = min(
                i
                for i in got_by.keys() | want_by.keys()
                if got_by.get(i) != want_by.get(i)
            )
            action = self.actions[idx]
            sources = {k: sorted(v) for k, v in action.update_sources.items()}
            raise AssertionError(
                f"action {self.labels[idx]} violated its dependency "
                f"declaration (reads={sorted(action.reads)}, "
                f"writes={sorted(action.writes)}, update_sources={sources}): "
                f"on state {State(self.schema, self.decode(codes))!r} the kernel produced "
                f"{got_by.get(idx)!r} but the reference expander produced "
                f"{want_by.get(idx)!r} (successor values, fingerprint; None "
                f"= not enabled)"
            )

    def _verdict_error(self, codes: Tuple[int, ...], got: tuple, want: tuple) -> AssertionError:
        """Name the predicate whose memoized verdict (``got``) differs
        from evaluating it (``want``): only a memo keyed on a lying
        ``reads`` can make them differ."""
        kind = "invariant" if got[0] != want[0] else "constraint"
        decls = [d for d in memoized_declarations(self.spec) if d.kind == kind]
        decl = decls[min(set(got[0]) ^ set(want[0]))] if kind == "invariant" else decls[0]
        return AssertionError(
            f"{decl.kind} {decl.name} violated its reads declaration "
            f"(reads={sorted(decl.reads)}): on state "
            f"{State(self.schema, self.decode(codes))!r} the kernel judged "
            f"{got!r} but evaluating it gives {want!r} (violated invariant "
            f"indices, within constraint)"
        )

    # ------------------------------------------------ adaptive memoing

    def _adapt(self) -> None:
        """Demote outcome groups whose memo went cold over the last
        window.  Purely a performance decision: demoted members move to
        the eager sweep, whose per-state evaluation produces identical
        results -- so adaptation can never change what is explored."""
        self._last_adapt = self.expand_calls
        calls = self.expand_calls
        wide = len(self.schema) // 2
        demote: List[int] = []
        for gi, cell in enumerate(self.outcome_stats):
            misses, skipped, last_lookups, last_misses = cell
            lookups = calls - skipped
            window = lookups - last_lookups
            if window < self.ADAPT_INTERVAL:
                continue
            window_hits = window - (misses - last_misses)
            rate = window_hits / window
            slots = self.outcome_groups[gi][0]
            floor = self.ADAPT_WIDE_RATE if len(slots) > wide else self.ADAPT_NARROW_RATE
            if rate < floor:
                demote.append(gi)
            else:
                cell[2] = lookups
                cell[3] = misses
        if demote:
            self._demote(demote)

    def _demote(self, group_indices: Sequence[int]) -> None:
        """Move cold outcome groups to the eager sweep, where inherited
        disabled bits are the members' only skip."""
        drop = set(group_indices)
        keep_groups, keep_memos, keep_stats = [], [], []
        demoted_members: List[int] = []
        for gi, (slots, members) in enumerate(self.outcome_groups):
            if gi not in drop:
                keep_groups.append(self.outcome_groups[gi])
                keep_memos.append(self.outcome_memos[gi])
                keep_stats.append(self.outcome_stats[gi])
                continue
            self.demoted_groups.append(
                self._group_row(slots, members, self.outcome_stats[gi])
            )
            demoted_members.extend(members)
        self.outcome_groups = keep_groups
        self.outcome_memos = keep_memos
        self.outcome_stats = keep_stats
        self.direct = self.direct + tuple(sorted(demoted_members))
        self.eager = self.direct + self.ungrouped
        self._emit_kernel()

    def _group_row(self, slots: Sequence[int], members: Sequence[int], cell: List[int]) -> dict:
        """One outcome group's counters: the lookups that happened, their
        hits, and the expansions that skipped the group because every
        member was already known disabled."""
        names = self.schema.names
        misses, skipped = cell[0], cell[1]
        lookups = self.expand_calls - skipped
        return {
            "vars": [names[s] for s in slots],
            "members": len(members),
            "lookups": lookups,
            "hits": lookups - misses,
            "skipped": skipped,
        }

    def memo_stats(self) -> dict:
        """Per-action-group memo telemetry for ``--stats``."""
        compiled = self.kernel is not None
        groups = []
        counted: set = set()
        for (slots, members), cell, memo in zip(
            self.outcome_groups, self.outcome_stats, self.outcome_memos
        ):
            row = self._group_row(slots, members, cell)
            row["hit_rate"] = (
                round(row["hits"] / row["lookups"], 4) if row["lookups"] else None
            )
            row["entries"] = len(memo)
            row["bytes"] = _footprint(memo, counted)
            groups.append(row)
        # Per action name, the first instance's prefix tree: "why is this
        # action never filtered" without reading emitted code.
        rendered: Dict[str, List[str]] = {}
        for action, prefix in zip(self.actions, self.guard_prefixes):
            if action.name not in rendered:
                rendered[action.name] = render(prefix)
        live = [prefix for prefix in self.guard_prefixes if not prefix.dead]
        shapes = [shape(prefix) for prefix in live]
        # How many distinct values each variable has taken so far.
        sizes = sorted(
            ((len(column), name) for name, column in zip(self.schema.names, self.values)),
            key=lambda size: (-size[0], size[1]),
        )

        stats = {
            "mode": "compiled" if compiled else "reference",
            "expand_calls": self.expand_calls,
            "eager_instances": len(self.eager),
            "outcome_groups": groups,
            "guard_prefixes": {
                "instances": len(self.guard_prefixes),
                "with_prefix": sum(1 for prefix in live if prefix != NO_PREFIX),
                "atoms": sum(atoms for atoms, _branches in shapes),
                "branches": sum(branches for _atoms, branches in shapes),
                "dead": len(self.guard_prefixes) - len(live),
                "actions": rendered,
            },
            "guard_groups": [],  # no such tier; bench/passes.py iterates the key
            "demoted_groups": list(self.demoted_groups),
            "constraint_memo_entries": (
                None if self.constraint_slots is None else len(self.constraint_memo)
            ),
            "values": {
                "codes": sum(size for size, _ in sizes),
                "largest": [[name, size] for size, name in sizes[:3]],
            },
        }
        if compiled:
            from repro.tla.codegen import CODEGEN_VERSION

            stats["codegen_version"] = CODEGEN_VERSION
            stats["compile"] = self.compile
        else:
            # Why there is no kernel: pinned by the caller, or the first
            # blocking lint finding kernel_trusted() warned about.
            stats["untrusted"] = self.blocker or None
        return stats


def _footprint(memo: dict, counted: set) -> int:
    """Bytes of an outcome memo: its table, its keys and its entries down
    to the ints.  What entries share -- a bare-code key, an item (a wide
    group's), its change tuple and pairs, a mask, an idle ``(gd,)`` -- is
    charged once per :meth:`CompiledSpec.memo_stats` call (``counted``
    holds their ids; a packed key and an entry tuple are one object per
    entry, charged as met)."""
    size = sys.getsizeof

    def once(obj: Any) -> int:
        if id(obj) in counted:
            return 0
        counted.add(id(obj))
        return size(obj) + (sum(once(part) for part in obj) if type(obj) is tuple else 0)

    total = size(memo)
    for key, entry in memo.items():
        total += once(key) if type(key) is int else size(key)
        if len(entry) == 1:
            total += once(entry)
            continue
        total += size(entry) + sum(once(part) for part in entry)
    return total


def compiled_for(
    spec: Specification, debug: bool = False, reference: bool = False
) -> CompiledSpec:
    """The compiled form of a specification, cached on the spec.

    The default configuration (no debug, no reference pin) is compiled
    once per :class:`Specification` instance and shared by every
    consumer -- engine runs, the walker, the conformance campaign's
    suffix replays -- so the interference matrix and the generated kernel
    are built once and the outcome memos stay warm across calls.
    Campaign workers fork after the parent pre-warms the cache and
    inherit the compiled core (kernel included) by memory image.  Either
    pin bypasses the cache; a masked spec (:func:`~repro.tla.spec.masked`)
    is a spec of its own, with its own cached compile.
    """
    if not debug and not reference:
        core = getattr(spec, "_compiled_core", None)
        if core is None:
            core = CompiledSpec(spec)
            spec._compiled_core = core
        return core
    return CompiledSpec(spec, debug=debug, reference=reference)


class ExplorationEngine:
    """Scheduler for explicit-state exploration strategies.

    Parameters
    ----------
    spec:
        The specification to check.
    strategy:
        One of ``"bfs"``, ``"dfs"``.
    max_states / max_time / max_depth / violation_limit / stop_at_first:
        The familiar budgets, with the seed checker's semantics.  Every
        strategy tests ``max_time`` the same way (:func:`out_of_time`,
        ``elapsed >= max_time``), so ``max_time=0`` expands nothing.
        Both report at most ``max_states`` states, none deeper than
        ``max_depth`` (``max_depth=0``: the initial states, unexpanded).
    mask:
        States to neither report nor explore (the ZK-4394 mask of §4.1).
        Folded into the spec once, here (:func:`~repro.tla.spec.masked`);
        a ``Violation`` still names the spec's own ``Invariant``.
    workers, dedupe:
        Accepted for the benchmark harness only and stored nowhere: every
        run is one in-process loop whatever ``workers`` says, and
        ``dedupe`` may only be ``"rounds"`` (anything else is a
        ``ValueError``).  The benchmark change of ROADMAP item 8 drops
        both.
    debug:
        ``--debug-deps``: emit the kernel even for a spec the static
        analyzer does not trust and cross-check every batch it expands
        against the reference expander and direct predicate evaluation
        (slow; an untruthful declaration -- an action's
        ``reads``/``writes``/``update_sources``, the ``reads`` of an
        invariant or the constraint, the mask's folded into both --
        raises ``AssertionError`` naming the function).
    reference:
        Run on the reference expander instead of the generated kernel
        (no memo of any kind; the differential arm of tests and
        benchmarks).  Enumeration is bitwise identical either way.
    """

    def __init__(
        self,
        spec: Specification,
        strategy: str = "bfs",
        workers: int = 1,
        max_states: Optional[int] = None,
        max_time: Optional[float] = None,
        max_depth: Optional[int] = None,
        violation_limit: int = 10_000,
        stop_at_first: bool = True,
        mask: Optional[Callable[[State], bool]] = None,
        dedupe: str = "rounds",
        debug: bool = False,
        reference: bool = False,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; options: {list(STRATEGIES)}"
            )
        # Leftovers of the deleted parallel BFS stay only because bench/ is
        # read-only outside a benchmark change: ``workers`` and ``dedupe``
        # (accepted, stored nowhere; bench/probes.py:parallel_probe passes
        # both) and checker/visited.py (its only caller is visited_probe).
        # The benchmark change of ROADMAP item 8 drops them and the rows.
        if dedupe != "rounds":
            raise ValueError(
                f"unknown dedupe mode {dedupe!r}: PR 21 removed every mode "
                f"but 'rounds' (the shared-memory table and --dedupe are gone)"
            )
        self.spec = spec
        self.strategy = strategy
        self.max_states = max_states
        self.max_time = max_time
        self.max_depth = max_depth
        self.violation_limit = violation_limit
        self.stop_at_first = stop_at_first
        #: What the strategies check: ``spec``, with ``mask`` folded in.
        self.checked = spec if mask is None else masked(spec, mask)
        self.debug = debug
        self.reference = reference
        #: The compiled core of the last run (memo/kernel telemetry for
        #: ``--stats``).
        self.core: Optional[CompiledSpec] = None

    def run(self) -> CheckResult:
        was_collecting = gc.isenabled()
        gc.disable()
        try:
            if self.strategy == "bfs":
                return self._run_bfs()
            return self._run_dfs()
        finally:
            if was_collecting:
                gc.enable()

    def _compile(self) -> CompiledSpec:
        self.core = compiled_for(self.checked, debug=self.debug, reference=self.reference)
        return self.core

    def _record(
        self, result: CheckResult, viols: Sequence[int], trace_of: Callable[[], Trace]
    ) -> bool:
        """Report a state's violated invariants, one ``Violation`` each;
        True when the run must stop (``stop_at_first``, or the
        ``violation_limit`` reached -- which is recorded as the exhausted
        budget).  Every strategy records through here, so they agree on
        both, and none expands a violating state."""
        for i in viols:
            result.violations.append(
                Violation(invariant=self.spec.invariants[i], trace=trace_of())
            )
            if self.stop_at_first:
                return True
            if len(result.violations) >= self.violation_limit:
                result.budget_exhausted = "violation_limit"
                return True
        return False

    @staticmethod
    def _finish(result: CheckResult, exhausted: bool, pruned: bool) -> None:
        """Set ``completed``: the search ran out of states with no budget
        stopping it.  A run that left states unexpanded at ``max_depth``
        has not seen the whole space, so it is not ``completed`` either,
        and ``max_depth`` is the budget it reports -- unless another
        budget stopped it first."""
        if exhausted and pruned and result.budget_exhausted is None:
            result.budget_exhausted = "max_depth"
        result.completed = exhausted and result.budget_exhausted is None

    # ------------------------------------------------------------- BFS

    def _run_bfs(self) -> CheckResult:
        core = self._compile()
        spec = self.spec
        result = CheckResult(spec_name=spec.name)
        start = time.monotonic()
        max_depth = self.max_depth
        # The link index of the last state the max_states budget admits.
        last = sys.maxsize if self.max_states is None else self.max_states - 1

        links = Links(core)
        parents_append = links.parents.append
        actions_append = links.actions.append
        # Every fingerprint visited so far.  The kernel adds a successor's
        # as it emits it, so every candidate it returns is new.
        seen: set = set()
        stop = False  # a violation or a budget ended the run
        pruned = False  # a state left unexpanded because of max_depth

        def record(index: int, viols: Sequence[int]) -> bool:
            return self._record(result, viols, lambda: links.trace(index))

        # Level 0: the initial states, each encoded once and linked while
        # the max_states budget lasts.  States that only transit a level
        # never materialize a State.
        level = Level(core)
        for init in spec.initial_states():
            if len(links) > last:  # max_states=0 admits no state
                result.budget_exhausted = "max_states"
                stop = True
                break
            fp, codes = core.row(init.values)
            if fp in seen:
                continue
            seen.add(fp)
            index = links.root(init)
            viols, ok = core.classify_values(codes, init)
            if viols:
                stop = record(index, viols)
            elif ok:
                if max_depth is None or max_depth > 0:
                    level.fit(core.values)
                    level.fps.append(fp)
                    level.codes.frombytes(level.pack(*codes))
                    level.known.append(0)
                    level.links.append(index)
                else:
                    pruned = True
            if not stop and index >= last:
                result.budget_exhausted = "max_states"
                stop = True
            if stop:
                break

        depth = 0
        while len(level) and not stop:
            depth += 1
            expandable = max_depth is None or depth < max_depth
            below = Level(core)
            fps_append = below.fps.append
            known_append = below.known.append
            links_append = below.links.append
            level_links = level.links
            index = first = len(links)
            transitions = 0
            # Sweep the level in fixed-size chunks, so a budget that stops
            # the run mid-level (max_states, max_time, a violation) leaves
            # the chunks after it unexpanded.
            for lo in range(0, len(level), _KERNEL_CHUNK):
                if out_of_time(start, self.max_time):
                    result.budget_exhausted = "max_time"
                    stop = True
                    break
                hi = min(lo + _KERNEL_CHUNK, len(level))
                batch = core.expand_batch(level.rows(lo, hi), seen)
                below.fit(core.values)
                pack, put_codes = below.pack, below.codes.frombytes
                for parent, (_, n, candidates) in zip(level_links[lo:hi], batch):
                    transitions += n
                    for idx, codes, fp, known, viols, ok in candidates:
                        parents_append(parent)
                        actions_append(idx)
                        if viols:
                            if record(index, viols):
                                stop = True
                                break
                        elif ok:
                            if expandable:
                                fps_append(fp)
                                put_codes(pack(*codes))
                                known_append(known)
                                links_append(index)
                            else:
                                pruned = True
                        if index >= last:
                            result.budget_exhausted = "max_states"
                            stop = True
                            break
                        index += 1
                    if stop:
                        break
                if stop:
                    break
                # The next chunk's rows and candidates must not meet these.
                del batch
            result.transitions += transitions
            if len(links) > first:
                result.max_depth = depth
            level = below

        result.states_explored = len(links)
        result.elapsed_seconds = time.monotonic() - start
        self._finish(result, exhausted=not len(level) and not stop, pruned=pruned)
        return result

    # ------------------------------------------------------------- DFS

    def _run_dfs(self) -> CheckResult:
        core = self._compile()
        spec = self.spec
        result = CheckResult(spec_name=spec.name)
        start = time.monotonic()
        max_depth = self.max_depth if self.max_depth is not None else 40
        visited: set = set()
        throwaway: set = set()

        # Stack entries: (codes, fp, link index, depth, known_disabled).
        # Every push appends one link, so a pushed-but-pruned candidate
        # costs a few bytes and never materializes a State or a label
        # chain: labels are rebuilt only for a recorded violation.
        links = Links(core)
        stack: List[Tuple[Tuple[int, ...], int, int, int, int]] = []
        for init in spec.initial_states():
            fp, codes = core.row(init.values)
            stack.append((codes, fp, links.root(init), 0, 0))
        parents_append = links.parents.append
        actions_append = links.actions.append

        stop = False
        pruned = False  # a state left unexpanded because of max_depth
        while stack and not stop:
            if self.max_states is not None and len(visited) >= self.max_states:
                result.budget_exhausted = "max_states"
                break
            if out_of_time(start, self.max_time):
                result.budget_exhausted = "max_time"
                break
            codes, fp, index, depth, known = stack.pop()
            if fp in visited:
                continue
            visited.add(fp)
            if depth > result.max_depth:
                result.max_depth = depth
            viols, ok = core.classify_values(codes)
            if viols:
                trace = links.trace(index)
                stop = self._record(result, viols, lambda: trace)
                continue
            if not ok:
                continue
            if depth >= max_depth:
                pruned = True
                continue
            throwaway.clear()
            ((_, transitions, candidates),) = core.expand_batch(
                [(fp, codes, known)], throwaway, classify_candidates=False
            )
            result.transitions += transitions
            child_depth = depth + 1
            for idx, successor, nfp, nknown, _, _ in candidates:
                if nfp not in visited:
                    stack.append((successor, nfp, len(links.parents), child_depth, nknown))
                    parents_append(index)
                    actions_append(idx)

        result.states_explored = len(visited)
        result.elapsed_seconds = time.monotonic() - start
        self._finish(result, exhausted=not stack and not stop, pruned=pruned)
        return result


def explore(spec: Specification, **kwargs: Any) -> CheckResult:
    """Convenience wrapper: ``explore(spec, strategy=..., max_states=...)``."""
    return ExplorationEngine(spec, **kwargs).run()
