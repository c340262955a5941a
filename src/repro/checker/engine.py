"""The unified state-space exploration engine.

:class:`ExplorationEngine` is the scheduler every checking strategy plugs
into; :func:`explore` is its one-call form.

Strategies
----------

``bfs``
    Layered (round-synchronous) breadth-first search.  The visited set
    stores 64-bit fingerprints (:mod:`repro.checker.fingerprint`) instead
    of full states; parent links are kept per fingerprint as compact
    ``fp -> (parent_fp, instance_index)`` integers and counterexamples are
    rebuilt by replaying the label chain from the initial state.  With
    ``workers > 1`` each round's frontier is sharded across forked worker
    processes (:mod:`repro.checker.parallel`) and the newly discovered
    fingerprints are merged between rounds; results are bitwise identical
    to the sequential run on deterministic budgets.
``dfs``
    Bounded depth-first search for a quick first violation (one
    in-process loop; ``workers`` does not apply).
``random``
    Seeded random walks that check invariants along the way.

There is one dedupe discipline: a strategy owns its visited-fingerprint
set, and parallel BFS workers merge theirs at round barriers.  Every
strategy is deterministic in its arguments: no verdict depends on
scheduling.

One successor path
------------------

Every strategy, worker and walker obtains successors through
:meth:`CompiledSpec.expand_batch`, which has exactly two things behind it:

- the **generated kernel** (:mod:`repro.tla.codegen`) is what runs:
  each action's guard prefix (:mod:`repro.tla.guards`) evaluated inline,
  so a disabled instance costs a comparison instead of an applier call;
  whole outcomes (verdict, update bindings, fingerprint delta) memoized
  per dependency closure, disabled bits inherited from the parent
  through the ``affects`` interference matrix, invariant/mask/constraint
  verdicts memoized per declared-reads projection, all fused into one
  emitted function;
- the **reference expander** (:meth:`CompiledSpec.reference_expand`) is
  what *defines* the behaviour: ``Specification.successors`` plus a full
  fingerprint -- no memo, no inherited bits, no deltas.

The kernel is sound exactly when the spec's ``reads`` / ``writes`` /
``update_sources`` declarations are truthful, so it is emitted only for
specs the static analyzer proves (:func:`kernel_trusted`); any other spec
runs on the reference expander, loudly (one warning per spec, and
``memo_stats()["mode"] == "reference"``).  ``debug=True``
(``--debug-deps``) emits the kernel regardless and cross-checks every
batch it expands against the reference expander -- the one proof
obligation between the two.  ``reference=True`` pins a run to the
reference expander (the differential arm of the tests and of
``bench_table5_efficiency.py --ab-reference``).

Also on the hot path: invariants are evaluated once per distinct state,
``State`` objects are only materialized for memo misses and reported
traces, and the cyclic garbage collector is suspended during exploration
(states are immutable; exploration allocates millions of short-lived
tuples that the generational GC would repeatedly scan).
"""

from __future__ import annotations

import gc
import random
import time
import warnings
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checker.bundle import Bundle, function_identity
from repro.checker.fingerprint import Fingerprinter
from repro.checker.result import CheckResult, Violation
from repro.checker.trace import Trace
from repro.tla.guards import GuardPrefix, guard_prefix, render
from repro.tla.spec import Specification
from repro.tla.state import State

#: Strategy names accepted by the engine (and the CLI ``--strategy`` flag).
STRATEGIES = ("bfs", "dfs", "random")

#: BFS rounds are swept through ``expand_batch`` in chunks of this many
#: frontier entries.  Large enough to amortize batch setup, small enough
#: that budget checks between chunks keep truncated runs from
#: over-expanding far past ``max_states``.
_KERNEL_CHUNK = 512

#: Lint rules that block kernel emission.  The kernel replays memoized
#: update bindings keyed on the dependency closure, which is sound exactly
#: when the closure declarations are honest: D01 (reads outside the
#: closure), D03 (undeclared writes), D05/D07 (unresolvable / malformed
#: declarations) and the purity rules P01-P04 each break that contract.
#: D02/D04 (over-declaration) and D06 (no closure at all) are harmless:
#: over-declared closures only widen memo keys, and closure-less actions
#: land in the never-memoized eager sweep.
_TRUST_BLOCKING = frozenset({"D01", "D03", "D05", "D07", "P01", "P02", "P03", "P04"})

#: Per-action lint verdict cache (``""`` = trusted, else the blocking
#: rule), keyed on what the action's function *is* -- its code and,
#: recursively, the functions in its closure cells
#: (:func:`repro.checker.bundle.function_identity`: the analyzer resolves
#: names through those cells, so two copies of one wrapper lambda around
#: different functions are different actions) -- plus its declarations.
#: Identity-free, so recomposing a spec from the same module actions (the
#: common case for the ZooKeeper/Raft plugins) does not re-run the
#: analyzer.
_TRUST_CACHE: Dict[tuple, str] = {}
_TRUST_CACHE_LIMIT = 4096


def trust_blocker(spec: Specification) -> str:
    """Why the static analyzer does not prove this spec's declarations
    (``""``: it does).

    Runs the PR-8 static analyzer over every action and reports the first
    finding of a trust-critical rule (:data:`_TRUST_BLOCKING`), or the
    analyzer's own exception.  Per-action verdicts are cached globally
    (:data:`_TRUST_CACHE`), so repeated spec composition stays cheap.
    """
    schema_names = frozenset(spec.schema.names)
    analyzer = None
    try:
        from repro.analysis.declarations import check_action
        from repro.analysis.deps import SpecAnalyzer

        for action in spec.actions:
            sources = tuple(
                sorted((k, tuple(sorted(v))) for k, v in action.update_sources.items())
            )
            identity = function_identity(action.fn)
            key = (identity, action.reads, action.writes, sources, schema_names)
            rule = _TRUST_CACHE.get(key) if identity is not None else None
            if rule is None:
                if analyzer is None:
                    analyzer = SpecAnalyzer()
                findings = check_action(spec.name, action, set(schema_names), analyzer)
                rule = next(
                    (f.rule for f in findings if f.rule in _TRUST_BLOCKING), ""
                )
                if identity is not None:
                    if len(_TRUST_CACHE) >= _TRUST_CACHE_LIMIT:
                        _TRUST_CACHE.clear()
                    _TRUST_CACHE[key] = rule
            if rule:
                return f"action {action.name} fails lint rule {rule}"
    except Exception as error:
        return f"the static analyzer raised {error!r}"
    return ""


def kernel_trusted(spec: Specification, bundle: Optional[Bundle] = None) -> bool:
    """Whether this spec's declarations are proven, so its kernel may run.

    A loaded compile ``bundle`` *is* the proof (only trusted bundles are
    written, under a key that covers everything the analyzer read);
    without one the analyzer runs (:func:`trust_blocker`).  The verdict is
    cached on the spec object.  An untrusted verdict is never silent: the
    first blocking action and rule (or the analyzer's own exception) is
    kept on the spec for ``memo_stats()`` and raised as one
    ``RuntimeWarning`` per spec, because such a spec runs on the slower
    reference expander.
    """
    verdict = getattr(spec, "_kernel_trusted", None)
    if verdict is not None:
        return verdict
    blocker = "" if bundle is not None and bundle.loaded else trust_blocker(spec)
    verdict = not blocker
    spec._kernel_trusted = verdict
    spec._kernel_blocker = blocker
    if blocker:
        warnings.warn(
            f"spec {spec.name!r} is not kernel-trusted ({blocker}; rule "
            f"catalog: docs/linting.md): running on the slower reference "
            f"expander (--debug-deps emits and cross-checks the kernel anyway)",
            RuntimeWarning,
            stacklevel=2,
        )
    return verdict


#: A frontier row, the unit ``expand_batch`` consumes (and the WorkerPool
#: wire carries): (fingerprint, raw ``State.values``, inherited
#: known-disabled bitmask -- the reference expander ignores the last).
Row = Tuple[int, Tuple[Any, ...], int]

#: Candidate successor record produced by :meth:`CompiledSpec.expand_batch`:
#: (instance_index, successor_values, fingerprint, child_known_disabled,
#:  violated_invariant_indices, masked, within_constraint)
Candidate = Tuple[int, Tuple[Any, ...], int, int, Tuple[int, ...], bool, bool]


def out_of_time(start: float, max_time: Optional[float]) -> bool:
    """The one wall-clock budget test every strategy loop shares."""
    return max_time is not None and time.monotonic() - start >= max_time


def _projection(slots: Tuple[int, ...]) -> Callable[[tuple], Any]:
    """Memo-key function for a slot projection (bare value for one slot,
    the same key format the emitted kernels build inline)."""
    return itemgetter(*slots) if len(slots) > 1 else itemgetter(slots[0])


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
    independent oracle for the memoized path.
    """

    __slots__ = (
        "spec",
        "config",
        "schema",
        "fingerprinter",
        "labels",
        "appliers",
        "actions",
        "affects",
        "outcome_groups",
        "outcome_memos",
        "outcome_stats",
        "guard_prefixes",
        "direct",
        "eager",
        "ungrouped",
        "invariant_fns",
        "invariants",
        "inv_groups",
        "inv_group_slots",
        "inv_memos",
        "inv_ungrouped",
        "mask_key",
        "mask_slots",
        "mask_memo",
        "constraint_key",
        "constraint_slots",
        "constraint_memo",
        "constraint",
        "mask",
        "n_instances",
        "debug",
        "bundle",
        "compile",
        "kernel",
        "kernel_source",
        "expand_calls",
        "_label_index",
        "_last_adapt",
        "demoted_groups",
    )

    #: Invariant / mask / constraint verdict memo entries kept per
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

    def __init__(
        self,
        spec: Specification,
        fingerprinter: Optional[Fingerprinter] = None,
        mask: Optional[Callable[[State], bool]] = None,
        debug: bool = False,
        reference: bool = False,
    ):
        self.spec = spec
        self.config = spec.config
        self.schema = spec.schema
        self.fingerprinter = fingerprinter or Fingerprinter()
        self.mask = mask
        self.debug = debug
        instances = spec.action_instances()
        self.n_instances = len(instances)
        self.labels = [inst.label for inst in instances]
        self._label_index = {label: i for i, label in enumerate(self.labels)}
        self.actions = [inst.action for inst in instances]
        self.invariants = list(spec.invariants)
        self.invariant_fns = [inv.predicate for inv in self.invariants]
        self.constraint = spec.constraint
        # Reference-mode layout: nothing grouped, nothing memoized.
        self.appliers: List[Callable] = []
        self.affects: List[int] = []
        self.outcome_groups: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        self.guard_prefixes: List[GuardPrefix] = []
        self.direct: Tuple[int, ...] = ()
        self.ungrouped: Tuple[int, ...] = tuple(range(self.n_instances))
        self.inv_groups: List[Tuple[Callable[[tuple], Any], Tuple[int, ...]]] = []
        self.inv_group_slots: List[Tuple[int, ...]] = []
        self.inv_ungrouped: Tuple[int, ...] = tuple(range(len(self.invariants)))
        self.mask_key: Optional[Callable[[tuple], Any]] = None
        self.mask_slots: Tuple[int, ...] = ()
        self.mask_memo: dict = {}
        self.constraint_key: Optional[Callable[[tuple], Any]] = None
        self.constraint_slots: Tuple[int, ...] = ()
        self.constraint_memo: dict = {}
        self.kernel: Optional[Callable] = None
        self.kernel_source: Optional[str] = None
        # What an earlier process derived for exactly this compile, from
        # the on-disk cache (None: persistence off, or a compile no key
        # can name).  The reference expander derives nothing.
        self.bundle = None if reference else Bundle.open(self)
        #: ``"loaded"`` when the kernel's code object came from the bundle.
        self.compile = "fresh"
        # debug=True emits the kernel whatever the analyzer says: the
        # per-batch cross-check *is* the trust decision then.
        compiled = not reference and (debug or kernel_trusted(spec, self.bundle))
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
        matrix, and the outcome / invariant / mask / constraint memo
        groups the emitted code is specialized on."""
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
        by_closure: Dict[Tuple[int, ...], List[int]] = {}
        ungrouped: List[int] = []
        for i, inst in enumerate(instances):
            closure = inst.action.dependency_closure()
            if closure is None:
                ungrouped.append(i)  # unread guard: never memoized
                continue
            by_closure.setdefault(positions(closure), []).append(i)
        self.outcome_groups = [
            (slots, tuple(members)) for slots, members in by_closure.items()
        ]
        self.ungrouped = tuple(ungrouped)
        # Invariant, mask and constraint verdicts, memoized by declared
        # read set (``Invariant.reads`` / ``fn.reads``).  All are pure
        # state predicates, so both outcomes are cacheable per
        # projection: the ZK-4394 mask reads only ``errors`` and the
        # epoch constraint only ``accepted_epoch``, so their verdicts
        # replay from a one-slot projection instead of building a State
        # per candidate.  Predicates without (resolvable) declarations
        # are evaluated on every state.
        schema_index = spec.schema._index
        by_inv_reads: Dict[Tuple[int, ...], List[int]] = {}
        inv_ungrouped: List[int] = []
        for i, inv in enumerate(self.invariants):
            if inv.reads and all(name in schema_index for name in inv.reads):
                slots = tuple(sorted(schema_index[name] for name in inv.reads))
                by_inv_reads.setdefault(slots, []).append(i)
            else:
                inv_ungrouped.append(i)
        for slots, group_members in by_inv_reads.items():
            self.inv_groups.append((_projection(slots), tuple(group_members)))
            self.inv_group_slots.append(slots)
        self.inv_ungrouped = tuple(inv_ungrouped)
        for fn, attr in ((self.mask, "mask"), (self.constraint, "constraint")):
            declared = getattr(fn, "reads", None)
            if declared and all(name in schema_index for name in declared):
                slots = tuple(sorted(schema_index[name] for name in declared))
                setattr(self, f"{attr}_slots", slots)
                setattr(self, f"{attr}_key", _projection(slots))

    def _emit_kernel(self) -> None:
        """(Re-)emit the batch kernel for the current group layout.

        Called at compose time and again after adaptive demotion; the
        emitted code binds the *current* memo dicts and stats cells, so
        surviving groups keep their warm memos across re-emission.
        """
        from repro.tla.codegen import emit_kernel

        self.kernel_source, self.kernel = emit_kernel(self)

    def classify_values(
        self, values: Tuple[Any, ...], state: Optional[State] = None
    ) -> Tuple[Tuple[int, ...], bool, bool]:
        """(violated invariant indices, masked, within constraint) of a
        raw values tuple.

        The ``State`` is materialized lazily -- only when a mask, a memo
        miss, an ungrouped invariant or a constraint actually needs
        attribute access -- unless the caller already holds one.  The
        kernels classify through this (or its fused inline copy, sharing
        the same memo dicts), so a fully memo-hit candidate never
        allocates a ``State`` at all."""
        if self.mask is not None:
            mask_key = self.mask_key
            if mask_key is not None:
                memo = self.mask_memo
                key = mask_key(values)
                hit = memo.get(key)
                if hit is None:
                    if state is None:
                        state = State(self.schema, values)
                    hit = bool(self.mask(state))
                    if len(memo) >= self.VERDICT_MEMO_LIMIT:
                        memo.clear()
                    memo[key] = hit
                if hit:
                    return (), True, True
            else:
                if state is None:
                    state = State(self.schema, values)
                if self.mask(state):
                    return (), True, True
        config = self.config
        invariant_fns = self.invariant_fns
        memo_limit = self.VERDICT_MEMO_LIMIT
        viol_bits = 0
        for group_index, (key_fn, group_members) in enumerate(self.inv_groups):
            memo = self.inv_memos[group_index]
            key = key_fn(values)
            hit = memo.get(key)
            if hit is None:
                if state is None:
                    state = State(self.schema, values)
                hit = 0
                for i in group_members:
                    if not invariant_fns[i](config, state):
                        hit |= 1 << i
                if len(memo) >= memo_limit:
                    memo.clear()
                memo[key] = hit
            viol_bits |= hit
        if self.inv_ungrouped and state is None:
            state = State(self.schema, values)
        for i in self.inv_ungrouped:
            if not invariant_fns[i](config, state):
                viol_bits |= 1 << i
        if viol_bits:
            viols = tuple(
                i for i in range(len(invariant_fns)) if (viol_bits >> i) & 1
            )
        else:
            viols = ()
        if self.constraint is None:
            ok = True
        else:
            ckey = self.constraint_key
            if ckey is not None:
                memo = self.constraint_memo
                key = ckey(values)
                ok = memo.get(key)
                if ok is None:
                    if state is None:
                        state = State(self.schema, values)
                    ok = bool(self.constraint(config, state))
                    if len(memo) >= self.VERDICT_MEMO_LIMIT:
                        memo.clear()
                    memo[key] = ok
            else:
                if state is None:
                    state = State(self.schema, values)
                ok = bool(self.constraint(config, state))
        return viols, False, ok

    def step(
        self,
        state: State,
        state_fp: int,
        known_disabled: int,
        rng: random.Random,
    ):
        """One random-walk step.

        Expands with ``seen=None`` -- every state-changing successor, in
        instance order, exactly the distribution
        ``Specification.successors`` enumerates (and one ``rng.choice``
        consuming the same entropy) -- and returns
        ``(instance_index, state, fp, known_disabled)`` for the chosen
        successor, or ``None`` in a dead end.  Only the *chosen*
        successor is materialized as a ``State``.  Shared by
        :class:`~repro.checker.random_walk.RandomWalker` and the engine's
        ``random`` strategy.
        """
        ((_, _, candidates),) = self.expand_batch(
            [(state_fp, state.values, known_disabled)], classify_candidates=False
        )
        if not candidates:
            return None
        idx, values, fp, known, _, _, _ = rng.choice(candidates)
        return idx, State(self.schema, values), fp, known

    # ------------------------------------------------- the successor path

    def expand_batch(
        self,
        rows: Sequence[Row],
        seen: Optional[set] = None,
        classify_candidates: bool = True,
    ) -> List[Tuple[int, int, List[Candidate]]]:
        """Expand a whole frontier batch: the engine's one successor path.

        ``rows`` are ``(fp, values, known_disabled)`` frontier entries --
        a BFS chunk, a WorkerPool shard, or a single DFS pop / walk step.
        Returns ``[(entry_fp, transitions, candidates), ...]`` in entry
        order.  ``transitions`` counts every state-changing successor
        (including already-seen ones).  ``seen`` is the caller's
        fingerprint set; candidate fingerprints are added to it so the
        same successor is emitted at most once per expansion context (the
        merge step performs the authoritative cross-context dedup).
        ``seen=None`` emits every state-changing successor exactly in
        instance order -- the random walkers use it to draw from the full
        successor distribution.  Successors are raw values tuples;
        ``State`` materialization is the caller's choice.
        """
        self.expand_calls += len(rows)
        kernel = self.kernel
        if kernel is None:
            return [
                (fp,) + self.reference_expand(values, seen, classify_candidates)
                for fp, values, _ in rows
            ]
        if self.expand_calls - self._last_adapt >= self.ADAPT_INTERVAL:
            self._adapt()
            kernel = self.kernel  # demotion re-emits
        if self.debug:
            self._debug_check_batch(kernel, rows)
        return kernel(rows, seen, classify_candidates)

    def reference_expand(
        self,
        values: Tuple[Any, ...],
        seen: Optional[set] = None,
        classify_candidates: bool = True,
    ) -> Tuple[int, List[Candidate]]:
        """The reference expander: ``Specification.successors`` plus a
        fingerprint, and nothing else.

        Deliberately naive -- every instance is applied to every state,
        every successor is fingerprinted in full, no verdict is inherited
        or memoized -- because it is the definition the kernel is checked
        against (``--debug-deps``, the differential tests) and the path a
        spec with unproven declarations runs on.  Returns
        ``(transitions, candidates)`` with ``known_disabled`` always 0.
        """
        of_values = self.fingerprinter.of_values
        index_of = self._label_index
        transitions = 0
        candidates: List[Candidate] = []
        for label, nxt in self.spec.successors(State(self.schema, values)):
            transitions += 1
            fp = of_values(nxt.values)
            if seen is not None:
                if fp in seen:
                    continue
                seen.add(fp)
            if classify_candidates:
                viols, masked, ok = self.classify_values(nxt.values, nxt)
            else:
                viols, masked, ok = (), False, True
            candidates.append(
                (index_of[label], nxt.values, fp, 0, viols, masked, ok)
            )
        return transitions, candidates

    def _debug_check_batch(self, kernel: Callable, rows: Sequence[Row]) -> None:
        """Debug mode: cross-check the kernel against the reference
        expander on every entry, so a lying declaration that poisons a
        kernel memo entry -- or wrongly inherits a known-disabled bit --
        is caught at the first state it mis-expands."""
        for (_, values, _), (_, _, got) in zip(rows, kernel(rows, None, False)):
            _, want = self.reference_expand(values, classify_candidates=False)
            if [c[:3] for c in got] == [c[:3] for c in want]:
                continue
            got_by = {c[0]: c[1:3] for c in got}
            want_by = {c[0]: c[1:3] for c in want}
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
                f"on state {State(self.schema, values)!r} the kernel produced "
                f"{got_by.get(idx)!r} but the reference expander produced "
                f"{want_by.get(idx)!r} (successor values, fingerprint; None "
                f"= not enabled)"
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
        for (slots, members), cell, memo in zip(
            self.outcome_groups, self.outcome_stats, self.outcome_memos
        ):
            row = self._group_row(slots, members, cell)
            row["hit_rate"] = (
                round(row["hits"] / row["lookups"], 4) if row["lookups"] else None
            )
            row["entries"] = len(memo)
            groups.append(row)
        # Per action name, the first instance's prefix: "why is this
        # action never filtered" without reading emitted code.
        rendered: Dict[str, List[str]] = {}
        for action, prefix in zip(self.actions, self.guard_prefixes):
            rendered.setdefault(
                action.name,
                ["False"] if prefix.dead else [render(atom) for atom in prefix.atoms],
            )
        live = [prefix for prefix in self.guard_prefixes if not prefix.dead]

        stats = {
            "mode": "compiled" if compiled else "reference",
            "expand_calls": self.expand_calls,
            "eager_instances": len(self.eager),
            "outcome_groups": groups,
            "guard_prefixes": {
                "instances": len(self.guard_prefixes),
                "with_prefix": sum(1 for prefix in live if prefix.atoms),
                "atoms": sum(len(prefix.atoms) for prefix in live),
                "dead": len(self.guard_prefixes) - len(live),
                "actions": rendered,
            },
            "guard_groups": [],  # no such tier; bench/passes.py iterates the key
            "demoted_groups": list(self.demoted_groups),
            "mask_memo_entries": (
                len(self.mask_memo) if self.mask_key is not None else None
            ),
            "constraint_memo_entries": (
                len(self.constraint_memo)
                if self.constraint_key is not None
                else None
            ),
        }
        if compiled:
            from repro.tla.codegen import CODEGEN_VERSION

            stats["codegen_version"] = CODEGEN_VERSION
            stats["compile"] = self.compile
        else:
            # Why there is no kernel: pinned by the caller, or the first
            # blocking lint finding kernel_trusted() warned about.
            stats["untrusted"] = getattr(self.spec, "_kernel_blocker", "") or None
        return stats


def compiled_for(
    spec: Specification,
    fingerprinter: Optional[Fingerprinter] = None,
    mask: Optional[Callable[[State], bool]] = None,
    debug: bool = False,
    reference: bool = False,
) -> CompiledSpec:
    """The compiled form of a specification, cached on the spec.

    The default configuration (64-bit fingerprints, no mask, no debug, no
    reference pin) is compiled once per :class:`Specification` instance
    and shared by every consumer -- engine runs, random walkers, the
    conformance campaign's suffix replays -- so the interference matrix
    and the generated kernel are built once and the outcome memos
    stay warm across calls.  Campaign workers fork after the parent
    pre-warms the cache and inherit the compiled core (kernel included)
    by memory image.  Any non-default argument bypasses the cache.
    """
    if fingerprinter is None and mask is None and not debug and not reference:
        core = getattr(spec, "_compiled_core", None)
        if core is None:
            core = CompiledSpec(spec)
            spec._compiled_core = core
        return core
    return CompiledSpec(
        spec, fingerprinter=fingerprinter, mask=mask, debug=debug, reference=reference
    )


class ExplorationEngine:
    """Scheduler for explicit-state exploration strategies.

    Parameters
    ----------
    spec:
        The specification to check.
    strategy:
        One of ``"bfs"``, ``"dfs"``, ``"random"``.
    workers:
        Number of worker processes for parallel BFS.  ``1`` runs
        in-process; higher values require the ``fork`` start method
        (engine falls back to 1 otherwise).
    max_states / max_time / max_depth / violation_limit / stop_at_first /
    mask:
        The familiar budgets, with the seed checker's semantics.  Every
        strategy tests ``max_time`` the same way (:func:`out_of_time`,
        ``elapsed >= max_time``), so ``max_time=0`` expands nothing.
    seed:
        Seed for the random strategy.
    fingerprinter:
        Override the 64-bit default (tests use narrow widths to force
        collisions).
    dedupe:
        Only ``"rounds"`` -- workers merge fingerprint sets at round
        barriers, bitwise-identical to the sequential run -- which is
        simply what ``workers > 1`` does; anything else is a
        ``ValueError``.
    debug:
        ``--debug-deps``: emit the kernel even for a spec the static
        analyzer does not trust and cross-check every batch it expands
        against the reference expander (slow; an untruthful
        ``reads``/``writes``/``update_sources`` declaration raises
        ``AssertionError`` naming the action).
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
        seed: int = 0,
        fingerprinter: Optional[Fingerprinter] = None,
        dedupe: str = "rounds",
        debug: bool = False,
        reference: bool = False,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; options: {list(STRATEGIES)}"
            )
        # Two leftovers of the deleted shared-memory mode stay only because
        # bench/ is read-only for ordinary PRs: this keyword (validated,
        # stored nowhere; bench/probes.py:parallel_probe passes it) and
        # checker/visited.py (its only caller is visited_probe).  ROADMAP
        # item 8's benchmark PR drops the keyword and the probe rows.
        if dedupe != "rounds":
            raise ValueError(
                f"unknown dedupe mode {dedupe!r}: PR 21 removed every mode "
                f"but 'rounds' (the shared-memory table and --dedupe are gone)"
            )
        self.spec = spec
        self.strategy = strategy
        self.workers = max(1, int(workers))
        self.max_states = max_states
        self.max_time = max_time
        self.max_depth = max_depth
        self.violation_limit = violation_limit
        self.stop_at_first = stop_at_first
        self.mask = mask
        self.seed = seed
        self.fingerprinter = fingerprinter
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
            if self.strategy == "dfs":
                return self._run_dfs()
            return self._run_random()
        finally:
            if was_collecting:
                gc.enable()

    def _compile(self) -> CompiledSpec:
        self.core = compiled_for(
            self.spec,
            fingerprinter=self.fingerprinter,
            mask=self.mask,
            debug=self.debug,
            reference=self.reference,
        )
        return self.core

    def _record(
        self,
        result: CheckResult,
        core: CompiledSpec,
        viols: Sequence[int],
        trace_of: Callable[[], Trace],
    ) -> bool:
        """Report a state's violated invariants, one ``Violation`` each;
        True when the run must stop (``stop_at_first``, or the
        ``violation_limit`` reached -- which is recorded as the exhausted
        budget).  Every strategy records through here, so they agree on
        both, and none expands a violating state."""
        for i in viols:
            result.violations.append(
                Violation(invariant=core.invariants[i], trace=trace_of())
            )
            if self.stop_at_first:
                return True
            if len(result.violations) >= self.violation_limit:
                result.budget_exhausted = "violation_limit"
                return True
        return False

    # ------------------------------------------------------------- BFS

    def _run_bfs(self) -> CheckResult:
        core = self._compile()
        spec = self.spec
        result = CheckResult(spec_name=spec.name)
        start = time.monotonic()

        parent_link: Dict[int, Optional[Tuple[int, int]]] = {}
        init_by_fp: Dict[int, State] = {}
        seen: set = set()  # expansion-side fingerprint set (sequential)
        stop = False

        def trace_to(fp: int) -> Trace:
            chain: List[int] = []
            cursor = fp
            while True:
                link = parent_link[cursor]
                if link is None:
                    break
                cursor, idx = link
                chain.append(idx)
            chain.reverse()
            labels = [core.labels[i] for i in chain]
            states = spec.replay(labels, init_by_fp[cursor])
            return Trace(states=states, labels=labels)

        def record(fp: int, viols: Sequence[int]) -> bool:
            return self._record(result, core, viols, lambda: trace_to(fp))

        # Round 0: the initial states.  Frontier entries are
        # (fp, values, known_disabled) rows -- raw value tuples, so states
        # that only transit the frontier never materialize a State.
        frontier: List[Row] = []
        delta: List[int] = []
        for init in spec.initial_states():
            fp = core.fingerprinter.of_values(init.values)
            if fp in parent_link:
                continue
            parent_link[fp] = None
            init_by_fp[fp] = init
            seen.add(fp)
            delta.append(fp)
            viols, masked, ok = core.classify_values(init.values, init)
            if masked:
                continue
            if viols and record(fp, viols):
                stop = True
                break
            if viols or not ok:
                continue
            frontier.append((fp, init.values, 0))
        if (
            not stop
            and self.max_states is not None
            and len(parent_link) >= self.max_states
        ):
            result.budget_exhausted = "max_states"
            stop = True

        pool = None
        if self.workers > 1 and frontier and not stop:
            from repro.checker import parallel

            if parallel.available():
                pool = parallel.WorkerPool(core, self.workers)

        depth = 0
        try:
            while frontier and not stop and result.budget_exhausted is None:
                if out_of_time(start, self.max_time):
                    result.budget_exhausted = "max_time"
                    break

                if pool is None:
                    # Sweep the round in fixed-size batches.  Chunking
                    # keeps budget semantics lazy: when the merge loop
                    # stops mid-round (max_states, max_time, violation),
                    # unexpanded chunks are never swept.
                    def _batched(round_frontier=frontier):
                        for lo in range(0, len(round_frontier), _KERNEL_CHUNK):
                            yield from core.expand_batch(
                                round_frontier[lo : lo + _KERNEL_CHUNK], seen
                            )

                    results_iter = _batched()
                else:
                    results_iter = iter(pool.round(delta, frontier))

                delta = []
                next_frontier: List[Row] = []
                child_depth = depth + 1
                expandable_depth = (
                    self.max_depth is None or child_depth < self.max_depth
                )
                for entry_fp, transitions, candidates in results_iter:
                    if stop or result.budget_exhausted is not None:
                        break
                    if out_of_time(start, self.max_time):
                        result.budget_exhausted = "max_time"
                        break
                    result.transitions += transitions
                    for idx, values, fp, known, viols, masked, ok in candidates:
                        if fp in parent_link:
                            continue
                        parent_link[fp] = (entry_fp, idx)
                        if child_depth > result.max_depth:
                            result.max_depth = child_depth
                        delta.append(fp)
                        if not masked:
                            if viols:
                                if record(fp, viols):
                                    stop = True
                                    break
                            elif ok and expandable_depth:
                                next_frontier.append((fp, values, known))
                        if (
                            self.max_states is not None
                            and len(parent_link) >= self.max_states
                        ):
                            result.budget_exhausted = "max_states"
                            break
                frontier = next_frontier
                depth += 1
        finally:
            if pool is not None:
                pool.close()

        result.states_explored = len(parent_link)
        result.elapsed_seconds = time.monotonic() - start
        result.completed = (
            not frontier and not stop and result.budget_exhausted is None
        )
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

        # Stack entries: (values, fp, labels-so-far, initial state,
        # known_disabled) -- raw value tuples, so pushed-but-pruned
        # candidates never materialize a State (classification on pop is
        # lazy too).
        stack: List[Tuple[Tuple[Any, ...], int, Tuple[int, ...], State, int]] = []
        for init in spec.initial_states():
            fp = core.fingerprinter.of_values(init.values)
            stack.append((init.values, fp, (), init, 0))

        stop = False
        while stack and not stop:
            if self.max_states is not None and len(visited) >= self.max_states:
                result.budget_exhausted = "max_states"
                break
            if out_of_time(start, self.max_time):
                result.budget_exhausted = "max_time"
                break
            values, fp, chain, init, known = stack.pop()
            if fp in visited:
                continue
            visited.add(fp)
            depth = len(chain)
            if depth > result.max_depth:
                result.max_depth = depth
            viols, masked, ok = core.classify_values(values)
            if masked:
                continue
            if viols:
                labels = [core.labels[i] for i in chain]
                trace = Trace(states=spec.replay(labels, init), labels=labels)
                stop = self._record(result, core, viols, lambda: trace)
                continue
            if depth >= max_depth or not ok:
                continue
            throwaway.clear()
            ((_, transitions, candidates),) = core.expand_batch(
                [(fp, values, known)], throwaway, classify_candidates=False
            )
            result.transitions += transitions
            for idx, svt, nfp, nknown, _, _, _ in candidates:
                if nfp not in visited:
                    stack.append((svt, nfp, chain + (idx,), init, nknown))

        result.states_explored = len(visited)
        result.elapsed_seconds = time.monotonic() - start
        result.completed = (
            not stack and not stop and result.budget_exhausted is None
        )
        return result

    # ---------------------------------------------------------- random

    def _run_random(self) -> CheckResult:
        """Seeded random walks until a budget lapses or a violation stops
        the run.  ``states_explored`` is distinct states, not steps."""
        core = self._compile()
        spec = self.spec
        result = CheckResult(spec_name=spec.name)
        start = time.monotonic()
        rng = random.Random(self.seed)
        # Without any budget a random search would never terminate; cap
        # the number of walks as a final backstop.
        max_walks = None
        if self.max_states is None and self.max_time is None:
            max_walks = 1_000
        max_steps = self.max_depth if self.max_depth is not None else 60
        of_values = core.fingerprinter.of_values
        initials = spec.initial_states()
        seen: set = set()
        walks = 0
        stop = False

        while not stop:
            if max_walks is not None and walks >= max_walks:
                result.budget_exhausted = "max_walks"
                break
            if self.max_states is not None and len(seen) >= self.max_states:
                result.budget_exhausted = "max_states"
                break
            if out_of_time(start, self.max_time):
                result.budget_exhausted = "max_time"
                break
            walks += 1
            state = rng.choice(initials)
            fp = of_values(state.values)
            known = 0
            states = [state]
            labels: List[Any] = []
            seen.add(fp)
            for _ in range(max_steps):
                viols, masked, ok = core.classify_values(state.values, state)
                if masked:
                    break
                if viols:
                    stop = self._record(
                        result,
                        core,
                        viols,
                        lambda: Trace(states=list(states), labels=list(labels)),
                    )
                    break
                if not ok:
                    break
                chosen = core.step(state, fp, known, rng)
                if chosen is None:
                    break
                idx, state, fp, known = chosen
                result.transitions += 1
                labels.append(core.labels[idx])
                states.append(state)
                seen.add(fp)
                if len(states) - 1 > result.max_depth:
                    result.max_depth = len(states) - 1

        result.states_explored = len(seen)
        result.elapsed_seconds = time.monotonic() - start
        return result


def explore(spec: Specification, **kwargs: Any) -> CheckResult:
    """Convenience wrapper: ``explore(spec, strategy=..., workers=...)``."""
    return ExplorationEngine(spec, **kwargs).run()
