"""Compiled successor kernels: per-action-group code generated at compose time.

A generic expansion loop would re-walk the spec machinery for every
state: per-group memo key construction, per-instance guard/update closure
calls, per-change digest lookups, per-replay change filtering.  This
module lowers the *whole expansion* into one specialized Python function
emitted at compose time: for every action group, the guard projection,
update binding, dependency-closure memo key and incremental fingerprint
delta (``fp ^ H(var, old) ^ H(var, new)``) are fused into straight-line
code that maps over a frontier batch.  The emitted function is the only
thing that runs behind ``CompiledSpec.expand_batch`` for a trusted spec;
what it must compute is defined by ``CompiledSpec.reference_expand``
(``Specification.successors`` plus a full fingerprint).

What makes the compiled memo entry fast is a static observation, not a
runtime trick: changed slots are a subset of an action's declared
``writes``, ``writes`` are a subset of its dependency closure, and the
closure projection *is* the memo key.  So, per memo entry, the changed
slots, their old values, their new values and the complete fingerprint
delta are all constants.  A kernel memo entry is therefore one tuple
``(item0, item1, ..., gd)``: per enabled change-ful instance an item
``(idx, ((slot, new_code), ...), fp_delta)``, then the group's disabled
bitmask.  A hit replays it with ``raw.extend(e); gd = raw.pop()`` -- no
guard call, no update call, no digest lookups, no change filtering.  For
the same reason frontier entries carry no per-slot digest tuples:
digests are only touched on a memo miss, where the delta is folded once
and for all.

An entry stores only what varies.  Each ``(slot, new_code)`` pair is the
value table's own (``CompiledSpec.pairs[slot][code]``, minted with the
code); on a miss each change tuple and each mask, and each item of a
wide group, is passed through a per-compile dict
(``CompiledSpec.shared_changes`` / ``shared_masks``), so equal changes,
items or masks in a million entries are one object; and an
outcome with no enabled change is the one ``(gd,)`` per mask
(``CompiledSpec.idle_outcomes``; member bits are disjoint across groups,
so one dict serves them all).  A key of two or more slots is the codes
packed into ``bytes`` (:func:`_key_expr`): 57 bytes instead of the
tuple's 88 at six slots, for ~70 ns more per lookup.

The kernel runs on the compile's value codes (``CompiledSpec.encode``):
a row is ``(fp, codes, known)``, memo keys are projections of small ints,
and values are decoded from the bound value table ``vt`` only where a
function needs them -- a guard-prefix root reads ``vt[slot][c[slot]]``,
and a memo miss builds its ``State`` from the decoded row.

The emitted function is *entry-major*: one loop over the batch, with the
guard prefixes of every instance (:mod:`repro.tla.guards`: the comparisons
an applier opens with, so a disabled instance never costs a call), then
every group's memo lookup, miss evaluation and replay unrolled inline --
skipped outright when the prefixes and the inherited mask already disable
all of the group's members -- followed immediately by that entry's
candidate finalization.  Compared to a
group-major sweep this loads the inherited disabled mask and the raw
successor list into locals exactly once per state.  There are two memo
tiers and no other cache: outcome memos (one dict per dependency closure)
and verdict memos (invariant / constraint, one dict per declared read
set); every lookup is a plain ``dict.get``.

One emitted block classifies a state, whatever the predicates declare
(:func:`_emit_classify`): inline on each candidate, and as the module's
``_classify``, which is ``CompiledSpec.classify_values``.  So this
module alone knows the memo-key format (:func:`_key_expr`).  It judges
two shapes of predicate, invariants and the constraint: a mask reaches
the kernel already folded into both (:func:`repro.tla.spec.masked`).

Trust contract: emitting a kernel assumes the declarations are truthful.
``repro lint`` (PR 8) is the precondition — a spec with blocking D/P
findings runs on the reference expander instead (with a warning), and
``--debug-deps`` emits the kernel regardless and cross-checks every batch
against the reference expander.

``CODEGEN_VERSION`` tags every artifact derived from the emitter (the
``remix.spec_cache`` on-disk digest and the ``checker.bundle`` namespace
that persists emitted kernels' code objects): bump it whenever the
emitted code's shape or semantics change, so stale cached artifacts are
orphaned instead of replayed.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.tla.guards import (
    CONTAINERS,
    Const,
    GuardPrefix,
    Path,
    Test,
    base,
    condition,
    expression,
    paths,
    shifted,
    terms,
)
from repro.tla.state import State

# Version tag of the kernel emitter.  Mixed into the spec_cache on-disk
# digest (upgrading the emitter must orphan stale artifacts) and reported
# by ``CompiledSpec.memo_stats``.
CODEGEN_VERSION = 17


#: The ``struct`` format of one code in a packed memo key: four bytes,
#: unsigned.  A code is an index into a value-table column, so a column
#: would need 2**32 values -- far past any memory this runs in -- before
#: a key could fail to pack.  Two bytes would cap a slot at 65 536 values
#: (Table 5's ``msgs`` takes 17 018 at 1.1M states, and the paper's run
#: is 16x longer).
KEY_FIELD = "I"


def _key_expr(slots: Tuple[int, ...], var: str = "c") -> str:
    """Memo-key expression for a projection.

    A single-slot projection is the bare code; a wider one is its codes
    packed into ``bytes`` by the ``_kp<width>`` packer the kernel module
    holds (:func:`_key_packers`).  Every memo key is spelled here and nowhere
    else: the engine only owns the memo dicts, and the batch sweep and
    ``_classify`` fill them from one emitted block (:func:`_emit_classify`).
    """
    if len(slots) == 1:
        return f"{var}[{slots[0]}]"
    return f"_kp{len(slots)}(" + ", ".join(f"{var}[{s}]" for s in slots) + ")"


def _key_packers(core: Any) -> Dict[str, Callable]:
    """The ``_kp<width>`` packers the keys of :func:`_key_expr` call, one
    per width some outcome, invariant or constraint memo keys on."""
    keyed = [slots for slots, _members in core.outcome_groups + core.inv_groups]
    if core.constraint_slots is not None:
        keyed.append(core.constraint_slots)
    widths = sorted({len(slots) for slots in keyed if len(slots) > 1})
    return {f"_kp{n}": struct.Struct(f"<{n}{KEY_FIELD}").pack for n in widths}


def make_outcome_compiler(
    core: Any, shared: Optional[Dict[tuple, tuple]] = None, items: bool = False
) -> Callable:
    """Build the shared miss-path helper that compiles one applier outcome
    into a kernel memo item.

    Returns the item ``(idx, ((slot, new_code), ...), fp_delta)`` for a
    change-ful outcome, or ``None`` when every update is a no-op (matching
    the state-changing filter of ``Specification.successors``).  Each
    changed value is interned in the compile's value table and its
    ``(slot, new_code)`` pair is the table's own (``pairs[slot][code]``),
    so the item holds no private copy of an equal value or pair, and the
    fingerprint delta folds both digests by list index, at miss time --
    replays never touch a digest again.  With ``shared`` (the memo
    miss's compiler, not the eager sweep's, whose items are never
    stored) the change tuple is the dict's one copy of it, and with
    ``items`` the item is too: a *wide* group's key (a closure over more
    than half the schema, as :meth:`CompiledSpec._adapt` counts it) is
    near-unique, so its entries file the same few items many times over.
    """
    schema_index = core.schema._index
    codes, values, digests, pairs = core.codes, core.values, core.digests, core.pairs
    mint = core.mint
    share = None if shared is None else shared.setdefault

    def compile_outcome(idx: int, updates: Dict[str, Any], parent: Tuple[int, ...]):
        changes = []
        delta = 0
        for name, value in updates.items():
            slot = schema_index[name]
            old = parent[slot]
            if values[slot][old] is value:
                continue
            code = codes[slot].get(value)
            if code is None:
                code = mint(slot, value)
            if code == old:
                continue
            digest = digests[slot]
            delta ^= digest[old] ^ digest[code]
            changes.append(pairs[slot][code])
        if not changes:
            return None
        changes = tuple(changes)
        if share is None:
            return (idx, changes, delta)
        item = (idx, share(changes, changes), delta)
        return share(item, item) if items else item

    return compile_outcome


#: A guard trie arm: per test the node ``[false arm, true arm]`` (a list
#: indexed by the answer), and under the key ``None`` the mask of the
#: instances a walk that reaches the arm disables.
Arm = Dict[Any, Any]


def _guard_trie(core: Any) -> Tuple[int, Arm]:
    """The mask of the instances whose prefix is dead, and every other
    prefix (:mod:`repro.tla.guards`) merged into one trie by test.

    An atom files its instance's disabled bit under its failing answer
    and goes on under its passing one; a branch goes on under both; a
    disabled leaf files the bit where the walk reached it.  So the
    comparison a dozen handlers share (``msgs[1][0]`` non-empty), as an
    atom of one and a branch of another, is one node, evaluated once."""
    dead = 0
    root: Arm = {}

    def file(prefix: GuardPrefix, arm: Arm, bit: int) -> None:
        while not prefix.dead:
            for atom in prefix.atoms:
                node = arm.setdefault(atom.test, [{}, {}])
                failing = node[not atom.passing]
                failing[None] = failing.get(None, 0) | bit
                arm = node[atom.passing]
            branch = prefix.branch
            if branch is None:
                return
            node = arm.setdefault(branch.test, [{}, {}])
            file(branch.false, node[False], bit)
            prefix, arm = branch.true, node[True]
        arm[None] = arm.get(None, 0) | bit

    for idx, prefix in enumerate(core.guard_prefixes):
        if prefix.dead:
            dead |= 1 << idx
        else:
            file(prefix, root, 1 << idx)
    return dead, root


def _arm_tests(arm: Arm) -> Iterator[Test]:
    """The tests of a trie arm, each before its arms, true arm first."""
    for test, node in arm.items():
        if test is not None:
            yield test
            yield from _arm_tests(node[True])
            yield from _arm_tests(node[False])


def _container_constants(root: Arm) -> Dict[Any, str]:
    """A kernel parameter name per distinct tuple or frozenset constant
    the guard trie mentions, in order of first mention.

    Bound once per emission, these are neither rebuilt per row nor
    spelled into the kernel text: a frozenset's ``repr`` follows hash
    order, so text that held one would change with ``PYTHONHASHSEED`` and
    miss the compile bundle it was stored under."""
    names: Dict[Any, str] = {}
    for test in _arm_tests(root):
        right = test.right
        if isinstance(right, Const) and type(right.value) in CONTAINERS:
            names.setdefault(right.value, f"k{len(names)}")
    return names


def _emit_guard_prefixes(
    w: Callable[[str], None], core: Any, trie: Tuple[int, Arm], constants: Dict[Any, str]
) -> None:
    """Emit every instance's guard prefix (:mod:`repro.tla.guards`) as the
    first thing an entry does: an instance the trie (:func:`_guard_trie`)
    walks to a failed atom or a disabled leaf is OR-ed into the
    known-disabled mask ``d`` for the price of the comparisons.  A node
    is one ``if`` on its test, the arm that goes on under it and the
    other under ``else``; an offset term is spelled as written, a literal
    operand in place, a container one read from its parameter
    (``constants``).

    A root-to-leaf walk is one function's own evaluation order, so a test
    only dereferences what the tests above it proved present; a path that
    later tests extend or compare again is loaded into a local once,
    right before the first test that would have dereferenced it anyway.
    """
    slot_of = core.schema._index
    dead, root = trie
    if dead:
        w(f"        d |= {dead}")

    def fresh(bound: Dict[Path, str]) -> str:
        """A local no enclosing test still holds: a subtrie's locals die
        with it, so a sibling reuses their names and the kernel's frame
        holds as many as one walk keeps at once."""
        live = set(bound.values())
        return next(name for name in (f"p{n}" for n in count()) if name not in live)

    # The tests in walk order (each before its arms, the true arm first):
    # per test node its index, per arm the end of its range, and per path
    # prefix the indices of the tests that dereference it -- so "does a
    # test after this one, in its own arms or in a later sibling, load
    # this path again" is one bisection.
    index_of: Dict[int, int] = {}
    end_of: Dict[int, int] = {}
    loads: Dict[Path, List[int]] = {}

    def number(arm: Arm) -> None:
        for test, node in arm.items():
            if test is not None:
                index_of[id(node)] = k = len(index_of)
                for path in paths(test):
                    for n in range(1, len(path) + 1):
                        loads.setdefault(path[:n], []).append(k)
                number(node[True])
                number(node[False])
        end_of[id(arm)] = len(index_of)

    number(root)

    def again(path: Path, after: int, end: int) -> bool:
        """A test numbered in ``(after, end)`` dereferences ``path``."""
        at = loads.get(path, ())
        i = bisect_right(at, after)
        return i < len(at) and at[i] < end

    def source(path: Path, bound: Dict[Path, str]) -> str:
        for n in range(len(path), 0, -1):
            if path[:n] in bound:
                return expression(path[n - 1 :], bound[path[:n]])
        slot = slot_of[path[0]]
        return expression(path, f"vt[{slot}][c[{slot}]]")

    def disables(arm: Arm) -> bool:
        """The arm only disables: no test below it."""
        return list(arm) == [None]

    def emit(arm: Arm, pad: str, bound: Dict[Path, str]) -> None:
        if None in arm:
            w(f"{pad}d |= {arm[None]}")
        end = end_of[id(arm)]
        for test, node in arm.items():
            if test is None:
                continue
            k = index_of[id(node)]
            operands = []
            for term in terms(test):
                path = base(term)
                # the longest prefix worth a local -- one this test's arms
                # or a later sibling's walk loads again -- unless a longer
                # one already has one
                shared = next(
                    (
                        path[:n]
                        for n in range(len(path), 0, -1)
                        if path[:n] in bound or again(path[:n], k, end)
                    ),
                    None,
                )
                if shared is not None and shared not in bound:
                    local = fresh(bound)
                    w(f"{pad}{local} = {source(shared, bound)}")
                    bound[shared] = local
                operands.append(shifted(term, source(path, bound)))
            right = test.right
            if isinstance(right, Const):
                value = right.value
                operands.append(constants[value] if type(value) in CONTAINERS else repr(value))
            # The arm that goes on under the ``if``, the one that only
            # disables (if any) under ``else``.
            answer = bool(node[True]) and not (disables(node[True]) and node[False])
            first, other = node[answer], node[not answer]
            w(f"{pad}if {condition(test, answer, *operands)}:")
            emit(first, pad + "    ", dict(bound))
            if other:
                w(f"{pad}else:")
                emit(other, pad + "    ", dict(bound))

    if root:
        w("        # guard prefixes")
        emit(root, "        ", {})


def _emit_classify(w: Callable[[str], None], core: Any, pad: str) -> str:
    """Emit the classification of the codes ``sc``: invariant groups,
    ungrouped invariants, constraint.  A predicate with declared reads
    is looked up in its verdict memo and evaluated on a miss, one without
    is evaluated.  The ``State`` ``cst`` (None, or the caller's) is
    decoded once, at the first evaluation.  Leaves the violated indices
    in ``viols``; returns the within-constraint expression."""

    def decode(p: str) -> None:
        w(f"{p}if cst is None:")
        w(f"{p}    cst = _state(sc)")

    def memoized(
        slots: Tuple[int, ...], key: str, hit: str, memo: str, get: str, evaluate: List[str]
    ) -> None:
        """``hit``: the verdict ``memo`` holds under the projection
        ``key``, or what ``evaluate`` computes on a miss."""
        w(f"{pad}{key} = {_key_expr(slots, 'sc')}")
        w(f"{pad}{hit} = {get}({key})")
        w(f"{pad}if {hit} is None:")
        decode(pad + "    ")
        for line in evaluate:
            w(f"{pad}    {line}")
        w(f"{pad}    if len({memo}) >= {core.VERDICT_MEMO_LIMIT}:")
        w(f"{pad}        {memo}.clear()")
        w(f"{pad}    {memo}[{key}] = {hit}")

    if not core.inv_groups:
        w(f"{pad}vb = 0")
    for g, (slots, members) in enumerate(core.inv_groups):
        judging = ["ih = 0"]
        for i in members:
            judging += [f"if not inv{i}(config, cst):", f"    ih |= {1 << i}"]
        memoized(slots, "ikk", "ih", f"imemo{g}", f"iget{g}", judging)
        w(f"{pad}vb {'|=' if g else '='} ih")
    if core.inv_ungrouped:
        decode(pad)
        for i in core.inv_ungrouped:
            w(f"{pad}if not inv{i}(config, cst):")
            w(f"{pad}    vb |= {1 << i}")
    w(f"{pad}if vb:")
    w(f"{pad}    viols = vget(vb)")
    w(f"{pad}    if viols is None:")
    w(f"{pad}        viols = tuple(")
    w(f"{pad}            i for i in range({len(core.invariant_fns)}) if (vb >> i) & 1")
    w(f"{pad}        )")
    w(f"{pad}        vmemo[vb] = viols")
    w(f"{pad}else:")
    w(f"{pad}    viols = ()")
    ok = "True"
    if core.constraint is not None:
        ok = "ok"
        bounding = "ok = True if consf(config, cst) else False"
        if core.constraint_slots is not None:
            memoized(core.constraint_slots, "ckk", "ok", "cmemo", "cget", [bounding])
        else:
            decode(pad)
            w(f"{pad}{bounding}")
    return ok


def emit_kernel(core: Any) -> Tuple[str, Callable, Callable]:
    """Emit the batch expansion kernel for a ``CompiledSpec``.

    Returns ``(source, expand_batch, classify)``.  ``expand_batch(rows, seen,
    classify)`` expands a whole frontier batch of ``(fp, codes,
    known_disabled)`` rows and returns ``[(entry_fp, transitions,
    candidates), ...]`` with ``engine.Candidate`` tuples whose successor is
    a row of codes in the compile's value table (states are decoded
    lazily: on a memo miss, and by the caller only for traces and
    violations).  ``seen=None`` emits every successor.

    Enumeration is bitwise-identical to the reference expander: entries
    are processed in order, per-entry candidates are rebuilt in sorted
    instance order, and the dedupe set is only touched during per-entry
    finalization — the same order ``reference_expand`` over the entries
    one by one produces.  ``classify(codes, state=None)`` is the batch's
    classification block as a function: ``CompiledSpec.classify_values``.
    """
    schema = core.schema
    names = schema.names
    # Everything the kernel reads that is fixed for its lifetime is bound
    # once per emission, as parameter defaults: a call copies them into
    # its frame, where every use is a local load.  Assigning them to
    # locals in the body instead would cost a statement per name on every
    # call -- most calls are one-row walk steps.
    binds: Dict[str, Any] = {
        "config": core.config,
        "mk": make_outcome_compiler(core, core.shared_changes),
        "vt": core.values,
        "naffects": [~bits for bits in core.affects],
    }
    # Every applier an outcome group or the eager tier can call.
    used = sorted(
        {idx for _slots, members in core.outcome_groups for idx in members}
        | set(core.eager)
    )
    for idx in used:
        binds[f"a{idx}"] = core.appliers[idx]
    if core.eager:
        binds["mke"] = make_outcome_compiler(core)
    wide = len(schema) // 2
    if any(len(slots) > wide for slots, _members in core.outcome_groups):
        binds["mki"] = make_outcome_compiler(core, core.shared_changes, items=True)
    n_outcomes = len(core.outcome_groups)
    for g, memo in enumerate(core.outcome_memos):
        binds[f"omemo{g}"] = memo
        binds[f"oget{g}"] = memo.get
    trie = _guard_trie(core)
    constants = _container_constants(trie[1])
    binds.update((name, value) for value, name in constants.items())

    # What classification reads, shared by the batch and ``_classify``.
    classify_from = len(binds)
    vmemo: Dict[int, Tuple[int, ...]] = {}
    binds.update(vmemo=vmemo, vget=vmemo.get)
    for g, memo in enumerate(core.inv_memos):
        binds[f"imemo{g}"] = memo
        binds[f"iget{g}"] = memo.get
    grouped = [i for _slots, members in core.inv_groups for i in members]
    for i in grouped + list(core.inv_ungrouped):
        binds[f"inv{i}"] = core.invariant_fns[i]
    if core.constraint is not None:
        binds["consf"] = core.constraint
        if core.constraint_slots is not None:
            binds["cmemo"] = core.constraint_memo
            binds["cget"] = core.constraint_memo.get
    env: Dict[str, Any] = {"_State": State, "_schema": schema}
    env.update((f"_{name}", value) for name, value in binds.items())
    # The stats cells are read once per call, after the loop: globals.  As
    # parameters they would push the loop's own locals, numbered after the
    # parameters, past slot 255, where every use costs an EXTENDED_ARG.
    for g, cell in enumerate(core.outcome_stats):
        env[f"_ostats_{g}"] = cell
    # Only a miss calls this (it files the entry, sharing its mask): a
    # global too, for the same reason.
    env["_store"] = core.store_outcome
    # The key packers too: as parameters, up to ~15 of them moved every
    # hot local of a ZooKeeper kernel up by as many slots.
    env.update(_key_packers(core))

    src: List[str] = []
    w = src.append
    w(f"# repro kernel v{CODEGEN_VERSION} for spec {core.spec.name!r}")
    # A State is decoded from codes only where a function needs one: on a
    # miss, which is about to call appliers or predicates anyway, so one
    # shared function costs less than the code an inline copy per call
    # site would add to every kernel.
    w("def _state(c, vt=_vt):")
    decoded = "".join(f"vt[{s}][c[{s}]], " for s in range(len(names)))
    w(f"    return _State(_schema, ({decoded}))")
    w("")
    w("def _expand_batch(")
    w("    rows,")
    w("    seen,")
    w("    classify,")
    for name in binds:
        w(f"    {name}=_{name},")
    w("):")
    if n_outcomes:
        # Per outcome group: misses and skips of this call, flushed below.
        counters = [f"{kind}{g}" for g in range(n_outcomes) for kind in ("om", "os")]
        w(f"    {' = '.join(counters)} = 0")
    w("    results = []")
    w("    res_append = results.append")
    w("    seen_add = None if seen is None else seen.add")
    w("    for entry_fp, c, d in rows:")
    w("        st = None")
    w("        raw = []")

    _emit_guard_prefixes(w, core, trie, constants)
    del trie  # the largest thing emission builds: not kept through compile()
    # Bits a group sets along the way are its own members', so one
    # complement serves every group's "is anyone left to ask" test.
    w("        nd = ~d")
    for g, (slots, members) in enumerate(core.outcome_groups):
        compiler = "mki" if len(slots) > wide else "mk"
        w(f"        # outcome group {g}: closure ({', '.join(names[s] for s in slots)})")
        w(f"        if nd & {sum(1 << idx for idx in members)}:")
        w(f"            k = {_key_expr(slots)}")
        w(f"            e = oget{g}(k)")
        w("            if e is not None:")
        w("                raw.extend(e)")
        w("                gd = raw.pop()")
        w("                if gd:")
        w("                    d |= gd")
        w("            else:")
        w(f"                om{g} += 1")
        w("                if st is None:")
        w("                    st = _state(c)")
        w("                gd = 0")
        w("                en = []")
        for idx in members:
            bit = 1 << idx
            w(f"                if d & {bit}:")
            w(f"                    gd |= {bit}")
            w("                else:")
            w(f"                    u = a{idx}(config, st)")
            w("                    if u is None:")
            w(f"                        d |= {bit}")
            w(f"                        gd |= {bit}")
            w("                    else:")
            w(f"                        item = {compiler}({idx}, u, c)")
            w("                        if item is not None:")
            w("                            en.append(item)")
            w("                            raw.append(item)")
        w(f"                _store(omemo{g}, k, en, gd)")
        w("        else:")
        w(f"            os{g} += 1")

    if core.eager:
        w("        # never-memoized instances: unknown closures + demoted groups")
        for idx in core.eager:
            bit = 1 << idx
            w(f"        if not d & {bit}:")
            w("            if st is None:")
            w("                st = _state(c)")
            w(f"            u = a{idx}(config, st)")
            w("            if u is None:")
            w(f"                d |= {bit}")
            w("            else:")
            w(f"                item = mke({idx}, u, c)")
            w("                if item is not None:")
            w("                    raw.append(item)")

    w("        # finalize this entry: sorted instance order, dedupe, classify")
    w("        if len(raw) > 1:")
    # Plain sort: instance indices are unique, so the tuple comparison
    # never reaches the (incomparable) change payloads.
    w("            raw.sort()")
    w("        cands = []")
    w("        cands_append = cands.append")
    w("        for idx, changes, delta in raw:")
    w("            fp = entry_fp ^ delta")
    w("            if seen is not None:")
    w("                if fp in seen:")
    w("                    continue")
    w("                seen_add(fp)")
    w("            sv = list(c)")
    w("            for slot, code in changes:")
    w("                sv[slot] = code")
    w("            sc = tuple(sv)")
    w("            if classify:")
    w("                cst = None")
    ok = _emit_classify(w, core, "                ")
    w(f"                cands_append((idx, sc, fp, d & naffects[idx], viols, {ok}))")
    w("            else:")
    w("                cands_append((idx, sc, fp, d & naffects[idx], (), True))")
    w("        res_append((entry_fp, len(raw), cands))")

    for g in range(n_outcomes):
        w(f"    if om{g}: _ostats_{g}[0] += om{g}")
        w(f"    if os{g}: _ostats_{g}[1] += os{g}")
    w("    return results")
    w("")
    # The same block as a function, for the states a strategy judges
    # outside a batch (a BFS root, a DFS pop).
    w("def _classify(")
    w("    sc,")
    w("    cst=None,")
    for name in ["config", *list(binds)[classify_from:]]:
        w(f"    {name}=_{name},")
    w("):")
    ok = _emit_classify(w, core, "    ")
    w(f"    return viols, {ok}")
    w("")

    # The source text is always re-emitted (it is cheap, and it is what
    # --stats, the tests and the trace count); what a compile bundle saves
    # is compile(): its marshalled code object is taken only when it was
    # compiled from byte-identical text, so a stale bundle -- or the new
    # layout of a demotion re-emit -- costs a compile, never a wrong kernel.
    source = "\n".join(src)
    del src, w  # nor are the lines
    filename = f"<repro-kernel:{core.spec.name}>"
    bundle = core.bundle
    if bundle is not None:
        code = bundle.kernel(source, filename)
    else:
        code = compile(source, filename, "exec")
    exec(code, env)
    return source, env["_expand_batch"], env["_classify"]
