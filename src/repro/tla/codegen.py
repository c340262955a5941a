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
code); on a miss each change tuple and each mask is passed through a
per-compile dict (``CompiledSpec.shared_changes`` / ``shared_masks``), so
equal changes or masks in a million entries are one object; and an
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
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.tla.guards import CONTAINERS, Atom, Const, Path, condition, expression, paths
from repro.tla.state import State

# Version tag of the kernel emitter.  Mixed into the spec_cache on-disk
# digest (upgrading the emitter must orphan stale artifacts) and reported
# by ``CompiledSpec.memo_stats``.
CODEGEN_VERSION = 16


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


def make_outcome_compiler(core: Any, shared: Optional[Dict[tuple, tuple]] = None) -> Callable:
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
    stored) the change tuple is the dict's one copy of it.
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
        if share is not None:
            changes = share(changes, changes)
        return (idx, changes, delta)

    return compile_outcome


def _container_constants(core: Any) -> Dict[Any, str]:
    """A kernel parameter name per distinct tuple or frozenset constant
    the live guard prefixes mention, in order of first mention.

    Bound once per emission, these are neither rebuilt per row nor
    spelled into the kernel text: a frozenset's ``repr`` follows hash
    order, so text that held one would change with ``PYTHONHASHSEED`` and
    miss the compile bundle it was stored under."""
    names: Dict[Any, str] = {}
    for prefix in core.guard_prefixes:
        for atom in () if prefix.dead else prefix.atoms:
            right = atom.test.right
            if isinstance(right, Const) and type(right.value) in CONTAINERS:
                names.setdefault(right.value, f"k{len(names)}")
    return names


def _emit_guard_prefixes(
    w: Callable[[str], None], core: Any, constants: Dict[Any, str]
) -> None:
    """Emit every instance's guard prefix (:mod:`repro.tla.guards`) as the
    first thing an entry does: an instance whose prefix fails is OR-ed
    into the known-disabled mask ``d`` for the price of the comparison.
    A literal operand is spelled in place, a container one is read from
    its parameter (``constants``).

    The chains are merged into a trie, so an atom a dozen handlers share
    (``msgs[1][0]`` non-empty) is evaluated once and disables the whole
    subtree when it fails.  A root-to-leaf walk is one function's own
    evaluation order, so an atom only dereferences what the atoms above
    it proved present; a path that later atoms extend or compare again
    is loaded into a local once, right before the first atom that would
    have dereferenced it anyway.
    """
    slot_of = core.schema._index
    dead = 0
    trie: Dict[Atom, list] = {}  # atom -> [mask of instances below, children]
    for idx, prefix in enumerate(core.guard_prefixes):
        if prefix.dead:
            dead |= 1 << idx
            continue
        children = trie
        for atom in prefix.atoms:
            node = children.setdefault(atom, [0, {}])
            node[0] |= 1 << idx
            children = node[1]
    if dead:
        w(f"        d |= {dead}")
    fresh = count()

    def prefixes(atom: Atom) -> Set[Path]:
        return {path[:n] for path in paths(atom) for n in range(1, len(path) + 1)}

    def mentioned(children: Dict[Atom, list]) -> Set[Path]:
        """Every path prefix some atom of the subtrie dereferences."""
        found: Set[Path] = set()
        for atom, (_mask, below) in children.items():
            found |= prefixes(atom)
            found |= mentioned(below)
        return found

    def source(path: Path, bound: Dict[Path, str]) -> str:
        for n in range(len(path), 0, -1):
            if path[:n] in bound:
                return expression(path[n - 1 :], bound[path[:n]])
        slot = slot_of[path[0]]
        return expression(path, f"vt[{slot}][c[{slot}]]")

    def emit(children: Dict[Atom, list], pad: str, bound: Dict[Path, str]) -> None:
        items = list(children.items())
        # Per sibling: what its own subtrie and the siblings after it go
        # on to dereference -- the paths worth a local.
        reused: List[Set[Path]] = []
        later: Set[Path] = set()
        for atom, (_mask, below) in reversed(items):
            reused.append(later | mentioned(below))
            later = reused[-1] | prefixes(atom)
        for (atom, (mask, below)), again in zip(items, reversed(reused)):
            operands = []
            for path in paths(atom):
                # the longest prefix worth a local, unless a longer one
                # already has one
                shared = next(
                    (
                        path[:n]
                        for n in range(len(path), 0, -1)
                        if path[:n] in again or path[:n] in bound
                    ),
                    None,
                )
                if shared is not None and shared not in bound:
                    local = f"p{next(fresh)}"
                    w(f"{pad}{local} = {source(shared, bound)}")
                    bound[shared] = local
                operands.append(source(path, bound))
            right = atom.test.right
            if isinstance(right, Const):
                value = right.value
                operands.append(constants[value] if type(value) in CONTAINERS else repr(value))
            if below:
                w(f"{pad}if {condition(atom, *operands)}:")
                emit(below, pad + "    ", dict(bound))
                w(f"{pad}else:")
                w(f"{pad}    d |= {mask}")
            else:
                w(f"{pad}if {condition(atom, *operands, passing=False)}:")
                w(f"{pad}    d |= {mask}")

    if trie:
        w("        # guard prefixes")
        emit(trie, "        ", {})


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
    n_outcomes = len(core.outcome_groups)
    for g, memo in enumerate(core.outcome_memos):
        binds[f"omemo{g}"] = memo
        binds[f"oget{g}"] = memo.get
    constants = _container_constants(core)
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

    _emit_guard_prefixes(w, core, constants)
    # Bits a group sets along the way are its own members', so one
    # complement serves every group's "is anyone left to ask" test.
    w("        nd = ~d")
    for g, (slots, members) in enumerate(core.outcome_groups):
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
            w(f"                        item = mk({idx}, u, c)")
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
    filename = f"<repro-kernel:{core.spec.name}>"
    bundle = core.bundle
    if bundle is not None:
        code = bundle.kernel(source, filename)
    else:
        code = compile(source, filename, "exec")
    exec(code, env)
    return source, env["_expand_batch"], env["_classify"]
