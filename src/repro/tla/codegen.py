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
delta are all constants.  A kernel memo entry therefore stores, per
enabled change-ful instance, ``(idx, ((slot, new_value), ...), fp_delta)``
and a hit replays a successor with a single XOR plus a couple of list
writes — no guard call, no update call, no digest lookups, no change
filtering.  For the same reason frontier entries carry no per-slot digest
tuples: digests are only touched on a memo miss, where the delta is
folded once and for all.

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
and verdict memos (invariant / mask / constraint, one dict per declared
read set); every lookup is a plain ``dict.get``.

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

from itertools import count
from typing import Any, Callable, Dict, List, Set, Tuple

from repro.tla.guards import Atom, Path, condition, expression, paths
from repro.tla.state import State

# Version tag of the kernel emitter.  Mixed into the spec_cache on-disk
# digest (upgrading the emitter must orphan stale artifacts) and reported
# by ``CompiledSpec.memo_stats``.
CODEGEN_VERSION = 9


def _key_expr(slots: Tuple[int, ...], var: str = "v") -> str:
    """Memo-key expression for a projection: direct tuple subscripts.

    Single-slot projections use the bare value (cheaper than a 1-tuple).
    This is *the same* key format ``operator.itemgetter`` produces in
    ``CompiledSpec.classify_values``, which is what lets the fused
    classification below share the engine's mask/invariant/constraint
    memo dicts instead of keeping kernel-private shadows.
    """
    if len(slots) == 1:
        return f"{var}[{slots[0]}]"
    return "(" + ", ".join(f"{var}[{s}]" for s in slots) + ")"


def make_outcome_compiler(core: Any) -> Callable:
    """Build the shared miss-path helper that compiles one applier outcome
    into a kernel memo entry.

    Returns ``(idx, ((slot, new_value), ...), fp_delta)`` for a change-ful
    outcome, or ``None`` when every update is a no-op (matching the
    state-changing filter of ``Specification.successors``).  The fingerprint delta folds
    both the old- and new-value digests in here, at miss time — replays
    never touch the digest cache again.
    """
    schema_index = core.schema._index
    fingerprinter = core.fingerprinter
    slot_digest = fingerprinter.slot_digest
    # Pre-touch every per-slot digest cache so ``caches`` is a stable list
    # and the hot path can index it directly instead of going through the
    # guarded ``slot_digest`` method for what is almost always a cache hit.
    for i in range(len(core.schema.names)):
        fingerprinter._cache_for(i)
    caches = fingerprinter._caches

    def compile_outcome(idx: int, updates: Dict[str, Any], parent_values: Tuple):
        changes = []
        delta = 0
        for name, value in updates.items():
            slot = schema_index[name]
            old = parent_values[slot]
            if old is value or old == value:
                continue
            cache = caches[slot]
            od = cache.get(old)
            if od is None:
                od = slot_digest(slot, old)
            nd = cache.get(value)
            if nd is None:
                nd = slot_digest(slot, value)
            delta ^= od ^ nd
            changes.append((slot, value))
        if not changes:
            return None
        return (idx, tuple(changes), delta)

    return compile_outcome


def _emit_guard_prefixes(w: Callable[[str], None], core: Any) -> None:
    """Emit every instance's guard prefix (:mod:`repro.tla.guards`) as the
    first thing an entry does: an instance whose prefix fails is OR-ed
    into the known-disabled mask ``d`` for the price of the comparison.

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
        return expression(path, f"v[{slot_of[path[0]]}]")

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
                shared = next(
                    (path[:n] for n in range(len(path), 0, -1) if path[:n] in again),
                    None,
                )
                if shared is not None and shared not in bound:
                    local = f"p{next(fresh)}"
                    w(f"{pad}{local} = {source(shared, bound)}")
                    bound[shared] = local
                operands.append(source(path, bound))
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


def emit_kernel(core: Any) -> Tuple[str, Callable]:
    """Emit the batch expansion kernel for a ``CompiledSpec``.

    Returns ``(source, expand_batch)`` where ``expand_batch(rows, seen,
    classify)`` expands a whole frontier batch of ``(fp, values,
    known_disabled)`` rows and returns ``[(entry_fp, transitions,
    candidates), ...]`` with ``engine.Candidate`` tuples whose successor is
    a raw values tuple (states are materialized lazily by the caller, only
    for traces and violations).  ``seen=None`` emits every successor.

    Enumeration is bitwise-identical to the reference expander: entries
    are processed in order, per-entry candidates are rebuilt in sorted
    instance order, and the dedupe set is only touched during per-entry
    finalization — the same order ``reference_expand`` over the entries
    one by one produces.
    """
    schema = core.schema
    names = schema.names
    env: Dict[str, Any] = {
        "_State": State,
        "_schema": schema,
        "_config": core.config,
        "_classify_values": core.classify_values,
        "_naffects": [~bits for bits in core.affects],
        "_mk": make_outcome_compiler(core),
    }
    for i, applier in enumerate(core.appliers):
        env[f"_a_{i}"] = applier
    for g, memo in enumerate(core.outcome_memos):
        env[f"_omemo_{g}"] = memo
        env[f"_ostats_{g}"] = core.outcome_stats[g]

    # Classification fuses into the candidate loop only when every verdict
    # is memoizable by a declared-reads projection: a mask/constraint with
    # ``fn.reads`` (or none at all) and no ungrouped invariants.  The fused
    # sweep shares ``classify_values``'s memo dicts (identical key format),
    # so verdicts stay coherent across the inline and the called form.
    fused = (
        (core.mask is None or core.mask_key is not None)
        and (core.constraint is None or core.constraint_key is not None)
        and not core.inv_ungrouped
    )
    if fused:
        env["_vmemo"] = {}
        for g, memo in enumerate(core.inv_memos):
            env[f"_imemo_{g}"] = memo
        for _kf, group_members in core.inv_groups:
            for i in group_members:
                env[f"_inv_{i}"] = core.invariant_fns[i]
        if core.mask is not None:
            env["_mask_fn"] = core.mask
            env["_mmemo"] = core.mask_memo
        if core.constraint is not None:
            env["_cons_fn"] = core.constraint
            env["_cmemo"] = core.constraint_memo

    src: List[str] = []
    w = src.append
    w(f"# repro kernel v{CODEGEN_VERSION} for spec {core.spec.name!r}")
    w("def _expand_batch(rows, seen, classify):")
    w("    config = _config")
    w("    mk = _mk")
    w("    classify_values = _classify_values")
    w("    naffects = _naffects")
    # Every applier an outcome group or the eager tier can call, hoisted
    # into locals once per batch (global loads are dict lookups per call).
    used = sorted(
        {idx for _slots, members in core.outcome_groups for idx in members}
        | set(core.eager)
    )
    for idx in used:
        w(f"    a{idx} = _a_{idx}")
    n_outcomes = len(core.outcome_groups)
    for g in range(n_outcomes):
        w(f"    omemo{g} = _omemo_{g}")
        w(f"    oget{g} = omemo{g}.get")
        w(f"    om{g} = 0")
        w(f"    os{g} = 0")
    if fused:
        w("    vmemo = _vmemo")
        w("    vget = vmemo.get")
        for g in range(len(core.inv_groups)):
            w(f"    imemo{g} = _imemo_{g}")
            w(f"    iget{g} = imemo{g}.get")
        for _kf, group_members in core.inv_groups:
            for i in group_members:
                w(f"    inv{i} = _inv_{i}")
        if core.mask is not None:
            w("    maskf = _mask_fn")
            w("    mmemo = _mmemo")
            w("    mget = mmemo.get")
        if core.constraint is not None:
            w("    consf = _cons_fn")
            w("    cmemo = _cmemo")
            w("    cget = cmemo.get")
    w("    results = []")
    w("    res_append = results.append")
    w("    seen_add = None if seen is None else seen.add")
    w("    for entry_fp, v, d in rows:")
    w("        st = None")
    w("        raw = []")

    _emit_guard_prefixes(w, core)
    # Bits a group sets along the way are its own members', so one
    # complement serves every group's "is anyone left to ask" test.
    w("        nd = ~d")
    for g, (slots, members) in enumerate(core.outcome_groups):
        w(f"        # outcome group {g}: closure ({', '.join(names[s] for s in slots)})")
        w(f"        if nd & {sum(1 << idx for idx in members)}:")
        w(f"            k = {_key_expr(slots)}")
        w(f"            e = oget{g}(k)")
        w("            if e is not None:")
        w("                gd = e[0]")
        w("                if gd:")
        w("                    d |= gd")
        w("                en = e[1]")
        w("                if en:")
        w("                    raw.extend(en)")
        w("            else:")
        w(f"                om{g} += 1")
        w("                if st is None:")
        w("                    st = _State(_schema, v)")
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
            w(f"                        item = mk({idx}, u, v)")
            w("                        if item is not None:")
            w("                            en.append(item)")
            w("                            raw.append(item)")
        w(f"                if len(omemo{g}) >= {core.OUTCOME_MEMO_LIMIT}:")
        w(f"                    omemo{g}.clear()")
        w(f"                omemo{g}[k] = (gd, tuple(en))")
        w("        else:")
        w(f"            os{g} += 1")

    if core.eager:
        w("        # never-memoized instances: unknown closures + demoted groups")
        for idx in core.eager:
            bit = 1 << idx
            w(f"        if not d & {bit}:")
            w("            if st is None:")
            w("                st = _State(_schema, v)")
            w(f"            u = a{idx}(config, st)")
            w("            if u is None:")
            w(f"                d |= {bit}")
            w("            else:")
            w(f"                item = mk({idx}, u, v)")
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
    w("            sv = list(v)")
    w("            for slot, value in changes:")
    w("                sv[slot] = value")
    w("            svt = tuple(sv)")
    w("            if classify:")
    if fused:
        # Inline classification: mask, invariant groups and constraint
        # verdicts all resolve through declared-reads memo projections,
        # in the exact evaluation order of ``classify_values`` so shared
        # memo state and results are bitwise-identical.
        w("                cst = None")
        if core.mask is not None:
            w(f"                mkk = {_key_expr(core.mask_slots, 'svt')}")
            w("                mh = mget(mkk)")
            w("                if mh is None:")
            w("                    cst = _State(_schema, svt)")
            w("                    mh = True if maskf(cst) else False")
            w(f"                    if len(mmemo) >= {core.VERDICT_MEMO_LIMIT}:")
            w("                        mmemo.clear()")
            w("                    mmemo[mkk] = mh")
            w("                if mh:")
            w("                    cands_append(")
            w("                        (idx, svt, fp, d & naffects[idx],")
            w("                         (), True, True)")
            w("                    )")
            w("                    continue")
        if not core.inv_groups:
            w("                vb = 0")
        for g, (_kf, group_members) in enumerate(core.inv_groups):
            slots = core.inv_group_slots[g]
            w(f"                ikk = {_key_expr(slots, 'svt')}")
            w(f"                ih = iget{g}(ikk)")
            w("                if ih is None:")
            w("                    if cst is None:")
            w("                        cst = _State(_schema, svt)")
            w("                    ih = 0")
            for i in group_members:
                w(f"                    if not inv{i}(config, cst):")
                w(f"                        ih |= {1 << i}")
            w(f"                    if len(imemo{g}) >= {core.VERDICT_MEMO_LIMIT}:")
            w(f"                        imemo{g}.clear()")
            w(f"                    imemo{g}[ikk] = ih")
            w(f"                vb {'|=' if g else '='} ih")
        n_inv = len(core.invariant_fns)
        w("                if vb:")
        w("                    viols = vget(vb)")
        w("                    if viols is None:")
        w("                        viols = tuple(")
        w(f"                            i for i in range({n_inv}) if (vb >> i) & 1")
        w("                        )")
        w("                        vmemo[vb] = viols")
        w("                else:")
        w("                    viols = ()")
        if core.constraint is not None:
            w(f"                ckk = {_key_expr(core.constraint_slots, 'svt')}")
            w("                ok = cget(ckk)")
            w("                if ok is None:")
            w("                    if cst is None:")
            w("                        cst = _State(_schema, svt)")
            w("                    ok = True if consf(config, cst) else False")
            w(f"                    if len(cmemo) >= {core.VERDICT_MEMO_LIMIT}:")
            w("                        cmemo.clear()")
            w("                    cmemo[ckk] = ok")
            ok_expr = "ok"
        else:
            ok_expr = "True"
        w("                cands_append(")
        w("                    (idx, svt, fp, d & naffects[idx],")
        w(f"                     viols, False, {ok_expr})")
        w("                )")
    else:
        w("                viols, masked, ok = classify_values(svt)")
        w("                cands_append(")
        w("                    (idx, svt, fp, d & naffects[idx], viols, masked, ok)")
        w("                )")
    w("            else:")
    w("                cands_append(")
    w("                    (idx, svt, fp, d & naffects[idx], (), False, True)")
    w("                )")
    w("        res_append((entry_fp, len(raw), cands))")

    for g in range(n_outcomes):
        w(f"    _ostats_{g}[0] += om{g}")
        w(f"    _ostats_{g}[1] += os{g}")
    w("    return results")
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
    return source, env["_expand_batch"]
