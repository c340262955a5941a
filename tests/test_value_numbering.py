"""A state is a row of small ints: each compile numbers every slot's
distinct values once, and the successor path runs on the codes.

What must hold: a code stands for exactly one value (``values[slot]
[codes[slot][v]] == v``) and its digest is the fingerprinter's, so every
fingerprint, enumeration and walk is the one the values gave; equal
values are one value (the contract the outcome memo always relied on);
two threads minting into one resident compile never hand out one code
for two values; a repeated campaign request mints nothing; and an
outcome memo stores only what varies -- its change pairs are the value
table's own, its change tuples and masks the compile's shared ones,
outcomes with no enabled change are shared per mask, and a key is a
bare code or the packed bytes of its codes."""

import random
import struct
import sys
import threading

import pytest

from repro.checker import ExplorationEngine, Fingerprinter, RandomWalker
from repro.checker.engine import CompiledSpec, compiled_for
from repro.remix import spec_cache
from repro.remix.campaign import run_campaign
from repro.remix.registry import registered_systems, system_plugin
from repro.remix.request import CampaignRequest
from repro.tla import codegen
from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State
from repro.tla.values import Rec

from conftest import counter_spec, report_bytes, run_sig
from shipped import SHAPES, shape_id

SEEDS = (7, 1007, 3, 42, 99)


def table_defects(core):
    """Every way the value table breaks its contract, as readable rows."""
    defects = []
    for slot, (codes, values, digests, pairs) in enumerate(
        zip(core.codes, core.values, core.digests, core.pairs)
    ):
        if not len(codes) == len(values) == len(digests) == len(pairs):
            defects.append((slot, "sizes", len(codes), len(values), len(digests), len(pairs)))
        for value, code in codes.items():
            if pairs[code] != (slot, code):
                defects.append((slot, "pair", code, pairs[code]))
            if values[code] != value:
                defects.append((slot, "decodes elsewhere", code, value))
            if digests[code] != core.fingerprinter.slot_digest(slot, value):
                defects.append((slot, "digest", code, value))
    return defects


def sharing_defects(core):
    """Every memo entry or key holding a private copy of what the compile
    shares, or laid out otherwise than the kernel reads it: a change pair
    that is not ``pairs[slot][code]``, a change tuple -- or an item of a
    wide group -- that is not the compile's shared one, a mask of an
    entry with changes that is not the shared int, an outcome with no
    enabled change that is not the one ``(gd,)`` for its mask, and a key
    that is neither a bare code (one slot) nor ``bytes`` of the packed
    width (two or more)."""
    field = struct.calcsize("<" + codegen.KEY_FIELD)
    wide = len(core.schema) // 2
    defects = []

    def key_defects(kind, group, slots, memo):
        for key in memo:
            if len(slots) == 1:
                if type(key) is not int:
                    defects.append((kind, group, "not a bare code", key))
            elif type(key) is not bytes or len(key) != field * len(slots):
                defects.append((kind, group, "not packed", key))

    for group, ((slots, _), memo) in enumerate(zip(core.outcome_groups, core.outcome_memos)):
        key_defects("outcome", group, slots, memo)
        for entry in memo.values():
            *items, gd = entry
            if not items:
                if entry is not core.idle_outcomes.get(gd):
                    defects.append((group, "unshared idle outcome", gd))
                continue
            if core.shared_masks.get(gd) is not gd:
                defects.append((group, "unshared mask", gd))
            for item in items:
                idx, changes, _ = item
                if len(slots) > wide and core.shared_changes.get(item) is not item:
                    defects.append((group, "unshared item", item))
                if core.shared_changes.get(changes) is not changes:
                    defects.append((group, "unshared changes", idx, changes))
                for pair in changes:
                    if pair is not core.pairs[pair[0]][pair[1]]:
                        defects.append((group, "private pair", idx, pair))
    for group, ((slots, _), memo) in enumerate(zip(core.inv_groups, core.inv_memos)):
        key_defects("invariant", group, slots, memo)
    if core.constraint_slots is not None:
        key_defects("constraint", 0, core.constraint_slots, core.constraint_memo)
    return defects


def total_codes(core):
    return core.memo_stats()["values"]["codes"]


class TestEncodeDecode:
    def test_round_trip(self):
        core = compiled_for(counter_spec())
        assert core.decode(core.encode((3, 2))) == (3, 2)
        assert core.encode((3, 2)) == core.encode((3, 2))
        assert core.encode((0, 0)) != core.encode((3, 2))
        assert table_defects(core) == []

    @pytest.mark.parametrize(
        "first, second",
        [
            (1, True),
            (Rec(mtype="ACK", zxid=(1, 2)), Rec(zxid=(1, 2), mtype="ACK")),
            (frozenset({1, 2, 3}), frozenset([3, 2, 1])),
        ],
        ids=["int-bool", "records", "frozensets"],
    )
    def test_equal_values_are_one_value(self, first, second):
        # The first representative of an equality class is the one every
        # later state of the slot decodes to -- what an outcome-memo hit
        # has always replayed -- and the fingerprint cannot tell them apart.
        assert first == second
        core = CompiledSpec(counter_spec())
        (code,) = {core.encode((first, 0))[0], core.encode((second, 0))[0]}
        assert core.decode((code, 0))[0] is first
        fingerprint = core.fingerprinter.of_values
        assert fingerprint((first, 0)) == fingerprint((second, 0))
        assert core.digests[0][code] == core.fingerprinter.slot_digest(0, second)

    def test_the_stats_block_counts_codes_per_slot(self):
        engine = ExplorationEngine(counter_spec(max_x=6, y_bound=3), max_states=200)
        engine.run()
        block = engine.core.memo_stats()["values"]
        columns = dict(zip(engine.core.schema.names, engine.core.values))
        assert block["codes"] == sum(len(column) for column in columns.values())
        assert [size for _, size in block["largest"]] == sorted(
            (len(column) for column in columns.values()), reverse=True
        )[:3]


#: The DFS proof's budgets above its default ``max_states=600,
#: max_depth=30`` (these two run to the engine's default depth bound).
DFS_BUDGETS = {"mSpec-3": dict(max_states=1_200), "mSpec-3-masked": dict(max_states=2_000)}


class TestSameAnswers:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_kernel_equals_reference_on_codes(self, shape):
        # debug=True asserts kernel == reference on every expanded row,
        # comparing the two sides' code rows directly.  (BFS is the
        # ``proofs`` matrix of tests/test_compile_bundle.py.)
        budget = DFS_BUDGETS.get(shape.id, dict(max_states=600, max_depth=30))
        spec, mask = shape.make()
        checked = ExplorationEngine(spec, "dfs", mask=mask, debug=True, **budget)
        spec, mask = shape.make()
        reference = ExplorationEngine(spec, "dfs", mask=mask, reference=True, **budget)
        assert run_sig(checked.run()) == run_sig(reference.run())
        assert table_defects(checked.core) == []
        assert sharing_defects(checked.core) == []
        assert total_codes(checked.core) > 0

    @pytest.mark.parametrize("system", registered_systems())
    def test_every_bfs_row_carries_its_values_fingerprint(self, system, monkeypatch):
        # The table's digests are the engine's only value -> digest map;
        # an uncached Fingerprinter over the decoded row is an oracle that
        # does not go through it.
        rows = []
        expand_batch = CompiledSpec.expand_batch

        def recording(core, batch, *args, **kwargs):
            answers = expand_batch(core, batch, *args, **kwargs)
            rows.extend((core, fp, codes) for fp, codes, _ in batch)
            for _, _, candidates in answers:
                rows.extend((core, candidate[2], candidate[1]) for candidate in candidates)
            return answers

        monkeypatch.setattr(CompiledSpec, "expand_batch", recording)
        plugin = system_plugin(system)
        for grain in plugin.grains:
            spec = plugin.make_spec(grain, plugin.default_config())
            ExplorationEngine(spec, max_states=1_500, stop_at_first=False).run()
        oracle = Fingerprinter()
        assert len(rows) > 1_500 * len(plugin.grains)
        wrong = [
            (core.spec.name, fp)
            for core, fp, codes in rows
            if fp != oracle.of_values(core.decode(codes))
        ]
        assert wrong == []

    @pytest.mark.parametrize("system", registered_systems())
    @pytest.mark.parametrize("seed", SEEDS)
    def test_walks_choose_what_the_values_choose(self, system, seed):
        # The walker carries codes; the label sequence must be the one a
        # walk over Specification.successors draws with the same rng.
        plugin = system_plugin(system)
        for grain in plugin.grains:
            spec = plugin.make_spec(grain, plugin.default_config())
            walked = RandomWalker(spec, seed=seed).walk(30)
            rng = random.Random(seed)
            state = rng.choice(spec.initial_states())
            labels = []
            for _ in range(30):
                if not spec.within_constraint(state):
                    break
                options = list(spec.successors(state))
                if not options:
                    break
                label, state = rng.choice(options)
                labels.append(label)
            assert walked.labels == labels, (grain, seed)
            assert walked.final == state


BFS_SHAPES = [shape for shape in SHAPES if shape.id in ("raft-raft-fine", "mSpec-3")]


class TestSharedOutcomes:
    @pytest.mark.parametrize("shape", BFS_SHAPES, ids=shape_id)
    def test_memo_entries_hold_shared_pairs_and_idle_outcomes(self, shape):
        engine = ExplorationEngine(shape.make()[0], max_states=12_000, stop_at_first=False)
        engine.run()
        core = engine.core
        assert sharing_defects(core) == []
        assert table_defects(core) == []
        entries = [entry for memo in core.outcome_memos for entry in memo.values()]
        items = [item for entry in entries for item in entry[:-1]]
        pairs = [pair for _, changes, _ in items for pair in changes]
        changes = [changes for _, changes, _ in items]
        masks = [entry[-1] for entry in entries if len(entry) > 1]
        idle = [entry for entry in entries if len(entry) == 1]
        wide = [
            item
            for (slots, _), memo in zip(core.outcome_groups, core.outcome_memos)
            if len(slots) > len(core.schema) // 2
            for entry in memo.values()
            for item in entry[:-1]
        ]
        # Sharing happens, not just holds: many entries, few objects --
        # one object per distinct change tuple, wide group's item and mask.
        assert len({id(pair) for pair in pairs}) < len(pairs) // 4
        assert len({id(item) for item in wide}) == len(set(wide)) < len(wide)
        assert len({id(c) for c in changes}) == len(set(changes)) < len(changes)
        assert len({id(gd) for gd in masks}) == len(set(masks)) < len(masks)
        assert 0 < len(core.idle_outcomes) < len(idle)
        assert all(core.idle_outcomes[gd] == (gd,) for gd in core.idle_outcomes)

    @pytest.mark.parametrize("shape", BFS_SHAPES, ids=shape_id)
    def test_stats_count_each_shared_object_once(self, shape):
        engine = ExplorationEngine(shape.make()[0], max_states=6_000, stop_at_first=False)
        engine.run()
        rows = engine.core.memo_stats()["outcome_groups"]
        # every key bench/passes.py reads stays
        assert all({"lookups", "hits", "entries", "bytes"} <= set(row) for row in rows)
        # The oracle walks every object the memos reach, each one once.
        counted = set()
        stack = list(engine.core.outcome_memos)
        stack += [part for memo in stack for part in (*memo.keys(), *memo.values())]
        total = 0
        while stack:
            obj = stack.pop()
            if id(obj) not in counted:
                counted.add(id(obj))
                total += sys.getsizeof(obj)
                stack.extend(obj if type(obj) is tuple else ())
        assert sum(row["bytes"] for row in rows) == total

    def test_sharing_survives_demotion(self, monkeypatch):
        # A demotion re-emits the kernel mid-run; the surviving groups'
        # entries and the re-emitted miss path keep drawing from the same
        # shared dict.  ElectLeader's wide group hits ~45 % of its first
        # window since its guard prefix became a tree: a floor of 50 %
        # has the adaptive policy demote it partway through the run.
        monkeypatch.setattr(CompiledSpec, "ADAPT_WIDE_RATE", 0.5)
        raft = system_plugin("raft")
        engine = ExplorationEngine(
            raft.make_spec("raft-coarse", raft.default_config()), max_states=40_000
        )
        result = engine.run()
        assert [group["members"] for group in engine.core.demoted_groups] == [12]
        assert (result.states_explored, result.transitions) == (40_000, 97_156)
        assert sharing_defects(engine.core) == []

    def test_sharing_survives_a_demotion_between_runs(self):
        # The same, with the widest group demoted by hand between two runs
        # on one compile.
        raft = system_plugin("raft")
        spec = raft.make_spec("raft-coarse", raft.default_config())
        ExplorationEngine(spec, max_states=20_000).run()
        core = compiled_for(spec)
        widest = max(range(len(core.outcome_groups)), key=lambda g: len(core.outcome_groups[g][0]))
        core._demote([widest])
        engine = ExplorationEngine(spec, max_states=40_000)
        engine.run()
        assert engine.core is core and core.demoted_groups
        assert sharing_defects(core) == []


#: Values of ``x`` the run reaches; the first half is numbered before it.
REACHED = 200


def two_slot_counter_spec():
    """``x`` climbs to ``REACHED - 1`` while ``y`` flips between 0 and 1.
    Both actions, the invariant (violated where ``x >= 150`` and ``y ==
    1``) and the constraint read both slots, so every memo keys on a
    packed two-slot projection."""
    schema = Schema(("x", "y"))

    def inc_x(config, state):
        return {"x": state.x + 1} if state.x + 1 < REACHED and state.y < 2 else None

    def flip(config, state):
        return {"y": 1 - state.y} if state.x < REACHED else None

    def below_150(config, state):
        return state.x < 150 or state.y == 0

    def in_bounds(config, state):
        return state.x + state.y < REACHED + 1

    in_bounds.reads = frozenset({"x", "y"})
    module = Module(
        "counter",
        [
            Action("IncX", inc_x, reads=["x", "y"], writes=["x"]),
            Action("Flip", flip, reads=["x", "y"], writes=["y"]),
        ],
    )
    return Specification(
        "two-slot-counter",
        schema,
        lambda cfg: [State.make(schema, x=0, y=0)],
        [module],
        [Invariant("I-1", "x below 150 where y is 1", below_150, reads=frozenset({"x", "y"}))],
        None,
        constraint=in_bounds,
    )


class WideTable(ExplorationEngine):
    """Numbers 2**16 values of ``x`` before the run: ``0 .. REACHED/2 - 1``
    (codes equal to the values), then fillers the run never reaches.  The
    run mints ``REACHED/2 .. REACHED - 1`` in its batches, at codes from
    2**16 on -- each one 2**16 above the code of a value it also reaches."""

    def _compile(self):
        core = super()._compile()
        half = REACHED // 2
        for value in [*range(half), *(f"filler{i}" for i in range(half, 1 << 16))]:
            core.encode((value, 0))
        return core


class TestPackedKeys:
    def test_keys_hold_codes_past_16_bits(self):
        # debug=True checks every batch against the reference expander and
        # every verdict against evaluation: a key field that truncated a
        # code would give x and x + REACHED/2 one key -- and replay one's
        # successor or verdict for the other -- and one that raised would
        # stop the run.
        checked = WideTable(two_slot_counter_spec(), debug=True, stop_at_first=False)
        result = checked.run()
        core = checked.core
        assert len(core.values[0]) == (1 << 16) + REACHED // 2
        assert [slots for slots, _ in core.outcome_groups] == [(0, 1)]
        assert [slots for slots, _ in core.inv_groups] == [(0, 1)]
        assert core.constraint_slots == (0, 1)
        assert sharing_defects(core) == []
        unpack = struct.Struct("<2" + codegen.KEY_FIELD).unpack
        for memo in core.outcome_memos + core.inv_memos + [core.constraint_memo]:
            x_codes = {unpack(key)[0] for key in memo}
            assert {0, 1 << 16} <= x_codes and max(x_codes) == (1 << 16) + REACHED // 2 - 1
        reference = ExplorationEngine(two_slot_counter_spec(), reference=True, stop_at_first=False)
        assert run_sig(result) == run_sig(reference.run())
        assert result.completed and len(result.violations) == REACHED - 150


def one_grain_request(seed):
    return CampaignRequest(
        grains=("mSpec-1",), scenarios=("sync",), seeds=1, seed=seed, workers=1, shrink=True
    )


def resident_cores():
    return [compiled_for(spec) for spec in list(spec_cache._SPECS.values())]


class TestOneResidentTable:
    def test_a_repeated_request_mints_nothing(self, fresh_cache):
        first = report_bytes(run_campaign(one_grain_request(7)))
        minted = sum(total_codes(core) for core in resident_cores())
        assert minted > 0
        second = report_bytes(run_campaign(one_grain_request(7)))
        assert second == first
        assert sum(total_codes(core) for core in resident_cores()) == minted

    def test_racing_threads_mint_one_code_per_value(self, fresh_cache):
        # Both requests run inline (workers=1) on request threads against
        # the one cached compile, as `serve` runs them; a short switch
        # interval makes the threads interleave inside minting.
        sequential = [report_bytes(run_campaign(one_grain_request(seed))) for seed in (3, 42)]
        spec_cache.clear()
        reports = {}

        def run(seed):
            reports[seed] = report_bytes(run_campaign(one_grain_request(seed)))

        threads = [threading.Thread(target=run, args=(seed,)) for seed in (3, 42)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [reports.get(3), reports.get(42)] == sequential
        cores = resident_cores()
        assert cores and all(table_defects(core) == [] for core in cores)
        assert all(sharing_defects(core) == [] for core in cores)
