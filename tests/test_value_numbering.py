"""A state is a row of small ints: each compile numbers every slot's
distinct values once, and the successor path runs on the codes.

What must hold: a code stands for exactly one value (``values[slot]
[codes[slot][v]] == v``) and its digest is the fingerprinter's, so every
fingerprint, enumeration and walk is the one the values gave; equal
values are one value (the contract the outcome memo always relied on);
two threads minting into one resident compile never hand out one code
for two values; a repeated campaign request mints nothing; and an
outcome memo stores only what varies -- its change pairs are the value
table's own, and outcomes with no enabled change are shared per mask."""

import json
import random
import sys
import threading
from functools import partial

import pytest

from repro.checker import ExplorationEngine, Fingerprinter, RandomWalker
from repro.checker.engine import CompiledSpec, compiled_for
from repro.remix import spec_cache
from repro.remix.campaign import CampaignRequest, run_campaign
from repro.remix.registry import registered_systems, system_plugin
from repro.tla.values import Rec

from repro.zookeeper.specs import SELECTIONS, build_spec

from test_engine import PINNED, SMALL
from test_guards import compositions
from test_kernels import counter_spec, run_sig

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
    """Every outcome-memo value holding a private copy of what the compile
    shares: a change pair that is not ``pairs[slot][code]``, or an outcome
    with no enabled change that is not the one for its mask."""
    defects = []
    for group, memo in enumerate(core.outcome_memos):
        for entry in memo.values():
            gd, items = entry
            if not items and entry is not core.idle_outcomes.get(gd):
                defects.append((group, "unshared idle outcome", gd))
            for idx, changes, _ in items:
                for pair in changes:
                    if pair is not core.pairs[pair[0]][pair[1]]:
                        defects.append((group, "private pair", idx, pair))
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


class TestSameAnswers:
    @pytest.mark.parametrize("make", compositions())
    def test_kernel_equals_reference_on_codes(self, make):
        # debug=True asserts kernel == reference on every expanded row,
        # comparing the two sides' code rows directly.
        checked = ExplorationEngine(make(), "dfs", debug=True, max_states=600, max_depth=30)
        reference = ExplorationEngine(make(), "dfs", reference=True, max_states=600, max_depth=30)
        assert run_sig(checked.run()) == run_sig(reference.run())
        assert table_defects(checked.core) == []
        assert sharing_defects(checked.core) == []
        assert total_codes(checked.core) > 0

    def test_pinned_answers_are_the_parents(self):
        # The answers every row-format change is held to (the matrix in
        # test_engine.py runs them); they must never be re-pinned here.
        I14 = [("I-14/COMMIT_UNMATCHED_IN_SYNC", 13)]
        assert PINNED == {
            ("bfs", True): (3000, 5337, 14, []),
            ("dfs", True): (3000, 5011, 20, []),
            ("bfs", False): (2681, 4782, 13, I14),
            ("dfs", False): (29, 54, 17, [("I-14/COMMIT_UNMATCHED_IN_SYNC", 16)]),
        }

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


def bfs_specs():
    raft = system_plugin("raft")
    yield pytest.param(partial(raft.make_spec, "raft-fine", raft.default_config()), id="raft-fine")
    yield pytest.param(partial(build_spec, "mSpec-3", SELECTIONS["mSpec-3"], SMALL), id="mSpec-3")


class TestSharedOutcomes:
    @pytest.mark.parametrize("make", bfs_specs())
    def test_memo_entries_hold_shared_pairs_and_idle_outcomes(self, make):
        engine = ExplorationEngine(make(), max_states=12_000, stop_at_first=False)
        engine.run()
        core = engine.core
        assert sharing_defects(core) == []
        assert table_defects(core) == []
        entries = [entry for memo in core.outcome_memos for entry in memo.values()]
        pairs = [
            pair for _, items in entries for _, changes, _ in items for pair in changes
        ]
        idle = [entry for entry in entries if not entry[1]]
        # Sharing happens, not just holds: many entries, few objects.
        assert len({id(pair) for pair in pairs}) < len(pairs) // 4
        assert 0 < len(core.idle_outcomes) < len(idle)
        assert all(core.idle_outcomes[gd] == (gd, ()) for gd in core.idle_outcomes)

    def test_sharing_survives_demotion(self):
        # A demotion re-emits the kernel; the surviving groups' entries and
        # the re-emitted miss path keep drawing from the same shared dict.
        raft = system_plugin("raft")
        engine = ExplorationEngine(
            raft.make_spec("raft-coarse", raft.default_config()), max_states=40_000
        )
        engine.run()
        assert engine.core.demoted_groups
        assert sharing_defects(engine.core) == []


def one_grain_request(seed):
    return CampaignRequest(
        grains=("mSpec-1",), scenarios=("sync",), seeds=1, seed=seed, workers=1, shrink=True
    )


def report_bytes(report):
    document = report.to_json()
    document["campaign"].pop("elapsed_seconds")
    return json.dumps(document, sort_keys=True)


def resident_cores():
    return [compiled_for(spec) for spec in list(spec_cache._SPECS.values())]


@pytest.fixture
def fresh_cache():
    spec_cache.clear()
    yield
    spec_cache.clear()


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
