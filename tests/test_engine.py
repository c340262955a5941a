"""Tests for the unified exploration engine: fingerprinting, the
kernel-vs-reference-expander differential (guard, outcome and invariant
memoization soundness), parallel determinism, budgets,
and shrink round-trips on engine-produced traces."""

import os
import pickle
import random
import signal
import warnings

import pytest

from repro.checker import (
    ExplorationEngine,
    Fingerprinter,
    IncrementalFingerprinter,
    RandomWalker,
    explore,
    shrink_trace,
    violation_predicate,
)
from repro.checker import parallel
from repro.checker.engine import STRATEGIES, CompiledSpec, compiled_for
from repro.checker.fingerprint import FingerprintError, canonical_bytes
from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State
from repro.tla.values import Rec, Txn, Zxid
from repro.zookeeper import ZkConfig, check_spec, zk4394_mask

SCHEMA = Schema(("x", "y"))

SMALL = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)


def counter_spec(max_x=4, y_bound=2, constraint=None):
    def inc_x(config, state):
        if state.x >= max_x:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:
            return None
        return {"y": state.y + 1}

    module = Module(
        "counter",
        [
            Action("IncX", inc_x, reads=["x"], writes=["x"]),
            Action("IncY", inc_y, reads=["x", "y"], writes=["y"]),
        ],
    )
    return Specification(
        "counter",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= y_bound)],
        None,
        constraint=constraint,
    )


class TestFingerprinter:
    def test_deterministic_across_instances(self):
        state = State.make(SCHEMA, x=3, y=1)
        assert Fingerprinter().of_state(state) == Fingerprinter().of_state(state)

    def test_distinct_states_differ(self):
        a = Fingerprinter()
        fps = {
            a.of_state(State.make(SCHEMA, x=x, y=y))
            for x in range(10)
            for y in range(10)
        }
        assert len(fps) == 100

    def test_bool_int_equivalence_matches_state_equality(self):
        # State(True) == State(1) under tuple equality, so the
        # fingerprints must agree too.
        a = State(SCHEMA, (True, 0))
        b = State(SCHEMA, (1, 0))
        assert a == b
        fp = Fingerprinter()
        assert fp.of_state(a) == fp.of_state(b)

    def test_namedtuple_encodes_as_tuple(self):
        # Txn == plain tuple of its fields, mirrored by the encoding.
        txn = Txn(Zxid(1, 2), 3)
        assert canonical_bytes((txn,)) == canonical_bytes((((1, 2), 3),))

    def test_rec_distinct_from_items_tuple(self):
        rec = Rec(a=1)
        assert canonical_bytes((rec,)) != canonical_bytes(((("a", 1),),))

    def test_incremental_update_matches_full(self):
        fp = Fingerprinter()
        base = (1, (2, 3), "s")
        successor = (1, (2, 4), "s")
        incremental = fp.update(fp.of_values(base), base, [(1, (2, 4))])
        assert incremental == fp.of_values(successor)

    def test_unknown_type_raises(self):
        class Odd:
            pass

        with pytest.raises(FingerprintError):
            Fingerprinter().of_values((Odd(),))

    def test_narrow_width_forces_collisions(self):
        fp = Fingerprinter(bits=2)
        values = {fp.of_values((i,)) for i in range(64)}
        assert values <= {0, 1, 2, 3}

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            Fingerprinter(bits=0)
        with pytest.raises(ValueError):
            Fingerprinter(bits=65)


class TestEngineBFS:
    def test_complete_space_counts_exactly(self):
        result = explore(counter_spec(max_x=2, y_bound=5), strategy="bfs")
        assert result.completed
        assert result.states_explored == 6

    def test_incremental_guard_analysis_is_sound(self):
        kernel_engine = ExplorationEngine(counter_spec(max_x=6, y_bound=3))
        fast = kernel_engine.run()
        assert kernel_engine.core.kernel is not None
        slow = ExplorationEngine(
            counter_spec(max_x=6, y_bound=3), reference=True
        ).run()
        assert fast.states_explored == slow.states_explored
        assert fast.transitions == slow.transitions
        assert [v.invariant.ident for v in fast.violations] == [
            v.invariant.ident for v in slow.violations
        ]

    def test_undeclared_reads_are_never_pruned(self):
        # Regression: an action that omits its reads declaration (the
        # Action API default) has an *unknown* guard dependency set and
        # must be re-evaluated in every state -- it must not inherit a
        # known-disabled verdict from its parent.
        def inc_x(config, state):
            return {"x": state.x + 1} if state.x < 3 else None

        def inc_y(config, state):  # reads x and y, but declares nothing
            return {"y": state.y + 1} if state.y < state.x else None

        module = Module(
            "undeclared",
            [
                Action("IncX", inc_x, reads=["x"], writes=["x"]),
                Action("IncY", inc_y, writes=["y"]),
            ],
        )
        spec = Specification(
            "undeclared",
            SCHEMA,
            lambda cfg: [State.make(SCHEMA, x=0, y=0)],
            [module],
            [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= 99)],
            None,
        )
        kernel_engine = ExplorationEngine(spec)
        fast = kernel_engine.run()
        assert kernel_engine.core.kernel is not None
        assert kernel_engine.core.ungrouped  # IncY: never memoized
        slow = ExplorationEngine(spec, reference=True).run()
        assert fast.states_explored == slow.states_explored == 10
        assert fast.transitions == slow.transitions
        assert fast.completed and slow.completed

    def test_collision_handling_terminates_and_undercounts(self):
        # A 3-bit fingerprint space cannot hold the 28 distinct states:
        # colliding states are silently merged, never duplicated, and
        # the run still terminates.
        result = ExplorationEngine(
            counter_spec(max_x=6, y_bound=99),
            fingerprinter=Fingerprinter(bits=3),
        ).run()
        assert result.completed
        assert result.states_explored <= 8

    def test_full_width_matches_exact_dedup(self):
        exact = ExplorationEngine(counter_spec(max_x=6, y_bound=99)).run()
        assert exact.completed
        assert exact.states_explored == 28  # x in 0..6, y in 0..x

    def test_unknown_strategy_rejected(self):
        for strategy in ("bogus", "portfolio"):  # the latter removed in PR 22
            with pytest.raises(ValueError, match="unknown strategy"):
                ExplorationEngine(counter_spec(), strategy=strategy)
        assert set(STRATEGIES) == {"bfs", "dfs", "random"}

    def test_rounds_is_the_only_dedupe_mode(self):
        # The keyword outlives --dedupe only because bench/probes.py
        # passes it; the shared-memory mode is gone, not ignored.
        for mode in ("shared", "bogus"):
            with pytest.raises(ValueError, match="removed every mode but 'rounds'"):
                ExplorationEngine(counter_spec(), dedupe=mode)
        budget = dict(max_states=30, stop_at_first=False)
        seq = ExplorationEngine(counter_spec(max_x=8), **budget).run()
        par = ExplorationEngine(
            counter_spec(max_x=8), workers=2, dedupe="rounds", **budget
        ).run()
        assert seq.states_explored == par.states_explored == 30
        assert seq.transitions == par.transitions
        assert [v.trace.labels for v in seq.violations] == [
            v.trace.labels for v in par.violations
        ]


class TestEngineStrategies:
    def test_dfs_finds_violation(self):
        result = explore(counter_spec(), strategy="dfs", max_depth=20)
        assert result.found_violation
        assert result.first_violation.trace.final.y == 3

    def test_random_is_seed_deterministic(self):
        spec = counter_spec(y_bound=1)
        a = explore(spec, strategy="random", seed=5, max_states=500)
        b = explore(counter_spec(y_bound=1), strategy="random", seed=5, max_states=500)
        assert a.states_explored == b.states_explored
        assert [v.invariant.ident for v in a.violations] == [
            v.invariant.ident for v in b.violations
        ]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_violation_limit_is_honoured_by_every_strategy(self, strategy):
        # One recording rule for all three loops: every violated
        # invariant reported, the run carried on past the first and
        # stopped at the limit, which is named as the exhausted budget.
        result = check_spec(
            "mSpec-1", SMALL, strategy=strategy, masked=False,
            stop_at_first=False, violation_limit=5, max_time=120,
        )
        assert len(result.violations) == 5
        assert result.budget_exhausted == "violation_limit"
        assert not result.completed


class TestParallelDeterminism:
    def test_counter_spec_workers_agree(self):
        seq = ExplorationEngine(counter_spec(max_x=8, y_bound=99), workers=1).run()
        par = ExplorationEngine(counter_spec(max_x=8, y_bound=99), workers=2).run()
        assert seq.states_explored == par.states_explored
        assert seq.transitions == par.transitions
        assert seq.max_depth == par.max_depth
        assert seq.completed and par.completed

    def test_zookeeper_small_config_workers_agree(self):
        # V391 small config: the parallel engine must report exactly the
        # sequential violation set and state count.
        budget = dict(max_states=6_000, max_time=120)
        seq = check_spec("mSpec-3", SMALL, workers=1, **budget)
        par = check_spec("mSpec-3", SMALL, workers=2, **budget)
        assert seq.states_explored == par.states_explored
        assert seq.transitions == par.transitions
        assert [
            (v.invariant.full_name, v.depth) for v in seq.violations
        ] == [(v.invariant.full_name, v.depth) for v in par.violations]

    @pytest.mark.skipif(not parallel.available(), reason="needs fork")
    def test_dead_bfs_worker_is_a_truthful_error(self, monkeypatch):
        """SIGKILL one BFS worker before round 3: the run must end in an
        error naming the worker and the round -- not a bare EOFError from
        inside multiprocessing -- with every sibling reaped."""
        pids = []
        healthy_round = parallel.WorkerPool.round

        def sabotaged_round(pool, *args):
            if pool.rounds == 2:
                pids.extend(pool.band.pid(c) for c in pool.band.connections)
                os.kill(pids[0], signal.SIGKILL)
            return healthy_round(pool, *args)

        monkeypatch.setattr(parallel.WorkerPool, "round", sabotaged_round)
        with pytest.raises(
            RuntimeError, match=r"BFS worker 0 \(pid \d+\) died in round 3"
        ) as caught:
            ExplorationEngine(counter_spec(max_x=8, y_bound=99), workers=2).run()
        assert len(pids) == 2 and f"pid {pids[0]}" in str(caught.value)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.slow
    def test_zookeeper_violation_workers_agree(self):
        budget = dict(max_states=30_000, max_time=300)
        seq = check_spec("mSpec-3", SMALL, workers=1, **budget)
        par = check_spec("mSpec-3", SMALL, workers=4, **budget)
        assert seq.found_violation and par.found_violation
        assert seq.states_explored == par.states_explored
        assert [
            (v.invariant.full_name, v.depth) for v in seq.violations
        ] == [(v.invariant.full_name, v.depth) for v in par.violations]


class TestEngineOnZooKeeper:
    def test_engine_matches_legacy_checker(self):
        # The reference arm is the independent, memo-free enumeration the
        # engine is held to; both arms share the budget semantics, so the
        # comparison is exact.
        budget = dict(max_states=4_000, max_time=120)
        kernel = check_spec("mSpec-2", SMALL, **budget)
        reference = check_spec("mSpec-2", SMALL, reference=True, **budget)
        assert kernel.states_explored == reference.states_explored == 4_000
        assert kernel.transitions == reference.transitions
        assert kernel.max_depth == reference.max_depth
        assert [
            (v.invariant.full_name, v.trace.labels) for v in kernel.violations
        ] == [(v.invariant.full_name, v.trace.labels) for v in reference.violations]

    def test_fingerprint_dedup_matches_full_state_dedup(self):
        # A collision (or a fingerprint/equality mismatch) would make the
        # engine's fingerprint count drift from the number of distinct
        # states, which only a full-state visited set can observe.
        # Enumerate a small complete space by Specification.successors
        # into a set of full values tuples and require equality.
        from repro.zookeeper.specs import SELECTIONS, build_spec

        tiny = ZkConfig(max_txns=1, max_crashes=0, max_partitions=0, max_epoch=1)
        spec = build_spec("mSpec-3", SELECTIONS["mSpec-3"], tiny)
        spec.invariants = []  # violating states are terminal in the engine
        values = {init.values for init in spec.initial_states()}
        frontier = list(spec.initial_states())
        while frontier:
            state = frontier.pop()
            if not spec.within_constraint(state):
                continue
            for _, nxt in spec.successors(state):
                if nxt.values not in values:
                    values.add(nxt.values)
                    frontier.append(nxt)
        for reference in (False, True):
            result = ExplorationEngine(spec, reference=reference).run()
            assert result.completed
            assert result.states_explored == len(values) == 1069

    def test_invariant_memoization_is_sound_on_zk(self):
        fast = check_spec("mSpec-3", SMALL, max_states=4_000, max_time=120)
        slow = check_spec(
            "mSpec-3", SMALL, max_states=4_000, max_time=120, reference=True
        )
        assert fast.states_explored == slow.states_explored
        assert fast.transitions == slow.transitions
        assert [v.invariant.full_name for v in fast.violations] == [
            v.invariant.full_name for v in slow.violations
        ]


class TestBudgets:
    @pytest.mark.parametrize(
        "strategy,extra",
        [
            ("bfs", {}),
            ("bfs", {"workers": 2}),
            ("dfs", {}),
            ("dfs", {"workers": 2}),  # one in-process loop: workers is moot
            ("random", {}),
        ],
    )
    def test_max_time_zero_expands_nothing(self, strategy, extra):
        # Every loop tests the wall clock the same way (elapsed >=
        # max_time), so a zero budget expands nothing in any of them.
        result = explore(
            counter_spec(max_x=50, y_bound=99), strategy=strategy, max_time=0, **extra
        )
        assert result.budget_exhausted == "max_time"
        assert result.transitions == 0
        assert not result.completed and not result.found_violation


class TestCompiledSpec:
    def test_evaluation_tiers_cover_all_instances(self):
        # Every instance must be resolved by exactly one evaluation
        # tier: a memoized outcome group, the direct (wide-closure)
        # sweep, or the ungrouped (undeclared-reads) sweep.
        spec = counter_spec()
        core = CompiledSpec(spec)
        covered = 0
        for _, members in core.outcome_groups:
            for idx in members:
                assert not (covered >> idx) & 1
                covered |= 1 << idx
        for idx in core.eager:
            assert not (covered >> idx) & 1
            covered |= 1 << idx
        assert covered == (1 << core.n_instances) - 1
        # There is no third (guard-memo) tier; the key stays for bench/.
        assert core.memo_stats()["guard_groups"] == []

    def test_classify_reports_violations(self):
        spec = counter_spec(y_bound=0)
        core = CompiledSpec(spec)
        bad = State.make(SCHEMA, x=1, y=1)
        viols, masked, ok = core.classify_values(bad.values)
        assert viols and not masked and ok


class TestShrinkRoundTrip:
    def test_dfs_trace_shrinks_to_bfs_minimum(self):
        spec = counter_spec()
        dfs = explore(spec, strategy="dfs", max_depth=25)
        assert dfs.found_violation
        shrunk = shrink_trace(
            spec, dfs.first_violation.trace, violation_predicate(spec, "I-1")
        )
        assert len(shrunk) == 6  # the BFS minimum
        replayed = spec.replay(shrunk.labels, shrunk.initial)
        assert replayed == shrunk.states
        assert shrunk.final.y == 3

    def test_random_trace_shrinks_and_replays(self):
        spec = counter_spec()
        result = explore(spec, strategy="random", seed=11, max_states=5_000)
        assert result.found_violation
        shrunk = shrink_trace(
            spec,
            result.first_violation.trace,
            violation_predicate(spec, "I-1"),
        )
        assert len(shrunk) <= len(result.first_violation.trace)
        assert spec.replay(shrunk.labels, shrunk.initial)[-1] == shrunk.final


def random_spec(seed):
    """A random finite guarded-counter spec with *honest* dependency
    declarations: every action's guard reads only its declared reads,
    and every update value is computed from the written variable itself,
    the declared reads, and the declared update_sources -- exactly the
    contract :meth:`Action.dependency_closure` documents.  Roughly one
    action in five omits its reads declaration to exercise the
    never-memoized path."""
    rng = random.Random(seed)
    n_vars = rng.randint(3, 6)
    names = tuple(f"v{i}" for i in range(n_vars))
    schema = Schema(names)
    actions = []
    for a in range(rng.randint(3, 7)):
        guard_vars = tuple(rng.sample(names, rng.randint(1, min(3, n_vars))))
        write_vars = tuple(rng.sample(names, rng.randint(1, 2)))
        sources = {
            w: tuple(rng.sample(names, rng.randint(0, 2))) for w in write_vars
        }
        threshold = rng.randint(0, 3)
        modulus = rng.randint(2, 4)

        def fn(
            config,
            state,
            _g=guard_vars,
            _w=write_vars,
            _s=sources,
            _t=threshold,
            _m=modulus,
        ):
            if sum(state[v] for v in _g) % _m == _t % _m:
                return None
            return {
                w: (state[w] + 1 + sum(state[s] for s in _s[w])) % 5
                for w in _w
            }

        declare = rng.random() < 0.8
        actions.append(
            Action(
                f"A{a}",
                fn,
                reads=guard_vars if declare else (),
                writes=write_vars,
                update_sources=sources if declare else None,
            )
        )
    init = State.make(schema, **{v: 0 for v in names})
    bound = rng.randint(4, 8)
    invariant = Invariant(
        "I-R",
        "sum bounded",
        lambda cfg, s, _n=names, _b=bound: sum(s[v] for v in _n) <= _b,
        reads=frozenset(names) if rng.random() < 0.5 else frozenset(),
    )
    return Specification(
        f"rand-{seed}",
        schema,
        lambda cfg: [init],
        [Module("rand", actions)],
        [invariant],
        None,
    )


class TestIncrementalProperties:
    """Property tests over seeded random specs: the incremental paths
    must be bit-identical to full recomputation."""

    def test_incremental_fingerprints_match_full_on_random_walks(self):
        for seed in range(8):
            spec = random_spec(seed)
            inc = IncrementalFingerprinter(spec.schema)
            full = Fingerprinter()
            rng = random.Random(seed * 7 + 1)
            state = spec.initial_states()[0]
            fp = inc.of_state(state)
            assert fp == full.of_state(state)
            for _ in range(40):
                options = list(spec.successors(state))
                if not options:
                    break
                _, nxt = rng.choice(options)
                updates = {
                    name: new for name, (_, new) in state.diff(nxt).items()
                }
                stepped, delta = state.set_many(updates, fingerprinter=inc)
                assert stepped == nxt
                fp ^= delta
                assert fp == full.of_state(nxt), f"seed {seed}"
                state = nxt

    def test_expand_candidates_match_brute_force_on_random_walks(self):
        # Walk each random spec through the kernel's expand chain
        # (inherited disabled bits, outcome memo warm across steps) and
        # compare every candidate list against the reference expander:
        # same instances, same successor values, same fingerprints.
        for seed in range(8):
            spec = random_spec(seed)
            # random_spec's closures-over-defaults defeat the static
            # analyzer (D05), so debug=True is what emits their kernel.
            core = CompiledSpec(spec, debug=True)
            brute = CompiledSpec(spec, reference=True)
            assert core.kernel is not None and brute.kernel is None
            rng = random.Random(seed * 13 + 5)
            values = spec.initial_states()[0].values
            fp = core.fingerprinter.of_values(values)
            known = 0
            for _ in range(30):
                ((_, _, fast),) = core.expand_batch(
                    [(fp, values, known)], classify_candidates=False
                )
                _, slow = brute.reference_expand(values, classify_candidates=False)
                assert [c[:3] for c in fast] == [c[:3] for c in slow], f"seed {seed}"
                if not fast:
                    break
                _, values, fp, known, *_ = rng.choice(fast)

    def test_reference_expand_is_specification_successors(self):
        # The oracle is pinned to the semantic definition: on every state
        # of seeded walks -- over random honest specs and over one grain
        # per shipped plugin -- reference_expand yields exactly
        # list(spec.successors(state)), labels and successor values, in
        # order, each with its full fingerprint.
        from repro.remix.registry import system_plugin

        specs = [random_spec(seed) for seed in range(8)]
        for system, grain in (("zookeeper", "mSpec-3"), ("raft", "raft-fine")):
            plugin = system_plugin(system)
            specs.append(plugin.make_spec(grain, plugin.default_config()))
        for n, spec in enumerate(specs):
            core = CompiledSpec(spec, reference=True)
            for state in RandomWalker(spec, seed=n, compiled=core).walk(40).states:
                transitions, candidates = core.reference_expand(
                    state.values, classify_candidates=False
                )
                want = list(spec.successors(state))
                assert transitions == len(want)
                assert [
                    (core.labels[c[0]], c[1]) for c in candidates
                ] == [(label, nxt.values) for label, nxt in want], spec.name
                assert [c[2] for c in candidates] == [
                    Fingerprinter().of_values(nxt.values) for _, nxt in want
                ]

    def test_random_specs_explore_identically_with_and_without_memo(self):
        for seed in range(10):
            spec = random_spec(seed)
            kernel_engine = ExplorationEngine(spec, max_states=3_000, debug=True)
            fast = kernel_engine.run()
            assert kernel_engine.core.memo_stats()["mode"] == "compiled"
            slow = ExplorationEngine(
                random_spec(seed), max_states=3_000, reference=True
            ).run()
            assert fast.states_explored == slow.states_explored, f"seed {seed}"
            assert fast.transitions == slow.transitions, f"seed {seed}"
            assert fast.max_depth == slow.max_depth
            assert [v.invariant.ident for v in fast.violations] == [
                v.invariant.ident for v in slow.violations
            ]

    def test_random_specs_pass_debug_cross_checks(self):
        # debug=True cross-checks every kernel batch against the
        # reference expander; an unsound memo hit raises AssertionError.
        for seed in range(6):
            ExplorationEngine(random_spec(seed), max_states=1_500, debug=True).run()

    def test_zookeeper_specs_pass_debug_cross_checks(self):
        # The walkers and the campaign ride the kernel's memoized
        # outcomes, so the real specs' reads/writes/update_sources
        # declarations are load-bearing: sweep them under the debug
        # cross-check (this is what caught the NodeCrash and
        # FollowerSyncProcessorLogRequest undeclared update sources).
        for name in ("SysSpec", "mSpec-3"):
            check_spec(name, SMALL, max_states=2_500, max_time=60, debug=True)

    def test_debug_mode_catches_untruthful_declaration(self):
        # The update reads y but declares neither reads nor sources for
        # it: two states sharing the closure projection {x} but
        # differing in y make the memoized outcome wrong, and debug mode
        # must flag it.
        def lying(config, state):
            if state.x >= 3:
                return None
            return {"x": (state.x + 1 + state.y) % 5}

        def inc_y(config, state):
            return {"y": state.y + 1} if state.y < 3 else None

        module = Module(
            "lying",
            [
                Action("Lying", lying, reads=["x"], writes=["x"]),
                Action("IncY", inc_y, reads=["y"], writes=["y"]),
            ],
        )
        spec = Specification(
            "lying",
            SCHEMA,
            lambda cfg: [State.make(SCHEMA, x=0, y=0)],
            [module],
            [Invariant("I-1", "true", lambda cfg, s: True)],
            None,
        )
        with pytest.raises(AssertionError, match="Lying"):
            ExplorationEngine(spec, max_states=2_000, debug=True).run()

    def test_walker_matches_successors_enumeration(self):
        # RandomWalker steps through CompiledSpec.step; a matching
        # seed must choose exactly the label sequence the
        # Specification.successors enumeration implies (the conformance
        # campaign's finding fingerprints depend on this).
        for seed in range(6):
            spec = random_spec(seed)
            # debug=True: the walker rides the (cross-checked) kernel even
            # though the analyzer cannot prove random_spec's closures.
            core = CompiledSpec(spec, debug=True)
            walked = RandomWalker(spec, seed=seed, compiled=core).walk(25)
            rng = random.Random(seed)
            state = rng.choice(spec.initial_states())
            labels = []
            for _ in range(25):
                if not spec.within_constraint(state):
                    break
                options = list(spec.successors(state))
                if not options:
                    break
                label, state = rng.choice(options)
                labels.append(label)
            assert walked.labels == labels
            assert walked.final == state

    def test_compiled_for_caches_on_spec(self):
        spec = counter_spec()
        assert compiled_for(spec) is compiled_for(spec)
        assert RandomWalker(spec)._core is compiled_for(spec)
        # Non-default configurations never share the cached core.
        assert compiled_for(spec, reference=True) is not compiled_for(spec)


class TestCompiledKernelLane:
    """Differential fuzz: the compiled successor kernels must enumerate
    bitwise-identically to the reference expander -- same states, same
    transitions, same violations -- on random honest specs and on the
    real ZooKeeper specs."""

    @staticmethod
    def _sig(result):
        return (
            result.states_explored,
            result.transitions,
            result.max_depth,
            sorted(
                (v.invariant.full_name, len(v.trace)) for v in result.violations
            ),
        )

    def test_fuzzed_random_specs_identical(self):
        for seed in range(10):
            sigs = {}
            for reference in (False, True):
                engine = ExplorationEngine(
                    random_spec(seed),
                    max_states=2_000,
                    reference=reference,
                    debug=not reference,  # the analyzer cannot prove these
                )
                sigs[reference] = self._sig(engine.run())
                assert (engine.core.kernel is None) == reference
            assert sigs[False] == sigs[True], f"seed {seed}"

    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_zookeeper_compiled_identical(self, strategy):
        sigs = {}
        for reference in (False, True):
            result = check_spec(
                "mSpec-3",
                SMALL,
                strategy=strategy,
                max_states=2_000,
                max_time=60,
                reference=reference,
            )
            sigs[reference] = self._sig(result)
        assert sigs[False] == sigs[True]

    def test_zookeeper_kernel_passes_debug_cross_check(self):
        # --debug-deps re-evaluates every kernel batch against the
        # reference expander.
        check_spec("mSpec-3", SMALL, max_states=1_500, max_time=60, debug=True)

    I14 = [("I-14/COMMIT_UNMATCHED_IN_SYNC", 13)]
    #: (states, transitions, max_depth, violations) per (strategy, masked);
    #: both bfs rows (workers 1 and 2) share one entry.
    PINNED = {
        ("bfs", True): (3000, 5337, 14, []),
        ("dfs", True): (3000, 5011, 20, []),
        ("random", True): (603, 3310, 22, []),
        ("bfs", False): (2681, 4782, 13, I14),
        ("dfs", False): (29, 54, 17, [("I-14/COMMIT_UNMATCHED_IN_SYNC", 16)]),
        ("random", False): (603, 3310, 22, []),
    }

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize(
        "strategy,extra",
        [
            ("bfs", {}),
            ("bfs", {"workers": 2, "dedupe": "rounds"}),
            ("dfs", {"max_depth": 20}),
            # walks revisit states: a small distinct-state budget keeps the
            # cut deterministic (max_states, never max_time)
            ("random", {"seed": 3, "max_states": 600}),
        ],
    )
    def test_kernel_matches_reference_matrix(self, strategy, extra, masked):
        # mSpec-1 with and without the ZK-4394 mask: unmasked, the budget
        # reaches I-14, so counterexample label chains are compared too.
        # PINNED is the oracle the PR 21 and PR 22 deletions (shared
        # dedupe, FrontierBatch; the portfolio) were held to: the answers
        # of the commit before them.
        sigs = {}
        budget = {"max_states": 3_000, "max_time": 120, **extra}
        for reference in (False, True):
            result = check_spec(
                "mSpec-1",
                SMALL,
                strategy=strategy,
                mask=zk4394_mask if masked else None,
                reference=reference,
                **budget,
            )
            assert result.budget_exhausted != "max_time"
            sigs[reference] = self._sig(result) + (
                [v.trace.labels for v in result.violations],
            )
        assert sigs[False] == sigs[True]
        assert sigs[True][:4] == self.PINNED[strategy, masked]

    def test_untrusted_spec_falls_back_in_auto(self):
        # A spec with a lint finding on a trust-critical rule runs on the
        # reference expander (loudly) while --debug-deps still emits --
        # and cross-checks -- the kernel.  Every shipped composition is
        # trusted (tests/test_guards.py), so the example is a spec built
        # to lie.
        from test_kernels import lying_spec

        with pytest.warns(RuntimeWarning, match="liar.*D01"):
            assert compiled_for(lying_spec()).kernel is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # debug never consults the analyzer
            assert compiled_for(lying_spec(), debug=True).kernel is not None


class TestValuePickling:
    def test_rec_round_trips(self):
        rec = Rec(mtype="ACK", zxid=(1, 2))
        clone = pickle.loads(pickle.dumps(rec))
        assert clone == rec and hash(clone) == hash(rec)

    def test_state_round_trips_and_compares_equal(self):
        state = State.make(SCHEMA, x=2, y=1)
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state
        assert clone.schema is state.schema  # schemas are interned
