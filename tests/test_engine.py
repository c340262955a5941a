"""Tests for the unified exploration engine: fingerprinting, the
kernel-vs-reference-expander differential (guard, outcome and invariant
memoization soundness) and budgets."""

import pickle
import random
import warnings

import pytest

from repro.checker import (
    ExplorationEngine,
    Fingerprinter,
    IncrementalFingerprinter,
    RandomWalker,
    explore,
)
from repro.checker import engine as engine_module
from repro.checker.engine import STRATEGIES, CompiledSpec, compiled_for
from repro.checker.fingerprint import FingerprintError, canonical_bytes
from repro.tla.action import Action
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State
from repro.tla.values import Rec, Txn, Zxid
from repro.zookeeper import ZkConfig, make_spec, zk4394_mask

from conftest import SCHEMA, SMALL, counter_spec, lying_spec, run_sig
from shipped import label_digest

#: ``mSpec-1`` at ``SMALL`` to 3 000 states, with and without the ZK-4394
#: mask: (states, transitions, max_depth, violations) per (strategy,
#: masked), each violation its invariant and counterexample length.  The
#: answers every engine change is held to
#: (``TestCompiledKernelLane.test_kernel_matches_reference_matrix`` runs
#: them).
PINNED = {
    ("bfs", True): (3000, 5337, 14, []),
    ("dfs", True): (3000, 5011, 20, []),
    ("bfs", False): (2681, 4782, 13, [("I-14/COMMIT_UNMATCHED_IN_SYNC", 13)]),
    ("dfs", False): (29, 54, 17, [("I-14/COMMIT_UNMATCHED_IN_SYNC", 16)]),
}


class TestFingerprinter:
    def test_deterministic_across_instances(self):
        state = State.make(SCHEMA, x=3, y=1)
        assert Fingerprinter().of_values(state.values) == Fingerprinter().of_values(state.values)

    def test_distinct_states_differ(self):
        a = Fingerprinter()
        fps = {
            a.of_values(State.make(SCHEMA, x=x, y=y).values)
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
        assert fp.of_values(a.values) == fp.of_values(b.values)

    def test_namedtuple_encodes_as_tuple(self):
        # Txn == plain tuple of its fields, mirrored by the encoding.
        txn = Txn(Zxid(1, 2), 3)
        assert canonical_bytes((txn,)) == canonical_bytes((((1, 2), 3),))

    def test_rec_distinct_from_items_tuple(self):
        rec = Rec(a=1)
        assert canonical_bytes((rec,)) != canonical_bytes(((("a", 1),),))

    def test_incremental_delta_matches_full(self):
        inc = IncrementalFingerprinter(Schema(("a", "b", "c")))
        base = (1, (2, 3), "s")
        successor = (1, (2, 4), "s")
        incremental = inc.of_values(base) ^ inc.delta(base, {"b": (2, 4)})
        assert incremental == Fingerprinter().of_values(successor)

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
    @pytest.mark.parametrize(
        "strategy, budget", [("bfs", {}), ("dfs", {"max_depth": 20})], ids=STRATEGIES
    )
    def test_complete_space_counts_exactly(self, strategy, budget):
        result = explore(counter_spec(max_x=2, y_bound=5), strategy=strategy, **budget)
        assert result.completed and not result.found_violation
        # x in 0..2, y in 0..x: 1 + 2 + 3
        assert result.states_explored == 6

    def test_mask_hides_and_prunes(self):
        masked = explore(counter_spec(), mask=lambda s: s.y >= 3, stop_at_first=False)
        assert not masked.found_violation
        assert masked.completed

    def test_constraint_bounds_exploration(self):
        spec = counter_spec(max_x=50, y_bound=99, constraint=lambda cfg, s: s.x <= 2)
        result = explore(spec)
        assert result.completed
        assert result.max_depth <= 6

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

    def test_collision_handling_terminates_and_undercounts(self, monkeypatch):
        # A 3-bit fingerprint space cannot hold the 28 distinct states:
        # colliding states are silently merged, never duplicated, and
        # the run still terminates.
        monkeypatch.setattr(engine_module, "Fingerprinter", lambda: Fingerprinter(bits=3))
        result = ExplorationEngine(counter_spec(max_x=6, y_bound=99)).run()
        assert result.completed
        assert result.states_explored <= 8

    def test_full_width_matches_exact_dedup(self):
        exact = ExplorationEngine(counter_spec(max_x=6, y_bound=99)).run()
        assert exact.completed
        assert exact.states_explored == 28  # x in 0..6, y in 0..x

    @pytest.mark.parametrize("run", [ExplorationEngine, explore])
    def test_seed_keyword_is_gone(self, run):
        # Only the deleted random strategy read a seed; RandomWalker
        # takes the one seed a model walk needs.
        with pytest.raises(TypeError, match="seed"):
            run(counter_spec(), seed=3)

    def test_unknown_strategy_rejected(self):
        for strategy in ("bogus", "portfolio", "random"):  # the last two removed
            with pytest.raises(ValueError, match="unknown strategy"):
                ExplorationEngine(counter_spec(), strategy=strategy)
        assert set(STRATEGIES) == {"bfs", "dfs"}

    def test_rounds_is_the_only_dedupe_mode(self):
        # The keyword outlives --dedupe only because bench/probes.py
        # passes it; the shared-memory mode is gone, not ignored.
        for mode in ("shared", "bogus"):
            with pytest.raises(ValueError, match="removed every mode but 'rounds'"):
                ExplorationEngine(counter_spec(), dedupe=mode)

    def test_workers_is_accepted_and_runs_sequentially(self):
        # Like dedupe, the keyword outlives parallel BFS only because
        # bench/probes.py passes it (with dedupe="rounds", as here):
        # workers=2 is the sequential run.
        budget = dict(max_states=30, stop_at_first=False)
        seq = ExplorationEngine(counter_spec(max_x=8), **budget).run()
        two = ExplorationEngine(counter_spec(max_x=8), workers=2, dedupe="rounds", **budget).run()
        assert seq.states_explored == 30
        assert seq.violations
        assert (seq.states_explored, seq.transitions) == (two.states_explored, two.transitions)
        assert [(v.invariant.full_name, v.trace.labels) for v in seq.violations] == [
            (v.invariant.full_name, v.trace.labels) for v in two.violations
        ]
        assert not hasattr(ExplorationEngine(counter_spec(), workers=2), "workers")


class TestEngineStrategies:
    @pytest.mark.parametrize(
        "strategy, budget", [("bfs", {}), ("dfs", {"max_depth": 20})], ids=STRATEGIES
    )
    def test_violation_trace_replays(self, strategy, budget):
        spec = counter_spec()
        result = explore(spec, strategy=strategy, **budget)
        trace = result.first_violation.trace
        assert trace.final.y == 3
        assert spec.replay(trace.labels, trace.initial)[-1] == trace.final
        assert "I-1" in result.summary()
        if strategy == "bfs":
            # minimal: x must reach 3 before y can (IncX*3 then IncY*3)
            assert result.first_violation.depth == 6

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_violating_states_are_terminal(self, strategy):
        # Every violation is recorded, all of I-1, and none is expanded:
        # no state with y == 4 is reachable.
        result = explore(
            counter_spec(max_x=9, y_bound=2),
            strategy=strategy,
            stop_at_first=False,
            violation_limit=10_000,
        )
        assert len(result.violations) > 1
        assert result.violated_invariant_ids() == ["I-1"]
        assert all(violation.trace.final.y == 3 for violation in result.violations)

    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_a_depth_bounded_run_is_not_completed(self, strategy):
        # counter_spec(max_x=6) has 28 states, the deepest at depth 12
        # (x then y up to 6), and no violation under y_bound=99.  A bound
        # that leaves states unexpanded must say so, not claim the space
        # was exhausted.
        def run(**budgets):
            return explore(counter_spec(max_x=6, y_bound=99), strategy=strategy, **budgets)

        bounded = run(max_depth=4)
        assert not bounded.completed and not bounded.found_violation
        assert bounded.budget_exhausted == "max_depth"
        assert bounded.states_explored < 28
        deep_enough = run(max_depth=13)
        assert deep_enough.completed and deep_enough.budget_exhausted is None
        assert deep_enough.states_explored == 28
        # A budget that stopped the run first is the one reported.
        assert run(max_depth=4, max_states=5).budget_exhausted == "max_states"
        # The violation at depth 6 lies beyond the bound.
        assert not explore(counter_spec(), strategy=strategy, max_depth=4).found_violation

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_violation_limit_is_honoured_by_every_strategy(self, strategy):
        # One recording rule for both loops: every violated
        # invariant reported, the run carried on past the first and
        # stopped at the limit, which is named as the exhausted budget.
        result = explore(
            make_spec("mSpec-1", SMALL), strategy=strategy,
            stop_at_first=False, violation_limit=5, max_time=120,
        )
        assert len(result.violations) == 5
        assert result.budget_exhausted == "violation_limit"
        assert not result.completed


class TestEngineOnZooKeeper:
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


#: DFS on every ``HUNTS`` row (default depth bound 40), as the engine read
#: when a stack entry still carried its whole label chain: (states,
#: transitions, depth, counterexample length, sha256 prefix of its labels
#: joined by newlines).
DFS_HUNTS = {
    "ZK-3023": (4880, 10527, 36, 27, "853dd9c746309742"),
    "ZK-4394": (29, 54, 17, 16, "1080f18c059a31f7"),
    "ZK-4643": (58450, 108948, 40, 30, "08fcb763dce4bce1"),
    "ZK-4646": (108218, 232761, 40, 30, "f6b940b39743cdfe"),
    "ZK-4685": (29, 69, 28, 28, "d313b6b88e857734"),
    "ZK-4712": (80879, 225761, 40, 35, "df2f6e0c7dad0cd9"),
}


class TestLinks:
    @pytest.mark.parametrize("bug", sorted(DFS_HUNTS))
    def test_dfs_links_rebuild_the_label_chain(self, bug):
        # A stack entry is one link into parent/action columns; the labels
        # exist only once a violation is recorded, and must be the chain a
        # pushed tuple of labels gave.
        from repro.zookeeper.specs import hunt_spec

        spec, mask = hunt_spec(bug)
        result = explore(spec, strategy="dfs", mask=mask)
        (violation,) = result.violations
        labels = violation.trace.labels
        got = (result.states_explored, result.transitions, result.max_depth)
        assert got + (len(labels), label_digest(labels)) == DFS_HUNTS[bug]
        assert violation.trace.states == spec.replay(
            violation.trace.labels, violation.trace.states[0]
        )


def wide_slot_spec(n=70_000):
    """One slot that takes ``n`` distinct values (x climbs by 1 or by
    300): more codes than 16 bits hold."""
    schema = Schema(("x", "y"))

    def step(k):
        def fn(config, state):
            return {"x": state.x + k} if state.x + k < n else None

        return fn

    module = Module(
        "wide",
        [
            Action("Step1", step(1), reads=["x"], writes=["x"]),
            Action("Step300", step(300), reads=["x"], writes=["x"]),
        ],
    )
    return Specification(
        "wide",
        schema,
        lambda cfg: [State.make(schema, x=0, y=0)],
        [module],
        [Invariant("I-1", "x bounded", lambda cfg, s: s.x < n)],
        None,
    )


class TestPackedLevels:
    """A BFS level is flat columns; these answers are the ones a list of
    row tuples gave."""

    def test_max_states_stops_mid_level(self):
        # mSpec-3 at the Table 5 configuration, every violation recorded:
        # the 50 000th state is linked while level 18 is being filled.
        # The counts are the ones a list of row tuples gave.
        config = ZkConfig(n_servers=3, max_txns=2, max_crashes=2, max_partitions=0, max_epoch=3)
        result = explore(
            make_spec("mSpec-3", config),
            mask=zk4394_mask,
            max_states=50_000,
            stop_at_first=False,
        )
        assert result.budget_exhausted == "max_states"
        got = (result.states_explored, result.transitions, result.max_depth)
        assert got + (len(result.violations),) == (50_000, 120_591, 18, 76)

    def test_codes_column_widens_past_16_bits(self):
        # The levels fill past code 65 535 mid-run; both expanders give
        # the counts a list of row tuples gave.
        spec = wide_slot_spec()
        engine = ExplorationEngine(spec)
        fast = engine.run()
        assert len(engine.core.values[0]) == 70_000
        slow = ExplorationEngine(wide_slot_spec(), reference=True).run()
        for result in (fast, slow):
            assert result.completed
            got = (result.states_explored, result.transitions, result.max_depth)
            assert got == (70_000, 139_699, 531)


class TestBudgets:
    @pytest.mark.parametrize("max_depth", [0, 1, 2])
    @pytest.mark.parametrize("max_states", [1, 2, None, 0])
    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_state_and_depth_budgets_bound_the_answer(self, strategy, max_states, max_depth):
        # Three initial states: BFS used to link all of them before it
        # tested max_states, and to expand them at max_depth=0; it also
        # linked one initial state under max_states=0.
        result = explore(
            counter_spec(max_x=6, y_bound=99, roots=3),
            strategy=strategy,
            max_states=max_states,
            max_depth=max_depth,
        )
        if max_states is not None:
            assert result.states_explored <= max_states
        assert result.max_depth <= max_depth
        assert result.budget_exhausted == ("max_depth" if max_states is None else "max_states")
        assert not result.completed

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_reports_at_most_max_states_on_a_grain(self, strategy):
        # The deleted random strategy reported 603 states under this
        # budget; the two that stay stop at the state that reaches it.
        result = explore(
            make_spec("mSpec-1", SMALL), strategy=strategy, mask=zk4394_mask, max_states=600
        )
        assert result.states_explored == 600
        assert result.budget_exhausted == "max_states"
        assert not result.found_violation

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_max_time_zero_expands_nothing(self, strategy):
        # Both loops test the wall clock the same way (elapsed >=
        # max_time), so a zero budget expands nothing in either.
        result = explore(counter_spec(max_x=50, y_bound=99), strategy=strategy, max_time=0)
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
        viols, ok = core.classify_values(core.encode(bad.values))
        assert viols and ok


def random_spec(seed):
    """A random finite guarded-counter spec with *honest* dependency
    declarations: every action's guard reads only its declared reads,
    and every update value is computed from the written variable itself,
    the declared reads, and the declared update_sources -- exactly the
    contract :meth:`Action.dependency_closure` documents.  A guard is
    either a sum modulo a constant (no guard prefix) or, two times in
    three, an if/else on ``path ± k`` comparisons (a guard-prefix tree
    with a branch).  Roughly one action in five omits its reads
    declaration to exercise the never-memoized path; each invariant
    declares its reads half the time, and the state constraint is drawn
    by :func:`random_predicate`."""
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
        style = rng.choice(("sum", "tree", "tree"))
        offsets = (rng.randint(-2, 2), rng.randint(-2, 2))
        cuts = (rng.randint(0, 4), rng.randint(0, 4))

        def fn(
            config,
            state,
            _g=guard_vars,
            _w=write_vars,
            _s=sources,
            _t=threshold,
            _m=modulus,
            _style=style,
            _o=offsets,
            _c=cuts,
        ):
            if _style == "tree":
                first, last = state[_g[0]], state[_g[-1]]
                if first + _o[0] > _c[0]:
                    if last - _o[1] == _c[1]:
                        return None
                elif last + _o[1] < _c[1]:
                    return None
            elif sum(state[v] for v in _g) % _m == _t % _m:
                return None
            return {
                w: (state[w] + 1 + sum(state[s] for s in _s[w])) % 5
                for w in _w
            }

        fn.style = style
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
    constraint = random_predicate(rng, names, "constraint")
    pair = tuple(rng.sample(names, 2))
    second = Invariant(
        "I-P",
        "pair bounded",
        lambda cfg, s, _p=pair: s[_p[0]] + s[_p[1]] <= 6,
        reads=frozenset(pair) if rng.random() < 0.5 else frozenset(),
    )
    return Specification(
        f"rand-{seed}",
        schema,
        lambda cfg: [init],
        [Module("rand", actions)],
        [invariant, second],
        None,
        constraint,
    )


def random_predicate(rng, names, kind):
    """An honest random mask (``kind="mask"``, called with the state) or
    state constraint (called with the config and the state) over one or
    two variables: absent one time in three, otherwise with its ``reads``
    declared or not -- every shape the kernel classifies."""
    shape = rng.choice(("absent", "declared", "undeclared"))
    if shape == "absent":
        return None
    on = tuple(rng.sample(names, rng.randint(1, 2)))
    limit = rng.randint(1, 4)
    if kind == "mask":

        def fn(state, _on=on, _l=limit):
            return sum(state[v] for v in _on) == _l

    else:

        def fn(config, state, _on=on, _l=limit):
            return sum(state[v] for v in _on) <= _l + 2

    if shape == "declared":
        fn.reads = frozenset(on)
    return fn


def random_mask(spec, seed):
    """A :func:`random_predicate` mask for ``random_spec(seed)``."""
    return random_predicate(random.Random(-1 - seed), spec.schema.names, "mask")


def masked_bfs(spec, mask, max_states):
    """The mask's documented meaning, by brute force over
    ``Specification.successors`` and no engine: a masked state is counted
    and linked, never judged, never expanded.  Returns ``(states,
    transitions, max_depth, violations)``, each violation its invariant's
    name and label chain, as a ``stop_at_first=False`` BFS reports them."""
    config = spec.config
    paths = {}
    frontier, violations = [], []
    transitions = 0

    def reach(state, path):  # True: the state budget is spent
        paths[state.values] = path
        if mask is None or not mask(state):
            bad = [inv.full_name for inv in spec.invariants if not inv.holds(config, state)]
            violations.extend((name, [str(label) for label in path]) for name in bad)
            if not bad and spec.within_constraint(state):
                frontier.append((state, path))
        return len(paths) >= max_states

    spent = any([reach(init, []) for init in spec.initial_states()])
    for state, path in frontier:  # grows as it is walked: layer by layer
        if spent:
            break
        successors = list(spec.successors(state))
        transitions += len(successors)
        for label, nxt in successors:
            if nxt.values not in paths and reach(nxt, path + [label]):
                spent = True
                break
    depth = max(len(path) for path in paths.values())
    return len(paths), transitions, depth, violations


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
            fp = inc.of_values(state.values)
            assert fp == full.of_values(state.values)
            for _ in range(40):
                options = list(spec.successors(state))
                if not options:
                    break
                _, nxt = rng.choice(options)
                updates = {
                    name: new for name, (_, new) in state.diff(nxt).items()
                }
                assert state.set_many(updates) == nxt
                fp ^= inc.delta(state.values, updates)
                assert fp == full.of_values(nxt.values), f"seed {seed}"
                state = nxt

    def test_expand_candidates_match_brute_force_on_random_walks(self):
        # Walk each random spec through the kernel's expand chain
        # (inherited disabled bits, outcome memo warm across steps) and
        # compare every candidate list against the reference expander:
        # same instances, same successor values, same fingerprints.  The
        # two cores number values independently, so rows compare decoded.
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
                    [(fp, core.encode(values), known)], classify_candidates=False
                )
                _, slow = brute.reference_expand(
                    brute.encode(values), classify_candidates=False
                )
                assert [(i, core.decode(c), f) for i, c, f, *_ in fast] == [
                    (i, brute.decode(c), f) for i, c, f, *_ in slow
                ], f"seed {seed}"
                if not fast:
                    break
                _, codes, fp, known, *_ = rng.choice(fast)
                values = core.decode(codes)

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
                    core.encode(state.values), classify_candidates=False
                )
                want = list(spec.successors(state))
                assert transitions == len(want)
                assert [
                    (core.labels[c[0]], core.decode(c[1])) for c in candidates
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

    def test_fuzzed_random_specs_identical(self, monkeypatch):
        # Every predicate shape -- mask and constraint absent, declared or
        # undeclared, invariants grouped or not -- through the batch sweep
        # and through classify_values (BFS roots, DFS pops).
        # The fuzzed declarations are honest by construction, but the
        # analyzer cannot read closures over defaults (D05): trust them,
        # so the kernel runs exactly as it does for a proven spec.
        monkeypatch.setattr(engine_module, "kernel_trusted", lambda *args: True)

        def run(seed, strategy, **options):
            spec = random_spec(seed)
            engine = ExplorationEngine(
                spec,
                strategy,
                mask=random_mask(spec, seed),
                stop_at_first=False,
                max_states=2_000,
                **options,
            )
            result = engine.run()
            assert (engine.core.kernel is None) == options.get("reference", False)
            return run_sig(result)

        for seed in range(10):
            for strategy in STRATEGIES:
                assert run(seed, strategy) == run(seed, strategy, reference=True), (
                    f"seed {seed}, {strategy}"
                )
            # and once under the per-batch cross-check
            run(seed, "bfs", debug=True)

    @pytest.mark.parametrize("reference", [False, True])
    def test_mask_matches_brute_force_oracle(self, monkeypatch, reference):
        # Kernel and reference expander both see the folded spec, so
        # agreeing with each other cannot catch a wrong fold: masked_bfs
        # applies the documented rule to the unfolded spec instead.
        monkeypatch.setattr(engine_module, "kernel_trusted", lambda *args: True)
        declared = set()
        for seed in range(12):
            spec = random_spec(seed)
            mask = random_mask(spec, seed)
            if mask is None:
                continue
            declared.add(bool(getattr(mask, "reads", None)))
            result = ExplorationEngine(
                spec, mask=mask, stop_at_first=False, max_states=2_000, reference=reference
            ).run()
            assert run_sig(result) == masked_bfs(random_spec(seed), mask, 2_000), f"seed {seed}"
        assert declared == {True, False}

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize(
        "strategy,extra",
        [
            ("bfs", {}),
            ("dfs", {"max_depth": 20}),
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
            result = explore(
                make_spec("mSpec-1", SMALL),
                strategy=strategy,
                mask=zk4394_mask if masked else None,
                reference=reference,
                **budget,
            )
            assert result.budget_exhausted != "max_time"
            sigs[reference] = run_sig(result)
        assert sigs[False] == sigs[True]
        *counts, violations = sigs[True]
        pinned = (*counts, [(name, len(labels)) for name, labels in violations])
        assert pinned == PINNED[strategy, masked]

    @pytest.mark.parametrize("grain", ["mSpec-3", "mSpec-3-masked", "raft-fine"])
    def test_walk_matches_reference_walk(self, grain):
        # RandomWalker is the one seeded model walk (every top-down
        # campaign cell takes it): on the kernel, on the reference
        # expander and on a debug core that cross-checks every step
        # batch, a seed draws one walk, step for step.
        if grain == "raft-fine":
            from repro.remix.registry import system_plugin

            raft = system_plugin("raft")
            spec = raft.make_spec(grain, raft.default_config())
        else:
            from repro.tla.spec import masked

            spec = make_spec("mSpec-3", SMALL)
            if grain.endswith("masked"):
                spec = masked(spec, zk4394_mask)
        cores = (
            compiled_for(spec),
            CompiledSpec(spec, reference=True),
            CompiledSpec(spec, debug=True),
        )
        assert cores[0].kernel is not None and cores[1].kernel is None
        steps = 0
        for seed in (0, 3, 11, 42):
            walks = [
                [
                    (trace.labels, trace.states)
                    for trace in RandomWalker(spec, seed=seed, compiled=core).traces(3, 50)
                ]
                for core in cores
            ]
            assert walks[0] == walks[1] == walks[2], seed
            steps += sum(len(labels) for labels, _ in walks[0])
        assert steps > 200

    def test_untrusted_spec_falls_back_in_auto(self):
        # A spec with a lint finding on a trust-critical rule runs on the
        # reference expander (loudly) while --debug-deps still emits --
        # and cross-checks -- the kernel.  Every shipped composition is
        # trusted (tests/test_guards.py), so the example is a spec built
        # to lie.
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
