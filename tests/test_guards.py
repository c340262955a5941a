"""Guard prefixes: the tracer on toy actions, the structural rule that
ties a prefix to the declared reads, the differential sweep over every
shipped composition, and a mutated atom caught by ``--debug-deps``."""

import warnings
from functools import partial

import pytest

from repro.checker import ExplorationEngine
from repro.checker import engine as engine_module
from repro.checker.engine import CompiledSpec, compiled_for, kernel_trusted
from repro.remix.registry import registered_systems, system_plugin
from repro.tla import guards
from repro.tla.guards import NO_PREFIX, Atom, Const, guard_prefix, render, variables
from repro.zab.protocol import VARIANTS, ZabConfig, zab_spec
from repro.zookeeper import zk4394_mask
from repro.zookeeper.specs import SELECTIONS, build_spec

from test_engine import SMALL, random_spec
from test_kernels import counter_spec, lying_spec, run_sig

NAMES = ("x", "y", "z", "box")


def prefix_of(fn, reads=frozenset(NAMES)):
    return guard_prefix(fn, None, NAMES, frozenset(reads))


def rendered(fn, **kwargs):
    return [render(atom) for atom in prefix_of(fn, **kwargs).atoms]


class TestTracer:
    def test_three_guards_in_source_order(self):
        def fn(config, state, i):
            head = state["box"][i][0] if state["box"][i] else None
            if head is None or head.kind != "ACK":
                return None
            if state.x < 2:
                return None
            return {"x": state.x - 1}

        assert rendered(partial(fn, i=1)) == [
            "box[1]",
            "box[1][0].kind == 'ACK'",
            "not x < 2",
        ]

    def test_path_against_path_and_reflected_operands(self):
        def fn(config, state):
            if 3 <= state.x or state.y != state.z:
                return None
            return {}

        assert rendered(fn) == ["not x >= 3", "y == z"]

    @pytest.mark.parametrize(
        "unmodelled",
        [
            lambda value: len(value) > 1,
            lambda value: any(True for _ in value),
            lambda value: 1 in value,
            lambda value: value in {1, 2},
            lambda value: value + 1 > 2,
            lambda value: value[1:],
            lambda value: value == (1, 2),  # a non-literal operand
            lambda value: value.count(1),  # a call
            lambda value: f"{value}" == "1",
        ],
    )
    def test_prefix_ends_at_the_first_unmodelled_operation(self, unmodelled):
        def fn(config, state):
            if state.x != 1:
                return None
            if unmodelled(state.y):
                return None
            if state.z != 2:
                return None
            return {}

        assert rendered(fn) == ["x == 1"]

    def test_signals_are_not_exceptions(self):
        # A spec helper's ``except Exception`` must not turn an
        # unmodelled operation into a wrong answer and a longer prefix.
        assert not issubclass(guards.Untraceable, Exception)
        assert not issubclass(guards.BeyondScript, Exception)

        def lenient(value):
            try:
                return len(value) > 0
            except Exception:
                return True

        def fn(config, state):
            if state.x != 1:
                return None
            if not lenient(state.y):
                return None
            if state.z != 2:
                return None
            return {}

        assert rendered(fn) == ["x == 1"]

    def test_a_swallowed_signal_still_ends_the_run(self):
        def swallow(value):
            try:
                return len(value) > 0
            except BaseException:
                return True

        def fn(config, state):
            if state.x != 1:
                return None
            if not swallow(state.y):
                return None
            if state.z != 2:
                return None
            return {}

        assert rendered(fn) == ["x == 1"]

    def test_a_different_decision_on_replay_gets_no_prefix(self):
        runs = []

        def fn(config, state):
            runs.append(None)
            if (state.x if len(runs) % 2 else state.y) != 1:
                return None
            return {}

        assert prefix_of(fn) == NO_PREFIX

    def test_both_answers_none_is_dead(self):
        def never(config, state):
            if state.x != 1:
                return None
            if state.y == 2:
                return None
            return None

        def not_even_asked(config, state, i, j):
            if i == j:
                return None
            return {} if state.x else None

        assert prefix_of(never).dead
        assert prefix_of(partial(not_even_asked, i=0, j=0)).dead
        assert rendered(partial(not_even_asked, i=0, j=1)) == ["x"]

    def test_a_disjunction_ends_the_prefix(self):
        # ``x in (1, 2)``: neither answer of ``x == 1`` returns at once.
        def fn(config, state):
            if state.x not in (1, 2):
                return None
            return {}

        assert prefix_of(fn) == NO_PREFIX

    def test_a_raising_function_keeps_the_applier_call(self):
        def broken(config, state):
            if state.x != 1:
                return None
            raise ValueError("not on a symbolic state")

        def unknown_variable(config, state):
            return None if state.nope else {}

        assert rendered(broken) == ["x == 1"]
        assert prefix_of(unknown_variable) == NO_PREFIX

    def test_random_specs_compile_and_pass_the_cross_check(self):
        # ``sum(state[v] ...)`` is arithmetic on the first guard: no
        # prefix, no failed compilation, same enumeration.
        for seed in range(6):
            core = CompiledSpec(random_spec(seed), debug=True)
            assert core.kernel is not None
            assert all(prefix == NO_PREFIX for prefix in core.guard_prefixes)
            ExplorationEngine(random_spec(seed), max_states=800, debug=True).run()


def compositions():
    """Every shipped composition: each plugin grain, each ZooKeeper
    selection, each Zab variant."""
    for system in registered_systems():
        plugin = system_plugin(system)
        for grain in plugin.grains:
            yield pytest.param(
                partial(plugin.make_spec, grain, plugin.default_config()),
                id=f"{system}-{grain}",
            )
    for name, selection in SELECTIONS.items():
        yield pytest.param(partial(build_spec, name, selection, SMALL), id=name)
    for variant in VARIANTS:
        yield pytest.param(
            partial(zab_spec, ZabConfig(variant=variant)), id=f"zab-{variant}"
        )


class TestShippedCompositions:
    @pytest.mark.parametrize("make", compositions())
    def test_kernel_trusted_without_a_warning(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_trusted(make())

    @pytest.mark.parametrize("make", compositions())
    def test_prefixes_mention_declared_reads_only(self, make):
        # What makes a prefix-disabled bit stored in a memo entry, or
        # inherited through ``affects``, a function of the key it is
        # filed under.
        core = compiled_for(make())
        assert any(prefix.atoms for prefix in core.guard_prefixes)
        for action, prefix in zip(core.actions, core.guard_prefixes):
            for atom in prefix.atoms:
                assert variables(atom) <= action.reads, (action.name, render(atom))

    @pytest.mark.parametrize("make", compositions())
    def test_kernel_equals_reference_on_every_batch(self, make):
        budget = dict(max_states=2_500, stop_at_first=False)
        checked = ExplorationEngine(make(), debug=True, **budget)
        reference = ExplorationEngine(make(), reference=True, **budget)
        assert run_sig(checked.run()) == run_sig(reference.run())
        stats = checked.core.memo_stats()["guard_prefixes"]
        assert stats["with_prefix"] > 0

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("strategy", engine_module.STRATEGIES)
    def test_every_strategy_on_one_grain(self, strategy, masked):
        sigs = []
        for pin in ({"debug": True}, {"reference": True}):
            spec = build_spec("mSpec-3", SELECTIONS["mSpec-3"], SMALL)
            result = ExplorationEngine(
                spec,
                strategy,
                mask=zk4394_mask if masked else None,
                max_states=1_200,
                seed=11,
                **pin,
            ).run()
            sigs.append(run_sig(result) + ([v.trace.labels for v in result.violations],))
        assert sigs[0] == sigs[1]


class TestStructuralRule:
    def test_a_prefix_outside_the_declared_reads_is_dropped(self):
        honest = compiled_for(counter_spec())
        assert [render(a) for a in honest.guard_prefixes[1].atoms] == ["not y >= x"]
        # Same function, but IncY declares ``reads=["y"]`` only.
        liar = CompiledSpec(lying_spec(), debug=True)
        assert liar.guard_prefixes[1] == NO_PREFIX
        assert liar.guard_prefixes[0].atoms  # IncX is honest and keeps its own

    def test_undeclared_reads_get_no_prefix(self):
        def step(config, state):
            return {"x": state.x + 1} if state.x < 2 else None

        assert prefix_of(step, reads=()) == NO_PREFIX


class TestMutatedAtomIsCaught:
    def test_debug_deps_names_the_action(self, monkeypatch):
        def flipped(applier, config, names, reads):
            prefix = guard_prefix(applier, config, names, reads)
            # ElectionAndDiscovery(i, Q) only; i outside Q is dead
            if "Q" not in applier.keywords or not prefix.atoms:
                return prefix
            first = prefix.atoms[0]
            assert first.test.right == Const("LOOKING")
            wrong = Atom(first.test._replace(right=Const("DOWN")), first.passing)
            return prefix._replace(atoms=(wrong,) + prefix.atoms[1:])

        monkeypatch.setattr(engine_module, "guard_prefix", flipped)
        # No compile bundle: its key covers guards.py's source, not a
        # function patched in this process (tests/test_compile_bundle.py
        # plants the same wrong atom *in* a bundle instead).
        monkeypatch.setenv("REPRO_SPEC_CACHE_DIR", "off")
        spec = build_spec("mSpec-1", SELECTIONS["mSpec-1"], SMALL)
        engine = ExplorationEngine(spec, max_states=500, debug=True)
        with pytest.raises(AssertionError, match="action ElectionAndDiscovery"):
            engine.run()


class TestHonestCounters:
    def test_skips_are_not_lookups(self):
        spec = build_spec("mSpec-3", SELECTIONS["mSpec-3"], SMALL)
        engine = ExplorationEngine(spec, max_states=2_000, stop_at_first=False)
        engine.run()
        stats = engine.core.memo_stats()
        calls = stats["expand_calls"]
        rows = stats["outcome_groups"] + stats["demoted_groups"]
        assert any(row["skipped"] for row in rows)
        for row, memo in zip(stats["outcome_groups"], engine.core.outcome_memos):
            assert row["lookups"] + row["skipped"] == calls
            assert 0 <= row["hits"] <= row["lookups"]
            # every miss files one entry (no memo reached its cap here)
            assert row["lookups"] - row["hits"] == row["entries"] == len(memo)

    def test_stats_render_each_action_once(self):
        spec = build_spec("mSpec-3", SELECTIONS["mSpec-3"], SMALL)
        stats = compiled_for(spec).memo_stats()["guard_prefixes"]
        assert stats["instances"] == len(spec.action_instances())
        assert 0 < stats["with_prefix"] <= stats["instances"] - stats["dead"]
        assert stats["atoms"] >= stats["with_prefix"]
        assert stats["actions"]["FollowerProcessCOMMIT"] == [
            "msgs[1][0]",
            "msgs[1][0][0].mtype == 'COMMIT'",
            "state[0] == 'FOLLOWING'",
            "my_leader[0] == 1",
            "zab_state[0] == 'BROADCAST'",
        ]
        assert set(stats["actions"]) == {action.name for action in spec.actions}

    def test_reference_mode_has_no_prefixes(self):
        core = compiled_for(counter_spec(), reference=True)
        assert core.guard_prefixes == []
        assert core.memo_stats()["guard_prefixes"]["instances"] == 0
