"""Compiled successor kernels: emission, differential identity against the
reference expander, the lint-gated (and loud) fallback to it, adaptive
demotion under a live kernel, and the codegen-versioned cache digest."""

import random
import warnings

import pytest

from repro.checker import ExplorationEngine
from repro.checker.engine import compiled_for, kernel_trusted
from repro.tla.action import Action
from repro.tla.codegen import CODEGEN_VERSION, emit_kernel
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification, masked
from repro.tla.state import Schema, State

SCHEMA = Schema(("x", "y"))


def counter_spec(max_x=4, y_bound=2, constraint=None, name="counter"):
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
        name,
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= y_bound)],
        None,
        constraint=constraint,
    )


def lying_spec():
    """IncY's guard reads ``x`` but declares only ``y`` -- an untruthful
    dependency declaration that poisons memo/kernel entries."""

    def inc_x(config, state):
        if state.x >= 3:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:  # reads x, undeclared
            return None
        return {"y": state.y + 1}

    module = Module(
        "liar",
        [
            Action("IncX", inc_x, reads=["x"], writes=["x"]),
            Action("IncY", inc_y, reads=["y"], writes=["y"]),
        ],
    )
    return Specification(
        "liar",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= 99)],
        None,
    )


def inc_x(config, state):
    if state.x >= 3:
        return None
    return {"x": state.x + 1}


def inc_y(config, state):
    if state.y >= 3:
        return None
    return {"y": state.y + 1}


def inc_y_up_to_x(config, state):
    if state.y >= 3 or state.y > state.x:
        return None
    return {"y": state.y + 1}


def sum_below_4(config, state):
    return state.x + state.y < 4


def sum_below_3(config, state):
    return state.x + state.y < 3


def sum_at_least_4(state):
    return state.x + state.y >= 4


# The lies: each predicate reads y and declares only x.
sum_below_3.reads = frozenset({"x"})
sum_at_least_4.reads = frozenset({"x"})

#: One spec per kind of memoized declaration, each omitting a variable
#: its function reads: (kind, name, honest reference counts or None).
#: (which declaration lies, the kind the messages name it by, its name,
#: counts).  A mask is folded into the constraint (``masked``), and the
#: folded constraint carries the mask's name.
LIES = [
    ("action", "action", "IncY", None),
    ("invariant", "invariant", "I-1", (13, 18, 3)),
    ("constraint", "constraint", "sum_below_3", (10, 12, 0)),
    ("mask", "constraint", "sum_at_least_4", None),
]


def lying_toy(kind):
    """``x`` and ``y`` count to 3; ``kind`` picks which declaration lies.
    Returns ``(spec, mask)``."""
    step_y = (
        Action("IncY", inc_y_up_to_x, reads=["y"], writes=["y"])
        if kind == "action"
        else Action("IncY", inc_y, reads=["y"], writes=["y"])
    )
    invariants = (
        [Invariant("I-1", "x + y < 4", sum_below_4, reads=frozenset({"x"}))]
        if kind == "invariant"
        else []
    )
    spec = Specification(
        f"lying-{kind}",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [Module("toy", [Action("IncX", inc_x, reads=["x"], writes=["x"]), step_y])],
        invariants,
        None,
        constraint=sum_below_3 if kind == "constraint" else None,
    )
    return spec, sum_at_least_4 if kind == "mask" else None


def run_sig(result):
    return (
        result.states_explored,
        result.transitions,
        result.max_depth,
        sorted(
            (v.invariant.full_name, len(v.trace)) for v in result.violations
        ),
    )


class TestEmission:
    def test_kernel_emitted_for_trusted_spec(self):
        core = compiled_for(counter_spec())
        assert core.kernel is not None
        assert core.kernel_source is not None
        assert f"repro kernel v{CODEGEN_VERSION}" in core.kernel_source

    def test_reference_core_emits_no_kernel(self):
        core = compiled_for(counter_spec(), reference=True)
        assert core.kernel is None
        assert core.memo_stats()["mode"] == "reference"
        # Reference mode is memo-free end to end: nothing grouped, every
        # invariant evaluated on every state.
        assert not core.outcome_groups
        assert core.memo_stats()["guard_groups"] == []
        assert not core.inv_groups and core.constraint_slots is None

    def test_emit_kernel_is_pure_python_source(self):
        core = compiled_for(counter_spec())
        source, fn, classify = emit_kernel(core)
        assert callable(fn) and callable(classify)
        compile(source, "<test>", "exec")  # round-trips as real source

    def test_memo_stats_reports_codegen_version(self):
        spec = counter_spec()
        engine = ExplorationEngine(spec, "bfs", max_states=100)
        engine.run()
        stats = engine.core.memo_stats()
        assert stats["mode"] == "compiled"
        assert stats["codegen_version"] == CODEGEN_VERSION


class TestDifferentialIdentity:
    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_counter_identical(self, strategy):
        sigs = {}
        for reference in (False, True):
            engine = ExplorationEngine(
                counter_spec(max_x=6, y_bound=3),
                strategy,
                max_states=10_000,
                reference=reference,
            )
            sigs[reference] = run_sig(engine.run())
            assert (engine.core.kernel is None) == reference
        assert sigs[False] == sigs[True]

    def test_random_walk_identical_entropy(self):
        # Same seed, same candidate distributions => same walk, compiled
        # or not.  The space (~465 states at max_x=30) is larger than the
        # budget so both arms stop on the same deterministic state-count
        # cutoff, never on wall-clock.
        sigs = {}
        for reference in (False, True):
            engine = ExplorationEngine(
                counter_spec(max_x=30, y_bound=10 ** 9),
                "random",
                max_states=300,
                seed=11,
                reference=reference,
            )
            sigs[reference] = run_sig(engine.run())
        assert sigs[False] == sigs[True]

    def test_fuzzed_counter_family_identical(self):
        rng = random.Random(2024)
        for trial in range(6):
            max_x = rng.randint(2, 9)
            bound = rng.randint(1, 5)
            sigs = {}
            for reference in (False, True):
                engine = ExplorationEngine(
                    counter_spec(max_x=max_x, y_bound=bound),
                    "bfs",
                    max_states=5_000,
                    reference=reference,
                )
                sigs[reference] = run_sig(engine.run())
            assert sigs[False] == sigs[True], (trial, max_x, bound)

    def test_expand_batch_matches_interpreted_expand(self):
        spec = counter_spec()
        kernel = compiled_for(spec)
        reference = compiled_for(counter_spec(), reference=True)
        assert kernel.kernel is not None and reference.kernel is None
        init = spec.initial_states()[0]
        fp = kernel.fingerprinter.of_values(init.values)
        (kres,) = kernel.expand_batch([(fp, kernel.encode(init.values), 0)])
        (rres,) = reference.expand_batch([(fp, reference.encode(init.values), 0)])
        assert kres[:2] == rres[:2] == (fp, 1)
        # Same instances, successor values, fingerprints and verdicts;
        # only the inherited known-disabled bits are kernel-private (and
        # each core numbers its values itself).
        assert [
            (c[0], kernel.decode(c[1])) + c[2:3] + c[4:] for c in kres[2]
        ] == [(c[0], reference.decode(c[1])) + c[2:3] + c[4:] for c in rres[2]]
        assert all(c[3] == 0 for c in rres[2])


class TestLintGatedCompile:
    def test_lying_spec_is_untrusted(self):
        with pytest.warns(RuntimeWarning, match="IncY"):
            assert kernel_trusted(lying_spec()) is False
        assert kernel_trusted(counter_spec()) is True

    def test_one_wrapper_lambda_around_two_functions_is_two_actions(self):
        # Every pair action of zookeeper/faults.py is the same `unpack`
        # lambda around a different function, and the analyzer resolves
        # `fn` through the closure cell.  A verdict keyed on the lambda's
        # code object let the second action inherit the first's.
        def unpack(fn):
            return lambda cfg, state, pair: fn(cfg, state, pair[0], pair[1])

        def delay(config, state, i, j):
            if state.y >= 3:
                return None
            return {"y": state.y + 1}

        def duplicate(config, state, i, j):
            if state.y >= state.x:  # reads x, undeclared
                return None
            return {"y": state.y + 1}

        pairs = {"pair": lambda cfg: [(0, 1)]}
        module = Module(
            "faults",
            [
                Action("Delay", unpack(delay), params=pairs, reads=["y"], writes=["y"]),
                Action(
                    "Duplicate", unpack(duplicate), params=pairs, reads=["y"], writes=["y"]
                ),
            ],
        )
        spec = Specification(
            "wrapped",
            SCHEMA,
            lambda cfg: [State.make(SCHEMA, x=2, y=0)],
            [module],
            [],
            None,
        )
        with pytest.warns(RuntimeWarning, match="Duplicate fails lint rule D01"):
            assert kernel_trusted(spec) is False

    def test_auto_falls_back_to_interpreted(self):
        with pytest.warns(RuntimeWarning, match="not kernel-trusted"):
            core = compiled_for(lying_spec())
        assert core.kernel is None
        stats = core.memo_stats()
        assert stats["mode"] == "reference"
        assert "IncY" in stats["untrusted"] and "D01" in stats["untrusted"]

    def test_fallback_is_loud_exactly_once_per_compile(self):
        # An untrusted verdict must never be silent: one RuntimeWarning
        # per compile naming the first blocking action + lint rule.  Every
        # engine and strategy on a spec shares one compile (compiled_for),
        # so they warn once between them; a masked spec is another spec,
        # whose compile asks the analyzer itself, and says so too.
        spec = lying_spec()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for strategy in ("bfs", "dfs", "random"):
                ExplorationEngine(spec, strategy, max_states=5).run()
            shared = len(caught)
            compiled_for(masked(spec, lambda state: False))
        loud = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert shared == 1 and len(loud) == 2
        assert all("IncY" in str(w.message) and "D01" in str(w.message) for w in loud)

    def test_analyzer_exception_is_reported_not_swallowed(self, monkeypatch):
        from repro.analysis import declarations

        def boom(*args, **kwargs):
            raise RuntimeError("analyzer exploded")

        monkeypatch.setattr(declarations, "check_declaration", boom)

        def step(config, state):
            return {"x": state.x + 1} if state.x < 2 else None

        spec = Specification(
            "boom",
            SCHEMA,
            lambda cfg: [State.make(SCHEMA, x=0, y=0)],
            [Module("m", [Action("Step", step, reads=["x"], writes=["x"])])],
            [],
            None,
        )
        with pytest.warns(RuntimeWarning, match="analyzer exploded"):
            assert kernel_trusted(spec) is False
            assert ExplorationEngine(spec).run().states_explored == 3

    def test_auto_fallback_results_match_interpreted(self):
        sigs = {}
        for reference in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                engine = ExplorationEngine(
                    lying_spec(), "bfs", max_states=10_000, reference=reference
                )
                sigs[reference] = run_sig(engine.run())
            assert engine.core.memo_stats()["mode"] == "reference"
        assert sigs[False] == sigs[True]
        assert sigs[True][0] == 10  # x in 0..3, y in 0..x: the true space

    def test_forced_compile_with_debug_catches_the_lie(self):
        # debug=True emits the kernel whatever the analyzer says and
        # cross-checks it against the reference expander.
        engine = ExplorationEngine(
            lying_spec(), "bfs", max_states=10_000, debug=True
        )
        with pytest.raises(AssertionError, match=r"action IncY violated"):
            engine.run()
        assert engine.core.kernel is not None


@pytest.mark.parametrize("kind, said, name, counts", LIES, ids=[lie[0] for lie in LIES])
class TestLyingDeclarationTable:
    """Every declaration the kernel memoizes on is proven before it runs
    and cross-checked under ``debug=True``: an action's closure, an
    invariant's ``reads``, the constraint's ``.reads`` (a mask's folded in)."""

    def test_runs_on_the_reference_expander_loudly(self, kind, said, name, counts):
        spec, mask = lying_toy(kind)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = ExplorationEngine(spec, stop_at_first=False, mask=mask)
            engine.run()
        loud = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(loud) == 1 and name in str(loud[0].message)
        stats = engine.core.memo_stats()
        assert stats["mode"] == "reference"
        assert stats["untrusted"] == f"{said} {name} fails lint rule D01"

    def test_counts_equal_the_reference_expander(self, kind, said, name, counts):
        sigs = []
        for reference in (False, True):
            spec, mask = lying_toy(kind)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = ExplorationEngine(
                    spec, stop_at_first=False, mask=mask, reference=reference
                ).run()
            sigs.append((result.states_explored, result.transitions, len(result.violations)))
        assert sigs[0] == sigs[1]
        if counts is not None:
            assert sigs[0] == counts

    def test_debug_names_the_lying_function(self, kind, said, name, counts):
        spec, mask = lying_toy(kind)
        engine = ExplorationEngine(spec, stop_at_first=False, mask=mask, debug=True)
        with pytest.raises(AssertionError, match=rf"^{said} {name} violated its"):
            engine.run()
        assert engine.core.kernel is not None


class TestAdaptiveDemotionUnderKernel:
    def test_demotion_reemits_kernel_and_preserves_enumeration(self):
        baseline = ExplorationEngine(
            counter_spec(max_x=8, y_bound=4), "bfs", max_states=10_000
        )
        base_sig = run_sig(baseline.run())

        spec = counter_spec(max_x=8, y_bound=4)
        core = compiled_for(spec)
        assert core.outcome_groups
        old_kernel = core.kernel
        core._demote([0])
        assert core.kernel is not old_kernel  # re-emitted for the new layout
        assert core.demoted_groups
        engine = ExplorationEngine(spec, "bfs", max_states=10_000)
        assert engine._compile() is core
        assert run_sig(engine.run()) == base_sig

    @pytest.mark.parametrize(
        "system, grain", [("raft", "raft-coarse"), ("zookeeper", "mSpec-1")]
    )
    def test_every_group_demoted_matches_reference(self, system, grain):
        # With every outcome group demoted all instances are eager and
        # inherited disabled bits (``affects`` / ``known``) are the only
        # skip left -- the tier nothing else now backs up.
        from repro.checker import RandomWalker
        from repro.remix.registry import system_plugin

        plugin = system_plugin(system)

        def make():
            return plugin.make_spec(grain, plugin.default_config())

        spec = make()
        core = compiled_for(spec)
        assert core.kernel is not None and core.outcome_groups
        core._demote(range(len(core.outcome_groups)))
        assert not core.outcome_groups
        assert sorted(core.eager) == list(range(core.n_instances))
        assert core.memo_stats()["guard_groups"] == []

        engine = ExplorationEngine(spec, "bfs", max_states=2_000)
        assert engine._compile() is core
        reference = ExplorationEngine(make(), "bfs", max_states=2_000, reference=True)
        assert run_sig(engine.run()) == run_sig(reference.run())

        walked = RandomWalker(spec, seed=5, compiled=core).walk(40)
        ref_spec = make()
        ref_walked = RandomWalker(
            ref_spec, seed=5, compiled=compiled_for(ref_spec, reference=True)
        ).walk(40)
        assert walked.labels and walked.labels == ref_walked.labels


class TestMaskConstraintMemo:
    def test_declared_constraint_memoized_and_identical_to_undeclared(self):
        def declared(config, state):
            return state.x <= 3

        declared.reads = frozenset({"x"})

        def plain(config, state):
            return state.x <= 3

        sigs = {}
        for label, cap in (("declared", declared), ("plain", plain)):
            spec = counter_spec(max_x=9, constraint=cap)
            engine = ExplorationEngine(spec, "bfs", max_states=10_000)
            sigs[label] = run_sig(engine.run())
            stats = engine.core.memo_stats()
            if label == "declared":
                assert engine.core.constraint_slots is not None
                assert stats["constraint_memo_entries"] > 0
            else:
                # evaluated on every state, never memoized
                assert engine.core.constraint_slots is None
                assert stats["constraint_memo_entries"] is None
                assert not engine.core.constraint_memo
        assert sigs["declared"] == sigs["plain"]

    def test_declared_mask_is_memoized_and_identical(self):
        def mask(state):
            return state.y == 2

        mask.reads = frozenset({"y"})

        def plain_mask(state):
            return state.y == 2

        sigs = {}
        for label, m in (("declared", mask), ("plain", plain_mask)):
            engine = ExplorationEngine(
                counter_spec(max_x=6, y_bound=1),
                "bfs",
                max_states=10_000,
                mask=m,
            )
            sigs[label] = run_sig(engine.run())
            stats = engine.core.memo_stats()
            # the mask is folded into the constraint, and memoized there
            if label == "declared":
                assert engine.core.constraint_slots is not None
                assert stats["constraint_memo_entries"] > 0
            else:
                assert engine.core.constraint_slots is None
                assert stats["constraint_memo_entries"] is None
                assert not engine.core.constraint_memo
        assert sigs["declared"] == sigs["plain"]
