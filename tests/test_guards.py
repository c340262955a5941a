"""Guard prefixes: the tracer on toy actions, the structural rule that
ties a prefix to the declared reads, trust and prefix counts on every
shipped composition, and a mutated atom, branch or offset caught by
``--debug-deps``."""

import json
import warnings
from functools import partial

import pytest

from repro.checker import ExplorationEngine
from repro.checker import engine as engine_module
from repro.checker.engine import CompiledSpec, compiled_for, kernel_trusted
from repro.cli import main
from repro.remix.registry import system_plugin
from repro.tla import codegen, guards
from repro.tla.guards import (
    MAX_TESTS,
    NO_PREFIX,
    Atom,
    Const,
    Offset,
    all_tests,
    guard_prefix,
    render,
    variables,
)
from repro.tla.spec import masked
from repro.tla.values import Rec
from repro.zookeeper.specs import FIXES, HUNTS, SELECTIONS, build_spec, hunt_spec

from conftest import SMALL, counter_spec, lying_spec
from shipped import SHAPES, composed, shape_id
from test_engine import random_spec

NAMES = ("x", "y", "z", "box")


def prefix_of(fn, reads=frozenset(NAMES)):
    return guard_prefix(fn, None, NAMES, frozenset(reads))


def rendered(fn, **kwargs):
    return render(prefix_of(fn, **kwargs))


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
            lambda value: value in {1, 2},  # a path is hashed
            lambda value: value in {1: "a"},
            lambda value: value[0] in value,  # a path in a path
            lambda value: value * 2 > 2,
            lambda value: 1 + value > 2,  # an offset is written path + k
            lambda value: value + 0.5 > 2,
            lambda value: value + value > 2,
            lambda value: (value + 1)[0],
            lambda value: 1 in value - 1,
            lambda value: value[1:],
            lambda value: value == Rec(kind="A"),  # a non-constant operand
            lambda value: Rec(kind="A") in value,
            lambda value: value == [1, 2],
            lambda value: [1] in value,
            lambda value: value == {1, 2},
            lambda value: (1, [2]) in value,
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

    @pytest.mark.parametrize(
        "modelled, atoms",
        [
            (lambda value: 1 in value, ["1 in y"]),
            (lambda value: "a" not in value, ["'a' not in y"]),
            (lambda value: frozenset((2, 1)) not in value, ["frozenset({1, 2}) not in y"]),
            # spelled in sorted order, not in hash order
            (lambda value: frozenset("ba") in value, ["frozenset({'a', 'b'}) in y"]),
            (lambda value: value == (1, ("a",)), ["y == (1, ('a',))"]),
            (lambda value: value != frozenset(), ["y != frozenset()"]),
            (lambda value: value in (1, "a", None), ["y in (1, 'a', None)"]),
            (lambda value: value not in (1, 2), ["y != 1", "y != 2"]),
            (lambda value: value + 1 <= 3, ["y + 1 <= 3"]),
            (lambda value: value - 2 + 1 != 0, ["y - 2 + 1 != 0"]),
            (lambda value: value[0] - 1 in (1, 2), ["y[0] - 1 in (1, 2)"]),
            (lambda value: value.n + 1 < value.m, ["y.n + 1 < y.m"]),
            (lambda value: value - 1, ["y - 1"]),
        ],
    )
    def test_modelled_idioms_are_atoms(self, modelled, atoms):
        def fn(config, state):
            if state.x != 1:
                return None
            if not modelled(state.y):
                return None
            if state.z != 2:
                return None
            return {}

        assert rendered(fn) == ["x == 1"] + atoms + ["z == 2"]

    def test_a_disjunction_folds_only_where_its_members_go_on_alike(self):
        def alike(config, state):
            if state.x == 1:
                pass
            elif state.x != 2:
                return None
            if state.y != 3:
                return None
            return {}

        def apart(config, state):
            if state.x == 1:
                if state.y != 3:
                    return None
            elif state.x != 2:
                return None
            return {}

        def elsewhere(config, state):
            if state.x != 1 and state.y != 2:
                return None
            return {}

        assert rendered(alike) == ["x in (1, 2)", "y == 3"]
        # ... and branches where they do not
        assert rendered(apart) == ["if x == 1:", "    y == 3", "else:", "    x == 2"]
        assert rendered(elsewhere) == ["if x == 1:", "    ...", "else:", "    y == 2"]

    def test_ways_that_part_after_a_disjunction_are_a_branch(self):
        # ``z == 4`` is only asked when ``x == 1``: no fold.
        def fn(config, state):
            if state.x == 1:
                if state.y != 3:
                    return None
                if state.z != 4:
                    return None
            elif state.x == 2:
                if state.y != 3:
                    return None
                if not state.box:
                    return None
            else:
                return None
            return {}

        assert rendered(fn) == [
            "if x == 1:",
            "    y == 3",
            "    z == 4",
            "else:",
            "    x == 2",
            "    y == 3",
            "    box",
        ]

    def test_a_disjunction_that_goes_on_either_way_is_a_branch_on_it(self):
        # DropStale's ``mtype in (...) and my_leader[i] != j``, then
        # another message kind.
        def fn(config, state):
            if state.x in ("A", "B"):
                if state.y != 1:
                    return None
            elif state.z != 2:
                return None
            return {}

        assert rendered(fn) == ["if x in ('A', 'B'):", "    y == 1", "else:", "    z == 2"]

    def test_later_tests_hold_on_every_way_through_a_disjunction(self):
        # Both ways go on alike while ``y == 3``; past ``y != 3`` only one
        # asks ``z == 4``, so nothing under that answer is a test.
        def fn(config, state):
            if state.x == 1:
                if state.y != 3 and state.z != 4:
                    return None
            elif state.x == 2:
                if state.y != 3 and not state.box:
                    return None
            else:
                return None
            return {}

        assert rendered(fn) == ["x in (1, 2)"]

    def test_max_plus_one_over_a_bound_is_a_two_level_tree(self):
        # ElectLeader's ``max(current_term[j] for j in Q) + 1 > max_term``:
        # ``max`` asks which term is larger, and either answer goes on to
        # compare the winner plus one with the bound.
        def elect(config, state, quorum):
            if state.x:
                return None
            top = max(state.box[j] for j in quorum) + 1
            if top > 3:
                return None
            return {"x": True}

        prefix = prefix_of(partial(elect, quorum=(0, 1, 2)))
        assert render(prefix) == [
            "not x",
            "if box[1] > box[0]:",
            "    if box[2] > box[1]:",
            "        not box[2] + 1 > 3",
            "    else:",
            "        not box[1] + 1 > 3",
            "else:",
            "    if box[2] > box[0]:",
            "        not box[2] + 1 > 3",
            "    else:",
            "        not box[0] + 1 > 3",
        ]
        leaf = prefix.branch.true.branch.true.atoms[0]
        assert leaf.test.left == Offset(("box", ("[]", 2)), "+", 1)
        assert guards.shape(prefix) == (5, 3)

    def test_a_conjunction_that_goes_on_either_way_is_a_branch(self):
        def fn(config, state):
            if state.x > 1 and state.y < 2:
                wanted = 1
            else:
                wanted = 2
            if state.z == wanted:
                return None
            return {}

        assert rendered(fn) == [
            "if x > 1:",
            "    if y < 2:",
            "        z != 1",
            "    else:",
            "        z != 2",
            "else:",
            "    z != 2",
        ]

    def test_a_branch_whose_arms_hold_no_atom_is_pruned(self):
        # The update depends on ``y``; whether the action fires does not.
        def fn(config, state):
            if state.x != 1:
                return None
            return {"x": 1 if state.y > 2 else 2}

        assert rendered(fn) == ["x == 1"]
        assert guards.shape(prefix_of(fn)) == (1, 0)

    def test_a_count_against_a_quorum_is_a_complete_tree(self):
        # LeaderShutdown's shape: count what holds, then compare the
        # count; every path that reaches the comparison decides it.
        def fn(config, state):
            reachable = 1
            for j in (0, 1):
                if state.box[j] == "up":
                    reachable += 1
            if reachable >= 2:
                return None
            return {}

        assert rendered(fn) == [
            "if box[0] == 'up':",
            "    False",
            "else:",
            "    box[1] != 'up'",
        ]

    def test_a_repeated_or_implied_decision_is_not_asked_again(self):
        def fn(config, state):
            if state.x == "A":
                pass
            elif state.y != 1:
                return None
            if state.x == "B" or state.x == "A":
                return {}
            return None

        # On the ``x == 'A'`` arm, ``x == 'B'`` is known false and
        # ``x == 'A'`` known true: nothing is left to decide.
        assert rendered(fn) == [
            "if x == 'A':",
            "    ...",
            "else:",
            "    y == 1",
            "    x == 'B'",
        ]

    def test_the_cap_ends_the_prefix(self):
        def chain(config, state):
            for j in range(MAX_TESTS + 8):
                if state.box[j] != j:
                    return None
            return {}

        atoms = rendered(chain)
        assert len(atoms) == MAX_TESTS
        assert atoms[-1] == f"box[{MAX_TESTS - 1}] == {MAX_TESTS - 1}"

        def counting(config, state):
            live = sum(1 for j in range(MAX_TESTS) if state.box[j] == "up")
            return None if live < 2 else {}

        # every count needs all MAX_TESTS answers: no arm gets that far
        assert prefix_of(counting) == NO_PREFIX

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
        # prefix; an if/else guard on ``path ± k`` is a tree.  Either way
        # the kernel compiles and enumerates what the reference does.
        branches = 0
        for seed in range(6):
            core = CompiledSpec(random_spec(seed), debug=True)
            assert core.kernel is not None
            for action, prefix in zip(core.actions, core.guard_prefixes):
                assert (prefix == NO_PREFIX) == (action.fn.style == "sum" or not action.reads)
                branches += guards.shape(prefix)[1]
            ExplorationEngine(random_spec(seed), max_states=800, debug=True).run()
        assert branches


class TestShippedCompositions:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_kernel_trusted_without_a_warning(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_trusted(composed(shape))

    @pytest.mark.parametrize("bug", sorted(HUNTS) + list(FIXES))
    def test_hunt_trusted_with_its_mask_without_a_warning(self, bug):
        spec, mask = hunt_spec(bug)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_trusted(masked(spec, mask) if mask else spec)

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_prefixes_mention_declared_reads_only(self, shape):
        # What makes a prefix-disabled bit stored in a memo entry, or
        # inherited through ``affects``, a function of the key it is
        # filed under.
        core = compiled_for(composed(shape))
        assert any(prefix.atoms for prefix in core.guard_prefixes)
        for action, prefix in zip(core.actions, core.guard_prefixes):
            for test in all_tests(prefix):
                assert variables(test) <= action.reads, (action.name, render(prefix))


class TestStructuralRule:
    def test_a_prefix_outside_the_declared_reads_is_dropped(self):
        honest = compiled_for(counter_spec())
        assert render(honest.guard_prefixes[1]) == ["not y >= x"]
        # Same function, but IncY declares ``reads=["y"]`` only.
        liar = CompiledSpec(lying_spec(), debug=True)
        assert liar.guard_prefixes[1] == NO_PREFIX
        assert liar.guard_prefixes[0].atoms  # IncX is honest and keeps its own

    def test_undeclared_reads_get_no_prefix(self):
        def step(config, state):
            return {"x": state.x + 1} if state.x < 2 else None

        assert prefix_of(step, reads=()) == NO_PREFIX

    def test_a_membership_outside_the_declared_reads_is_dropped(self):
        def step(config, state):
            return {"x": 1} if 1 in state.box else None

        assert rendered(step, reads={"x", "box"}) == ["1 in box"]
        assert prefix_of(step, reads={"x"}) == NO_PREFIX


def rebuilt(prefix, atom=lambda atom: atom, branch=lambda branch: branch):
    """``prefix`` with every atom and every branch of its tree passed
    through ``atom`` / ``branch`` (arms first)."""
    if prefix.branch is not None:
        arms = prefix.branch._replace(
            true=rebuilt(prefix.branch.true, atom, branch),
            false=rebuilt(prefix.branch.false, atom, branch),
        )
        prefix = prefix._replace(branch=branch(arms))
    return prefix._replace(atoms=tuple(atom(each) for each in prefix.atoms))


def run_mutated(monkeypatch, grain, mutate):
    """A ``--debug-deps`` BFS of a Raft grain whose every guard prefix
    went through ``mutate``, ready to run."""

    def mutated(applier, config, names, reads):
        return mutate(guard_prefix(applier, config, names, reads))

    monkeypatch.setattr(engine_module, "guard_prefix", mutated)
    monkeypatch.setenv("REPRO_SPEC_CACHE_DIR", "off")
    plugin = system_plugin("raft")
    spec = plugin.make_spec(grain, plugin.default_config())
    return ExplorationEngine(spec, max_states=500, debug=True).run


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

    @pytest.mark.parametrize(
        "op, variable, action",
        # raft-fine: ``j not in votes[i]`` is GrantVote's alone, and
        # ``role[i] in (FOLLOWER, CANDIDATE)`` BecomeCandidate's
        [("contains", "votes", "GrantVote"), ("in", "role", "BecomeCandidate")],
    )
    def test_debug_deps_names_a_flipped_idiom(self, monkeypatch, op, variable, action):
        def flip(atom):
            if atom.test.op == op and variables(atom.test) == {variable}:
                return atom._replace(passing=not atom.passing)
            return atom

        run = run_mutated(monkeypatch, "raft-fine", lambda prefix: rebuilt(prefix, atom=flip))
        with pytest.raises(AssertionError, match=f"action {action}"):
            run()

    def test_debug_deps_names_a_flipped_branch_arm(self, monkeypatch):
        # GrantVote: ``if current_term[0] == current_term[1]:`` only
        # then is the voter's earlier vote a reason to refuse.
        def swap(branch):
            return branch._replace(true=branch.false, false=branch.true)

        run = run_mutated(monkeypatch, "raft-fine", lambda prefix: rebuilt(prefix, branch=swap))
        with pytest.raises(AssertionError, match="action GrantVote"):
            run()

    @pytest.mark.parametrize(
        "grain, action",
        # ``current_term[i] + 1 > max_term`` and ``max(...) + 1 > max_term``
        [("raft-fine", "BecomeCandidate"), ("raft-coarse", "ElectLeader")],
    )
    def test_debug_deps_names_a_wrong_offset(self, monkeypatch, grain, action):
        def shifted(atom):
            left = atom.test.left
            if type(left) is not Offset:
                return atom
            return atom._replace(test=atom.test._replace(left=left._replace(k=left.k + 1)))

        run = run_mutated(monkeypatch, grain, lambda prefix: rebuilt(prefix, atom=shifted))
        with pytest.raises(AssertionError, match=f"action {action}"):
            run()


def count_applier_calls(monkeypatch):
    """Wrap every applier a kernel binds in a counter, as the mechanism
    ledger's probe does; the cell holds the calls so far."""
    calls = [0]
    emit = codegen.emit_kernel

    def counted(fn):
        def call(*args):
            calls[0] += 1
            return fn(*args)

        call.counted = True
        return call

    def emit_counting(core):
        if not all(getattr(fn, "counted", False) for fn in core.appliers):
            core.appliers = [counted(fn) for fn in core.appliers]
        return emit(core)

    monkeypatch.setattr(codegen, "emit_kernel", emit_counting)
    monkeypatch.setenv("REPRO_SPEC_CACHE_DIR", "off")
    return calls


class TestPinnedCounts:
    """Losing an atom fails here, not only as a slower run."""

    #: ``memo_stats()["guard_prefixes"]``: (with_prefix, atoms, branches,
    #: dead) per specification name -- the same at every config and mask.
    #: Before branches and offsets, (with_prefix, atoms, dead) were the
    #: first, second and last numbers of the comment; before membership
    #: the second comment.
    PREFIXES = {
        "raft-coarse": (39, 150, 33, 3),  # (39, 114, 3); (36, 64, 3)
        "raft-fine": (42, 144, 24, 0),  # (42, 123, 0); (36, 66, 0)
        "mSpec-1": (108, 457, 92, 3),  # (108, 276, 3); (102, 234, 3)
        "mSpec-2": (120, 553, 92, 3),  # (120, 300, 3); (114, 258, 3)
        "mSpec-3": (132, 577, 92, 3),  # (132, 330, 3); (126, 288, 3)
        "SysSpec": (141, 516, 45, 0),  # (141, 369, 0); (135, 330, 0)
        "mSpec-4": (165, 636, 45, 0),  # (165, 423, 0); (159, 384, 0)
        "Zab-original": (66, 298, 82, 27),  # (66, 216, 27)
        "Zab-improved": (72, 340, 82, 21),  # (72, 258, 21)
        "Zab-epoch_first": (72, 334, 82, 21),  # (72, 252, 21)
    }

    #: (applier calls, expansions); before branches and offsets
    #: (8 881, 1 331), (3 841, 1 379) and (9 061, 2 227); before
    #: membership, constant containers and disjunctions (12 606, 1 331),
    #: (7 872, 1 379) and (10 638, 2 227).
    CALLS = {
        "raft-coarse@4000": (6_331, 1_331),
        "raft-fine@4000": (3_271, 1_379),
        "ZK-4394": (7_325, 2_227),
    }

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_prefix_counts(self, shape, monkeypatch):
        monkeypatch.setenv("REPRO_SPEC_CACHE_DIR", "off")
        spec = composed(shape)
        stats = CompiledSpec(spec).memo_stats()["guard_prefixes"]
        counts = (stats["with_prefix"], stats["atoms"], stats["branches"], stats["dead"])
        assert counts == self.PREFIXES[spec.name]

    @pytest.mark.parametrize("run", sorted(CALLS))
    def test_applier_calls_per_expansion(self, run, monkeypatch):
        calls = count_applier_calls(monkeypatch)
        if run.startswith("ZK-"):
            spec, mask = hunt_spec(run)
            engine = ExplorationEngine(spec, mask=mask)
        else:
            grain, budget = run.split("@")
            plugin = system_plugin("raft")
            spec = plugin.make_spec(grain, plugin.default_config())
            engine = ExplorationEngine(spec, max_states=int(budget))
        engine.run()
        assert (calls[0], engine.core.expand_calls) == self.CALLS[run]


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

    def test_check_stats_print_each_action_tree(self, capsys):
        assert main(["check", "mSpec-3", "--max-states", "300", "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out.partition("\n")[2])["guard_prefixes"]
        counts = (stats["with_prefix"], stats["atoms"], stats["branches"], stats["dead"])
        assert counts == TestPinnedCounts.PREFIXES["mSpec-3"]
        # a branch on a folded disjunction, arms indented
        assert stats["actions"]["DiscardStaleMessage"] == [
            "msgs[1][0]",
            "state[0] != 'DOWN'",
            "if msgs[1][0][0].mtype in ('FOLLOWERINFO', 'ACKEPOCH'):",
            "    state[0] != 'LEADING'",
            "else:",
            "    if msgs[1][0][0].mtype in ('ACK', 'ACK_UPTODATE'):",
            "        ...",
            "    else:",
            "        msgs[1][0][0].mtype in ('LEADERINFO', 'DIFF', 'TRUNC', 'SNAP', 'NEWLEADER',"
            " 'UPTODATE', 'PROPOSAL', 'COMMIT')",
            "        my_leader[0] != 1",
        ]
        # a count against the quorum: the counted follower is a disabled leaf
        shutdown = stats["actions"]["LeaderShutdown"]
        assert shutdown[:3] == [
            "state[0] == 'LEADING'",
            "if state[1] == 'FOLLOWING':",
            "    if my_leader[1] == 0:",
        ]
        assert "            False" in shutdown

    def test_reference_mode_has_no_prefixes(self):
        core = compiled_for(counter_spec(), reference=True)
        assert core.guard_prefixes == []
        assert core.memo_stats()["guard_prefixes"]["instances"] == 0
