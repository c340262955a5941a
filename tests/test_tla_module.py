"""Unit tests for the dependency/interaction analysis (Appendix B)."""

import pytest

from repro.tla.action import Action
from repro.tla.module import (
    Module,
    interaction_variables,
    preserved_variables,
)


def act(name, reads=(), writes=(), sources=None):
    return Action(
        name,
        lambda cfg, s: None,
        reads=reads,
        writes=writes,
        update_sources=sources,
    )


class TestModule:
    def test_reads_writes_union(self):
        module = Module("M", [act("A", reads=["x"], writes=["y"]),
                              act("B", reads=["z"], writes=["w"])])
        assert module.reads() == {"x", "z"}
        assert module.writes() == {"y", "w"}

    def test_duplicate_action_names_rejected(self):
        with pytest.raises(ValueError):
            Module("M", [act("A"), act("A")])

    def test_iteration_and_len(self):
        module = Module("M", [act("A"), act("B")])
        assert len(module) == 2
        assert [a.name for a in module] == ["A", "B"]

    def test_dependency_variables_direct(self):
        module = Module("M", [act("A", reads=["x", "y"])])
        assert module.dependency_variables() == {"x", "y"}

    def test_dependency_variables_transitive(self):
        # A reads x; x is assigned from w -> w is also a dependency
        # variable (Definition 2, rule 3).
        module = Module(
            "M",
            [act("A", reads=["x"], writes=["x"], sources={"x": ["w"]})],
        )
        assert module.dependency_variables() == {"x", "w"}

    def test_dependency_transitivity_chains(self):
        module = Module(
            "M",
            [
                act(
                    "A",
                    reads=["x"],
                    writes=["x", "w"],
                    sources={"x": ["w"], "w": ["v"]},
                )
            ],
        )
        # x <- w <- v
        assert module.dependency_variables() == {"x", "w", "v"}

    def test_sources_of_non_dependency_not_pulled(self):
        module = Module(
            "M",
            [act("A", reads=["x"], writes=["y"], sources={"y": ["q"]})],
        )
        # y is written but never read: q is not a dependency variable.
        assert module.dependency_variables() == {"x"}


class TestInteractionVariables:
    def test_shared_dependency_is_interaction(self):
        m1 = Module("M1", [act("A", reads=["shared", "a"])])
        m2 = Module("M2", [act("B", reads=["shared", "b"])])
        assert interaction_variables([m1, m2]) == {"shared"}

    def test_disjoint_modules_have_none(self):
        m1 = Module("M1", [act("A", reads=["a"])])
        m2 = Module("M2", [act("B", reads=["b"])])
        assert interaction_variables([m1, m2]) == frozenset()

    def test_indirect_flow_rule2(self):
        # M2 assigns y into shared.  Definition 2's transitivity already
        # makes y a dependency variable of M2, so Definition 3 rule 2
        # (which adds V_intr \ D_Mi) leaves the interaction set at
        # {shared}; y is still preserved via D_M2.
        m1 = Module("M1", [act("A", reads=["shared"])])
        m2 = Module(
            "M2",
            [
                act(
                    "B",
                    reads=["shared"],
                    writes=["shared"],
                    sources={"shared": ["y"]},
                )
            ],
        )
        assert "y" in m2.dependency_variables()
        assert interaction_variables([m1, m2]) == {"shared"}
        assert "y" in preserved_variables([m1, m2], m2)

    def test_write_only_producer(self):
        # M2 writes shared (read by M1) without ever reading it.  Per the
        # paper's Definition 3, shared is not an *interaction* variable
        # (it is a dependency variable of M1 only), but it is still
        # preserved whenever M1 is the verification target -- the
        # preservation set is I ∪ D_target.
        m1 = Module("M1", [act("A", reads=["shared"])])
        m2 = Module(
            "M2",
            [
                act("B", reads=["trigger"], writes=["shared"],
                    sources={"shared": ["y"]}),
            ],
        )
        assert interaction_variables([m1, m2]) == frozenset()
        assert "shared" in preserved_variables([m1, m2], m1)

    def test_internal_variable_sources_rule3(self):
        # x is internal to M1 and assigned from q: Definition 2 makes q a
        # dependency variable of M1; rule 3 adds nothing further.
        m1 = Module(
            "M1",
            [
                act("A", reads=["shared", "x"], writes=["x"],
                    sources={"x": ["q"]}),
            ],
        )
        m2 = Module("M2", [act("B", reads=["shared"])])
        assert "q" in m1.dependency_variables()
        assert "q" in preserved_variables([m1, m2], m1)

    def test_preserved_variables(self):
        m1 = Module("M1", [act("A", reads=["shared", "a"])])
        m2 = Module("M2", [act("B", reads=["shared", "b"])])
        assert preserved_variables([m1, m2], m1) == {"shared", "a"}
        assert preserved_variables([m1, m2], m2) == {"shared", "b"}


class TestZooKeeperModules:
    """The analysis applied to the real specification modules."""

    def test_ackepoch_is_an_interaction_variable(self):
        # ackepoch_recv is written by Election/Discovery and read by
        # Synchronization: the key interaction the coarsening preserves.
        from repro.zookeeper.config import ZkConfig
        from repro.zookeeper.specs import SELECTIONS, build_spec

        spec = build_spec("mSpec-1", SELECTIONS["mSpec-1"], ZkConfig())
        interaction = interaction_variables(spec.modules)
        assert "ackepoch_recv" in interaction
        assert "state" in interaction
        assert "zab_state" in interaction

    def test_coarse_module_drops_fle_internals(self):
        from repro.zookeeper.coarse import coarse_election_module
        from repro.zookeeper.config import ZkConfig

        coarse = coarse_election_module(ZkConfig())
        assert "current_vote" not in coarse.writes()
        assert "recv_votes" not in coarse.writes()
