"""Tests for composition and interaction preservation (Appendix B).

Includes a dynamic validation of the Interaction Preservation Theorem on
a small two-module specification: coarsening the environment module while
preserving interactions leaves the target module's projected traces
unchanged, while a coarsening that breaks the rules changes them.
"""

import pytest

from repro.tla.action import Action
from repro.tla.composition import (
    CompositionError,
    check_interaction_preservation,
    compose,
    reachable_projections,
    traces_equivalent_for,
)
from repro.tla.module import Module
from repro.tla.spec import Specification
from repro.tla.state import Schema, State

# A toy system: an "env" module increments a shared counter through an
# internal staging variable; a "target" module observes the shared
# counter.  Coarsening env merges the two-step increment into one action.
SCHEMA = Schema(("shared", "staging", "observed"))


def init(config):
    return [State.make(SCHEMA, shared=0, staging=0, observed=0)]


def env_stage(config, state):
    if state.staging != 0 or state.shared >= config["max"]:
        return None
    return {"staging": state.shared + 1}


def env_publish(config, state):
    if state.staging == 0:
        return None
    return {"shared": state.staging, "staging": 0}


def env_coarse(config, state):
    if state.shared >= config["max"]:
        return None
    return {"shared": state.shared + 1}


def env_coarse_bad(config, state):
    """A coarsening that violates interaction preservation: it skips a
    value of the shared counter."""
    if state.shared >= config["max"]:
        return None
    return {"shared": state.shared + 2}


def observe(config, state):
    if state.observed == state.shared:
        return None
    return {"observed": state.shared}


def fine_env():
    return Module(
        "Env",
        [
            Action("Stage", env_stage, reads=["staging", "shared"],
                   writes=["staging"], update_sources={"staging": ["shared"]}),
            Action("Publish", env_publish, reads=["staging"],
                   writes=["shared", "staging"],
                   update_sources={"shared": ["staging"]}),
        ],
    )


def coarse_env(fn=env_coarse):
    return Module(
        "Env",
        [Action("Inc", fn, reads=["shared"], writes=["shared"])],
    )


def target():
    return Module(
        "Target",
        [Action("Observe", observe, reads=["observed", "shared"],
                writes=["observed"], update_sources={"observed": ["shared"]})],
    )


def spec_with(env_module, name="toy"):
    return Specification(
        name,
        SCHEMA,
        init,
        [env_module, target()],
        [],
        {"max": 2},
    )


class TestStaticCheck:
    def test_good_coarsening_passes(self):
        preserved = check_interaction_preservation(
            [fine_env(), target()], fine_env(), coarse_env(), target()
        )
        assert "shared" in preserved

    def test_dropping_preserved_write_rejected(self):
        dropped = Module(
            "Env", [Action("Noop", lambda c, s: None, reads=["staging"])]
        )
        with pytest.raises(CompositionError, match="drops updates"):
            check_interaction_preservation(
                [fine_env(), target()], fine_env(), dropped, target()
            )

    def test_new_interfering_write_rejected(self):
        interfering = Module(
            "Env",
            [
                Action(
                    "Evil",
                    lambda c, s: {"shared": 0, "observed": 99},
                    reads=["shared"],
                    writes=["shared", "observed"],
                )
            ],
        )
        with pytest.raises(CompositionError, match="introduces writes"):
            check_interaction_preservation(
                [fine_env(), target()], fine_env(), interfering, target()
            )


class TestTheoremDynamically:
    def test_interaction_preserving_coarsening_is_trace_equivalent(self):
        full = spec_with(fine_env(), "full")
        mixed = spec_with(coarse_env(), "mixed")
        assert traces_equivalent_for(full, mixed, target(), max_depth=6)

    def test_violating_coarsening_is_not_trace_equivalent(self):
        full = spec_with(fine_env(), "full")
        broken = spec_with(coarse_env(env_coarse_bad), "broken")
        assert not traces_equivalent_for(full, broken, target(), max_depth=6)

    def test_projections_condense_stuttering(self):
        # Stage and Observe leave ``shared`` alone: each such step
        # stutters on the projection and merges into the state before.
        full = spec_with(fine_env(), "full")
        assert reachable_projections(full, frozenset({"shared"}), 6) == {
            ((0,),),
            ((0,), (1,)),
            ((0,), (1,), (2,)),
        }


class TestCompose:
    def test_duplicate_action_names_rejected(self):
        with pytest.raises(CompositionError, match="two composed modules"):
            compose(
                "dup",
                SCHEMA,
                init,
                [coarse_env(), coarse_env()],
                [],
                {"max": 2},
            )

    def test_compose_builds_specification(self):
        spec = compose(
            "ok", SCHEMA, init, [fine_env(), target()], [], {"max": 2}
        )
        assert spec.name == "ok"
        assert [m.name for m in spec.modules] == ["Env", "Target"]


class TestZooKeeperCoarsening:
    """The paper's actual coarsening (Figure 5): the eight Election +
    Discovery actions collapse into ElectionAndDiscovery, preserving the
    interactions the Synchronization module depends on."""

    def test_coarse_election_is_interaction_preserving(self):
        from repro.tla.module import Module
        from repro.zookeeper.broadcast import broadcast_baseline_module
        from repro.zookeeper.coarse import coarse_election_module
        from repro.zookeeper.config import ZkConfig
        from repro.zookeeper.discovery import discovery_module
        from repro.zookeeper.election import election_module
        from repro.zookeeper.faults import faults_module
        from repro.zookeeper.sync_baseline import sync_baseline_module

        config = ZkConfig()
        fine = Module(
            "ElectionAndDiscovery",
            election_module(config).actions + discovery_module(config).actions,
        )
        sync = sync_baseline_module(config)
        all_modules = [
            fine,
            sync,
            broadcast_baseline_module(config),
            faults_module(config),
        ]
        preserved = check_interaction_preservation(
            all_modules, fine, coarse_election_module(config), sync
        )
        # the interaction carriers of Figure 5 survive the coarsening
        for variable in ("state", "zab_state", "ackepoch_recv", "accepted_epoch"):
            assert variable in preserved
        # FLE internals are abstracted away (they are not preserved and
        # the coarse module does not write them)
        assert "current_vote" not in coarse_election_module(config).writes()
