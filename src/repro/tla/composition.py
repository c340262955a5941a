"""Composition of multi-grained modules and interaction-preservation checks.

Two facilities, mirroring Section 3.2/3.3 and Appendix B of the paper:

1. :func:`check_interaction_preservation` -- a *static* check that a
   coarsened module only omits variables (and updates) outside
   ``I ∪ D_target``.  This is the rule the paper's authors apply by hand
   when writing coarse-grained specifications.

2. :func:`traces_equivalent_for` -- a *dynamic* validation of the
   Interaction Preservation Theorem on small configurations: enumerate the
   traces of the original specification ``S`` and the mixed specification
   ``S_i``, project them onto the target module, condense stuttering
   (Appendix B.3), and compare the reachable projected behaviours.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Set, Tuple

from repro.tla.module import Module, preserved_variables
from repro.tla.spec import Specification
from repro.tla.state import State


class CompositionError(Exception):
    """Raised when a coarsening violates interaction preservation."""


def check_interaction_preservation(
    all_modules: Sequence[Module],
    original: Module,
    coarsened: Module,
    target: Module,
) -> FrozenSet[str]:
    """Check the two constraints of Appendix B.2 statically.

    (1) all dependency variables of the target module and all interaction
        variables remain (are still read/writable) after the coarsening;
    (2) updates of those variables are not dropped: every preserved
        variable written by the original module is still written by the
        coarsened module.

    Returns the preserved-variable set ``I ∪ D_target`` on success and
    raises :class:`CompositionError` otherwise.  (The equality of the
    *values* written is a semantic property, validated dynamically by
    :func:`traces_equivalent_for` and by conformance checking.)
    """
    preserved = preserved_variables(all_modules, target)

    dropped_writes = (original.writes() & preserved) - coarsened.writes()
    if dropped_writes:
        raise CompositionError(
            f"coarsening {original.name} -> {coarsened.name} drops updates of "
            f"preserved variables {sorted(dropped_writes)}"
        )

    new_writes = coarsened.writes() - original.writes()
    illegal_new = new_writes & preserved
    # Writing *new* preserved variables is allowed only if the original
    # module read them (a coarse action may summarize reads into writes),
    # otherwise the coarsened module interferes with the target.
    illegal_new -= original.reads()
    if illegal_new:
        raise CompositionError(
            f"coarsening {original.name} -> {coarsened.name} introduces writes "
            f"to preserved variables {sorted(illegal_new)} the original never "
            f"touched"
        )
    return preserved


def reachable_projections(
    spec: Specification,
    variables: FrozenSet[str],
    max_depth: int,
) -> FrozenSet[Tuple[Tuple, ...]]:
    """Enumerate all condensed projected traces of ``spec`` up to a depth.

    Exponential; only for validating the theorem on toy specifications in
    tests.  Traces are explored as label sequences from each initial state
    and condensed before collection, and we return the *closed* set: every
    prefix of a collected trace is also collected, which makes comparison
    between specifications with different step counts meaningful.
    """
    results: Set[Tuple[Tuple, ...]] = set()

    def walk(state: State, projected: Tuple[Tuple, ...], depth: int):
        results.add(projected)
        if depth >= max_depth:
            return
        for _, nxt in spec.successors(state):
            if not spec.within_constraint(nxt):
                continue
            nxt_proj = nxt.project(variables)
            if projected and nxt_proj == projected[-1]:
                walk(nxt, projected, depth + 1)
            else:
                walk(nxt, projected + (nxt_proj,), depth + 1)

    for init in spec.initial_states():
        walk(init, (init.project(variables),), 0)
    return frozenset(results)


def traces_equivalent_for(
    full: Specification,
    mixed: Specification,
    target: Module,
    max_depth: int = 6,
) -> bool:
    """Dynamically validate  T_S ~M_i~ T_S_i  on small configurations.

    Compares the condensed, target-projected trace sets of the full and
    the mixed specification up to ``max_depth`` steps.
    """
    variables = preserved_variables(full.modules, target)
    left = reachable_projections(full, variables, max_depth)
    right = reachable_projections(mixed, variables, max_depth)
    return left == right


def compose(
    name: str,
    schema,
    init,
    modules: Sequence[Module],
    invariants,
    config,
    constraint=None,
) -> Specification:
    """Compose selected per-module specifications into one mixed-grained
    specification (Figure 7's disjunctive Next is implicit)."""
    seen: Set[str] = set()
    for module in modules:
        for act in module.actions:
            if act.name in seen:
                raise CompositionError(
                    f"action {act.name} appears in two composed modules"
                )
            seen.add(act.name)
    return Specification(
        name,
        schema,
        init,
        modules,
        invariants,
        config,
        constraint=constraint,
    )
