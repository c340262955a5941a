"""Modules and the dependency/interaction variable analysis.

Following the paper (Section 3.2 and Appendix B):

- a *module* is a set of actions (Definition 1);
- the *dependency variables* of a module are the variables appearing in
  enabling conditions of its actions, closed transitively over the
  variables its updates are computed from (Definition 2);
- the *interaction variables* of a specification are the dependency
  variables shared by two or more modules, closed under the update-source
  rules (Definition 3).

Coarsening a module is *interaction preserving* when only variables
outside ``I ∪ D_target`` (and updates touching only such variables) are
omitted.  :func:`interaction_variables` and
:meth:`Module.dependency_variables` give the machinery for checking that,
which :mod:`repro.tla.composition` uses.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from repro.tla.action import Action


class Module:
    """A named set of actions (the paper's Definition 1)."""

    def __init__(self, name: str, actions: Sequence[Action]):
        names = [a.name for a in actions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate action names in module {name}: {names}")
        self.name = name
        self.actions: List[Action] = list(actions)

    def __repr__(self) -> str:
        return f"Module({self.name}, {len(self.actions)} actions)"

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def reads(self) -> FrozenSet[str]:
        """Union of the enabling-condition variables of all actions."""
        out: Set[str] = set()
        for act in self.actions:
            out |= act.reads
        return frozenset(out)

    def writes(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for act in self.actions:
            out |= act.writes
        return frozenset(out)

    def dependency_variables(self) -> FrozenSet[str]:
        """Definition 2: enabling-condition variables, closed transitively
        over update sources of variables already in the set."""
        deps: Set[str] = set(self.reads())
        changed = True
        while changed:
            changed = False
            for act in self.actions:
                for var, sources in act.update_sources.items():
                    if var in deps and not sources <= deps:
                        deps |= sources
                        changed = True
        return frozenset(deps)


def interaction_variables(modules: Iterable[Module]) -> FrozenSet[str]:
    """Definition 3: the interaction variables of a set of modules.

    Rule 1 seeds the set with dependency variables shared by two modules;
    rules 2 and 3 close it under update sources, so that indirect flows
    (module A assigns y into x, x read by module B) are captured.
    """
    modules = list(modules)
    deps: Dict[str, FrozenSet[str]] = {
        m.name: m.dependency_variables() for m in modules
    }

    interaction: Set[str] = set()
    names = [m.name for m in modules]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            interaction |= deps[a] & deps[b]

    changed = True
    while changed:
        changed = False
        for module in modules:
            module_deps = deps[module.name]
            visible = interaction | module_deps
            for act in module.actions:
                for var, sources in act.update_sources.items():
                    # Rule 2: sources of an interaction variable's update.
                    # Rule 3: sources of an internal dependency variable's
                    # update.  Both pull the out-of-module sources in.
                    if var in interaction or var in module_deps:
                        extra = sources - visible
                        if extra:
                            interaction |= extra
                            visible |= extra
                            changed = True
    return frozenset(interaction)


def preserved_variables(modules: Iterable[Module], target: Module) -> FrozenSet[str]:
    """``I ∪ D_target``: the variables a coarsening must leave intact when
    ``target`` is the module under verification (Appendix B.2)."""
    return interaction_variables(modules) | target.dependency_variables()
