"""Specifications: Init /\\ [][Next]_vars plus invariants.

A :class:`Specification` bundles:

- a :class:`~repro.tla.state.Schema` of variables,
- an initial-states function (TLA+ ``Init``; may yield several states),
- the modules whose actions, disjoined, form ``Next``,
- the invariants to check (protocol-level and code-level, Table 2).

``Next`` is the nondeterministic disjunction of every action instance of
every module: in each step any enabled action with any parameter binding
may fire (Figure 7 of the paper).

:func:`masked` is how a run leaves a known bug's states alone (the
ZK-4394 mask of §4.1): it folds the mask into the specification the way
TLC does, a ``CONSTRAINT`` conjunct ``~mask`` plus ``mask \\/ inv`` on each
invariant, so nothing that checks a specification knows masks exist.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.tla.action import Action, ActionInstance, ActionLabel
from repro.tla.module import Module
from repro.tla.state import Schema, State


@dataclass(frozen=True)
class Invariant:
    """A named state predicate checked on every reachable state.

    ``ident`` is the paper's invariant id (e.g. ``"I-8"``); ``instance``
    distinguishes instances within a family (e.g. the four I-11 bad-state
    instances).

    ``reads`` optionally declares the state variables the predicate
    depends on (its dependency variables, mirroring
    :class:`~repro.tla.action.Action` reads).  When declared, the
    exploration engine memoizes verdicts per projection of the state
    onto those variables; an empty set means "unknown" and the predicate
    is evaluated on every state.
    """

    ident: str
    name: str
    predicate: Callable[[Any, State], bool]
    instance: str = ""
    source: str = "protocol"  # "protocol" or "code"
    reads: frozenset = frozenset()

    def holds(self, config: Any, state: State) -> bool:
        return bool(self.predicate(config, state))

    @property
    def full_name(self) -> str:
        if self.instance:
            return f"{self.ident}/{self.instance}"
        return self.ident


class Specification:
    """A complete checkable specification."""

    # Set lazily by repro.checker.engine.compiled_for: the shared default
    # compiled core (kernel and trust verdict included).
    _compiled_core: Any

    def __init__(
        self,
        name: str,
        schema: Schema,
        init: Callable[[Any], Iterable[State]],
        modules: Sequence[Module],
        invariants: Sequence[Invariant],
        config: Any,
        constraint: Optional[Callable[[Any, State], bool]] = None,
    ):
        self.name = name
        self.schema = schema
        self.init = init
        self.modules: List[Module] = list(modules)
        self.invariants: List[Invariant] = list(invariants)
        self.config = config
        # A state constraint (TLC CONSTRAINT): successors of states where it
        # fails are not explored.  Used to bound the model (txn budgets etc).
        self.constraint = constraint
        self._instances: Optional[List[ActionInstance]] = None
        self._by_label: Optional[Dict[ActionLabel, ActionInstance]] = None
        self._by_name_args: Optional[Dict[Tuple, ActionInstance]] = None

    def __repr__(self) -> str:
        return (
            f"Specification({self.name}, modules="
            f"{[m.name for m in self.modules]})"
        )

    @property
    def actions(self) -> List[Action]:
        return [act for module in self.modules for act in module.actions]

    def action_instances(self) -> List[ActionInstance]:
        """All (action, binding) pairs, enumerated once per configuration."""
        if self._instances is None:
            instances: List[ActionInstance] = []
            for module in self.modules:
                for act in module.actions:
                    for binding in act.bindings(self.config):
                        instances.append(ActionInstance(act, binding))
            self._instances = instances
        return self._instances

    def instance_for(self, label: ActionLabel) -> ActionInstance:
        """Look up the instance for a trace label (used for replay)."""
        if self._by_label is None:
            self._by_label = {inst.label: inst for inst in self.action_instances()}
        return self._by_label[label]

    def instance_named(
        self, name: str, args: Optional[Dict[str, Any]] = None
    ) -> Optional[ActionInstance]:
        """Look up an instance by action name and argument dict.

        The ``(name, frozenset(args))`` index is built once per
        specification, so scripted drivers (scenario prefixes, fault
        schedules) stay O(1) per applied step instead of scanning every
        instance."""
        if self._by_name_args is None:
            self._by_name_args = {
                (inst.label.name, frozenset(inst.label.binding)): inst
                for inst in self.action_instances()
            }
        return self._by_name_args.get((name, frozenset((args or {}).items())))

    def initial_states(self) -> List[State]:
        return list(self.init(self.config))

    def successors(self, state: State) -> Iterator[Tuple[ActionLabel, State]]:
        """All (label, next-state) pairs enabled in ``state``."""
        config = self.config
        for inst in self.action_instances():
            nxt = inst.apply(config, state)
            if nxt is not None and nxt.values != state.values:
                yield inst.label, nxt

    def within_constraint(self, state: State) -> bool:
        if self.constraint is None:
            return True
        return bool(self.constraint(self.config, state))

    def replay(self, labels: Iterable[ActionLabel], initial: State) -> List[State]:
        """Deterministically re-execute a trace of labels from an initial
        state, returning the full state sequence (initial included)."""
        states = [initial]
        current = initial
        for label in labels:
            inst = self.instance_for(label)
            nxt = inst.apply(self.config, current)
            if nxt is None:
                raise ValueError(
                    f"replay failed: {label} not enabled at step {len(states) - 1}"
                )
            states.append(nxt)
            current = nxt
        return states


class Declaration(NamedTuple):
    """One function of a run and what it declares it reads.

    ``kind`` is ``"action"``, ``"invariant"`` or ``"constraint"``;
    ``reads`` is the declaration as written (empty: none);
    ``key`` is what the kernel files the function's results under -- an
    action's dependency closure, a predicate's ``reads`` when they all
    lie in the schema -- or None (evaluated on every state).  ``source``
    is the :class:`~repro.tla.action.Action`, :class:`Invariant` or
    predicate itself.
    """

    kind: str
    name: str
    fn: Callable[..., Any]
    reads: FrozenSet[str]
    key: Optional[FrozenSet[str]]
    source: Any

    @classmethod
    def of_action(cls, action: Action) -> "Declaration":
        return cls(
            "action", action.name, action.fn, action.reads,
            action.dependency_closure(), action,
        )


def masked(spec: Specification, mask: Callable[[State], bool]) -> Specification:
    """``spec`` with the states ``mask`` holds neither judged nor explored:
    the same schema, init, modules, config and name, the constraint
    ``not mask(state) and constraint(config, state)`` and each invariant
    ``mask(state) or predicate(config, state)``.  Every strategy counts a
    state outside the constraint but never expands it, and short-circuiting
    keeps the other predicates off masked states, so this *is* masking.  A
    folded predicate declares the union of its parts' ``reads`` (none when
    a part declares none); the folded constraint carries the mask's
    ``__name__``, so lint and ``--debug-deps`` name the mask."""
    mask_reads = frozenset(getattr(mask, "reads", None) or ())

    def joint(reads: Any) -> FrozenSet[str]:
        return frozenset(reads) | mask_reads if reads and mask_reads else frozenset()

    def guard(predicate: Callable[[Any, State], bool]) -> Callable[[Any, State], bool]:
        def guarded(config, state):
            return mask(state) or predicate(config, state)

        return guarded

    constraint = spec.constraint
    if constraint is None:
        def bounded(config, state):
            return not mask(state)
    else:
        def bounded(config, state):
            return not mask(state) and constraint(config, state)
    bounded.reads = joint(getattr(constraint, "reads", None)) if constraint else mask_reads
    bounded.__name__ = getattr(mask, "__name__", "masked")
    invariants = [
        replace(inv, predicate=guard(inv.predicate), reads=joint(inv.reads))
        for inv in spec.invariants
    ]
    return Specification(
        spec.name, spec.schema, spec.init, spec.modules, invariants, spec.config, bounded
    )


def memoized_declarations(spec: Specification) -> List[Declaration]:
    """Every declaration the generated kernel memoizes on: each action,
    each invariant and the state constraint (``fn.reads`` on the last).
    The one list: ``CompiledSpec._analyze`` groups memos by its keys, the
    compile bundle keys on it, kernel trust proves what a kernel relies
    on, lint checks all of them and ``--debug-deps`` names the entry
    whose memoized verdict disagreed with direct evaluation."""
    schema = spec.schema

    def keyed(reads: FrozenSet[str]) -> Optional[FrozenSet[str]]:
        return reads if reads and all(name in schema for name in reads) else None

    out = [Declaration.of_action(action) for action in spec.actions]
    for invariant in spec.invariants:
        reads = frozenset(invariant.reads)
        out.append(
            Declaration(
                "invariant", invariant.full_name, invariant.predicate,
                reads, keyed(reads), invariant,
            )
        )
    constraint = spec.constraint
    if constraint is not None:
        reads = frozenset(getattr(constraint, "reads", None) or ())
        name = getattr(constraint, "__name__", "constraint")
        out.append(Declaration("constraint", name, constraint, reads, keyed(reads), constraint))
    return out
