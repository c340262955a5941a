"""Specifications: Init /\\ [][Next]_vars plus invariants.

A :class:`Specification` bundles:

- a :class:`~repro.tla.state.Schema` of variables,
- an initial-states function (TLA+ ``Init``; may yield several states),
- the modules whose actions, disjoined, form ``Next``,
- the invariants to check (protocol-level and code-level, Table 2).

``Next`` is the nondeterministic disjunction of every action instance of
every module: in each step any enabled action with any parameter binding
may fire (Figure 7 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.tla.action import Action, ActionInstance, ActionLabel, function_location
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

    def source_location(self) -> Optional[Tuple[str, int]]:
        """``(filename, line)`` of the predicate, or ``None``.

        Analysis-friendly metadata for the static spec analyzer
        (``python -m repro lint``), mirroring
        :meth:`repro.tla.action.Action.source_location`.
        """
        return function_location(self.predicate)

    @property
    def full_name(self) -> str:
        if self.instance:
            return f"{self.ident}/{self.instance}"
        return self.ident


class Specification:
    """A complete checkable specification."""

    # Set lazily by repro.checker.engine: the shared default compiled
    # core (kernel included) and the cached static-analyzer trust verdict
    # (plus, when untrusted, the first blocking finding).
    _compiled_core: Any
    _kernel_trusted: Optional[bool]
    _kernel_blocker: str

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

    def enabled_labels(self, state: State) -> List[ActionLabel]:
        return [label for label, _ in self.successors(state)]

    def within_constraint(self, state: State) -> bool:
        if self.constraint is None:
            return True
        return bool(self.constraint(self.config, state))

    def violated_invariants(self, state: State) -> List[Invariant]:
        return [
            inv for inv in self.invariants if not inv.holds(self.config, state)
        ]

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
