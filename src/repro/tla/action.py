"""Guarded actions: the TLA+ next-state building blocks.

A TLA+ action is a conjunction of enabling conditions and next-state
updates.  Here an :class:`Action` wraps a Python function

    fn(config, state, **params) -> dict | None

which returns ``None`` when the action is not enabled in ``state`` for the
given parameter binding, and otherwise a dict of variable updates (the
analogue of the primed assignments; unmentioned variables are UNCHANGED).

Parameter domains (the TLA+ ``\\E i \\in Server`` quantifiers) are declared
as functions of the model configuration so that one action definition can
be instantiated for any configuration.

Actions also declare the variables they *read* (their dependency
variables, Definition 2 of the paper's Appendix B) and *write*, which is
what the interaction-preservation analysis in :mod:`repro.tla.module`
consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.tla.state import State

ActionFn = Callable[..., Optional[Dict[str, Any]]]
DomainFn = Callable[[Any], Iterable[Any]]


def function_location(fn: Any) -> Optional[Tuple[str, int]]:
    """Best-effort ``(filename, first line)`` of a callable.

    Resolves through the code object, so it works for plain functions
    and lambdas alike; wrappers (e.g. the ``pairwise`` adapters) report
    the wrapper's own definition site -- the static analyzer in
    :mod:`repro.analysis` resolves through closures when it needs the
    wrapped function.  Returns ``None`` for callables without a code
    object (builtins, C extensions).
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno)


@dataclass(frozen=True)
class ActionLabel:
    """A fully instantiated action occurrence: name plus parameter binding.

    Labels identify trace steps; they are what the conformance checker's
    action mapping (model action -> code action) is keyed on.
    """

    name: str
    binding: Tuple[Tuple[str, Any], ...] = ()

    def __str__(self) -> str:
        if not self.binding:
            return self.name
        args = ", ".join(f"{key}={value}" for key, value in self.binding)
        return f"{self.name}({args})"

    @property
    def args(self) -> Dict[str, Any]:
        return dict(self.binding)


class Action:
    """A named, parameterized guarded action.

    Parameters
    ----------
    name:
        The action name as it appears in the specification (and in traces).
    fn:
        ``fn(config, state, **params)`` returning an update dict or None.
    params:
        Mapping from parameter name to a domain function
        ``config -> iterable`` (evaluated once per configuration).
    reads:
        Names of the variables appearing in the enabling condition --
        the action's dependency variables (Appendix B, Definition 2).
    writes:
        Names of the variables this action may update.  Validated against
        the update dicts the function returns (and re-validated on every
        application by the engine's debug mode, since the engine hot path
        bypasses :meth:`apply`).
    update_sources:
        Optional mapping ``written_var -> set of vars its new value is
        computed from``, used by the transitive dependency/interaction
        analysis (Definition 2 rule 3 and Definition 3 rules 2-3).
    """

    __slots__ = ("name", "fn", "params", "reads", "writes", "update_sources")

    def __init__(
        self,
        name: str,
        fn: ActionFn,
        params: Optional[Mapping[str, DomainFn]] = None,
        reads: Iterable[str] = (),
        writes: Iterable[str] = (),
        update_sources: Optional[Mapping[str, Iterable[str]]] = None,
    ):
        self.name = name
        self.fn = fn
        self.params: Dict[str, DomainFn] = dict(params or {})
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)
        self.update_sources: Dict[str, frozenset] = {
            var: frozenset(sources)
            for var, sources in (update_sources or {}).items()
        }

    def __repr__(self) -> str:
        return f"Action({self.name})"

    def source_location(self) -> Optional[Tuple[str, int]]:
        """``(filename, line)`` of the action function, or ``None``.

        Analysis-friendly metadata: the static spec analyzer
        (``python -m repro lint``) anchors its findings here when a more
        precise access site is not available.
        """
        return function_location(self.fn)

    def dependency_closure(self) -> Optional[frozenset]:
        """All variables the action *function* is a function of, or
        ``None`` when unknown.

        The declaration contract the incremental engine relies on, for
        an action with declared ``reads``:

        - the *enabling condition* is a pure function of ``reads`` alone
          (that is what ``reads`` declares, and what the interference
          matrix behind inherited disabled bits keys on);
        - every *update value* is a pure function of
          ``reads | writes | update_sources`` (written vars may read
          their own old value, e.g. budget decrements and per-server
          vector updates; ``update_sources`` declares any source beyond
          that, per Definition 2 rule 3) -- so the closure determines
          the function's entire outcome.

        Actions that omit ``reads`` have an unknown dependency set and
        must be re-evaluated in every state.  The engine's debug mode
        (:class:`repro.checker.engine.CompiledSpec` with ``debug=True``)
        cross-checks memoized outcomes against fresh evaluations to
        validate declarations.
        """
        if not self.reads:
            return None
        closure = set(self.reads) | set(self.writes)
        for sources in self.update_sources.values():
            closure |= sources
        return frozenset(closure)

    def validate_updates(self, updates: Dict[str, Any]) -> Dict[str, Any]:
        """Check an update dict against the declared write set."""
        unknown = set(updates) - self.writes
        if unknown:
            raise ValueError(
                f"action {self.name} wrote undeclared variables: {sorted(unknown)}"
            )
        return updates

    def bindings(self, config: Any) -> Iterable[Tuple[Tuple[str, Any], ...]]:
        """Enumerate all parameter bindings for a configuration."""
        if not self.params:
            return [()]
        names = list(self.params)
        domains = [list(self.params[name](config)) for name in names]
        return [
            tuple(zip(names, combo)) for combo in itertools.product(*domains)
        ]

    def apply(
        self, config: Any, state: State, binding: Tuple[Tuple[str, Any], ...]
    ) -> Optional[State]:
        """Apply the action under one binding; None when not enabled."""
        updates = self.fn(config, state, **dict(binding))
        if updates is None:
            return None
        return state.set_many(self.validate_updates(updates))


@dataclass(frozen=True)
class ActionInstance:
    """An action paired with one concrete parameter binding."""

    action: Action
    binding: Tuple[Tuple[str, Any], ...] = ()

    @property
    def label(self) -> ActionLabel:
        return ActionLabel(self.action.name, self.binding)

    def apply(self, config: Any, state: State) -> Optional[State]:
        return self.action.apply(config, state, self.binding)


def action(
    name: str,
    params: Optional[Mapping[str, DomainFn]] = None,
    reads: Iterable[str] = (),
    writes: Iterable[str] = (),
    update_sources: Optional[Mapping[str, Iterable[str]]] = None,
) -> Callable[[ActionFn], Action]:
    """Decorator form: wrap a function into an :class:`Action`.

    >>> @action("Tick", reads=["clock"], writes=["clock"])
    ... def tick(config, state):
    ...     return {"clock": state.clock + 1}
    """

    def wrap(fn: ActionFn) -> Action:
        return Action(
            name,
            fn,
            params=params,
            reads=reads,
            writes=writes,
            update_sources=update_sources,
        )

    return wrap
