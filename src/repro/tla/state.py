"""Immutable states over a fixed variable schema.

A TLA+ state is an assignment to the specification's variables.  For
explicit-state checking in Python we want states to be small, hashable and
fast to copy, so a :class:`State` stores its values in a tuple ordered by a
shared :class:`Schema`.  Functional update (:meth:`State.set`) copies the
tuple; structural sharing of the (immutable) values keeps that cheap.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Mapping, NamedTuple, Tuple


class Slot(NamedTuple):
    """Stable metadata of one schema slot (a variable's tuple position).

    Slots are the unit the compiled successor kernels are generated
    against: a kernel addresses variables by ``index`` (a direct tuple
    subscript) and only uses ``name`` for diagnostics, so the emitted
    code stays valid for exactly as long as the schema object itself.
    """

    index: int
    name: str


class Schema:
    """An ordered, immutable list of variable names shared by states.

    Schemas are interned by name tuple: ``Schema(names)`` returns the
    same object for the same names, so the identity comparison in
    :meth:`State.__eq__` keeps working for states rebuilt in another
    process (a campaign worker) or restored from a pickle.

    The intern table holds its entries *weakly*: a schema stays interned
    for exactly as long as something (a state, a spec) still references
    it.  Long-lived campaign processes compose many throwaway specs, and
    a strong table would keep every schema those specs ever built alive
    for the life of the process.
    """

    __slots__ = ("names", "_index", "slots", "__weakref__")

    _interned: "weakref.WeakValueDictionary[Tuple[str, ...], Schema]" = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, names: Tuple[str, ...]):
        key = tuple(names)
        cached = cls._interned.get(key)
        if cached is not None and type(cached) is cls:
            return cached
        instance = super().__new__(cls)
        if cls is Schema:
            cls._interned[key] = instance
        return instance

    def __init__(self, names: Tuple[str, ...]):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in schema: {names}")
        self.names: Tuple[str, ...] = tuple(names)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.slots: Tuple[Slot, ...] = tuple(
            Slot(i, name) for i, name in enumerate(self.names)
        )

    def __reduce__(self):
        return (Schema, (self.names,))

    def index(self, name: str) -> int:
        return self._index[name]

    def positions(self, names) -> Tuple[int, ...]:
        """Sorted slot indices of a set of variable names.

        This is the canonical projection order shared by the outcome/guard
        memo keys and the compiled kernels, so both address the same
        ``(values[i], values[j], ...)`` tuples.
        """
        index = self._index
        return tuple(sorted(index[name] for name in names))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Schema({', '.join(self.names)})"


class State(dict):
    """An immutable assignment of values to the variables of a schema.

    Values must be hashable (tuples, ints, strings, :class:`Rec`, ...).
    States hash and compare by value, so they can be used directly as
    fingerprints in the checker's visited set.

    A state is a frozen ``dict`` keyed by variable name, so ``state["x"]``
    is a C-level dict lookup; it also keeps the values tuple in schema
    order (``values``) and its ``schema``.  Equality and hashing go by
    ``values`` and schema identity, never by dict contents: a state is
    not equal to a plain dict with the same items.  Every dict mutator
    raises ``TypeError``.
    """

    __slots__ = ("schema", "values", "_hash")

    def __init__(self, schema: Schema, values: Tuple[Any, ...]):
        if len(values) != len(schema):
            raise ValueError(
                f"schema has {len(schema)} variables but got {len(values)} values"
            )
        dict.update(self, zip(schema.names, values))
        _set_schema(self, schema)
        _set_values(self, values)
        # The hash is computed lazily: the engine fingerprints states
        # instead of dict-keying them, so most successor states are
        # never hashed at all.
        _set_hash(self, None)

    @classmethod
    def make(cls, schema: Schema, **assignments: Any) -> "State":
        """Build a state by keyword; every schema variable must be given."""
        missing = [name for name in schema.names if name not in assignments]
        if missing:
            raise ValueError(f"missing variables: {missing}")
        extra = [name for name in assignments if name not in schema]
        if extra:
            raise ValueError(f"unknown variables: {extra}")
        return cls(schema, tuple(assignments[name] for name in schema.names))

    def __getattr__(self, name: str) -> Any:
        try:
            return dict.__getitem__(self, name)
        except KeyError:
            raise AttributeError(name)

    def __setattr__(self, name: str, value: Any):
        raise TypeError("State is immutable; use .set()")

    def __delattr__(self, name: str):
        raise TypeError("State is immutable; use .set()")

    def _refuse(self, *args: Any, **kwargs: Any):
        raise TypeError("State is immutable; use .set()")

    __setitem__ = __delitem__ = __ior__ = _refuse  # type: ignore
    clear = pop = popitem = setdefault = update = _refuse  # type: ignore

    def __hash__(self) -> int:  # type: ignore
        digest = self._hash
        if digest is None:
            digest = hash(self.values)
            _set_hash(self, digest)
        return digest

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, State):
            return self.values == other.values and self.schema is other.schema
        # A plain dict with the same items is still not a state.
        return False if isinstance(other, dict) else NotImplemented

    def __ne__(self, other: Any) -> bool:
        if isinstance(other, State):
            return self.values != other.values or self.schema is not other.schema
        return True if isinstance(other, dict) else NotImplemented

    def __reduce__(self):
        # Rebuild through the constructor (schemas are interned, so the
        # restored state compares equal to the original).
        return (State, (self.schema, self.values))

    def set(self, **updates: Any) -> "State":
        """Functional update: a new state with some variables replaced."""
        return self.set_many(updates)

    def set_many(self, updates: Mapping[str, Any]) -> "State":
        """Functional update from a mapping: ``self.set(**updates)`` minus
        the kwargs repacking."""
        values = list(self.values)
        index = self.schema._index
        for name, value in updates.items():
            values[index[name]] = value
        # Copying this state's dict clones its key table in one go; only
        # the updated entries are then written one by one.
        state = dict.__new__(State)
        dict.update(state, self)
        dict.update(state, updates)
        _set_schema(state, self.schema)
        _set_values(state, tuple(values))
        _set_hash(state, None)
        return state

    def project(self, variables) -> Tuple[Any, ...]:
        """Project the state onto a set of variables (Appendix B: s|M).

        Returns a canonical tuple of the values of ``variables`` in schema
        order, so projected states can be compared and hashed.
        """
        return tuple(
            self.values[i]
            for i, name in enumerate(self.schema.names)
            if name in variables
        )

    def diff(self, other: "State") -> Dict[str, Tuple[Any, Any]]:
        """Variables whose values differ between two states (for debugging
        and for conformance-discrepancy reports)."""
        out: Dict[str, Tuple[Any, Any]] = {}
        for i, name in enumerate(self.schema.names):
            if self.values[i] != other.values[i]:
                out[name] = (self.values[i], other.values[i])
        return out

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.schema.names, self.values)
        )
        return f"State({inner})"


# Slot writers that go round the immutability guard of ``__setattr__``.
_set_schema = State.schema.__set__  # type: ignore
_set_values = State.values.__set__  # type: ignore
_set_hash = State._hash.__set__  # type: ignore
