"""Immutable value helpers used by specifications.

TLA+ values are immutable; the checker fingerprints whole states, so every
value stored in a :class:`repro.tla.state.State` must be hashable.  This
module provides the small vocabulary of values the ZooKeeper and Zab
specifications use:

- :class:`Rec` -- an immutable record with attribute access (the analogue
  of a TLA+ record ``[field |-> value]``).
- :class:`Zxid` -- a ZooKeeper transaction id ``(epoch, counter)`` with the
  total order used by the protocol.
- :class:`Txn` -- a transaction: a zxid plus an opaque value.
- sequence helpers mirroring the TLA+ ``Sequences`` module
  (:func:`seq_append`, :func:`seq_tail`, :func:`is_prefix`, ...).
"""

from __future__ import annotations

from collections.abc import ItemsView, KeysView, Mapping, ValuesView
from typing import Any, Dict, Iterable, NamedTuple, Tuple


#: Names a record field may not take, besides ``_...`` ones: :class:`Rec`'s
#: own methods, which a field of that name would shadow
#: (``canonical_value`` calls ``rec.items()``).  ``count`` and ``index``
#: stay legal: a field simply hides the tuple method of that name.
_RESERVED = frozenset({"fields", "get", "items", "keys", "replace", "values"})

#: Shape table: keyword-name tuple, in any order seen at a call site ->
#: (sorted names, the record class of that shape).  Import-time and
#: process-wide; it holds one entry per distinct field-name order.
_SHAPES: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], Any]] = {}

_object_setattr = object.__setattr__


class Rec(tuple):
    """An immutable, hashable record with attribute access.

    >>> m = Rec(mtype="ACK", zxid=(1, 2))
    >>> m.mtype
    'ACK'
    >>> m.replace(mtype="COMMIT").mtype
    'COMMIT'

    A record is a ``tuple`` whose payload is ``(shape, v1, ...)``: the
    shape is the sorted tuple of field names and the values follow in
    that order, so hashing and equality are tuple operations in C.  Each
    shape has its own subclass, and every record also keeps its fields in
    its instance dict, so ``m.mtype`` is a plain attribute read.  To the
    rest of the program a record is a read-only :class:`Mapping` of its
    fields: ``m["mtype"]``, ``len``, ``in`` and iteration go by field
    name, and a record never equals the plain tuple of its values.
    """

    __slots__ = ()

    def __new__(cls, **fields: Any) -> "Rec":
        key = tuple(fields)
        entry = _SHAPES.get(key)
        if entry is None:
            entry = _shape(key)
        shape, klass = entry
        rec = tuple.__new__(klass, (shape, *map(fields.__getitem__, shape)))
        # ``**fields`` is a fresh dict: it becomes the instance dict.
        _object_setattr(rec, "__dict__", fields)
        return rec

    def __copy__(self) -> "Rec":
        return self  # immutable

    def __deepcopy__(self, memo) -> "Rec":
        return self  # immutable: fields are themselves immutable values

    def __getitem__(self, name: Any) -> Any:  # type: ignore
        return self.__dict__[name]

    def __setattr__(self, name: str, value: Any):
        raise TypeError("Rec is immutable")

    def __delattr__(self, name: str):
        raise TypeError("Rec is immutable")

    def __iter__(self):
        return iter(tuple.__getitem__(self, 0))

    def __len__(self) -> int:
        return tuple.__len__(self) - 1

    def __contains__(self, name: Any) -> bool:
        return name in tuple.__getitem__(self, 0)

    def keys(self) -> KeysView:
        return KeysView(self)

    def items(self) -> ItemsView:
        return ItemsView(self)

    def values(self) -> ValuesView:
        return ValuesView(self)

    def get(self, name: Any, default: Any = None) -> Any:
        return self.__dict__.get(name, default)

    @property
    def _items(self) -> Tuple[Tuple[str, Any], ...]:
        """The ``(name, value)`` pairs in name order."""
        payload = tuple.__iter__(self)
        return tuple(zip(next(payload), payload))

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value!r}" for key, value in self._items)
        return f"Rec({inner})"

    def __reduce__(self):
        # Rebuild from the item tuple: the pickle form stays independent
        # of the per-shape classes (the parallel checker ships Rec-bearing
        # value tuples between worker processes).
        return (_rec_from_items, (self._items,))

    def replace(self, **updates: Any) -> "Rec":
        """Return a copy of this record with some fields replaced."""
        fields = dict(self.__dict__)
        fields.update(updates)
        if len(fields) != len(self):  # new fields: a new shape
            return Rec(**fields)
        shape = tuple.__getitem__(self, 0)
        rec = tuple.__new__(type(self), (shape, *map(fields.__getitem__, shape)))
        _object_setattr(rec, "__dict__", fields)
        return rec

    def fields(self) -> Tuple[str, ...]:
        return tuple.__getitem__(self, 0)


Mapping.register(Rec)


def _shape(key: Tuple[str, ...]) -> Tuple[Tuple[str, ...], Any]:
    """File the record class of the field names ``key`` (any order) in
    the shape table, refusing names a field may not take."""
    for name in key:
        if name.startswith("_") or name in _RESERVED:
            raise ValueError(
                f"Rec field {name!r} would shadow part of the record's API"
            )
    shape = tuple(sorted(key))
    entry = _SHAPES.get(shape)
    if entry is None:
        klass = type("Rec", (Rec,), {"__module__": __name__, "__qualname__": "Rec"})
        entry = _SHAPES[shape] = (shape, klass)
    _SHAPES[key] = entry
    return entry


def _rec_from_items(items: Tuple[Tuple[str, Any], ...]) -> "Rec":
    """Rebuild a Rec from its sorted item tuple (pickle support)."""
    return Rec(**dict(items))


class Zxid(NamedTuple):
    """A ZooKeeper transaction id, totally ordered by (epoch, counter)."""

    epoch: int
    counter: int

    def __repr__(self) -> str:
        return f"<{self.epoch},{self.counter}>"


ZXID_ZERO = Zxid(0, 0)


class Txn(NamedTuple):
    """A transaction: a zxid and an opaque payload value."""

    zxid: Zxid
    value: int

    def __repr__(self) -> str:
        return f"Txn({self.zxid!r},v={self.value})"


# --- sequence helpers (TLA+ Sequences module analogues) -------------------

Seq = Tuple  # a TLA+ sequence is just a Python tuple


def seq(*items: Any) -> Tuple:
    """Build a sequence: ``seq(1, 2, 3) == (1, 2, 3)``."""
    return tuple(items)


def seq_append(sequence: Tuple, item: Any) -> Tuple:
    """``Append(seq, item)``."""
    return sequence + (item,)

def seq_concat(left: Tuple, right: Iterable) -> Tuple:
    """``left \\o right``."""
    return left + tuple(right)


def seq_head(sequence: Tuple) -> Any:
    """``Head(seq)``; raises IndexError on the empty sequence."""
    return sequence[0]


def seq_tail(sequence: Tuple) -> Tuple:
    """``Tail(seq)``."""
    return sequence[1:]


def is_prefix(shorter: Tuple, longer: Tuple) -> bool:
    """The prefix relation on sequences (the paper's ⊑)."""
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def comparable(left: Tuple, right: Tuple) -> bool:
    """True iff one sequence is a prefix of the other."""
    return is_prefix(left, right) or is_prefix(right, left)


def last_zxid(history: Tuple[Txn, ...]) -> Zxid:
    """``LastZxidOfHistory``: zxid of the last txn, or <0,0> when empty."""
    if not history:
        return ZXID_ZERO
    return history[-1].zxid


def updated(base: Tuple, index: int, value: Any) -> Tuple:
    """Functional update of one slot of a tuple (TLA+ ``EXCEPT ![i]``)."""
    return base[:index] + (value,) + base[index + 1 :]
