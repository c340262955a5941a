"""64-bit state fingerprinting (the TLC fingerprint set).

The seed checker deduplicated by storing full :class:`State` objects in a
dict, which is the memory bottleneck for large state spaces.  The engine
instead stores a 64-bit fingerprint per visited state, derived from a
canonical byte encoding of the state's values.

Python's builtin ``hash()`` is intentionally NOT used: string hashing is
salted per interpreter (PYTHONHASHSEED), so hashes computed in different
worker processes would disagree and the parallel engine could never merge
visited sets.  The canonical encoding below is stable across processes,
runs and platforms.

Fingerprints are Zobrist-style: the state fingerprint is the XOR of one
digest per (slot index, slot value) pair, each digest memoized per slot.
XOR composition makes the fingerprint *incrementally updatable*: a
successor state that changes k slots costs O(k) digest lookups
(``fp' = fp ^ H(i, old) ^ H(i, new)`` per changed slot) instead of
re-encoding the whole state -- see :meth:`Fingerprinter.update`.  This
is what makes fingerprinting cheaper than the full ``State`` hashing +
equality the seed dict paid for.

The encoding mirrors :class:`State` equality semantics, because the cache
is keyed by value equality and equal values must fingerprint equally:

- ``bool`` and ``int`` encode identically (``True == 1`` in a values
  tuple, and the seed dict deduplicated them as equal); integral floats
  encode as their integer (``1.0 == 1``);
- tuple *subclasses* (``Zxid``, ``Txn`` -- NamedTuples) encode as plain
  tuples, matching tuple equality semantics;
- :class:`Rec` encodes with its own tag: a record is never equal to the
  tuple of its items.

Fingerprints are 64-bit, so a run of n states has collision probability
about n^2 / 2^65 (a 10M-state run: ~3e-6).  A colliding state is silently
treated as already visited -- the standard TLC trade-off.  The ``bits``
parameter narrows the fingerprint space to make collisions reachable in
tests.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any, Tuple

from repro.tla.state import State
from repro.tla.values import Rec

#: Entries kept in each per-slot digest cache before it is reset.  The
#: cache is a pure memo, so clearing it only costs re-encoding.
_CACHE_LIMIT = 1 << 19


class FingerprintError(TypeError):
    """A state contained a value the canonical encoder does not know."""


def _encode(value: Any, buf: bytearray) -> None:
    """Append a canonical, self-delimiting encoding of ``value``."""
    kind = type(value)
    if kind is int or kind is bool:
        buf += b"i%d;" % value
    elif kind is str:
        raw = value.encode("utf-8")
        buf += b"s%d;" % len(raw)
        buf += raw
    elif kind is tuple:
        buf += b"t%d;" % len(value)
        for item in value:
            _encode(item, buf)
    elif value is None:
        buf += b"n;"
    elif kind is frozenset:
        parts = []
        for item in value:
            sub = bytearray()
            _encode(item, sub)
            parts.append(bytes(sub))
        parts.sort()
        buf += b"f%d;" % len(parts)
        for part in parts:
            buf += part
    elif isinstance(value, tuple):  # NamedTuple subclasses: Zxid, Txn, ...
        buf += b"t%d;" % len(value)
        for item in value:
            _encode(item, buf)
    elif kind is Rec or isinstance(value, Rec):
        items = value._items
        buf += b"r%d;" % len(items)
        for key, item in items:
            _encode(key, buf)
            _encode(item, buf)
    elif kind is float:
        # Equal values must encode equally: 1.0 == 1 in a values tuple.
        if value.is_integer():
            buf += b"i%d;" % int(value)
        elif value != value:
            raise FingerprintError("cannot fingerprint NaN")
        else:
            buf += b"d%s;" % repr(value).encode("ascii")
    elif isinstance(value, State):
        buf += b"S;"
        _encode(value.values, buf)
    elif isinstance(value, int):  # other int subclasses (IntEnum, ...)
        buf += b"i%d;" % int(value)
    elif isinstance(value, str):
        raw = str(value).encode("utf-8")
        buf += b"s%d;" % len(raw)
        buf += raw
    else:
        raise FingerprintError(
            f"cannot fingerprint value of type {kind.__name__}: {value!r}"
        )


def canonical_bytes(values: Tuple[Any, ...]) -> bytes:
    """The canonical encoding of a values tuple (exposed for tests)."""
    buf = bytearray()
    _encode(values, buf)
    return bytes(buf)


class Fingerprinter:
    """Maps states to ``bits``-wide integer fingerprints.

    The default 64 bits is what production checking uses; tests pass a
    small ``bits`` to force collisions and exercise the engine's
    collision behaviour (a colliding state is treated as visited).
    """

    __slots__ = ("bits", "_mask", "_caches")

    def __init__(self, bits: int = 64):
        if not 1 <= bits <= 64:
            raise ValueError(f"fingerprint width must be 1..64 bits, got {bits}")
        self.bits = bits
        self._mask = (1 << bits) - 1
        self._caches: list = []  # per slot index: {value: digest}

    def _cache_for(self, index: int) -> dict:
        caches = self._caches
        while len(caches) <= index:
            caches.append({})
        return caches[index]

    def slot_digest(self, index: int, value: Any) -> int:
        """The digest of one (slot index, value) pair, memoized."""
        caches = self._caches
        cache = caches[index] if index < len(caches) else self._cache_for(index)
        digest = cache.get(value)
        if digest is None:
            buf = bytearray(b"%d|" % index)
            _encode(value, buf)
            raw = blake2b(bytes(buf), digest_size=8).digest()
            digest = int.from_bytes(raw, "big") & self._mask
            if len(cache) >= _CACHE_LIMIT:
                cache.clear()
            cache[value] = digest
        return digest

    def of_values(self, values: Tuple[Any, ...]) -> int:
        acc = 0
        slot_digest = self.slot_digest
        for index, value in enumerate(values):
            acc ^= slot_digest(index, value)
        return acc

    def of_state(self, state: State) -> int:
        return self.of_values(state.values)

    def update(
        self,
        fingerprint: int,
        values: Tuple[Any, ...],
        changes,
    ) -> int:
        """Incrementally fingerprint a successor.

        ``fingerprint``/``values`` describe the parent state; ``changes``
        iterates (slot index, new value) pairs.  A pair whose new value
        equals the old one cancels out (H ^ H == 0), so callers need not
        pre-filter no-op writes.  When most slots change, prefer
        :meth:`of_values` on the successor (two lookups per change vs one
        per slot).
        """
        slot_digest = self.slot_digest
        for index, new_value in changes:
            old_value = values[index]
            if old_value is new_value:
                continue
            fingerprint ^= slot_digest(index, old_value) ^ slot_digest(
                index, new_value
            )
        return fingerprint

    def __repr__(self) -> str:
        return f"Fingerprinter(bits={self.bits})"


class IncrementalFingerprinter(Fingerprinter):
    """A schema-aware fingerprinter with a name-keyed delta API.

    :class:`Fingerprinter` works on slot indices; the generated kernels
    (and, through them, the random walkers and campaign suffix replays)
    fold one digest pair per *changed* slot into a memoized fingerprint
    delta.  This subclass is the public name-keyed mirror of that
    arithmetic for external callers driving states by hand via
    :meth:`State.set_many <repro.tla.state.State.set_many>`:

        fp' = fp ^ H(var, old) ^ H(var, new)   over written variables only

    A delta is itself an XOR mask: ``parent_fp ^ delta(values, updates)``
    is the successor fingerprint, and deltas compose by XOR.
    """

    __slots__ = ("schema",)

    def __init__(self, schema, bits: int = 64):
        super().__init__(bits=bits)
        self.schema = schema

    def delta(self, values: Tuple[Any, ...], updates) -> int:
        """The XOR fingerprint delta of a name-keyed update dict.

        An update that leaves a variable's value unchanged contributes
        nothing (``H ^ H == 0``), matching :class:`State` equality.
        """
        index = self.schema._index
        slot_digest = self.slot_digest
        mask = 0
        for name, new_value in updates.items():
            slot = index[name]
            old_value = values[slot]
            if old_value is new_value:
                continue
            mask ^= slot_digest(slot, old_value) ^ slot_digest(slot, new_value)
        return mask

    def successor(
        self, fingerprint: int, state: State, updates
    ) -> Tuple[State, int]:
        """Apply a name-keyed update: ``(next_state, next_fingerprint)``."""
        nxt, mask = state.set_many(updates, fingerprinter=self)
        return nxt, fingerprint ^ mask
