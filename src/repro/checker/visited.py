"""Shared-memory visited-fingerprint table for real-time cross-worker
dedupe (``--dedupe shared``).

The round-synchronous BFS pool (``--dedupe rounds``) only lets workers
learn about each other's visited states at round barriers: within a
round, two workers can both discover (and both classify) the same
successor, and the parent's serial merge throws the duplicate away.
:class:`SharedVisitedSet` replaces that between-rounds fingerprint-set
merge with a fixed-size open-addressing table in
:mod:`multiprocessing.shared_memory`, so a fingerprint published by one
worker suppresses the duplicate in every other worker *immediately*.

Design (a TLC-style lock-free fingerprint set):

- 8-byte slots, linear probing, power-of-two capacity.  Slot value 0 is
  the *empty* sentinel; the (astronomically unlikely) fingerprint 0 is
  remapped to a fixed constant, which merely aliases it with one other
  fingerprint -- the standard collision trade-off.
- Inserts claim a slot by *compare-and-publish*: read the slot, write
  the fingerprint if it holds the sentinel, then read it back.  A lost
  race (another worker published a different fingerprint first) resumes
  probing.  Aligned 8-byte stores are atomic on every platform CPython's
  ``fork`` start method supports, so readers never observe torn slots.
- Races are *conservative*: the worst outcome of a lost or duplicated
  claim is that the same state is expanded by two workers, and the BFS
  parent's authoritative merge (keyed on the fingerprint) drops the
  duplicate.  A fingerprint is never falsely reported present, so no
  state is ever lost -- ``--dedupe shared`` reaches exactly the
  sequential visited-state count and violation set at fixed budgets.
- Load-factor growth by *generation*: the table cannot be resized in
  place, so the owner allocates a fresh, larger segment when the newest
  one passes its load ceiling.  Older generations stay attached and are
  probed for membership; inserts go to the newest.  The BFS parent grows
  between rounds and ships the updated segment list with the next round
  message, so workers always agree on the generation set.
- When even the newest generation rejects an insert (probe limit hit
  before growth lands), the fingerprint falls back to a process-local
  overflow set: dedupe degrades to per-worker for that fingerprint but
  never drops it.

Ownership: the creating process unlinks every segment on :meth:`close`;
attaching processes merely detach.  Attached segments are unregistered
from the ``resource_tracker`` (which double-counts attachments made by
forked children and would otherwise warn at shutdown).
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Tuple

#: Empty-slot marker.  Fingerprint 0 is remapped to _ZERO_ALIAS.
_EMPTY = 0
_ZERO_ALIAS = 0x9E3779B97F4A7C15

#: Linear probes attempted before an insert/lookup gives up.  At the
#: 0.5 load ceiling the expected probe chain is ~2 slots; 128 makes a
#: false "table full" practically impossible before growth lands.
_PROBE_LIMIT = 128

#: Newest-generation load ceiling that triggers growth.
_LOAD_CEILING = 0.5

_MIN_CAPACITY = 1 << 12
_MAX_CAPACITY = 1 << 26  # 512 MiB of slots; growth stops here


def available() -> bool:
    """True when POSIX shared memory works on this host."""
    try:
        probe = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, ValueError):  # pragma: no cover - exotic hosts
        return False
    probe.close()
    probe.unlink()
    return True


def suggest_capacity(max_states: Optional[int]) -> int:
    """Initial slot count for a run bounded by ``max_states``."""
    if max_states is None:
        return 1 << 20
    capacity = _MIN_CAPACITY
    while capacity < 4 * max_states and capacity < _MAX_CAPACITY:
        capacity <<= 1
    return capacity


def _normalize(fingerprint: int) -> int:
    fingerprint &= 0xFFFFFFFFFFFFFFFF
    return fingerprint if fingerprint != _EMPTY else _ZERO_ALIAS


class _untracked_attach:
    """Suppress resource-tracker registration while attaching.

    Only the creating process owns the memory (and unlinks it on close);
    letting an attaching process register the same name again makes the
    tracker double-count it and complain -- or worse, unlink it -- at
    shutdown.  Python 3.13 grew ``SharedMemory(track=False)`` for
    exactly this; earlier versions need the registration hook silenced
    around the attach call.
    """

    def __enter__(self):
        from multiprocessing import resource_tracker

        self._tracker = resource_tracker
        self._register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        return self

    def __exit__(self, *exc_info):
        self._tracker.register = self._register
        return False


class _Segment:
    """One shared-memory generation: a flat array of 8-byte slots."""

    __slots__ = ("shm", "view", "capacity", "mask", "owner")

    def __init__(self, capacity: Optional[int] = None, name: Optional[str] = None):
        if name is None:
            if capacity is None or capacity & (capacity - 1):
                raise ValueError(f"capacity must be a power of two: {capacity}")
            self.shm = shared_memory.SharedMemory(create=True, size=capacity * 8)
            self.owner = True
        else:
            with _untracked_attach():
                self.shm = shared_memory.SharedMemory(name=name)
            capacity = len(self.shm.buf) // 8
            self.owner = False
        self.capacity = capacity
        self.mask = capacity - 1
        self.view = memoryview(self.shm.buf).cast("Q")

    @property
    def name(self) -> str:
        return self.shm.name

    def lookup(self, fingerprint: int) -> bool:
        view = self.view
        mask = self.mask
        slot = fingerprint & mask
        for _ in range(_PROBE_LIMIT):
            current = view[slot]
            if current == fingerprint:
                return True
            if current == _EMPTY:
                return False
            slot = (slot + 1) & mask
        return False

    def insert(self, fingerprint: int) -> int:
        """1: newly published; 0: already present; -1: probe limit hit."""
        view = self.view
        mask = self.mask
        slot = fingerprint & mask
        for _ in range(_PROBE_LIMIT):
            current = view[slot]
            if current == fingerprint:
                return 0
            if current == _EMPTY:
                view[slot] = fingerprint
                current = view[slot]  # compare-and-publish readback
                if current == fingerprint:
                    return 1
                # Lost the slot to a concurrent writer; fall through and
                # keep probing from the next slot.
            slot = (slot + 1) & mask
        return -1

    def close(self) -> None:
        self.view.release()
        self.shm.close()
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


class SharedVisitedSet:
    """A growable, multi-generation shared fingerprint set.

    Implements ``fp in table`` and ``table.add(fp)`` with plain ``set``
    semantics, so :meth:`CompiledSpec.expand_batch
    <repro.checker.engine.CompiledSpec.expand_batch>` accepts it directly
    as its ``seen`` argument.  ``add`` returns True when this process
    published the fingerprint first (used for distinct-state accounting
    by the sharded DFS workers).
    """

    def __init__(self, initial_capacity: int = 1 << 20):
        self._segments: List[_Segment] = [_Segment(capacity=initial_capacity)]
        self._older: List[_Segment] = []
        self._overflow: set = set()
        self._base_count = 0  # owner: authoritative count at last growth
        self._last_miss: Optional[int] = None
        self.inserts = 0  # fingerprints this process published first

    @classmethod
    def attach(cls, names: Tuple[str, ...]) -> "SharedVisitedSet":
        table = cls.__new__(cls)
        table._segments = [_Segment(name=name) for name in names]
        table._older = table._segments[:-1]
        table._overflow = set()
        table._base_count = 0
        table._last_miss = None
        table.inserts = 0
        return table

    def descriptors(self) -> Tuple[str, ...]:
        """Segment names, oldest first (ship these to workers)."""
        return tuple(segment.name for segment in self._segments)

    def attach_new(self, names: Tuple[str, ...]) -> None:
        """Attach generations grown by the owner since the last round."""
        known = {segment.name for segment in self._segments}
        for name in names:
            if name not in known:
                self._segments.append(_Segment(name=name))
        self._older = self._segments[:-1]
        self._last_miss = None  # older-generation set changed

    def __contains__(self, fingerprint: int) -> bool:
        fingerprint = _normalize(fingerprint)
        for segment in self._segments:
            if segment.lookup(fingerprint):
                return True
        if fingerprint in self._overflow:
            return True
        # The engine's dedupe idiom is ``fp in seen`` followed by
        # ``seen.add(fp)``; remember the miss so the add skips the
        # membership re-probe.
        self._last_miss = fingerprint
        return False

    def add(self, fingerprint: int) -> bool:
        fingerprint = _normalize(fingerprint)
        if fingerprint == self._last_miss:
            self._last_miss = None
        else:
            for segment in self._older:
                if segment.lookup(fingerprint):
                    return False
        outcome = self._segments[-1].insert(fingerprint)
        if outcome == 1:
            self.inserts += 1
            return True
        if outcome == 0:
            return False
        if fingerprint in self._overflow:
            return False
        self._overflow.add(fingerprint)
        self.inserts += 1
        return True

    @property
    def capacity(self) -> int:
        return sum(segment.capacity for segment in self._segments)

    def should_grow(self, authoritative_count: int) -> bool:
        """Owner side: has the newest generation passed its load ceiling?

        ``authoritative_count`` is the caller's exact distinct-state
        count (the BFS parent's accepted-fingerprint total); the newest
        generation held roughly ``count - count_at_its_creation`` of
        those.
        """
        newest = self._segments[-1]
        if newest.capacity >= _MAX_CAPACITY:
            return False
        filled = authoritative_count - self._base_count
        return filled >= int(newest.capacity * _LOAD_CEILING)

    def grow(self, authoritative_count: int) -> None:
        """Owner side: allocate the next generation (2x the newest).

        Segment capacities must stay powers of two (the probe index is
        masked), so growth doubles the newest generation rather than
        the summed total.
        """
        capacity = min(2 * self._segments[-1].capacity, _MAX_CAPACITY)
        self._segments.append(_Segment(capacity=capacity))
        self._older = self._segments[:-1]
        self._base_count = authoritative_count

    def close(self) -> None:
        for segment in self._segments:
            segment.close()
        self._segments = []
        self._older = []
        self._overflow = set()
