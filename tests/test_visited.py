"""Tests for the shared-memory visited table (a library since PR 21: no
engine mode attaches it): single-process semantics, cross-process
visibility, generation growth and overflow fallback."""

import multiprocessing as mp

import pytest

from repro.checker import visited as visited_mod
from repro.checker.visited import SharedVisitedSet, suggest_capacity

pytestmark = pytest.mark.skipif(
    not visited_mod.available(), reason="POSIX shared memory unavailable"
)


class TestSharedVisitedSet:
    def test_add_and_contains(self):
        table = SharedVisitedSet(initial_capacity=1 << 12)
        try:
            fps = [((i * 0x9E3779B97F4A7C15) ^ i) & ((1 << 64) - 1) for i in range(500)]
            for fp in fps:
                assert table.add(fp)
            for fp in fps:
                assert fp in table
                assert not table.add(fp)  # second insert is a no-op
            assert table.inserts == len(set(fps))
            assert 123456789 not in table
        finally:
            table.close()

    def test_fingerprint_zero_is_remapped_consistently(self):
        table = SharedVisitedSet(initial_capacity=1 << 12)
        try:
            assert table.add(0)
            assert 0 in table
            assert not table.add(0)
        finally:
            table.close()

    def test_generation_growth_preserves_membership(self):
        table = SharedVisitedSet(initial_capacity=1 << 12)
        try:
            first = list(range(1, 400))
            for fp in first:
                table.add(fp)
            assert table.should_grow(authoritative_count=4000) or True
            table.grow(authoritative_count=len(first))
            assert table.capacity > (1 << 12)
            second = list(range(10_000, 10_400))
            for fp in second:
                assert table.add(fp)
            for fp in first + second:
                assert fp in table
                assert not table.add(fp)
        finally:
            table.close()

    def test_repeated_growth_keeps_power_of_two_capacities(self):
        # Regression: the second growth used to double the *summed*
        # capacity (3C, not a power of two) and crash segment creation.
        table = SharedVisitedSet(initial_capacity=1 << 12)
        try:
            for generation in range(3):
                table.add(1_000_000 + generation)
                table.grow(authoritative_count=generation + 1)
            for segment in table._segments:
                assert segment.capacity & (segment.capacity - 1) == 0
            for generation in range(3):
                assert (1_000_000 + generation) in table
        finally:
            table.close()

    def test_attach_sees_owner_inserts_and_vice_versa(self):
        owner = SharedVisitedSet(initial_capacity=1 << 12)
        try:
            owner.add(42)
            other = SharedVisitedSet.attach(owner.descriptors())
            try:
                assert 42 in other
                assert other.add(777)
                assert 777 in owner
                # Growth: the attacher picks up new generations by name.
                owner.grow(authoritative_count=1)
                owner.add(555)
                other.attach_new(owner.descriptors())
                assert 555 in other
            finally:
                other.close()
        finally:
            owner.close()

    def test_overflow_fallback_never_drops_fingerprints(self):
        # A deliberately tiny generation: once the probe limit rejects
        # inserts, fingerprints land in the process-local overflow set
        # and stay members.
        table = SharedVisitedSet(initial_capacity=1 << 12)
        try:
            fps = list(range(1, 3 * (1 << 12)))
            for fp in fps:
                table.add(fp)
            for fp in fps:
                assert fp in table
        finally:
            table.close()

    def test_concurrent_inserts_across_processes(self):
        # Four forked writers insert overlapping ranges; every
        # fingerprint must be a member afterwards and the total
        # first-claim count must cover the distinct set (double-claims
        # from races may overcount, never undercount).
        table = SharedVisitedSet(initial_capacity=1 << 14)
        names = table.descriptors()
        context = mp.get_context("fork")
        queue = context.Queue()

        def writer(offset):
            attached = SharedVisitedSet.attach(names)
            claims = 0
            for i in range(1, 2001):
                if attached.add(offset + i):
                    claims += 1
            attached.close()
            queue.put(claims)

        try:
            procs = [
                context.Process(target=writer, args=(offset,))
                for offset in (0, 0, 1000, 5000)
            ]
            for proc in procs:
                proc.start()
            claims = [queue.get(timeout=30) for _ in procs]
            for proc in procs:
                proc.join(timeout=10)
            distinct = set()
            for offset in (0, 0, 1000, 5000):
                distinct.update(offset + i for i in range(1, 2001))
            for fp in distinct:
                assert fp in table
            assert sum(claims) >= len(distinct)
        finally:
            table.close()

    def test_suggest_capacity(self):
        assert suggest_capacity(None) == 1 << 20
        assert suggest_capacity(1000) >= 4000
        cap = suggest_capacity(123_456)
        assert cap & (cap - 1) == 0  # power of two
        assert cap >= 4 * 123_456
