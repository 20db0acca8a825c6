"""Tests for the functional set-associative / fully-associative caches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import FullyAssociativeCache, SetAssociativeCache
from repro.memory.common import line_address


class TestLineAddress:
    def test_basic(self):
        assert line_address(0, 32) == 0
        assert line_address(31, 32) == 0
        assert line_address(32, 32) == 1
        assert line_address(1024, 32) == 32

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            line_address(100, 24)


class TestSetAssociativeCache:
    def make(self, size=1024, assoc=2, line=32):
        return SetAssociativeCache(size, assoc, line)

    def test_geometry(self):
        cache = self.make()
        assert cache.num_sets == 16

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 2, 32)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(3 * 64, 2, 32)  # 3 sets

    def test_cold_miss_then_hit(self):
        cache = self.make()
        assert not cache.lookup(5)
        assert cache.fill(5) is None
        assert cache.lookup(5)

    def test_probe_does_not_touch_lru(self):
        cache = self.make(size=128, assoc=2, line=32)  # 2 sets
        cache.fill(0)  # set 0
        cache.fill(2)  # set 0; LRU order: 2, 0
        assert cache.probe(0)
        # 0 is still LRU because probe didn't promote it
        evicted = cache.fill(4)  # set 0, evicts LRU
        assert evicted is not None and evicted.line == 0

    def test_lru_eviction_order(self):
        cache = self.make(size=128, assoc=2, line=32)
        cache.fill(0)
        cache.fill(2)
        cache.lookup(0)  # promote 0; victim should now be 2
        evicted = cache.fill(4)
        assert evicted is not None and evicted.line == 2

    def test_dirty_tracking(self):
        cache = self.make()
        cache.fill(7)
        assert not cache.is_dirty(7)
        cache.lookup(7, write=True)
        assert cache.is_dirty(7)

    def test_dirty_eviction_reported(self):
        cache = self.make(size=128, assoc=2, line=32)
        cache.fill(0, dirty=True)
        cache.fill(2)
        cache.fill(4)
        # 0 was LRU and dirty
        assert not cache.probe(0)

    def test_fill_dirty_flag(self):
        cache = self.make(size=128, assoc=2, line=32)
        cache.fill(0, dirty=True)
        cache.fill(2)
        evicted = cache.fill(4)
        assert evicted is not None and evicted.line == 0 and evicted.dirty

    def test_refill_resident_line_keeps_single_copy(self):
        cache = self.make()
        cache.fill(3)
        assert cache.fill(3) is None
        assert len(cache) == 1

    def test_invalidate(self):
        cache = self.make()
        cache.fill(9, dirty=True)
        assert cache.invalidate(9)
        assert not cache.probe(9)
        assert not cache.is_dirty(9)
        assert not cache.invalidate(9)

    def test_set_isolation(self):
        """Lines mapping to different sets never evict each other."""
        cache = self.make(size=128, assoc=2, line=32)  # 2 sets
        cache.fill(0)  # set 0
        cache.fill(1)  # set 1
        cache.fill(2)  # set 0
        cache.fill(3)  # set 1
        assert len(cache) == 4

    def test_resident_lines_roundtrip(self):
        cache = self.make()
        lines = [0, 1, 17, 34]  # sets 0, 1, 1, 2 in a 16-set cache
        for line in lines:
            cache.fill(line)
        assert sorted(cache.resident_lines()) == sorted(lines)

    def test_capacity_never_exceeded(self):
        cache = self.make(size=256, assoc=2, line=32)
        for line in range(100):
            cache.fill(line)
        assert len(cache) <= 8


class TestSnapshotState:
    """Snapshots share sets with the live cache, so isolation matters."""

    def make(self):
        cache = SetAssociativeCache(128, 2, 32)  # 2 sets of 2 ways
        cache.fill(0)
        cache.fill(2, dirty=True)  # set 0: 2, 0
        cache.fill(1)  # set 1: 1
        return cache

    @staticmethod
    def observe(cache):
        return (
            cache.resident_lines(),
            sorted(line for line in range(16) if cache.is_dirty(line)),
            len(cache),
        )

    def test_restored_caches_are_independent(self):
        source = self.make()
        snapshot = source.snapshot_state()
        frozen = (tuple(snapshot[0]), set(snapshot[1]), snapshot[2])
        first = SetAssociativeCache(128, 2, 32)
        second = SetAssociativeCache(128, 2, 32)
        first.restore_state(snapshot)
        second.restore_state(snapshot)
        before = self.observe(second)
        assert before == self.observe(source)
        assert first.lookup(0)  # hit on the LRU way: reorders set 0
        assert first.lookup(1, write=True)  # dirty store
        evicted = first.fill(4)  # evicts line 2 from set 0
        assert evicted is not None and evicted.line == 2 and evicted.dirty
        assert first.invalidate(1)
        assert self.observe(first) != before
        assert self.observe(second) == before
        assert self.observe(source) == before
        assert (tuple(snapshot[0]), set(snapshot[1]), snapshot[2]) == frozen

    def test_live_cache_changes_leave_snapshot_alone(self):
        source = self.make()
        snapshot = source.snapshot_state()
        source.lookup(0, write=True)
        source.fill(4)
        source.invalidate(1)
        clone = SetAssociativeCache(128, 2, 32)
        clone.restore_state(snapshot)
        assert self.observe(clone) == self.observe(self.make())

    def test_mismatched_set_count_rejected(self):
        snapshot = self.make().snapshot_state()
        with pytest.raises(ValueError, match="2 sets, cache has 4"):
            SetAssociativeCache(256, 2, 32).restore_state(snapshot)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("load", "store", "fill", "invalidate")),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=160,
        ),
        st.integers(min_value=0, max_value=160),
    )
    def test_restored_clone_continues_identically(self, trace, cut):
        """Snapshot mid-trace, restore into a fresh cache, run both on."""
        original = SetAssociativeCache(256, 2, 32)  # 4 sets of 2 ways

        def step(cache, op, line):
            if op == "invalidate":
                return cache.invalidate(line)
            if op == "fill":
                return cache.fill(line, dirty=line % 3 == 0)
            if cache.lookup(line, write=op == "store"):
                return True
            return cache.fill(line, dirty=op == "store")

        for op, line in trace[:cut]:
            step(original, op, line)
        clone = SetAssociativeCache(256, 2, 32)
        clone.restore_state(original.snapshot_state())
        for op, line in trace[cut:]:
            assert step(original, op, line) == step(clone, op, line)
        assert clone.resident_lines() == original.resident_lines()
        assert [clone.is_dirty(n) for n in range(41)] == [
            original.is_dirty(n) for n in range(41)
        ]
        assert len(clone) == len(original)
        assert clone.audit() == original.audit() == []


class TestAudit:
    """Each structural finding still fires on a hand-corrupted cache."""

    def make(self):
        cache = SetAssociativeCache(128, 2, 32)  # 2 sets of 2 ways
        cache.fill(0)
        cache.fill(2)
        cache.fill(1, dirty=True)
        return cache

    def test_healthy_cache_is_clean(self):
        assert self.make().audit() == []

    def test_too_many_ways(self):
        cache = self.make()
        cache._ways[0] = (3,) + cache._ways[0]
        cache._count += 1
        assert cache.audit("l1") == [
            "l1 set 0: 3 ways exceed associativity 2"
        ]

    def test_duplicate_tag(self):
        cache = self.make()
        cache._ways[1] = cache._ways[1] * 2
        cache._count += 1
        assert cache.audit("l1") == ["l1 set 1: duplicate tag in LRU order"]

    def test_phantom_dirty_bit(self):
        cache = self.make()
        cache._dirty.update((9, 5))
        assert cache.audit("l1") == ["l1: dirty bits for absent lines [5, 9]"]

    def test_count_mismatch(self):
        cache = self.make()
        cache._count = 7
        assert cache.audit("l1") == [
            "l1: resident count 7 does not match 3 lines in LRU state"
        ]


class TestSetAssociativeProperties:
    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
    def test_inclusion_larger_cache_never_misses_more(self, trace):
        """LRU stack property: a bigger cache's misses are a subset."""
        small = SetAssociativeCache(256, 8, 32)  # fully assoc: 8 lines
        big = SetAssociativeCache(512, 16, 32)  # fully assoc: 16 lines
        small_misses = big_misses = 0
        for line in trace:
            if not small.lookup(line):
                small_misses += 1
                small.fill(line)
            if not big.lookup(line):
                big_misses += 1
                big.fill(line)
        assert big_misses <= small_misses

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=300), max_size=200))
    def test_occupancy_bounded(self, trace):
        cache = SetAssociativeCache(512, 2, 32)
        for line in trace:
            if not cache.lookup(line):
                cache.fill(line)
        assert len(cache) <= 16

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=200))
    def test_hit_iff_resident(self, trace):
        """A lookup hits exactly when a previous fill is still resident."""
        cache = SetAssociativeCache(256, 2, 32)
        reference: set[int] = set()
        for line in trace:
            hit = cache.lookup(line)
            assert hit == (line in set(cache.resident_lines()) | set())
            if not hit:
                evicted = cache.fill(line)
                if evicted is not None:
                    reference.discard(evicted.line)
            reference.add(line)


class TestFullyAssociativeCache:
    def test_lru_behavior(self):
        cache = FullyAssociativeCache(2, 32)
        cache.fill(1)
        cache.fill(2)
        cache.lookup(1)
        evicted = cache.fill(3)
        assert evicted == 2

    def test_capacity(self):
        cache = FullyAssociativeCache(4, 32)
        for line in range(10):
            cache.fill(line)
        assert len(cache) == 4

    def test_invalidate_and_clear(self):
        cache = FullyAssociativeCache(4, 32)
        cache.fill(5)
        assert cache.invalidate(5)
        assert not cache.invalidate(5)
        cache.fill(6)
        cache.clear()
        assert len(cache) == 0

    def test_refill_no_duplicate(self):
        cache = FullyAssociativeCache(4, 32)
        cache.fill(1)
        assert cache.fill(1) is None
        assert len(cache) == 1

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            FullyAssociativeCache(0, 32)
