"""Unit tests for the set-associative cache model."""

import pytest

from repro.memory.cache import SetAssociativeCache
from repro.memory.replacement import LRUPolicy


def make_cache(size=1024, assoc=2, policy="lru"):
    return SetAssociativeCache("test", size, assoc, 64, policy)


class TestGeometry:
    def test_num_sets(self):
        cache = make_cache(size=1024, assoc=2)
        assert cache.num_sets == 8
        assert cache.capacity_lines == 16

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", 1000, 3, 64)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", 0, 2, 64)

    def test_locate_splits_set_and_tag(self):
        cache = make_cache()
        set_a, tag_a = cache.locate(0)
        set_b, tag_b = cache.locate(cache.num_sets * 64)
        assert set_a == set_b == 0
        assert tag_b == tag_a + 1


class TestAccessAndFill:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access(0x100).hit
        cache.fill(0x100)
        assert cache.access(0x100).hit

    def test_probe_does_not_change_state(self):
        cache = make_cache()
        cache.fill(0x0)
        cache.fill(0x200)  # same set (8 sets * 64 = 0x200 stride)
        before = cache.stats.hits
        assert cache.probe(0x0)
        assert cache.stats.hits == before

    def test_eviction_on_conflict(self):
        cache = make_cache(size=256, assoc=2)  # 2 sets
        base = 0x0
        stride = cache.num_sets * 64
        cache.fill(base)
        cache.fill(base + stride)
        victim = cache.fill(base + 2 * stride)
        assert victim is not None
        assert victim.address == base  # LRU

    def test_eviction_reports_dirty(self):
        cache = make_cache(size=256, assoc=1)
        cache.fill(0x0, is_write=True)
        victim = cache.fill(cache.num_sets * 64)
        assert victim is not None and victim.dirty
        assert cache.stats.writebacks == 1

    def test_refill_resident_line_does_not_evict(self):
        cache = make_cache()
        cache.fill(0x40)
        assert cache.fill(0x40) is None

    def test_write_marks_dirty(self):
        cache = make_cache()
        cache.fill(0x80)
        cache.access(0x80, is_write=True)
        assert cache.get_line(0x80).dirty

    def test_invalidate(self):
        cache = make_cache()
        cache.fill(0x100)
        assert cache.invalidate(0x100)
        assert not cache.probe(0x100)
        assert not cache.invalidate(0x100)

    def test_mark_dirty(self):
        cache = make_cache()
        cache.fill(0xC0)
        assert cache.mark_dirty(0xC0)
        assert not cache.mark_dirty(0x1C0)

    def test_resident_line_addresses_roundtrip(self):
        cache = make_cache()
        addresses = [0x0, 0x40, 0x80]
        for address in addresses:
            cache.fill(address)
        assert set(cache.resident_line_addresses()) == set(addresses)


class TestPrefetchTagging:
    def test_first_use_reported_once(self):
        # access() returns a per-cache scratch outcome, so each one must be
        # read before the next access on the same cache.
        cache = make_cache()
        cache.fill(0x300, prefetched=True)
        assert cache.access(0x300).first_prefetch_use
        assert not cache.access(0x300).first_prefetch_use
        assert cache.stats.prefetch_first_uses == 1

    def test_unused_prefetch_eviction_counted(self):
        cache = make_cache(size=256, assoc=1)
        cache.fill(0x0, prefetched=True)
        cache.fill(cache.num_sets * 64)  # evicts the unused prefetch
        assert cache.stats.prefetched_evicted_unused == 1

    def test_used_prefetch_eviction_not_counted(self):
        cache = make_cache(size=256, assoc=1)
        cache.fill(0x0, prefetched=True)
        cache.access(0x0)
        cache.fill(cache.num_sets * 64)
        assert cache.stats.prefetched_evicted_unused == 0

    def test_ready_cycle_propagated(self):
        cache = make_cache()
        cache.fill(0x40, prefetched=True, ready_cycle=500.0)
        outcome = cache.access(0x40)
        assert outcome.ready_cycle == 500.0

    def test_demand_fill_over_prefetch_keeps_flag(self):
        cache = make_cache()
        cache.fill(0x40, prefetched=True, ready_cycle=100.0)
        cache.fill(0x40)  # racing demand fill
        assert cache.access(0x40).first_prefetch_use


class _SpyPolicy(LRUPolicy):
    """LRU that records the order of the calls a fill makes."""

    def __init__(self, num_sets, assoc):
        super().__init__(num_sets, assoc)
        self.calls = []

    def victim(self, set_index, candidates):
        way = super().victim(set_index, candidates)
        self.calls.append(("victim", set_index, way))
        return way

    def on_invalidate(self, set_index, way):
        self.calls.append(("on_invalidate", set_index, way))
        super().on_invalidate(set_index, way)

    def on_fill(self, set_index, way, pc=None):
        self.calls.append(("on_fill", set_index, way))
        super().on_fill(set_index, way, pc)

    def on_hit(self, set_index, way, pc=None):
        self.calls.append(("on_hit", set_index, way))
        super().on_hit(set_index, way, pc)


class TestFusedFill:
    """The fill path chooses and evicts its victim inline; these pin the
    records and the policy call order it must keep."""

    def test_evicting_dirty_unused_prefetch_reports_everything(self):
        cache = make_cache(size=256, assoc=1)  # 4 sets, direct-mapped
        stride = cache.num_sets * 64
        cache.fill(0x40, pc=0x1234, is_write=True, prefetched=True, ready_cycle=7.0)
        victim = cache.fill(0x40 + stride, pc=0x99)
        assert victim is cache._scratch_eviction
        assert victim.address == 0x40
        assert victim.dirty
        assert victim.prefetched_unused
        assert victim.pc == 0x1234
        assert cache.stats.writebacks == 1
        assert cache.stats.prefetched_evicted_unused == 1
        assert cache.stats.prefetch_fills == 1
        line = cache.get_line(0x40 + stride)
        assert (line.valid, line.dirty, line.prefetched, line.used_since_prefetch) == (
            True, False, False, False,
        )
        assert (line.pc, line.ready_cycle) == (0x99, 0.0)
        assert not cache.probe(0x40)

    def test_refill_of_resident_line_evicts_nothing(self):
        cache = make_cache(size=256, assoc=2)
        stride = cache.num_sets * 64
        cache.fill(0x0)
        cache.fill(stride)  # the set is now full
        before = cache.stats.writebacks, cache.stats.prefetched_evicted_unused
        assert cache.fill(0x0, is_write=True, prefetched=True) is None
        assert cache.fill(stride) is None
        assert sorted(cache.resident_line_addresses()) == [0x0, stride]
        assert (cache.stats.writebacks, cache.stats.prefetched_evicted_unused) == before
        assert cache.get_line(0x0).dirty

    def test_policy_sees_victim_then_invalidate_then_fill(self):
        spy = _SpyPolicy(2, 2)
        cache = SetAssociativeCache("spy", 256, 2, 64, spy)  # 2 sets
        stride = cache.num_sets * 64
        cache.fill(0x0)
        cache.fill(stride)
        cache.fill(0x0)  # resident: a hit, no eviction
        spy.calls.clear()
        cache.fill(2 * stride)
        assert spy.calls == [
            ("victim", 0, 1),
            ("on_invalidate", 0, 1),
            ("on_fill", 0, 1),
        ]

    def test_fill_into_invalid_way_skips_the_policy_victim(self):
        spy = _SpyPolicy(4, 2)
        cache = SetAssociativeCache("spy", 512, 2, 64, spy)
        cache.fill(0x0)
        cache.invalidate(0x0)
        spy.calls.clear()
        assert cache.fill(cache.num_sets * 64) is None
        assert spy.calls == [("on_fill", 0, 0)]


class TestStats:
    def test_miss_rate(self):
        cache = make_cache()
        cache.access(0x0)
        cache.fill(0x0)
        cache.access(0x0)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_reset(self):
        cache = make_cache()
        cache.access(0x0)
        cache.stats.reset()
        assert cache.stats.accesses == 0
