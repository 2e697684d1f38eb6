"""Unit tests for the partitioned L3 model."""

import pytest

from repro.memory.partitioned_cache import PartitionedCache


def make_l3(size=8192, assoc=8, max_reserved=4):
    return PartitionedCache("L3", size, assoc, 64, "lru", max_reserved_ways=max_reserved)


class TestPartitionControl:
    def test_initially_unreserved(self):
        l3 = make_l3()
        assert l3.reserved_ways == 0
        assert l3.data_ways == l3.assoc

    def test_reserving_reduces_data_capacity(self):
        l3 = make_l3()
        l3.set_reserved_ways(2)
        assert l3.data_ways == 6
        assert l3.reserved_capacity_bytes == 2 * l3.num_sets * 64
        assert l3.data_capacity_bytes == 6 * l3.num_sets * 64

    def test_rejects_out_of_range(self):
        l3 = make_l3(max_reserved=4)
        with pytest.raises(ValueError):
            l3.set_reserved_ways(5)
        with pytest.raises(ValueError):
            l3.set_reserved_ways(-1)

    def test_same_size_is_noop(self):
        l3 = make_l3()
        l3.set_reserved_ways(2)
        resizes_before = l3.partition_resizes
        assert l3.set_reserved_ways(2) == []
        assert l3.partition_resizes == resizes_before

    def test_growth_displaces_resident_lines(self):
        l3 = make_l3(size=1024, assoc=8, max_reserved=4)  # 2 sets
        stride = l3.num_sets * 64
        for way in range(8):
            l3.fill(way * stride)
        displaced = l3.set_reserved_ways(4)
        assert len(displaced) == 4
        assert l3.lines_displaced_by_partition == 4

    def test_shrink_does_not_displace(self):
        l3 = make_l3()
        l3.set_reserved_ways(4)
        assert l3.set_reserved_ways(1) == []


class TestDataPlacementRestriction:
    def test_data_fills_limited_to_data_ways(self):
        l3 = make_l3(size=1024, assoc=8, max_reserved=4)
        l3.set_reserved_ways(4)
        stride = l3.num_sets * 64
        evictions = 0
        for index in range(8):
            if l3.fill(index * stride) is not None:
                evictions += 1
        # Only 4 data ways are available, so 8 conflicting fills evict 4 times.
        assert evictions == 4

    def test_full_capacity_without_partition(self):
        l3 = make_l3(size=1024, assoc=8, max_reserved=4)
        stride = l3.num_sets * 64
        evictions = sum(1 for i in range(8) if l3.fill(i * stride) is not None)
        assert evictions == 0


class TestResizeRebuildsDataWays:
    def test_fills_never_land_in_reserved_ways_across_resizes(self):
        l3 = make_l3(size=2048, assoc=8, max_reserved=4)  # 4 sets
        lines = iter(range(0, 10_000 * 64, 64))
        for reserved in (3, 1, 4, 0, 2):
            l3.set_reserved_ways(reserved)
            data_ways = l3.assoc - reserved
            for _ in range(6 * l3.capacity_lines):
                l3.fill(next(lines))
            for set_index, ways in enumerate(l3._sets):
                for way, line in enumerate(ways):
                    if way >= data_ways:
                        assert not line.valid, (reserved, set_index, way)
            assert len(l3.resident_line_addresses()) == l3.num_sets * data_ways

    def test_grow_shrink_grow_keeps_reserved_ways_empty(self):
        l3 = make_l3(size=1024, assoc=8, max_reserved=4)  # 2 sets
        stride = l3.num_sets * 64
        l3.set_reserved_ways(4)
        l3.set_reserved_ways(1)
        for index in range(7):
            l3.fill(index * stride)
        assert l3._sets[0][6].valid  # the shrink re-opened way 6
        l3.set_reserved_ways(2)
        for index in range(7, 40):
            l3.fill(index * stride)
            assert not l3._sets[0][6].valid and not l3._sets[0][7].valid
