"""Unit tests for the partition-resident Markov table."""

import pytest

from repro.triage.markov_table import MarkovTable
from repro.triage.metadata import Full42Format


def make_table(l3_sets=8, max_ways=4, replacement="lru", ways=None):
    table = MarkovTable(l3_sets, max_ways, Full42Format(), replacement=replacement)
    if ways is not None:
        table.set_ways(ways)
    return table


def line(index: int) -> int:
    return index * 64


class TestGeometry:
    def test_capacity_scales_with_ways(self):
        table = make_table(l3_sets=8, max_ways=4)
        assert table.capacity == 0
        table.set_ways(2)
        assert table.capacity == 8 * 2 * 12
        assert table.max_capacity == 8 * 4 * 12

    def test_entries_per_way(self):
        table = make_table(l3_sets=8)
        assert table.entries_per_way() == 8 * 12

    def test_rejects_bad_ways(self):
        table = make_table(max_ways=4)
        with pytest.raises(ValueError):
            table.set_ways(5)


class TestTrainAndLookup:
    def test_lookup_returns_trained_target(self):
        table = make_table(ways=2)
        table.train(line(1), line(2))
        assert table.lookup(line(1)) == line(2)

    def test_lookup_miss_returns_none(self):
        table = make_table(ways=2)
        assert table.lookup(line(99)) is None

    def test_zero_ways_stores_nothing(self):
        table = make_table(ways=0)
        outcome = table.train(line(1), line(2))
        assert outcome.action == "dropped"
        assert table.lookup(line(1)) is None

    def test_many_pairs_round_trip(self):
        table = make_table(l3_sets=16, max_ways=4, ways=4)
        pairs = [(line(i), line(i + 1)) for i in range(100)]
        for source, target in pairs:
            table.train(source, target)
        correct = sum(1 for source, target in pairs if table.lookup(source) == target)
        # Hash-tag aliasing may lose a handful, but the vast majority survive.
        assert correct > 90

    def test_occupancy_tracks_inserts(self):
        table = make_table(ways=2)
        for i in range(10):
            table.train(line(i * 3), line(i * 3 + 1))
        assert table.occupancy() == 10

    def test_eviction_when_line_full(self):
        table = make_table(l3_sets=1, max_ways=1, ways=1)
        # One set, one way, 12 entries per line: the 13th distinct index evicts.
        for i in range(13):
            table.train(line(i), line(100 + i))
        assert table.stats.evictions >= 1
        assert table.occupancy() == 12


class TestConfidenceBit:
    def test_confirmation_sets_confidence(self):
        table = make_table(ways=2)
        table.train(line(1), line(2))
        outcome = table.train(line(1), line(2))
        assert outcome.action == "confirmed"
        assert table.peek(line(1)).confidence

    def test_confident_target_not_replaced_immediately(self):
        table = make_table(ways=2)
        table.train(line(1), line(2))
        table.train(line(1), line(2))  # sets confidence
        outcome = table.train(line(1), line(3))
        assert outcome.action == "blocked"
        assert table.lookup(line(1)) == line(2)

    def test_persistent_change_eventually_replaces(self):
        table = make_table(ways=2)
        table.train(line(1), line(2))
        table.train(line(1), line(2))
        table.train(line(1), line(3))  # clears confidence
        table.train(line(1), line(3))  # replaces
        assert table.lookup(line(1)) == line(3)

    def test_unconfident_target_replaced_directly(self):
        table = make_table(ways=2)
        table.train(line(1), line(2))
        outcome = table.train(line(1), line(3))
        assert outcome.action == "replaced"
        assert table.lookup(line(1)) == line(3)


class TestResizeRearrangement:
    def test_entries_survive_a_grow(self):
        table = make_table(l3_sets=8, max_ways=4, ways=1)
        pairs = [(line(i), line(50 + i)) for i in range(8)]
        for source, target in pairs:
            table.train(source, target)
        table.set_ways(4)
        survived = sum(1 for source, target in pairs if table.lookup(source) == target)
        assert survived == len(pairs)
        assert table.stats.rearrangements > 0

    def test_shrink_to_zero_drops_everything(self):
        table = make_table(ways=2)
        table.train(line(1), line(2))
        table.set_ways(0)
        assert table.lookup(line(1)) is None

    def test_rearrangement_is_lazy_per_set(self):
        table = make_table(l3_sets=8, max_ways=4, ways=2)
        table.train(line(0), line(1))
        table.set_ways(4)
        assert table.stats.rearrangements == 0
        table.lookup(line(0))
        assert table.stats.rearrangements == 1

    def test_overflow_on_shrink_drops_entries(self):
        table = make_table(l3_sets=1, max_ways=2, ways=2)
        for i in range(24):
            table.train(line(i), line(100 + i))
        table.set_ways(1)
        table.lookup(line(0))  # trigger rearrangement of the only set
        assert table.occupancy() <= 12
        assert table.stats.entries_dropped_on_rearrange > 0


class TestReplacementPolicies:
    @pytest.mark.parametrize("policy", ["lru", "srrip", "hawkeye"])
    def test_policies_operate(self, policy):
        table = make_table(l3_sets=4, max_ways=2, replacement=policy, ways=2)
        for i in range(60):
            table.train(line(i), line(200 + i), pc=0x400)
        assert table.occupancy() <= table.capacity
        assert table.stats.inserts > 0


class TestOccupancyCount:
    """occupancy() is a running count; it must equal a brute-force count."""

    @staticmethod
    def brute_force(table):
        return sum(
            1 for per_set in table._lines for line in per_set for entry in line if entry.valid
        )

    @pytest.mark.parametrize("policy", ["lru", "srrip", "hawkeye"])
    def test_running_count_matches_brute_force(self, policy):
        table = make_table(l3_sets=2, max_ways=4, replacement=policy, ways=4)
        step = 0

        def train_some(count):
            nonlocal step
            for _ in range(count):
                # A small index space forces same-index updates, line-full
                # evictions and inserts.
                table.train(line(step % 150), line(1000 + step % 7), pc=step % 5)
                table.lookup(line((step * 7) % 150))
                step += 1
                assert table.occupancy() == self.brute_force(table)

        train_some(300)
        assert table.stats.evictions > 0
        for ways in (2, 1, 3, 0, 4, 1):
            table.set_ways(ways)
            assert table.occupancy() == self.brute_force(table)
            train_some(120)
        assert table.stats.entries_dropped_on_rearrange > 0

    def test_rearranging_to_zero_ways_drops_every_entry(self):
        table = make_table(l3_sets=2, max_ways=2, ways=2)
        for i in range(20):
            table.train(line(i), line(100 + i))
        assert table.occupancy() == self.brute_force(table) > 0
        table.set_ways(0)
        # Rearrangement is lazy and lookups/trains stop at zero ways, so
        # rearrange each set directly.
        for set_index in range(table.l3_sets):
            table._maybe_rearrange(set_index)
        assert table.occupancy() == self.brute_force(table) == 0
