"""Unit tests for Triangel's extended training table."""

from repro.core.config import TriangelConfig
from repro.core.training_table import TriangelTrainingTable


def make_table(entries=32, assoc=4):
    config = TriangelConfig(training_entries=entries, training_assoc=assoc)
    return TriangelTrainingTable(config)


class TestAllocation:
    def test_new_entry_starts_at_midpoints(self):
        table = make_table()
        entry, _, allocated = table.find_or_allocate(0x400)
        assert allocated
        assert entry.reuse_conf.value == 8
        assert entry.base_pattern_conf.value == 8
        assert entry.high_pattern_conf.value == 8
        assert entry.sample_rate.value == 8
        assert entry.lookahead == 1

    def test_reallocation_returns_same_entry(self):
        table = make_table()
        first, idx_a, _ = table.find_or_allocate(0x400)
        second, idx_b, allocated = table.find_or_allocate(0x400)
        assert first is second
        assert idx_a == idx_b
        assert not allocated

    def test_eviction_resets_counters(self):
        table = make_table(entries=4, assoc=1)
        entry, _, _ = table.find_or_allocate(0x400)
        entry.reuse_conf.set(15)
        # Evict by allocating many conflicting PCs.
        for pc in range(0x1000, 0x1100, 8):
            table.find_or_allocate(pc)
        fresh, _, allocated = table.find_or_allocate(0x400)
        if allocated:
            assert fresh.reuse_conf.value == 8

    def test_entry_at_roundtrip(self):
        table = make_table()
        entry, idx, _ = table.find_or_allocate(0x777)
        assert table.entry_at(idx) is entry
        assert table.entry_at(-1) is None
        assert table.entry_at(10_000) is None

    def test_entry_index_for_unknown_pc(self):
        table = make_table()
        assert table.entry_index(0xDEAD) == -1


class TestHistoryAndLookahead:
    def test_push_address_shifts(self):
        table = make_table()
        entry, _, _ = table.find_or_allocate(0x400)
        entry.push_address(0x1000)
        entry.push_address(0x2000)
        assert entry.last_addr_0 == 0x2000
        assert entry.last_addr_1 == 0x1000

    def test_markov_index_respects_lookahead(self):
        table = make_table()
        entry, _, _ = table.find_or_allocate(0x400)
        entry.push_address(0x1000)
        entry.push_address(0x2000)
        entry.lookahead = 1
        assert entry.markov_index_address() == 0x2000
        entry.lookahead = 2
        assert entry.markov_index_address() == 0x1000

    def test_counter_factors_match_paper(self):
        config = TriangelConfig()
        table = TriangelTrainingTable(config)
        entry, _, _ = table.find_or_allocate(0x400)
        assert entry.base_pattern_conf.decrement == 2
        assert entry.high_pattern_conf.decrement == 5


class TestLocateMemo:
    def test_memo_is_capped_and_never_changes_placement(self):
        from repro.utils.hashing import fold_hash, mix64

        table = make_table(entries=8, assoc=4)
        bits = table.config.pc_tag_bits
        for pc in range(0x400, 0x400 + 40 * 3 * 16 * 8, 40):  # 3x the cap
            assert table._locate(pc) == (mix64(pc) % table.num_sets, fold_hash(pc, bits))
        assert len(table._locate_memo) == table._locate_memo_cap == 16 * 8
