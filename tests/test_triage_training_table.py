"""Unit tests for Triage's training table."""

from repro.triage.training_table import TriageTrainingTable


class TestLookupAndAllocate:
    def test_allocate_then_find(self):
        table = TriageTrainingTable(entries=16, assoc=4)
        entry, allocated = table.find_or_allocate(0x400)
        assert allocated
        assert table.find(0x400) is entry

    def test_second_allocate_reuses(self):
        table = TriageTrainingTable(entries=16, assoc=4)
        first, _ = table.find_or_allocate(0x400)
        second, allocated = table.find_or_allocate(0x400)
        assert not allocated
        assert first is second

    def test_eviction_under_pressure(self):
        table = TriageTrainingTable(entries=4, assoc=2)
        for pc in range(0x400, 0x420, 2):
            table.find_or_allocate(pc)
        assert table.stats.evictions > 0

    def test_find_missing_returns_none(self):
        table = TriageTrainingTable(entries=16, assoc=4)
        assert table.find(0x999) is None


class TestHistoryShiftRegister:
    def test_history_depth_one(self):
        table = TriageTrainingTable(entries=16, assoc=4, history_depth=1)
        entry, _ = table.find_or_allocate(0x400)
        entry.push(0x1000, 1)
        entry.push(0x2000, 1)
        assert entry.history(1) == 0x2000
        assert entry.history(2) is None

    def test_history_depth_two_for_lookahead(self):
        table = TriageTrainingTable(entries=16, assoc=4, history_depth=2)
        entry, _ = table.find_or_allocate(0x400)
        entry.push(0x1000, 2)
        entry.push(0x2000, 2)
        entry.push(0x3000, 2)
        assert entry.history(1) == 0x3000
        assert entry.history(2) == 0x2000

    def test_empty_history(self):
        table = TriageTrainingTable(entries=16, assoc=4)
        entry, _ = table.find_or_allocate(0x400)
        assert entry.history(1) is None


class TestLocateMemo:
    def test_memo_is_capped_and_never_changes_placement(self):
        from repro.utils.hashing import fold_hash, mix64

        table = TriageTrainingTable(entries=8, assoc=4)
        for pc in range(0x400, 0x400 + 40 * 3 * 16 * 8, 40):  # 3x the cap
            assert table._locate(pc) == (mix64(pc) % table.num_sets, fold_hash(pc, 10))
        assert len(table._locate_memo) == table._locate_memo_cap == 16 * 8
