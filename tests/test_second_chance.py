"""Unit tests for the Second-Chance Sampler."""

from repro.core.second_chance import SecondChanceSampler


class TestDeferredJudgement:
    def test_match_within_window_is_positive(self):
        scs = SecondChanceSampler(entries=8, window_fills=100)
        scs.insert(0x1000, train_idx=1, fill_count=50)
        outcome = scs.check(0x1000, train_idx=1, current_fill_count=120)
        assert outcome is not None and outcome.within_window

    def test_match_outside_window_is_negative(self):
        scs = SecondChanceSampler(entries=8, window_fills=100)
        scs.insert(0x1000, train_idx=1, fill_count=50)
        outcome = scs.check(0x1000, train_idx=1, current_fill_count=500)
        assert outcome is not None and not outcome.within_window

    def test_match_requires_same_training_entry(self):
        scs = SecondChanceSampler(entries=8, window_fills=100)
        scs.insert(0x1000, train_idx=1, fill_count=50)
        assert scs.check(0x1000, train_idx=2, current_fill_count=60) is None

    def test_match_consumes_entry(self):
        scs = SecondChanceSampler(entries=8, window_fills=100)
        scs.insert(0x1000, 1, 0)
        assert scs.check(0x1000, 1, 10) is not None
        assert scs.check(0x1000, 1, 20) is None

    def test_no_match_for_unknown_address(self):
        scs = SecondChanceSampler()
        assert scs.check(0x9999, 0, 0) is None


class TestCapacityAndExpiry:
    def test_eviction_forces_negative_outcome(self):
        scs = SecondChanceSampler(entries=2, window_fills=1000)
        assert scs.insert(0x0, 0, 0) is None
        assert scs.insert(0x40, 1, 0) is None
        forced = scs.insert(0x80, 2, 0)
        assert forced is not None and not forced.within_window
        assert scs.occupancy() == 2

    def test_reinsert_refreshes_window(self):
        scs = SecondChanceSampler(entries=4, window_fills=100)
        scs.insert(0x1000, 1, 0)
        scs.insert(0x1000, 1, 400)  # refresh, not duplicate
        assert scs.occupancy() == 1
        outcome = scs.check(0x1000, 1, 450)
        assert outcome.within_window

    def test_expiry_returns_negative_outcomes(self):
        scs = SecondChanceSampler(entries=4, window_fills=100)
        scs.insert(0x1000, 1, 0)
        scs.insert(0x2000, 2, 0)
        expired = scs.expire_older_than(500)
        assert len(expired) == 2
        assert all(not outcome.within_window for outcome in expired)
        assert scs.occupancy() == 0

    def test_expiry_keeps_fresh_entries(self):
        scs = SecondChanceSampler(entries=4, window_fills=100)
        scs.insert(0x1000, 1, 450)
        assert scs.expire_older_than(500) == []
        assert scs.occupancy() == 1

    def test_stats(self):
        scs = SecondChanceSampler(entries=4, window_fills=100)
        scs.insert(0x1000, 1, 0)
        scs.check(0x1000, 1, 50)
        scs.insert(0x2000, 1, 0)
        scs.check(0x2000, 1, 400)
        assert scs.stats.matches_in_window == 1
        assert scs.stats.matches_out_of_window == 1


class _ScanModel:
    """The sampler's behaviour spelled as plain scans over every slot."""

    def __init__(self, entries, window_fills):
        self.window = window_fills
        self.slots = [None] * entries  # [address, train_idx, fill, order]
        self.order = 0

    def insert(self, address, train_idx, fill):
        self.order += 1
        for slot in self.slots:
            if slot is not None and slot[:2] == [address, train_idx]:
                slot[2:] = [fill, self.order]
                return None
        forced = None
        if None in self.slots:
            index = self.slots.index(None)
        else:
            index = min(range(len(self.slots)), key=lambda i: self.slots[i][3])
            forced = (False, self.slots[index][1])
        self.slots[index] = [address, train_idx, fill, self.order]
        return forced

    def check(self, address, train_idx, fill):
        for index, slot in enumerate(self.slots):
            if slot is not None and slot[:2] == [address, train_idx]:
                self.slots[index] = None
                return (fill - slot[2] <= self.window, train_idx)
        return None

    def expire(self, fill):
        expired = []
        for index, slot in enumerate(self.slots):
            if slot is not None and fill - slot[2] > self.window:
                self.slots[index] = None
                expired.append((False, slot[1]))
        return expired


class TestAgainstScanModel:
    def test_random_operations_match_a_full_scan(self):
        import random

        rng = random.Random(7)
        scs = SecondChanceSampler(entries=8, window_fills=40)
        model = _ScanModel(entries=8, window_fills=40)

        def pair(outcome):
            return None if outcome is None else (outcome.within_window, outcome.train_idx)

        fill = 0
        for step in range(4000):
            # Mostly advancing fill counts, with an occasional reset (the
            # hierarchy zeroes its L2 fill count when sampling begins).
            fill = 0 if step % 997 == 0 else fill + rng.randrange(4)
            address, train_idx = rng.randrange(12) * 64, rng.randrange(3)
            op = rng.randrange(3)
            if op == 0:
                assert pair(scs.insert(address, train_idx, fill)) == model.insert(
                    address, train_idx, fill
                )
            elif op == 1:
                assert pair(scs.check(address, train_idx, fill)) == model.check(
                    address, train_idx, fill
                )
            else:
                assert [pair(o) for o in scs.expire_older_than(fill)] == model.expire(fill)
            assert scs.occupancy() == sum(slot is not None for slot in model.slots)
