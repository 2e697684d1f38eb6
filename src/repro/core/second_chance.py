"""The Second-Chance Sampler (paper section 4.4.2, figure 8).

Temporal patterns are often *almost* sequential: when ``x`` repeats it may
be followed by ``h`` instead of the expected ``f``, yet ``f`` is still
accessed shortly afterwards — so a prefetch to ``f`` issued at ``x`` would
still be used before it is evicted from the L2, i.e. it is an accurate
prefetch despite the imperfect sequence (figure 4's PC 0x63 example).

The Second-Chance Sampler catches exactly this case.  When a History-Sampler
hit's target does not match the address currently being trained, the target
is placed in this small buffer together with the current L2 fill count.  If
the target is then seen (for the same training entry) within 512 L2 fills,
PatternConf is increased; if it is seen later than that, or falls out of the
buffer unseen, PatternConf is decreased.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SecondChanceStats:
    inserts: int = 0
    matches_in_window: int = 0
    matches_out_of_window: int = 0
    evicted_unmatched: int = 0


@dataclass(slots=True)
class SecondChanceEntry:
    valid: bool = False
    address: int = 0
    train_idx: int = -1
    fill_count: int = 0
    insert_order: int = 0


@dataclass(slots=True)
class SecondChanceOutcome:
    """Resolution of a Second-Chance entry."""

    within_window: bool
    train_idx: int


class SecondChanceSampler:
    """A small fully-associative buffer of deferred pattern judgements."""

    def __init__(self, entries: int = 64, window_fills: int = 512) -> None:
        if entries <= 0 or window_fills <= 0:
            raise ValueError("entries and window_fills must be positive")
        self.capacity = entries
        self.window_fills = window_fills
        self._entries = [SecondChanceEntry() for _ in range(entries)]
        self._order = 0
        #: A lower bound on every valid entry's ``fill_count`` (infinite
        #: when empty): until the fill count passes it by more than the
        #: window, nothing can expire and the scan is skipped.
        self._oldest_fill: float = float("inf")
        #: The valid entries by ``(address, train_idx)`` — unique, since a
        #: repeated insert refreshes the pending entry — so a check, made
        #: on every Triangel trigger, is one dict probe, not a scan.
        self._pending: dict[tuple[int, int], SecondChanceEntry] = {}
        self.stats = SecondChanceStats()

    def insert(self, address: int, train_idx: int, fill_count: int) -> SecondChanceOutcome | None:
        """Defer judgement on ``address``; return a forced outcome if a live
        entry had to be evicted to make room (counted as a failed pattern)."""

        self.stats.inserts += 1
        self._order += 1
        forced: SecondChanceOutcome | None = None
        if fill_count < self._oldest_fill:
            self._oldest_fill = fill_count

        key = (address, train_idx)
        pending = self._pending.get(key)
        if pending is not None:
            # Already pending: refresh the window start.
            pending.fill_count = fill_count
            pending.insert_order = self._order
            return None
        slot = None
        for entry in self._entries:
            if not entry.valid:
                slot = entry
                break
        if slot is None:
            slot = min(
                (entry for entry in self._entries), key=lambda entry: entry.insert_order
            )
            self.stats.evicted_unmatched += 1
            forced = SecondChanceOutcome(within_window=False, train_idx=slot.train_idx)
            del self._pending[(slot.address, slot.train_idx)]
        self._pending[key] = slot
        slot.valid = True
        slot.address = address
        slot.train_idx = train_idx
        slot.fill_count = fill_count
        slot.insert_order = self._order
        return forced

    def check(
        self, address: int, train_idx: int, current_fill_count: int
    ) -> SecondChanceOutcome | None:
        """Check whether ``address`` resolves a pending entry for this PC.

        A match removes the entry and reports whether it arrived within the
        512-fill window (an under-approximation of L2 capacity, so a prefetch
        issued back then would still have been resident and useful).
        """

        entry = self._pending.pop((address, train_idx), None)
        if entry is None:
            return None
        entry.valid = False
        within = (current_fill_count - entry.fill_count) <= self.window_fills
        if within:
            self.stats.matches_in_window += 1
        else:
            self.stats.matches_out_of_window += 1
        return SecondChanceOutcome(within_window=within, train_idx=train_idx)

    def expire_older_than(self, current_fill_count: int) -> list[SecondChanceOutcome]:
        """Retire entries whose window has passed without being matched.

        Each expired entry is a pattern that failed its second chance, so the
        caller decrements the owning PC's PatternConf.
        """

        if current_fill_count - self._oldest_fill <= self.window_fills:
            return []
        outcomes: list[SecondChanceOutcome] = []
        oldest: float = float("inf")
        for entry in self._entries:
            if entry.valid:
                if current_fill_count - entry.fill_count > self.window_fills:
                    entry.valid = False
                    del self._pending[(entry.address, entry.train_idx)]
                    self.stats.evicted_unmatched += 1
                    outcomes.append(
                        SecondChanceOutcome(within_window=False, train_idx=entry.train_idx)
                    )
                elif entry.fill_count < oldest:
                    oldest = entry.fill_count
        self._oldest_fill = oldest
        return outcomes

    def occupancy(self) -> int:
        return sum(1 for entry in self._entries if entry.valid)
