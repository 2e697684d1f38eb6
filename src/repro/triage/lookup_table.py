"""The upper-bits lookup table used by Triage's 32-bit metadata format.

To squeeze two addresses into 32 bits, Triage stores the prefetch target as
an 11-bit offset plus a 10-bit index into a (presumably) 1024-entry lookup
table holding the remaining upper address bits (paper section 3.1,
figure 2b).  Finding the index for a given upper-bits value requires a
*reverse* lookup, so the structure must support cache-like indexing; the
paper finds a 16-way set-associative organisation performs the same as fully
associative (section 6.5, figure 18).

The crucial — and problematic — property is that a Markov-table entry only
stores the *index*.  If the lookup-table slot is later re-used for a
different upper-bits value, every Markov entry still pointing at that slot
silently reconstructs a wrong address: "the lookup table (accessed only via
index) returns addresses the program may never have accessed" (section 6.5).
This class reproduces that behaviour exactly, which is what drives the
accuracy collapse in figures 18/19.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.hashing import mix64


@dataclass
class LookupTableStats:
    lookups: int = 0
    reverse_hits: int = 0
    inserts: int = 0
    replacements: int = 0
    stale_decodes: int = 0


@dataclass(slots=True)
class _LutEntry:
    valid: bool = False
    value: int = 0
    generation: int = 0
    last_use: int = 0


class LookupTable:
    """Set-associative table mapping small indices to upper address bits.

    Parameters
    ----------
    entries:
        Total number of slots (1024 in the paper; scaled configurations use
        fewer so that the same capacity pressure appears on short traces).
    assoc:
        Associativity of the reverse lookup.  ``assoc == entries`` gives the
        fully-associative variant studied in figure 18.
    """

    def __init__(self, entries: int = 1024, assoc: int = 16) -> None:
        if entries <= 0 or assoc <= 0:
            raise ValueError("entries and assoc must be positive")
        if entries % assoc != 0:
            raise ValueError(f"entries ({entries}) must be a multiple of assoc ({assoc})")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._slots = [_LutEntry() for _ in range(entries)]
        self._clock = 0
        self.stats = LookupTableStats()

    # -- indexing helpers ----------------------------------------------------
    def _set_for_value(self, value: int) -> int:
        return mix64(value) % self.num_sets

    def _ways_of_set(self, set_index: int) -> range:
        base = set_index * self.assoc
        return range(base, base + self.assoc)

    # -- operations ------------------------------------------------------------
    def find_index(self, value: int) -> int | None:
        """Reverse lookup: return the slot currently mapping to ``value``."""

        self.stats.lookups += 1
        self._clock += 1
        for slot_index in self._ways_of_set(self._set_for_value(value)):
            slot = self._slots[slot_index]
            if slot.valid and slot.value == value:
                slot.last_use = self._clock
                self.stats.reverse_hits += 1
                return slot_index
        return None

    def insert(self, value: int) -> tuple[int, int]:
        """Map ``value`` to a slot, reusing an existing mapping when present.

        Returns ``(slot_index, generation)``.  The generation increments every
        time a slot's value changes, which lets callers (and tests) detect
        stale decodes explicitly; hardware has no such tag, which is exactly
        why stale decodes turn into wrong prefetches.
        """

        # find_index() and the victim scan fused into one pass over the set
        # (the reverse lookup's stats and recency update are unchanged).
        stats = self.stats
        stats.lookups += 1
        self._clock += 1
        slots = self._slots
        base = (mix64(value) % self.num_sets) * self.assoc
        victim_index = None
        for slot_index in range(base, base + self.assoc):
            slot = slots[slot_index]
            if slot.valid:
                if slot.value == value:
                    slot.last_use = self._clock
                    stats.reverse_hits += 1
                    return slot_index, slot.generation
            elif victim_index is None:
                victim_index = slot_index
        if victim_index is None:
            victim_index = min(
                range(base, base + self.assoc), key=lambda idx: slots[idx].last_use
            )
            stats.replacements += 1
        slot = slots[victim_index]
        slot.valid = True
        slot.value = value
        slot.generation += 1
        slot.last_use = self._clock
        stats.inserts += 1
        return victim_index, slot.generation

    def value_at(self, slot_index: int, expected_generation: int | None = None) -> int | None:
        """Return the value currently stored at ``slot_index``.

        This is what the hardware does when reconstructing a prefetch target:
        it has no way to know the slot was re-used.  When
        ``expected_generation`` is provided and no longer matches, the decode
        is counted as stale (for figure 19's accuracy accounting) but the
        *current* — wrong — value is still returned, as in hardware.
        """

        if not 0 <= slot_index < self.entries:
            raise IndexError(f"slot index {slot_index} outside [0, {self.entries})")
        slot = self._slots[slot_index]
        if not slot.valid:
            return None
        if expected_generation is not None and slot.generation != expected_generation:
            self.stats.stale_decodes += 1
        return slot.value

    def occupancy(self) -> int:
        """Number of valid slots (test/diagnostic helper)."""

        return sum(1 for slot in self._slots if slot.valid)
