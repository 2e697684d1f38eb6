"""The Metadata Reuse Buffer (paper section 4.6).

Degree-4 prefetching walks a chain of Markov-table entries on every trigger,
and successive triggers walk overlapping chains — so without care, raising
the degree multiplies the number of (25-cycle, energy-costly) accesses to
the L3's metadata partition.  Triage's energy doubles at degree 8 for this
reason.

The Metadata Reuse Buffer is a 256-entry, 2-way set-associative cache of the
most recently *used* Markov entries, held next to the prefetcher.  Chained
walks consult it before the L3: repeats from one overlapping walk to the
next hit here, so most degree-4 triggers cost only a single L3 Markov
lookup.  It uses FIFO replacement because entries are accessed a bounded
number of times (once per remaining degree) and should then leave.

It also enables one further optimisation: when training is about to update
a Markov entry whose content would not change (same target, same confidence)
and that entry is present here — which is exactly what happens when
prefetches are accurate, because the entry was just used to generate a
prefetch — the L3 update can be skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.hashing import mix64


@dataclass
class MrbStats:
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    update_suppressions: int = 0


@dataclass(slots=True)
class MrbEntry:
    valid: bool = False
    index_address: int = 0
    target: int = 0
    confidence: bool = False
    fill_order: int = 0


class MetadataReuseBuffer:
    """Small FIFO-replaced cache of recently used Markov entries."""

    def __init__(self, entries: int = 256, assoc: int = 2) -> None:
        if entries <= 0 or assoc <= 0 or entries % assoc != 0:
            raise ValueError("entries must be a positive multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._sets = [[MrbEntry() for _ in range(assoc)] for _ in range(self.num_sets)]
        self._order = 0
        self.stats = MrbStats()

    def _set_for(self, index_address: int) -> list[MrbEntry]:
        return self._sets[mix64(index_address) % self.num_sets]

    def lookup(self, index_address: int) -> MrbEntry | None:
        """Return the cached Markov entry for ``index_address``, if present."""

        stats = self.stats
        stats.lookups += 1
        # _set_for() inlined: up to four lookups per Triangel trigger.
        for entry in self._sets[mix64(index_address) % self.num_sets]:
            if entry.valid and entry.index_address == index_address:
                stats.hits += 1
                return entry
        return None

    def insert(self, index_address: int, target: int, confidence: bool) -> None:
        """Cache a Markov entry that was just used to generate a prefetch."""

        self._order += 1
        ways = self._sets[mix64(index_address) % self.num_sets]
        for entry in ways:
            if entry.valid and entry.index_address == index_address:
                entry.target = target
                entry.confidence = confidence
                # FIFO: do not refresh fill_order on update.
                self.stats.inserts += 1
                return
        victim = None
        for entry in ways:
            if not entry.valid:
                victim = entry
                break
        if victim is None:
            victim = min(ways, key=lambda entry: entry.fill_order)
        victim.valid = True
        victim.index_address = index_address
        victim.target = target
        victim.confidence = confidence
        victim.fill_order = self._order
        self.stats.inserts += 1

    def would_be_redundant_update(
        self, index_address: int, target: int, confidence_after: bool
    ) -> bool:
        """Whether a Markov update can be skipped (section 4.6's optimisation).

        True when the entry is cached here and neither its target nor its
        confidence bit would change.
        """

        entry = self.lookup(index_address)
        redundant = (
            entry is not None
            and entry.target == target
            and entry.confidence == confidence_after
        )
        if redundant:
            self.stats.update_suppressions += 1
        return redundant

    def invalidate(self, index_address: int) -> None:
        """Drop the cached copy (used when training changes the L3 entry)."""

        for entry in self._set_for(index_address):
            if entry.valid and entry.index_address == index_address:
                entry.valid = False

    def occupancy(self) -> int:
        return sum(1 for ways in self._sets for entry in ways if entry.valid)
