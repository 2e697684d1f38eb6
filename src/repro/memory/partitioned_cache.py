"""The partitioned last-level cache.

Both Triage and Triangel store their Markov metadata in a variable-size
partition of the L3 cache: between 0 and 8 of the 16 ways of every set are
reserved for metadata, and the remaining ways hold ordinary data (paper
sections 2 and 3.2).  The Markov table itself is modelled by
:class:`repro.triage.markov_table.MarkovTable` / :class:`repro.core.
markov_table.TriangelMarkovTable`; this class models the *cost* of the
partition — the loss of data capacity — by restricting data fills to the
non-reserved ways and invalidating resident lines when the partition grows.

The partition size is chosen by the Bloom-filter sizer (Triage-ISR, section
3.5) or by Triangel's Set Dueller (section 4.7); either way the decision
arrives through :meth:`set_reserved_ways`.
"""

from __future__ import annotations

from repro.memory.cache import EvictionInfo, SetAssociativeCache
from repro.memory.replacement import ReplacementPolicy


class PartitionedCache(SetAssociativeCache):
    """A set-associative cache with a reserved metadata partition.

    Ways ``[assoc - reserved_ways, assoc)`` of every set are reserved for
    prefetcher metadata and never hold data lines.  Growing the partition
    invalidates (writing back if dirty) any data lines occupying the newly
    reserved ways; shrinking simply makes the ways available again.
    """

    __slots__ = (
        "max_reserved_ways",
        "_reserved_ways",
        "partition_resizes",
        "lines_displaced_by_partition",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_size: int = 64,
        replacement: str | ReplacementPolicy = "lru",
        max_reserved_ways: int | None = None,
    ) -> None:
        super().__init__(name, size_bytes, assoc, line_size, replacement)
        self.max_reserved_ways = (
            assoc // 2 if max_reserved_ways is None else max_reserved_ways
        )
        if not 0 <= self.max_reserved_ways <= assoc:
            raise ValueError(
                f"max_reserved_ways {self.max_reserved_ways} outside [0, {assoc}]"
            )
        self._reserved_ways = 0
        self.partition_resizes = 0
        self.lines_displaced_by_partition = 0

    # -- partition control -------------------------------------------------
    @property
    def reserved_ways(self) -> int:
        """Number of ways per set currently reserved for Markov metadata."""

        return self._reserved_ways

    @property
    def data_ways(self) -> int:
        """Number of ways per set currently available for data."""

        return self.assoc - self._reserved_ways

    def set_reserved_ways(self, ways: int) -> list[EvictionInfo]:
        """Resize the metadata partition; return data lines displaced by growth."""

        if not 0 <= ways <= self.max_reserved_ways:
            raise ValueError(
                f"reserved ways {ways} outside [0, {self.max_reserved_ways}]"
            )
        if ways == self._reserved_ways:
            return []
        displaced: list[EvictionInfo] = []
        if ways > self._reserved_ways:
            # The newly reserved ways are the highest-indexed data ways.
            for set_index in range(self.num_sets):
                for way in range(self.assoc - ways, self.assoc - self._reserved_ways):
                    line = self._sets[set_index][way]
                    if line.valid:
                        # _evict returns the cache's scratch record; copy it,
                        # since this list outlives the next eviction.
                        info = self._evict(set_index, way)
                        displaced.append(
                            EvictionInfo(
                                address=info.address,
                                dirty=info.dirty,
                                prefetched_unused=info.prefetched_unused,
                                pc=info.pc,
                            )
                        )
            self.lines_displaced_by_partition += len(displaced)
        self._reserved_ways = ways
        # Data placement restriction: fills choose victims among these.
        self._data_ways = tuple(range(self.assoc - ways))
        self.partition_resizes += 1
        return displaced

    @property
    def reserved_capacity_bytes(self) -> int:
        """Bytes of L3 currently reserved for metadata."""

        return self._reserved_ways * self.num_sets * self.line_size

    @property
    def data_capacity_bytes(self) -> int:
        """Bytes of L3 currently available for data."""

        return self.data_ways * self.num_sets * self.line_size
