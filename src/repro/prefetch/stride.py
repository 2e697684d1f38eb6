"""PC-localised stride prefetcher (the baseline's only prefetcher).

The paper's baseline core has a degree-8 stride prefetcher at the L1 data
cache (table 2), in the tradition of Chen & Baer [10]: a table indexed by PC
records the last address and the last observed stride together with a small
confidence counter; once the same stride is observed repeatedly, the
prefetcher issues ``degree`` prefetches ahead of the current access.

Every experimental configuration in the paper — including the baseline that
all speedups are normalised to — keeps this prefetcher, so its behaviour
contributes to the baseline miss rate that defines coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.address import CACHE_LINE_SIZE
from repro.memory.hierarchy import DemandResult
from repro.prefetch.base import DecisionBuffer, Prefetcher
from repro.utils.hashing import mix64

# line_address() as a mask, applied once per candidate prefetch.
_LINE_MASK = ~(CACHE_LINE_SIZE - 1)


@dataclass(slots=True)
class StrideEntry:
    """Per-PC stride-detection state."""

    pc_tag: int = -1
    last_address: int = 0
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(Prefetcher):
    """Classic PC-indexed stride prefetcher.

    Parameters
    ----------
    degree:
        Number of lines prefetched ahead once the stride is confident; the
        paper's baseline uses 8.
    table_size:
        Number of PC-indexed entries.
    confidence_threshold:
        Number of consecutive confirmations of a stride before prefetching.
    target_level:
        Cache level the prefetches fill into (``"l1"`` matches the paper).
    min_stride_bytes:
        Strides smaller than this (within the same line) do not prefetch.
    """

    def __init__(
        self,
        degree: int = 8,
        table_size: int = 256,
        confidence_threshold: int = 2,
        target_level: str = "l1",
        min_stride_bytes: int = CACHE_LINE_SIZE,
    ) -> None:
        super().__init__("stride")
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.table_size = table_size
        self.confidence_threshold = confidence_threshold
        self.target_level = target_level
        self.min_stride_bytes = min_stride_bytes
        self._table = [StrideEntry() for _ in range(table_size)]
        # pc → table entry, memoised: the mapping is pure (entries mutate in
        # place, never move), workloads use few distinct PCs, and the
        # hash-and-index runs once per simulated access otherwise.  Bounded:
        # past the cap (an imported trace with a huge PC universe), new PCs
        # just pay the hash instead of growing the dict without limit.
        self._entry_memo: dict[int, StrideEntry] = {}
        self._entry_memo_cap = 16 * table_size

    def observe_into(
        self,
        pc: int,
        line_addr: int,
        result: DemandResult,
        now: float,
        sink: DecisionBuffer,
    ) -> None:
        stats = self.stats
        stats.triggers += 1
        memo = self._entry_memo
        entry = memo.get(pc)
        if entry is None:
            entry = self._table[mix64(pc) % self.table_size]
            if len(memo) < self._entry_memo_cap:
                memo[pc] = entry
        if entry.pc_tag != pc:
            entry.pc_tag = pc
            entry.last_address = line_addr
            entry.stride = 0
            entry.confidence = 0
            return

        stride = line_addr - entry.last_address
        if stride != 0 and stride == entry.stride:
            confidence = entry.confidence + 1
            cap = self.confidence_threshold + 1
            entry.confidence = confidence if confidence < cap else cap
        else:
            entry.stride = stride
            entry.confidence = 1 if stride != 0 else 0
        entry.last_address = line_addr
        stats.training_events += 1

        stride_ok = abs(entry.stride) >= self.min_stride_bytes
        should_prefetch = (
            entry.confidence >= self.confidence_threshold
            and stride_ok
            # Prefetch on misses and on first use of prefetched lines so the
            # stream keeps running ahead without re-issuing on every L1 hit.
            and (
                result.level != "l1"
                or result.l1_prefetch_first_use
                or result.l2_prefetch_first_use
            )
        )
        if not should_prefetch:
            return

        l1d = self.hierarchy.l1d if self.hierarchy is not None else None
        target_level = self.target_level
        entry_stride = entry.stride
        for distance in range(1, self.degree + 1):
            target = (line_addr + entry_stride * distance) & _LINE_MASK
            if target < 0:
                break
            if l1d is not None and l1d.probe(target):
                stats.prefetches_dropped_resident += 1
                continue
            sink.emit(target, target_level, 0.0, "stride")
            stats.prefetches_issued += 1
