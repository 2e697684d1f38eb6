"""HawkEye replacement (Jain & Lin, ISCA 2016), as used by Triage.

Triage uses HawkEye to prioritise frequently reused Markov-table entries
when the partition is space-constrained (paper section 3.3).  HawkEye
consists of:

* **OPTgen** — for a small number of sampled sets, an occupancy vector over a
  sliding window of recent accesses determines whether Belady's optimal
  policy (MIN) *would have* cached each reused line;
* a **PC-based predictor** of 3-bit saturating counters, trained positively
  when OPTgen says MIN would have hit and negatively otherwise;
* an insertion/promotion scheme layered on RRIP state: lines from
  positively-classified PCs ("cache friendly") are inserted with RRPV 0 and
  age normally, lines from negatively-classified PCs are inserted with the
  maximum RRPV so they are evicted first.

The paper observes that with a 1 MiB Markov budget HawkEye gains only ~0.25%
over LRU, and only matters when capacity is artificially constrained to
256 KiB (section 3.3, footnote 4); Triangel therefore drops it for SRRIP.
The replacement-study benchmark reproduces that comparison.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.memory.replacement import ReplacementPolicy
from repro.utils.hashing import mix64


class OptGen:
    """Occupancy-vector model of Belady's MIN for one sampled set.

    For each access we remember its position in a circular history.  When an
    address is re-accessed we check whether, in every quantum between the
    previous access and now, the modelled cache still had spare capacity; if
    so MIN would have kept the line (a "MIN hit") and we bump occupancy over
    that interval.
    """

    def __init__(self, capacity: int, history_length: int = 128) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.history_length = history_length
        self._occupancy = [0] * history_length
        self._last_access: dict[int, int] = {}
        self._time = 0

    def access(self, address: int) -> bool:
        """Record an access; return ``True`` if MIN would have hit."""

        now = self._time
        self._time += 1
        previous = self._last_access.get(address)
        self._last_access[address] = now
        if previous is None or now - previous >= self.history_length:
            self._slide(now)
            return False
        hit = all(
            self._occupancy[slot % self.history_length] < self.capacity
            for slot in range(previous, now)
        )
        if hit:
            for slot in range(previous, now):
                self._occupancy[slot % self.history_length] += 1
        self._slide(now)
        return hit

    def _slide(self, now: int) -> None:
        # The slot we are about to reuse (one full window ahead) is cleared so
        # the circular buffer behaves like a sliding window.
        self._occupancy[now % self.history_length] = 0


class HawkEyePredictor:
    """PC-indexed predictor of cache friendliness (3-bit counters)."""

    def __init__(self, counter_bits: int = 3, table_size: int = 2048) -> None:
        self.maximum = (1 << counter_bits) - 1
        self.table_size = table_size
        self._counters: defaultdict[int, int] = defaultdict(lambda: self.maximum // 2 + 1)
        # pc → counter index is pure; memoised with a cap like the training
        # tables' PC memos (every fill, hit and eviction consults it).
        self._index_memo: dict[int, int] = {}
        self._index_memo_cap = 16 * table_size

    def _index(self, pc: int) -> int:
        index = self._index_memo.get(pc)
        if index is None:
            index = mix64(pc) % self.table_size
            if len(self._index_memo) < self._index_memo_cap:
                self._index_memo[pc] = index
        return index

    def train(self, pc: int, opt_hit: bool) -> None:
        index = self._index(pc)
        value = self._counters[index]
        if opt_hit:
            self._counters[index] = min(self.maximum, value + 1)
        else:
            self._counters[index] = max(0, value - 1)

    def is_friendly(self, pc: int) -> bool:
        return self._counters[self._index(pc)] > self.maximum // 2


class HawkEyePolicy(ReplacementPolicy):
    """HawkEye layered on per-way RRPV state.

    ``sample_period`` controls which sets feed OPTgen; the paper's HawkEye
    uses 64 sampled sets out of the full cache, which we approximate by
    sampling every ``num_sets // 64`` th set (at least every set for small
    caches, which only improves fidelity).
    """

    MAX_RRPV = 7

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        sampled_sets: int = 64,
        optgen_history: int = 128,
    ) -> None:
        super().__init__(num_sets, assoc)
        self._rrpv = [[self.MAX_RRPV] * assoc for _ in range(num_sets)]
        self._line_pc = [[None] * assoc for _ in range(num_sets)]
        self._predictor = HawkEyePredictor()
        period = max(1, num_sets // max(1, sampled_sets))
        self._sampled = {s for s in range(num_sets) if s % period == 0}
        self._optgen = {s: OptGen(assoc, optgen_history) for s in self._sampled}

    # -- sampling ---------------------------------------------------------
    def observe(self, set_index: int, address: int, pc: int | None) -> None:
        """Feed a sampled access into OPTgen and train the predictor.

        The owning cache calls this for every access (hit or miss) before
        updating replacement state, which matches HawkEye's structure where
        the sampler sees the full access stream of the sampled sets.
        """

        if pc is None or set_index not in self._sampled:
            return
        opt_hit = self._optgen[set_index].access(address)
        self._predictor.train(pc, opt_hit)

    # -- replacement interface -------------------------------------------
    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._line_pc[set_index][way] = pc
        if pc is not None and self._predictor.is_friendly(pc):
            self._rrpv[set_index][way] = 0
        else:
            self._rrpv[set_index][way] = self.MAX_RRPV

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        line_pc = self._line_pc[set_index][way]
        relevant_pc = pc if pc is not None else line_pc
        if relevant_pc is not None and self._predictor.is_friendly(relevant_pc):
            self._rrpv[set_index][way] = 0
        # Cache-averse lines are never promoted above friendly lines: leave
        # their RRPV at the maximum.

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        rrpvs = self._rrpv[set_index]
        best = max(candidates, key=lambda way: rrpvs[way])
        if rrpvs[best] < self.MAX_RRPV:
            # Age friendly lines (bounded, unlike true HawkEye's detrain step,
            # which additionally punishes the evicted PC — done below).
            for way in candidates:
                if rrpvs[way] < self.MAX_RRPV - 1:
                    rrpvs[way] += 1
        evicted_pc = self._line_pc[set_index][best]
        if evicted_pc is not None and rrpvs[best] < self.MAX_RRPV:
            # Evicting a line HawkEye wanted to keep: negative feedback.
            self._predictor.train(evicted_pc, opt_hit=False)
        return best

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self.MAX_RRPV
        self._line_pc[set_index][way] = None

    def is_friendly(self, pc: int) -> bool:
        """Expose the predictor's classification (used in tests)."""

        return self._predictor.is_friendly(pc)
