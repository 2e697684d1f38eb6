"""Cache replacement policies.

The paper touches several replacement policies:

* the L3 data cache and the smaller caches use conventional policies (we
  default to LRU for data caches and tree-PLRU is available for the L1);
* Triage's Markov partition uses HawkEye (:mod:`repro.memory.hawkeye`),
  while Triangel uses the much simpler SRRIP (paper sections 3.3 and 4.8);
* the Metadata Reuse Buffer uses FIFO because its entries are accessed a
  bounded number of times and should then leave (section 4.6, footnote 9);
* section 3.3 and footnote 4 compare LRU, RRIP and HawkEye for the Markov
  partition under constrained capacity — the replacement-study benchmark
  reproduces that comparison.

All policies share one interface so that any structure in the model can be
configured with any of them.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence


class ReplacementPolicy(ABC):
    """Interface for per-set replacement state.

    The owning cache calls :meth:`on_fill` when a line is inserted,
    :meth:`on_hit` when a line is re-referenced, :meth:`victim` to choose a
    way to evict (restricted to ``candidates``, which lets a partitioned
    cache exclude reserved ways), and :meth:`on_invalidate` when a line is
    removed for a reason other than replacement.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("num_sets and assoc must be positive")
        self.num_sets = num_sets
        self.assoc = assoc

    @abstractmethod
    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        """Record that a new line was inserted into ``way``."""

    @abstractmethod
    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        """Record a re-reference of the line in ``way``."""

    @abstractmethod
    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        """Choose a way to evict from ``candidates`` (all currently valid)."""

    def on_invalidate(self, set_index: int, way: int) -> None:
        """Hook for policies that keep per-way state; default is a no-op."""

    def name(self) -> str:
        return type(self).__name__.replace("Policy", "")


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement via a per-set recency stack."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._stamp = 0
        self._last_use = [[-1] * assoc for _ in range(num_sets)]

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._stamp += 1
        self._last_use[set_index][way] = self._stamp

    # Fills and explicit touches stamp exactly like hits; one function
    # (no on_fill → _touch call chain on every L2/L3 fill).
    on_fill = on_hit
    _touch = on_hit

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        # Manual scan (not min(key=...)): victim selection runs once per
        # eviction on the hot path, and the closure-per-call spelling was
        # measurable.  Ties keep the first candidate, exactly as min() did.
        if not candidates:
            raise ValueError("victim() needs at least one candidate way")
        stamps = self._last_use[set_index]
        iterator = iter(candidates)
        best = next(iterator)
        best_stamp = stamps[best]
        for way in iterator:
            stamp = stamps[way]
            if stamp < best_stamp:
                best = way
                best_stamp = stamp
        return best

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._last_use[set_index][way] = -1

    def recency_rank(self, set_index: int, way: int, candidates: Sequence[int]) -> int:
        """Return the eviction rank of ``way`` (0 = most evictable).

        Used by the Set Dueller model, which needs a unique evictability
        score per tag to infer hit rates for every possible partitioning
        (paper section 4.7, footnote 10).
        """

        stamps = self._last_use[set_index]
        ordered = sorted(candidates, key=lambda candidate: stamps[candidate])
        return ordered.index(way)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out replacement (used by the Metadata Reuse Buffer)."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._stamp = 0
        self._fill_time = [[-1] * assoc for _ in range(num_sets)]

    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._stamp += 1
        self._fill_time[set_index][way] = self._stamp

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        # FIFO deliberately ignores re-references.
        return

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        times = self._fill_time[set_index]
        return min(candidates, key=lambda way: times[way])

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._fill_time[set_index][way] = -1


class RandomPolicy(ReplacementPolicy):
    """Uniform-random replacement, deterministic under a fixed seed."""

    def __init__(self, num_sets: int, assoc: int, seed: int = 0xC0FFEE) -> None:
        super().__init__(num_sets, assoc)
        self._rng = random.Random(seed)

    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        return

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        return

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        return candidates[self._rng.randrange(len(candidates))]


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU, as used by Arm L1 caches (paper reference [3]).

    The tree is stored as a flat array of internal-node bits per set; a bit
    of 0 points to the left subtree as the "older" half.  Associativity is
    rounded up to a power of two internally; candidate filtering falls back
    to recency order among the requested candidates when the tree's choice
    is not a candidate (which happens only for the partitioned cache).
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._leaves = 1
        while self._leaves < assoc:
            self._leaves *= 2
        self._bits = [[0] * max(1, self._leaves - 1) for _ in range(num_sets)]
        # Fallback recency for candidate-restricted victim selection.
        self._lru = LRUPolicy(num_sets, assoc)

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        # The tree walk and the fallback-LRU stamp are written out inline:
        # this runs on every hit of every PLRU cache (the L1's entire hot
        # path), where the former _touch → LRU.on_hit → LRU._touch call
        # chain was measurable.
        bits = self._bits[set_index]
        node = 0
        low, high = 0, self._leaves
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                bits[node] = 1  # Point away from the touched (left) half.
                node = 2 * node + 1
                high = mid
            else:
                bits[node] = 0
                node = 2 * node + 2
                low = mid
        lru = self._lru
        lru._stamp += 1
        lru._last_use[set_index][way] = lru._stamp

    # Fills and explicit touches update exactly the same state.
    on_fill = on_hit
    _touch = on_hit

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        bits = self._bits[set_index]
        node = 0
        low, high = 0, self._leaves
        while high - low > 1:
            mid = (low + high) // 2
            if bits[node] == 0:
                node = 2 * node + 1
                high = mid
            else:
                node = 2 * node + 2
                low = mid
        choice = low
        if choice in candidates:
            return choice
        return self._lru.victim(set_index, candidates)

    def on_invalidate(self, set_index: int, way: int) -> None:
        # LRUPolicy.on_invalidate, written out: runs on every L1 eviction.
        self._lru._last_use[set_index][way] = -1


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (RRIP) [Jaleel et al., ISCA'10].

    Triangel replaces HawkEye with SRRIP for its Markov partition to save the
    13 KiB HawkEye dueller (paper section 4.8).  New lines are inserted with
    a "long" re-reference prediction (RRPV = max-1); hits promote to 0;
    victims are lines with RRPV == max, aging everyone when none exists.
    """

    def __init__(self, num_sets: int, assoc: int, rrpv_bits: int = 2) -> None:
        super().__init__(num_sets, assoc)
        if rrpv_bits <= 0:
            raise ValueError("rrpv_bits must be positive")
        self.max_rrpv = (1 << rrpv_bits) - 1
        self._rrpv = [[self.max_rrpv] * assoc for _ in range(num_sets)]

    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._rrpv[set_index][way] = self.max_rrpv - 1

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._rrpv[set_index][way] = 0

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        rrpvs = self._rrpv[set_index]
        while True:
            for way in candidates:
                if rrpvs[way] >= self.max_rrpv:
                    return way
            for way in candidates:
                rrpvs[way] += 1

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self.max_rrpv


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: mostly-distant insertion with occasional long insertion.

    Included for completeness of the replacement study; it behaves like SRRIP
    but inserts with the maximum RRPV most of the time, which protects the
    cache against scanning workloads.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        rrpv_bits: int = 2,
        long_insert_probability: float = 1.0 / 32.0,
        seed: int = 0xB1BB,
    ) -> None:
        super().__init__(num_sets, assoc, rrpv_bits)
        self._probability = long_insert_probability
        self._rng = random.Random(seed)

    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        if self._rng.random() < self._probability:
            self._rrpv[set_index][way] = self.max_rrpv - 1
        else:
            self._rrpv[set_index][way] = self.max_rrpv


_POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "plru": TreePLRUPolicy,
    "srrip": SRRIPPolicy,
    "brrip": BRRIPPolicy,
}


def make_replacement_policy(name: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Create a replacement policy by name (``lru``, ``fifo``, ``random``,
    ``plru``, ``srrip``, ``brrip`` or ``hawkeye``)."""

    key = name.lower()
    if key == "hawkeye":
        # Imported lazily to avoid a circular import with hawkeye.py.
        from repro.memory.hawkeye import HawkEyePolicy

        return HawkEyePolicy(num_sets, assoc)
    try:
        factory = _POLICY_FACTORIES[key]
    except KeyError as exc:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of "
            f"{sorted(_POLICY_FACTORIES) + ['hawkeye']}"
        ) from exc
    return factory(num_sets, assoc)
