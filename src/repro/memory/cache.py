"""A generic set-associative cache with prefetch tagging.

Every cache level in the model is an instance of
:class:`SetAssociativeCache` (the L3 uses the :class:`~repro.memory.
partitioned_cache.PartitionedCache` subclass).  Lines carry a *prefetched*
tag and a *used-since-prefetch* flag so the simulator can detect tagged
prefetch hits — the event that, together with demand misses, trains the
temporal prefetchers (paper section 2) — and measure accuracy exactly as the
paper defines it: prefetched lines used before eviction from the L2
(figure 12 caption).

Lines also carry a ``ready_cycle``.  Prefetches are inserted as soon as they
are issued but only become usable once their fill would have completed; a
demand access that arrives earlier pays the remaining latency.  This is how
the model captures *timeliness*, which is the property Triangel's lookahead
and degree mechanisms exist to improve.

This module sits on the simulation hot path — every demand access probes or
touches two to four cache levels, and prefetch fills add several more — so
it is written for per-access cost:

* tag lookup is a per-set ``{tag: way}`` dictionary kept in lockstep with
  the line array (``_find_way`` is one hash probe, not a way scan);
* set/tag decomposition uses precomputed shifts when the geometry is a
  power of two (it always is in practice), falling back to division
  otherwise;
* :meth:`access` and :meth:`fill` return *reusable scratch* outcome
  objects — each call overwrites the instance returned by the previous
  call on the same cache, so callers must consume an outcome before
  touching the cache again (every caller in the repository does).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.address import CACHE_LINE_SIZE, line_address
from repro.memory.replacement import ReplacementPolicy, make_replacement_policy


@dataclass(slots=True)
class CacheLine:
    """One cache line's bookkeeping state."""

    valid: bool = False
    tag: int = 0
    dirty: bool = False
    prefetched: bool = False
    used_since_prefetch: bool = False
    pc: int | None = None
    ready_cycle: float = 0.0
    fill_time: float = 0.0

    def reset(self) -> None:
        self.valid = False
        self.tag = 0
        self.dirty = False
        self.prefetched = False
        self.used_since_prefetch = False
        self.pc = None
        self.ready_cycle = 0.0
        self.fill_time = 0.0


@dataclass(slots=True)
class CacheStats:
    """Hit/miss and prefetch-related counters for one cache level."""

    hits: int = 0
    misses: int = 0
    demand_accesses: int = 0
    prefetch_fills: int = 0
    prefetch_first_uses: int = 0
    prefetched_evicted_unused: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.demand_accesses = 0
        self.prefetch_fills = 0
        self.prefetch_first_uses = 0
        self.prefetched_evicted_unused = 0
        self.writebacks = 0
        self.invalidations = 0


@dataclass(slots=True)
class AccessOutcome:
    """Result of a demand lookup in one cache level.

    :meth:`SetAssociativeCache.access` returns a per-cache scratch instance,
    overwritten by the next ``access`` on the same cache — read it before
    accessing again, and copy the fields out if they must survive.
    """

    hit: bool
    first_prefetch_use: bool = False
    ready_cycle: float = 0.0
    line_pc: int | None = None


@dataclass(slots=True)
class EvictionInfo:
    """Description of a line displaced by a fill.

    Like :class:`AccessOutcome`, instances returned by
    :meth:`SetAssociativeCache.fill` are per-cache scratch, valid until the
    next eviction on the same cache.
    """

    address: int
    dirty: bool
    prefetched_unused: bool
    pc: int | None = None


class SetAssociativeCache:
    """A set-associative, write-back, allocate-on-miss cache model.

    Parameters
    ----------
    name:
        Human-readable level name used in reports (``"L1D"``, ``"L2"``, ...).
    size_bytes:
        Total data capacity.
    assoc:
        Number of ways.
    line_size:
        Cache-line size in bytes; 64 throughout the paper.
    replacement:
        Either a policy name understood by
        :func:`repro.memory.replacement.make_replacement_policy` or an
        already-constructed :class:`ReplacementPolicy`.
    """

    __slots__ = (
        "name",
        "size_bytes",
        "assoc",
        "line_size",
        "num_sets",
        "policy",
        "stats",
        "_sets",
        "_tag_maps",
        "_data_ways",
        "_line_bits",
        "_set_mask",
        "_set_bits",
        "_policy_observe",
        "_scratch_outcome",
        "_scratch_eviction",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_size: int = CACHE_LINE_SIZE,
        replacement: str | ReplacementPolicy = "lru",
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_size <= 0:
            raise ValueError("size_bytes, assoc and line_size must be positive")
        if size_bytes % (assoc * line_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} is not a multiple of assoc*line_size "
                f"({assoc}*{line_size})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size_bytes // (assoc * line_size)
        if isinstance(replacement, ReplacementPolicy):
            self.policy = replacement
        else:
            self.policy = make_replacement_policy(replacement, self.num_sets, assoc)
        self._sets: list[list[CacheLine]] = [
            [CacheLine() for _ in range(assoc)] for _ in range(self.num_sets)
        ]
        #: Per-set ``{tag: way}`` index mirroring ``_sets``; every fill,
        #: eviction and invalidation updates it, making lookups O(1).
        self._tag_maps: list[dict[int, int]] = [{} for _ in range(self.num_sets)]
        #: Ways eligible to hold data, in victim-scan order.  A shared
        #: tuple; the partitioned L3 rebuilds it whenever it resizes.
        self._data_ways = tuple(range(assoc))
        # Shift/mask decomposition (power-of-two geometries, i.e. all of
        # them): line number = address >> _line_bits, set = line & _set_mask,
        # tag = line >> num_sets.bit_length()-1.  ``_set_mask`` is None when
        # either quantity is not a power of two and locate() divides instead.
        if line_size & (line_size - 1) == 0 and self.num_sets & (self.num_sets - 1) == 0:
            self._line_bits = line_size.bit_length() - 1
            self._set_mask = self.num_sets - 1
            self._set_bits = self.num_sets.bit_length() - 1
        else:
            self._line_bits = 0
            self._set_mask = None
            self._set_bits = 0
        # The policy's optional miss-stream hook, resolved once: a
        # per-access getattr() was measurable on the hot path.
        self._policy_observe = getattr(self.policy, "observe", None)
        self.stats = CacheStats()
        self._scratch_outcome = AccessOutcome(hit=False)
        self._scratch_eviction = EvictionInfo(
            address=0, dirty=False, prefetched_unused=False
        )

    # -- address decomposition -------------------------------------------
    def locate(self, address: int) -> tuple[int, int]:
        """Return ``(set_index, tag)`` for a byte address."""

        mask = self._set_mask
        if mask is not None:
            line = address >> self._line_bits
            return line & mask, line >> self._set_bits
        line = line_address(address) // self.line_size
        return line % self.num_sets, line // self.num_sets

    def _find_way(self, set_index: int, tag: int) -> int | None:
        return self._tag_maps[set_index].get(tag)

    # -- queries -----------------------------------------------------------
    def probe(self, address: int) -> bool:
        """Return whether the line is present, without touching any state."""

        mask = self._set_mask
        if mask is None:
            set_index, tag = self.locate(address)
            return tag in self._tag_maps[set_index]
        line_number = address >> self._line_bits
        return line_number >> self._set_bits in self._tag_maps[line_number & mask]

    def get_line(self, address: int) -> CacheLine | None:
        """Return the resident line for ``address`` (no state change)."""

        set_index, tag = self.locate(address)
        way = self._tag_maps[set_index].get(tag)
        return self._sets[set_index][way] if way is not None else None

    def resident_line_addresses(self) -> list[int]:
        """Return the byte addresses of all resident lines (test helper)."""

        addresses = []
        for set_index, ways in enumerate(self._sets):
            for line in ways:
                if line.valid:
                    addresses.append(
                        (line.tag * self.num_sets + set_index) * self.line_size
                    )
        return addresses

    # -- demand path --------------------------------------------------------
    def access(
        self,
        address: int,
        pc: int | None = None,
        is_write: bool = False,
        now: float = 0.0,
    ) -> AccessOutcome:
        """Perform a demand lookup, updating replacement and prefetch state.

        Returns the cache's scratch :class:`AccessOutcome` (see class docs).
        """

        mask = self._set_mask
        if mask is None:
            set_index, tag = self.locate(address)
        else:
            line_number = address >> self._line_bits
            set_index = line_number & mask
            tag = line_number >> self._set_bits
        stats = self.stats
        stats.demand_accesses += 1
        observe = self._policy_observe
        if observe is not None:
            observe(set_index, address, pc)
        way = self._tag_maps[set_index].get(tag)
        outcome = self._scratch_outcome
        if way is None:
            stats.misses += 1
            outcome.hit = False
            outcome.first_prefetch_use = False
            outcome.ready_cycle = 0.0
            outcome.line_pc = None
            return outcome
        line = self._sets[set_index][way]
        stats.hits += 1
        first_use = False
        if line.prefetched and not line.used_since_prefetch:
            line.used_since_prefetch = True
            first_use = True
            stats.prefetch_first_uses += 1
        if is_write:
            line.dirty = True
        self.policy.on_hit(set_index, way, pc)
        outcome.hit = True
        outcome.first_prefetch_use = first_use
        outcome.ready_cycle = line.ready_cycle
        outcome.line_pc = line.pc
        return outcome

    def fill(
        self,
        address: int,
        pc: int | None = None,
        is_write: bool = False,
        prefetched: bool = False,
        ready_cycle: float = 0.0,
        now: float = 0.0,
    ) -> EvictionInfo | None:
        """Insert a line (demand fill or prefetch fill); return the victim, if any.

        The returned victim is the cache's scratch :class:`EvictionInfo`
        (see class docs).  Victim choice and eviction are written out inline
        (this is the hottest function of a miss-heavy run); the policy still
        sees ``victim`` → ``on_invalidate`` → ``on_fill``, in that order.
        """

        mask = self._set_mask
        if mask is None:
            set_index, tag = self.locate(address)
        else:
            line_number = address >> self._line_bits
            set_index = line_number & mask
            tag = line_number >> self._set_bits
        tag_map = self._tag_maps[set_index]
        ways = self._sets[set_index]
        policy = self.policy
        existing = tag_map.get(tag)
        if existing is not None:
            # Re-filling a resident line (e.g. a prefetch racing a demand
            # fill): refresh flags without evicting anything.
            line = ways[existing]
            line.dirty = line.dirty or is_write
            if prefetched and not line.prefetched:
                line.prefetched = True
                line.used_since_prefetch = False
                line.ready_cycle = ready_cycle
            policy.on_hit(set_index, existing, pc)
            return None
        stats = self.stats
        if prefetched:
            stats.prefetch_fills += 1
        candidates = self._data_ways
        # Valid lines always live within the data ways (the partitioned L3
        # evicts data out of ways it reserves), so the tag map's size says
        # whether an invalid way exists at all — a full set, the steady
        # state, skips the scan entirely.
        way = None
        if len(tag_map) < len(candidates):
            for candidate in candidates:
                if not ways[candidate].valid:
                    way = candidate
                    break
        if way is not None:
            line = ways[way]
            info = None
        else:
            way = policy.victim(set_index, candidates)
            line = ways[way]
            victim_tag = line.tag
            dirty = line.dirty
            prefetched_unused = line.prefetched and not line.used_since_prefetch
            if prefetched_unused:
                stats.prefetched_evicted_unused += 1
            if dirty:
                stats.writebacks += 1
            info = self._scratch_eviction
            info.address = (victim_tag * self.num_sets + set_index) * self.line_size
            info.dirty = dirty
            info.prefetched_unused = prefetched_unused
            info.pc = line.pc
            del tag_map[victim_tag]
            policy.on_invalidate(set_index, way)
        # Every field is overwritten, so the evicted line needs no reset().
        line.valid = True
        line.tag = tag
        line.dirty = is_write
        line.prefetched = prefetched
        line.used_since_prefetch = False
        line.pc = pc
        line.ready_cycle = ready_cycle
        line.fill_time = now
        tag_map[tag] = way
        policy.on_fill(set_index, way, pc)
        return info

    def _evict(self, set_index: int, way: int) -> EvictionInfo:
        """Evict ``way`` outside a fill (partition growth); same records as
        the eviction :meth:`fill` performs inline."""

        line = self._sets[set_index][way]
        stats = self.stats
        address = (line.tag * self.num_sets + set_index) * self.line_size
        prefetched_unused = line.prefetched and not line.used_since_prefetch
        if prefetched_unused:
            stats.prefetched_evicted_unused += 1
        if line.dirty:
            stats.writebacks += 1
        info = self._scratch_eviction
        info.address = address
        info.dirty = line.dirty
        info.prefetched_unused = prefetched_unused
        info.pc = line.pc
        del self._tag_maps[set_index][line.tag]
        line.reset()
        self.policy.on_invalidate(set_index, way)
        return info

    def invalidate(self, address: int) -> bool:
        """Remove the line for ``address`` if present; return whether it was."""

        set_index, tag = self.locate(address)
        way = self._tag_maps[set_index].get(tag)
        if way is None:
            return False
        self.stats.invalidations += 1
        del self._tag_maps[set_index][tag]
        self._sets[set_index][way].reset()
        self.policy.on_invalidate(set_index, way)
        return True

    def mark_dirty(self, address: int) -> bool:
        """Mark the line dirty if present (used for write-back propagation)."""

        line = self.get_line(address)
        if line is None:
            return False
        line.dirty = True
        return True

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.assoc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name}, {self.size_bytes}B, "
            f"{self.assoc}-way, {self.num_sets} sets)"
        )
