"""Triangel's extended training table (paper section 4.2, figure 5).

Triangel keeps Triage's PC-indexed training table but extends every entry
with the state its aggression control needs:

* ``LastAddr[0]`` and ``LastAddr[1]`` — a two-deep shift register of the
  previous misses/prefetch-hits at this PC, so the Markov table can be
  trained at lookahead 2 when the prefetcher is in its aggressive state;
* ``Timestamp`` — a per-PC local counter incremented on every access to the
  entry, used to compute reuse distances in the History Sampler;
* ``ReuseConf`` — saturating confidence that this PC's pattern repeats
  within the Markov table's maximum capacity;
* ``BasePatternConf`` / ``HighPatternConf`` — saturating confidence that a
  stored (x, y) pair will yield an accurate prefetch, with asymmetric
  up/down factors giving 2/3 and 5/6 usefulness thresholds;
* ``SampleRate`` — per-PC control of the History Sampler insertion rate;
* ``Lookahead`` — whether Markov training currently uses LastAddr[0]
  (lookahead 1) or LastAddr[1] (lookahead 2) as the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import TriangelConfig
from repro.utils.counters import SaturatingCounter
from repro.utils.hashing import fold_hash, mix64


@dataclass
class TriangelTrainingStats:
    lookups: int = 0
    hits: int = 0
    allocations: int = 0
    evictions: int = 0


@dataclass
class TriangelTrainingEntry:
    """One PC's training state (figure 5)."""

    valid: bool = False
    pc_tag: int = 0
    pc: int = 0
    last_addr_0: int | None = None
    last_addr_1: int | None = None
    timestamp: int = 0
    reuse_conf: SaturatingCounter = field(default_factory=SaturatingCounter)
    base_pattern_conf: SaturatingCounter = field(default_factory=SaturatingCounter)
    high_pattern_conf: SaturatingCounter = field(default_factory=SaturatingCounter)
    sample_rate: SaturatingCounter = field(default_factory=SaturatingCounter)
    lookahead: int = 1
    last_use: int = 0

    def push_address(self, line_address: int) -> None:
        """Shift ``line_address`` into LastAddr[0], moving [0] into [1]."""

        self.last_addr_1 = self.last_addr_0
        self.last_addr_0 = line_address

    def markov_index_address(self) -> int | None:
        """Address to use as the Markov-table training index.

        Lookahead 1 uses LastAddr[0] (the immediately preceding access);
        lookahead 2 uses LastAddr[1], storing non-adjacent pairs so chained
        prefetches run further ahead of the demand stream (section 4.5).
        """

        return self.last_addr_1 if self.lookahead == 2 else self.last_addr_0


class TriangelTrainingTable:
    """Set-associative, PC-indexed table of :class:`TriangelTrainingEntry`."""

    def __init__(self, config: TriangelConfig | None = None) -> None:
        self.config = config or TriangelConfig()
        cfg = self.config
        self.entries = cfg.training_entries
        self.assoc = cfg.training_assoc
        self.num_sets = self.entries // self.assoc
        self._sets: list[list[TriangelTrainingEntry]] = [
            [self._new_entry() for _ in range(self.assoc)] for _ in range(self.num_sets)
        ]
        self._clock = 0
        self.stats = TriangelTrainingStats()
        # PC -> (set, tag) is a pure function of the geometry; memoise it
        # (bounded, like the stride prefetcher's entry memo) so each PC is
        # hashed once, not on every trigger.
        self._locate_memo: dict[int, tuple[int, int]] = {}
        self._locate_memo_cap = 16 * self.entries

    def _new_entry(self) -> TriangelTrainingEntry:
        cfg = self.config
        return TriangelTrainingEntry(
            reuse_conf=SaturatingCounter(cfg.conf_bits, cfg.conf_initial, 1, 1),
            base_pattern_conf=SaturatingCounter(
                cfg.conf_bits, cfg.conf_initial, 1, cfg.base_pattern_decrement
            ),
            high_pattern_conf=SaturatingCounter(
                cfg.conf_bits, cfg.conf_initial, 1, cfg.high_pattern_decrement
            ),
            sample_rate=SaturatingCounter(
                cfg.sample_rate_bits, cfg.sample_rate_initial, 1, 1
            ),
        )

    def _locate(self, pc: int) -> tuple[int, int]:
        located = self._locate_memo.get(pc)
        if located is None:
            located = mix64(pc) % self.num_sets, fold_hash(pc, self.config.pc_tag_bits)
            if len(self._locate_memo) < self._locate_memo_cap:
                self._locate_memo[pc] = located
        return located

    def entry_index(self, pc: int) -> int:
        """A stable identifier for the training entry a PC maps to.

        The History Sampler stores this index ("Train-Idx" in figure 7) so a
        sampler hit can verify it refers to the same training entry that is
        currently allocated for the triggering PC.
        """

        set_index, _tag = self._locate(pc)
        for way, entry in enumerate(self._sets[set_index]):
            if entry.valid and entry.pc == pc:
                return set_index * self.assoc + way
        return -1

    def entry_at(self, index: int) -> TriangelTrainingEntry | None:
        """Return the entry at a Train-Idx (may have been re-allocated)."""

        if not 0 <= index < self.entries:
            return None
        return self._sets[index // self.assoc][index % self.assoc]

    def find(self, pc: int) -> TriangelTrainingEntry | None:
        """Return the entry for ``pc`` if present (updates recency)."""

        self.stats.lookups += 1
        self._clock += 1
        set_index, tag = self._locate(pc)
        for entry in self._sets[set_index]:
            if entry.valid and entry.pc_tag == tag:
                entry.last_use = self._clock
                self.stats.hits += 1
                return entry
        return None

    def find_or_allocate(self, pc: int) -> tuple[TriangelTrainingEntry, int, bool]:
        """Return ``(entry, train_idx, allocated)`` for ``pc``.

        A newly allocated entry starts with all counters at their initial
        (mid-point) values, so a PC must demonstrate a repeating pattern
        before Triangel stores metadata or prefetches for it.
        """

        # find() written out inline, keeping the matching way.
        stats = self.stats
        stats.lookups += 1
        self._clock += 1
        set_index, tag = self._locate(pc)
        ways = self._sets[set_index]
        for way, entry in enumerate(ways):
            if entry.valid and entry.pc_tag == tag:
                entry.last_use = self._clock
                stats.hits += 1
                return entry, set_index * self.assoc + way, False
        victim_way = None
        for way, candidate in enumerate(ways):
            if not candidate.valid:
                victim_way = way
                break
        if victim_way is None:
            victim_way = min(range(self.assoc), key=lambda way: ways[way].last_use)
            self.stats.evictions += 1
        fresh = self._new_entry()
        fresh.valid = True
        fresh.pc_tag = tag
        fresh.pc = pc
        fresh.last_use = self._clock
        ways[victim_way] = fresh
        self.stats.allocations += 1
        return fresh, set_index * self.assoc + victim_way, True
