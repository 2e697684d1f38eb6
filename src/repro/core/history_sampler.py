"""The History Sampler (paper section 4.4, figure 7).

The History Sampler decides whether a PC's access pattern is worth storing
in the Markov table at all.  It randomly samples (previous address, current
address) pairs from the training stream into a small 2-way associative
table; because entries are sampled rather than stored exhaustively, the
structure can observe reuse over distances far longer than its own size.

On every training event the previous address (LastAddr[0]) is looked up:

* a hit whose Train-Idx matches the current PC's training entry means the
  address has repeated — if the timestamp distance is below the Markov
  table's maximum capacity the pattern fits on chip and **ReuseConf** rises;
* if, additionally, the sampled entry's target matches the address now being
  trained, the (x, y) pair has repeated exactly and **PatternConf** rises;
* a mismatching target defers judgement to the Second-Chance Sampler.

Insertion is probabilistic with per-PC rate control (section 4.4.3): the
probability is ``SamplerSize / MaxSize × 2^(SampleRate − 8)``, and the
victim analysis on insertion nudges SampleRate (and the victim PC's
ReuseConf) so that PCs with very long reuse distances still get observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.hashing import LinearCongruentialSampler, fold_hash, mix64


@dataclass
class HistorySamplerStats:
    lookups: int = 0
    hits: int = 0
    insert_attempts: int = 0
    inserts: int = 0
    victims_stale: int = 0
    victims_useful: int = 0


@dataclass(slots=True)
class SamplerEntry:
    valid: bool = False
    address_tag: int = 0
    address: int = 0
    target: int = 0
    train_idx: int = -1
    timestamp: int = 0
    used: bool = False
    last_use: int = 0


@dataclass(slots=True)
class SamplerHit:
    """Result of a History Sampler lookup hit."""

    target: int
    train_idx: int
    timestamp: int
    entry: SamplerEntry


@dataclass(slots=True)
class VictimInfo:
    """Description of the entry displaced by an insertion."""

    address: int
    target: int
    train_idx: int
    timestamp: int
    used: bool


class HistorySampler:
    """Small 2-way associative sampler of (address, target) training pairs."""

    def __init__(
        self,
        entries: int = 512,
        assoc: int = 2,
        tag_bits: int = 20,
        seed: int = 0x5A3913,
    ) -> None:
        if entries <= 0 or assoc <= 0 or entries % assoc != 0:
            raise ValueError("entries must be a positive multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.tag_bits = tag_bits
        self._sets = [[SamplerEntry() for _ in range(assoc)] for _ in range(self.num_sets)]
        self._clock = 0
        self.rng = LinearCongruentialSampler(seed)
        self.stats = HistorySamplerStats()

    def _locate(self, line_address: int) -> tuple[int, int]:
        return mix64(line_address) % self.num_sets, fold_hash(line_address, self.tag_bits)

    # -- lookup --------------------------------------------------------------
    def lookup(
        self, line_address: int, refresh_timestamp: int | None = None
    ) -> SamplerHit | None:
        """Look up a previous address; mark the entry used on a hit.

        ``refresh_timestamp`` re-stamps the entry with the caller's current
        per-PC timestamp after the hit's distance has been captured, so each
        *repetition* of the address is measured against the previous one
        rather than against the original sampling instant.  Without this a
        long-lived sampled entry would accumulate an ever-growing distance
        and eventually look like it exceeded the Markov capacity even though
        every individual reuse fits comfortably.
        """

        stats = self.stats
        stats.lookups += 1
        self._clock += 1
        # _locate() inlined: one lookup per Triangel training event.
        tag = fold_hash(line_address, self.tag_bits)
        for entry in self._sets[mix64(line_address) % self.num_sets]:
            if entry.valid and entry.address_tag == tag:
                entry.last_use = self._clock
                entry.used = True
                stats.hits += 1
                hit = SamplerHit(
                    target=entry.target,
                    train_idx=entry.train_idx,
                    timestamp=entry.timestamp,
                    entry=entry,
                )
                if refresh_timestamp is not None:
                    entry.timestamp = refresh_timestamp
                return hit
        return None

    # -- insertion --------------------------------------------------------------
    def insertion_probability(
        self, sample_rate: int, max_size: int, sample_rate_initial: int = 8
    ) -> float:
        """Probability of sampling one training pair (section 4.4.3)."""

        if max_size <= 0:
            return 1.0
        base = self.entries / max_size
        return base * (2.0 ** (sample_rate - sample_rate_initial))

    def should_insert(
        self, sample_rate: int, max_size: int, sample_rate_initial: int = 8
    ) -> bool:
        """Deterministically (per seed) decide whether to sample this pair."""

        probability = self.insertion_probability(sample_rate, max_size, sample_rate_initial)
        return self.rng.sample(probability)

    def insert(
        self,
        line_address: int,
        target: int,
        train_idx: int,
        timestamp: int,
    ) -> VictimInfo | None:
        """Insert a sampled (address, target) pair; return the displaced victim."""

        self.stats.insert_attempts += 1
        self._clock += 1
        set_index, tag = self._locate(line_address)
        ways = self._sets[set_index]

        # Re-sampling the same address refreshes the entry in place.
        for entry in ways:
            if entry.valid and entry.address_tag == tag:
                entry.address = line_address
                entry.target = target
                entry.train_idx = train_idx
                entry.timestamp = timestamp
                entry.used = False
                entry.last_use = self._clock
                self.stats.inserts += 1
                return None

        victim_entry = None
        for entry in ways:
            if not entry.valid:
                victim_entry = entry
                break
        victim_info = None
        if victim_entry is None:
            victim_entry = min(ways, key=lambda candidate: candidate.last_use)
            victim_info = VictimInfo(
                address=victim_entry.address,
                target=victim_entry.target,
                train_idx=victim_entry.train_idx,
                timestamp=victim_entry.timestamp,
                used=victim_entry.used,
            )
        victim_entry.valid = True
        victim_entry.address_tag = tag
        victim_entry.address = line_address
        victim_entry.target = target
        victim_entry.train_idx = train_idx
        victim_entry.timestamp = timestamp
        victim_entry.used = False
        victim_entry.last_use = self._clock
        self.stats.inserts += 1
        return victim_info

    def occupancy(self) -> int:
        """Number of valid entries (test helper)."""

        return sum(1 for ways in self._sets for entry in ways if entry.valid)
