"""The Triangel prefetcher (paper section 4).

Triangel keeps Triage's overall shape — a PC-indexed training table feeding
a Markov table held in an L3 partition — and wraps it in sampling-based
aggression control:

* metadata is only stored, and prefetches only issued, for PCs whose
  **ReuseConf** and **BasePatternConf** counters have risen above their
  mid-point, i.e. PCs whose patterns have been *observed* to repeat within
  on-chip capacity and to predict accurately (section 4.5);
* when **HighPatternConf** saturates, training switches to lookahead 2 and
  prefetch generation chains up to degree 4, making prefetches timely
  without losing accuracy;
* the **Metadata Reuse Buffer** elides the redundant L3 metadata accesses
  that high-degree chained walks would otherwise incur, and skips Markov
  updates that would not change anything (section 4.6);
* the **Set Dueller** (or, for the Triangel-Bloom variant, the Bloom sizer)
  picks how many L3 ways the Markov partition may occupy (section 4.7).

The ablation flags in :class:`repro.core.config.TriangelConfig` let each of
these mechanisms be enabled independently, which is how the figure 20
ablation ladder is built.
"""

from __future__ import annotations

from repro.core.config import TriangelConfig
from repro.core.history_sampler import HistorySampler
from repro.core.metadata_reuse_buffer import MetadataReuseBuffer
from repro.core.second_chance import SecondChanceSampler
from repro.core.set_dueller import SetDueller
from repro.core.training_table import TriangelTrainingEntry, TriangelTrainingTable
from repro.memory.hierarchy import DemandResult, MemoryHierarchy
from repro.prefetch.base import DecisionBuffer, Prefetcher
from repro.triage.bloom import BloomPartitionSizer
from repro.triage.markov_table import MarkovTable
from repro.triage.metadata import make_metadata_format


class TriangelPrefetcher(Prefetcher):
    """Triangel: accurate, timely temporal prefetching with sampling control."""

    # observe_into's first statement returns, touching nothing, unless the
    # access missed the L2 or first-used a prefetched L2 line.
    observes_hits = False

    def __init__(self, config: TriangelConfig | None = None, name: str = "triangel") -> None:
        super().__init__(name)
        self.config = config or TriangelConfig()
        cfg = self.config
        self.training_table = TriangelTrainingTable(cfg)
        self.history_sampler = HistorySampler(
            entries=cfg.sampler_entries, assoc=cfg.sampler_assoc, seed=cfg.seed
        )
        self.second_chance = SecondChanceSampler(
            entries=cfg.second_chance_entries,
            window_fills=cfg.second_chance_window_fills,
        )
        self.mrb = MetadataReuseBuffer(entries=cfg.mrb_entries, assoc=cfg.mrb_assoc)
        self.markov: MarkovTable | None = None
        self.dueller: SetDueller | None = None
        self.bloom_sizer: BloomPartitionSizer | None = None

    # -- wiring -----------------------------------------------------------------
    def attach(self, hierarchy: MemoryHierarchy) -> None:
        super().attach(hierarchy)
        cfg = self.config
        l3 = hierarchy.l3
        metadata = make_metadata_format(cfg.metadata_format)
        self.markov = MarkovTable(
            l3_sets=l3.num_sets,
            max_ways=min(cfg.max_markov_ways, l3.max_reserved_ways),
            metadata_format=metadata,
            tag_bits=cfg.markov_tag_bits,
            replacement=cfg.markov_replacement,
        )
        if cfg.sizing_mechanism == "set-dueller":
            self.dueller = SetDueller(
                l3_sets=l3.num_sets,
                cache_ways=l3.assoc,
                max_markov_ways=self.markov.max_ways,
                sampled_sets=cfg.dueller_sampled_sets,
                window=cfg.dueller_window,
                markov_weight=cfg.dueller_markov_weight,
                bias=cfg.dueller_bias,
                markov_sample_period=max(1, metadata.entries_per_line),
            )
        else:
            self.bloom_sizer = BloomPartitionSizer(
                entries_per_way=self.markov.entries_per_way(),
                max_ways=self.markov.max_ways,
                window=cfg.bloom_window,
                bias=cfg.bloom_bias,
                bloom_bits=cfg.bloom_bits,
                bloom_hashes=cfg.bloom_hashes,
            )

    # -- main entry point -----------------------------------------------------------
    def observe_into(
        self,
        pc: int,
        line_addr: int,
        result: DemandResult,
        now: float,
        sink: DecisionBuffer,
    ) -> None:
        if not (result.l2_miss or result.l2_prefetch_first_use):
            return
        if self.markov is None or self.hierarchy is None:
            raise RuntimeError("TriangelPrefetcher must be attached to a hierarchy first")
        cfg = self.config

        self.stats.triggers += 1
        entry, train_idx, _allocated = self.training_table.find_or_allocate(pc)
        entry.timestamp += 1
        previous = entry.last_addr_0

        self._observe_data_for_sizing(line_addr)

        if previous is not None and previous != line_addr:
            self._update_confidence(entry, train_idx, previous, line_addr)
            self._maybe_sample(entry, train_idx, previous, line_addr)

        if cfg.enable_second_chance:
            self._resolve_second_chances(entry, train_idx, line_addr)

        # Aggression control, written out inline (once per trigger).
        # Lookahead: HighPatternConf saturating switches to lookahead 2;
        # BasePatternConf falling below its mid-point switches back.
        if not cfg.enable_lookahead:
            entry.lookahead = 1
        elif not cfg.enable_high_pattern_conf or entry.high_pattern_conf.is_saturated:
            entry.lookahead = 2
        elif entry.base_pattern_conf.value < cfg.conf_initial:
            entry.lookahead = 1
        # Store metadata and prefetch only for PCs whose enabled confidence
        # counters are above their initial value (section 4.5).
        if not (
            (cfg.enable_reuse_conf and not entry.reuse_conf.above_initial())
            or (cfg.enable_base_pattern_conf and not entry.base_pattern_conf.above_initial())
        ):
            self._train_markov(entry, pc, line_addr)
            self._generate_prefetches(entry, line_addr, sink)

        entry.push_address(line_addr)
        self.stats.training_events += 1

    # -- confidence maintenance --------------------------------------------------------
    def _update_confidence(
        self,
        entry: TriangelTrainingEntry,
        train_idx: int,
        previous: int,
        current: int,
    ) -> None:
        """History-Sampler driven updates of ReuseConf and PatternConf (§4.4)."""

        hit = self.history_sampler.lookup(previous, refresh_timestamp=entry.timestamp)
        if hit is None or hit.train_idx != train_idx:
            return
        distance = entry.timestamp - hit.timestamp
        if 0 <= distance <= self.markov.max_capacity:
            entry.reuse_conf.increase()
        else:
            entry.reuse_conf.decrease()

        if hit.target == current:
            entry.base_pattern_conf.increase()
            entry.high_pattern_conf.increase()
            return
        if self.hierarchy.l2.probe(hit.target):
            # The hypothetical prefetch would have been dropped as resident,
            # so this mismatch says nothing about accuracy: leave counters.
            return
        if self.config.enable_second_chance:
            forced = self.second_chance.insert(
                hit.target, train_idx, self.hierarchy.l2_fill_count
            )
            if forced is not None:
                self._apply_pattern_outcome(forced.train_idx, within_window=False)
        else:
            entry.base_pattern_conf.decrease()
            entry.high_pattern_conf.decrease()

    def _maybe_sample(
        self,
        entry: TriangelTrainingEntry,
        train_idx: int,
        previous: int,
        current: int,
    ) -> None:
        """Probabilistic History-Sampler insertion with victim analysis (§4.4.3)."""

        cfg = self.config
        if not self.history_sampler.should_insert(
            entry.sample_rate.value, self.markov.max_capacity, cfg.sample_rate_initial
        ):
            return
        victim = self.history_sampler.insert(previous, current, train_idx, entry.timestamp)
        if victim is None or victim.train_idx < 0:
            return
        victim_entry = self.training_table.entry_at(victim.train_idx)
        if victim_entry is None or not victim_entry.valid:
            return
        victim_distance = victim_entry.timestamp - victim.timestamp
        if victim_distance > self.markov.max_capacity:
            # Only stale entries are being displaced: sampling can afford to
            # speed up, and the victim PC's pattern evidently did not repeat
            # within on-chip capacity while we watched it.
            if not victim.used:
                victim_entry.reuse_conf.decrease()
            entry.sample_rate.increase()
            self.history_sampler.stats.victims_stale += 1
        elif not victim.used:
            # We displaced a potentially useful observation: slow down.
            entry.sample_rate.decrease()
            self.history_sampler.stats.victims_useful += 1

    def _resolve_second_chances(
        self, entry: TriangelTrainingEntry, train_idx: int, current: int
    ) -> None:
        fills = self.hierarchy.l2_fill_count
        outcome = self.second_chance.check(current, train_idx, fills)
        if outcome is not None:
            self._apply_pattern_outcome(outcome.train_idx, outcome.within_window)
        for expired in self.second_chance.expire_older_than(fills):
            self._apply_pattern_outcome(expired.train_idx, within_window=False)

    def _apply_pattern_outcome(self, train_idx: int, within_window: bool) -> None:
        target_entry = self.training_table.entry_at(train_idx)
        if target_entry is None or not target_entry.valid:
            return
        if within_window:
            target_entry.base_pattern_conf.increase()
            target_entry.high_pattern_conf.increase()
        else:
            target_entry.base_pattern_conf.decrease()
            target_entry.high_pattern_conf.decrease()

    # -- aggression control -----------------------------------------------------------
    def _degree_for(self, entry: TriangelTrainingEntry) -> int:
        cfg = self.config
        if not cfg.enable_high_pattern_conf:
            return cfg.max_degree
        if entry.high_pattern_conf.value > cfg.conf_initial:
            return cfg.max_degree
        return 1

    # -- Markov maintenance ---------------------------------------------------------------
    def _train_markov(self, entry: TriangelTrainingEntry, pc: int, current: int) -> None:
        cfg = self.config
        index_address = entry.markov_index_address()
        if index_address is None or index_address == current:
            return
        if cfg.max_entries_override is not None and (
            self.markov.occupancy() >= cfg.max_entries_override
        ):
            return
        self._observe_markov_for_sizing(index_address)
        if cfg.use_mrb and self.mrb.would_be_redundant_update(index_address, current, True):
            self.stats.markov_update_skips += 1
            return
        self.markov.train(index_address, current, pc)
        self.hierarchy.record_markov_access()
        self.stats.markov_updates += 1
        if cfg.use_mrb:
            # Keep the buffered copy coherent with the table.
            self.mrb.invalidate(index_address)

    def _generate_prefetches(
        self, entry: TriangelTrainingEntry, line_addr: int, sink: DecisionBuffer
    ) -> None:
        cfg = self.config
        degree = self._degree_for(entry)
        current = line_addr
        accumulated_latency = 0.0
        for _step in range(degree):
            target: int | None = None
            confidence = False
            from_mrb = False
            if cfg.use_mrb:
                buffered = self.mrb.lookup(current)
                if buffered is not None:
                    target = buffered.target
                    confidence = buffered.confidence
                    from_mrb = True
                    self.stats.mrb_hits += 1
            if target is None:
                accumulated_latency += cfg.markov_latency
                self._observe_markov_for_sizing(current)
                target = self.markov.lookup(current)
                self.hierarchy.record_markov_access()
                self.stats.markov_lookups += 1
                if target is not None and cfg.use_mrb:
                    stored = self.markov.peek(current)
                    confidence = bool(stored.confidence) if stored is not None else False
                    self.mrb.insert(current, target, confidence)
            if target is None:
                break
            if target != current and not self._target_resident(target):
                sink.emit(
                    target,
                    "l2",
                    accumulated_latency,
                    "mrb" if from_mrb else "markov",
                )
                self.stats.prefetches_issued += 1
            else:
                self.stats.prefetches_dropped_resident += 1
            current = target

    # -- partition sizing -----------------------------------------------------------------
    def _observe_data_for_sizing(self, line_addr: int) -> None:
        if self.dueller is not None:
            self._apply_sizing_decision(self.dueller.observe_data_access(line_addr))
        elif self.bloom_sizer is not None:
            self._apply_sizing_decision(self.bloom_sizer.observe(line_addr))

    def _observe_markov_for_sizing(self, index_address: int) -> None:
        if self.dueller is not None:
            self._apply_sizing_decision(self.dueller.observe_markov_access(index_address))

    def _apply_sizing_decision(self, ways: int | None) -> None:
        if ways is None or ways == self.markov.ways:
            return
        self.markov.set_ways(ways)
        self.hierarchy.set_markov_ways(ways)
