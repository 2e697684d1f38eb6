"""Tests for the workload generators."""

import pytest

from repro.workloads.graph500 import GRAPH500_SPECS, generate_graph500_trace
from repro.workloads.micro import (
    generate_pointer_chase_trace,
    generate_random_trace,
    generate_sequential_trace,
)
from repro.workloads.registry import (
    GRAPH500_WORKLOADS,
    MULTIPROGRAM_PAIRS,
    SPEC_WORKLOADS,
    available_workloads,
    generate_workload,
)
from repro.workloads.spec import SPEC_SPECS, generate_spec_trace
from repro.workloads.synthetic import (
    StreamSpec,
    SyntheticWorkloadSpec,
    generate_synthetic_trace,
)


class TestSyntheticGenerator:
    def make_spec(self, **overrides):
        defaults = dict(
            name="unit",
            streams=[StreamSpec(sequence_lines=100)],
            length=2000,
            hot_fraction=0.5,
            seed=3,
        )
        defaults.update(overrides)
        return SyntheticWorkloadSpec(**defaults)

    def test_length_respected(self):
        trace = generate_synthetic_trace(self.make_spec())
        assert len(trace) == 2000

    def test_deterministic_under_seed(self):
        a = generate_synthetic_trace(self.make_spec())
        b = generate_synthetic_trace(self.make_spec())
        assert [x.address for x in a] == [y.address for y in b]
        assert [x.pc for x in a] == [y.pc for y in b]

    def test_different_seed_differs(self):
        a = generate_synthetic_trace(self.make_spec())
        b = generate_synthetic_trace(self.make_spec(seed=4))
        assert [x.address for x in a] != [y.address for y in b]

    def test_hot_fraction_controls_hot_region_share(self):
        hot_region = 0x1000_0000
        cold = generate_synthetic_trace(self.make_spec(hot_fraction=0.0))
        hot = generate_synthetic_trace(self.make_spec(hot_fraction=0.9))
        in_hot_region = sum(
            1 for access in hot if hot_region <= access.address < hot_region + (1 << 20)
        )
        assert in_hot_region > 0.8 * len(hot)
        assert not any(
            hot_region <= access.address < hot_region + (1 << 20) for access in cold
        )

    def test_stream_pcs_distinct_from_hot_pcs(self):
        trace = generate_synthetic_trace(self.make_spec())
        assert trace.unique_pcs() >= 2

    def test_stride_stream_is_sequential(self):
        spec = self.make_spec(
            streams=[StreamSpec(sequence_lines=200, stride=True)], hot_fraction=0.0
        )
        trace = generate_synthetic_trace(spec)
        deltas = {
            b.address - a.address
            for a, b in zip(trace.accesses, trace.accesses[1:])
            if a.pc == b.pc
        }
        # Mostly +64 steps (with wrap-arounds at sequence end).
        assert 64 in deltas

    def test_jitter_changes_repeat_order(self):
        exact = self.make_spec(
            streams=[StreamSpec(sequence_lines=64, jitter=0.0)], hot_fraction=0.0, length=256
        )
        loose = self.make_spec(
            streams=[StreamSpec(sequence_lines=64, jitter=1.0)], hot_fraction=0.0, length=256
        )
        exact_trace = generate_synthetic_trace(exact)
        loose_trace = generate_synthetic_trace(loose)
        exact_first = [a.address for a in exact_trace.accesses[:64]]
        exact_second = [a.address for a in exact_trace.accesses[64:128]]
        loose_first = [a.address for a in loose_trace.accesses[:64]]
        loose_second = [a.address for a in loose_trace.accesses[64:128]]
        assert exact_first == exact_second
        assert set(loose_first) == set(loose_second)
        assert loose_first != loose_second

    def test_metadata_recorded(self):
        trace = generate_synthetic_trace(self.make_spec())
        assert trace.metadata["generator"] == "synthetic"
        assert trace.metadata["length"] == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(name="bad", streams=[])
        with pytest.raises(ValueError):
            StreamSpec(sequence_lines=0)
        with pytest.raises(ValueError):
            StreamSpec(sequence_lines=10, repetition=2.0)


class TestSpecWorkloads:
    def test_all_seven_defined(self):
        assert set(SPEC_WORKLOADS) == set(SPEC_SPECS)
        assert len(SPEC_WORKLOADS) == 7

    @pytest.mark.parametrize("name", sorted(SPEC_SPECS))
    def test_generation_with_short_override(self, name):
        trace = generate_spec_trace(name, length=1500)
        assert len(trace) == 1500
        assert trace.name == name

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError):
            generate_spec_trace("povray")

    def test_mcf_has_larger_footprint_than_gcc(self):
        mcf = generate_spec_trace("mcf", length=6000)
        gcc = generate_spec_trace("gcc_166", length=6000)
        assert mcf.unique_lines() > gcc.unique_lines()


class TestGraph500:
    def test_inputs_defined(self):
        assert set(GRAPH500_WORKLOADS) == set(GRAPH500_SPECS)

    def test_trace_generation(self):
        trace = generate_graph500_trace("graph500_s16", max_accesses=3000)
        assert len(trace) <= 3000
        assert trace.metadata["generator"] == "graph500"
        assert trace.metadata["vertices"] == 3000

    def test_s21_has_bigger_footprint(self):
        s16 = generate_graph500_trace("graph500_s16", max_accesses=8000)
        s21 = generate_graph500_trace("graph500_s21", max_accesses=8000)
        assert s21.unique_lines() > s16.unique_lines()

    def test_deterministic(self):
        a = generate_graph500_trace("graph500_s16", max_accesses=1000)
        b = generate_graph500_trace("graph500_s16", max_accesses=1000)
        assert [x.address for x in a] == [y.address for y in b]

    def test_unknown_input_raises(self):
        with pytest.raises(ValueError):
            generate_graph500_trace("graph500_s30")

    def test_bfs_emits_writes_for_visited_updates(self):
        trace = generate_graph500_trace("graph500_s16", max_accesses=5000)
        assert any(access.is_write for access in trace)


class TestMicroAndRegistry:
    def test_pointer_chase_repeats_exactly(self):
        trace = generate_pointer_chase_trace(nodes=32, repeats=3)
        first = [a.address for a in trace.accesses[:32]]
        second = [a.address for a in trace.accesses[32:64]]
        assert first == second
        assert len(trace) == 96

    def test_sequential_trace(self):
        trace = generate_sequential_trace(lines=10)
        addresses = [a.address for a in trace]
        assert addresses == sorted(addresses)

    def test_random_trace_footprint(self):
        trace = generate_random_trace(accesses=500, footprint_lines=1 << 12)
        assert trace.unique_lines() > 300

    def test_registry_covers_everything(self):
        names = available_workloads()
        for name in SPEC_WORKLOADS:
            assert name in names
        for name in GRAPH500_WORKLOADS:
            assert name in names
        assert "pointer_chase" in names

    def test_registry_dispatch(self):
        assert len(generate_workload("xalan", length=1000)) == 1000
        assert len(generate_workload("pointer_chase", nodes=16, repeats=2)) == 32
        assert len(generate_workload("graph500_s16", max_accesses=500)) <= 500

    def test_graph500_accepts_length_as_its_cap(self):
        by_length = generate_workload("graph500_s16", length=700)
        by_cap = generate_workload("graph500_s16", max_accesses=700)
        assert len(by_length) == len(by_cap) == 700
        assert by_length.access_columns() == by_cap.access_columns()

    def test_graph500_rejects_length_and_cap_together(self):
        with pytest.raises(ValueError, match="not both"):
            generate_workload("graph500_s16", length=700, max_accesses=700)

    def test_graph500_trace_length_runs_through_a_spec(self):
        from repro.experiments.jobs import RunSpec, execute
        from repro.sim.config import SystemConfig

        spec = RunSpec.create(
            "graph500_s16", "baseline", SystemConfig(), trace_overrides={"length": 900}
        )
        stats = execute(spec)
        assert stats.accesses == 900 - int(900 * spec.warmup_fraction)

    def test_registry_unknown_raises(self):
        with pytest.raises(ValueError):
            generate_workload("doom")

    def test_multiprogram_pairs_reference_known_workloads(self):
        for pair in MULTIPROGRAM_PAIRS:
            for workload in pair:
                assert workload in SPEC_WORKLOADS

    def test_trace_slice(self):
        trace = generate_sequential_trace(lines=20)
        part = trace.slice(5, 10)
        assert len(part) == 5
        assert part[0].address == trace[5].address
