"""Tests for the ``repro bench`` kernel microbenchmark and its CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments import bench
from repro.experiments.bench import (
    BenchParityError,
    render_bench,
    run_bench,
    write_bench,
)


def small_record() -> dict:
    return run_bench(length=600, repeats=1)


class TestRunBench:
    def test_record_shape_and_parity(self):
        record = small_record()
        assert record["bench"] == "engine-kernels"
        assert record["kernels"] == ["reference", "fast"]
        names = [case["name"] for case in record["cases"]]
        assert names == [
            "synthetic-xalan",
            "synthetic-mcf",
            "synthetic-graph500_s16",
            "replay-hot",
            "replay-hot-sharded-k2",
            "replay-hot-sharded-k4",
        ]
        for case in record["cases"][:4]:
            assert case["parity"] is True
            assert case["accesses"] > 0
            assert case["reference_accesses_per_second"] > 0
            assert case["fast_accesses_per_second"] > 0
            assert case["speedup"] == pytest.approx(
                case["fast_accesses_per_second"]
                / case["reference_accesses_per_second"],
                rel=0.01,
            )
        assert record["packed_trace_speedup"] == record["cases"][3]["speedup"]

    def test_sharded_cases_shape(self):
        record = small_record()
        sharded = [case for case in record["cases"] if "shards" in case]
        assert [case["shards"] for case in sharded] == [2, 4]
        hot = next(case for case in record["cases"] if case["name"] == "replay-hot")
        for case in sharded:
            assert case["parity"] is True
            assert case["shard_overlap"] == "warmup"
            assert case["accesses"] == hot["accesses"]
            assert case["critical_path_accesses_per_second"] > 0
            assert case["speedup"] > 0
            assert 0.0 <= case["max_parity_deviation"] <= 0.05

    def test_shard_counts_can_be_skipped(self):
        record = run_bench(length=600, repeats=1, shard_counts=())
        assert [case["name"] for case in record["cases"]] == [
            "synthetic-xalan",
            "synthetic-mcf",
            "synthetic-graph500_s16",
            "replay-hot",
        ]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_bench(length=0)
        with pytest.raises(ValueError):
            run_bench(repeats=0)

    def test_parity_mismatch_fails_loudly(self, monkeypatch):
        """The bench must refuse to report rates for diverging kernels."""

        real = bench.run_simulation

        def skewed(simulator, trace, kernel=None, **kwargs):
            result = real(simulator, trace, kernel=kernel, **kwargs)
            if kernel == "fast":
                result.stats.accesses += 1
            return result

        monkeypatch.setattr(bench, "run_simulation", skewed)
        with pytest.raises(BenchParityError, match="accesses"):
            run_bench(length=400, repeats=1)

    def test_render_mentions_every_case(self):
        record = small_record()
        rendered = render_bench(record)
        assert "synthetic-xalan" in rendered
        assert "synthetic-graph500_s16" in rendered
        assert "replay-hot" in rendered
        assert "speedup" in rendered

    def test_write_bench_stable_json(self, tmp_path):
        record = small_record()
        path = write_bench(record, tmp_path / "BENCH_engine.json")
        loaded = json.loads(path.read_text())
        assert loaded == record
        # Deterministic serialisation: writing the same record twice is
        # byte-identical (the perf trajectory file must diff cleanly).
        first = path.read_bytes()
        write_bench(record, path)
        assert path.read_bytes() == first


class TestBenchCli:
    def test_bench_writes_record(self, tmp_path, capsys):
        output = tmp_path / "BENCH_engine.json"
        code = main(
            ["bench", "--length", "500", "--repeats", "1", "--output", str(output)]
        )
        assert code == 0
        record = json.loads(output.read_text())
        assert [case["parity"] for case in record["cases"]] == [True] * 6
        printed = capsys.readouterr().out
        assert "replay-hot" in printed
        assert str(output) in printed

    def test_bench_shards_flag(self, tmp_path):
        output = tmp_path / "BENCH_engine.json"
        code = main(
            [
                "bench",
                "--length",
                "500",
                "--repeats",
                "1",
                "--shards",
                "3",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        record = json.loads(output.read_text())
        sharded = [case for case in record["cases"] if "shards" in case]
        assert [case["shards"] for case in sharded] == [3]

    def test_bench_rejects_bad_shards(self, capsys):
        assert main(["bench", "--shards", "1,x", "--output", "-"]) == 2
        assert "repro:" in capsys.readouterr().err
        assert main(["bench", "--shards", "1", "--output", "-"]) == 2

    def test_bench_dash_skips_writing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--length", "500", "--repeats", "1", "--output", "-"]) == 0
        assert not (tmp_path / "BENCH_engine.json").exists()
        assert "engine kernel benchmark" in capsys.readouterr().out

    def test_bench_rejects_bad_length(self, capsys):
        assert main(["bench", "--length", "-5", "--output", "-"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_parity_mismatch_renders_cleanly(self, monkeypatch, capsys):
        """A kernel divergence exits 1 with a one-line error, no traceback."""

        def diverge(**kwargs):
            raise BenchParityError("replay-hot: kernels disagree on ['cycles']")

        monkeypatch.setattr(bench, "run_bench", diverge)
        assert main(["bench", "--length", "500", "--output", "-"]) == 1
        captured = capsys.readouterr()
        assert "kernels disagree" in captured.err
        assert "Traceback" not in captured.err


class TestKernelCliFlag:
    def test_run_accepts_kernel_flag(self, capsys):
        code = main(
            [
                "run",
                "xalan",
                "--config",
                "triage",
                "--trace-length",
                "900",
                "--max-accesses",
                "400",
                "--kernel",
                "reference",
                "--no-cache",
            ]
        )
        assert code == 0
        assert "triage" in capsys.readouterr().out

    def test_kernel_flag_does_not_change_output(self, tmp_path, capsys):
        argv = [
            "run",
            "xalan",
            "--config",
            "triangel",
            "--trace-length",
            "900",
            "--max-accesses",
            "400",
            "--no-cache",
        ]
        assert main(argv + ["--kernel", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(argv + ["--kernel", "fast"]) == 0
        assert capsys.readouterr().out == reference_out
