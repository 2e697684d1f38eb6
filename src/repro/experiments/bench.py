"""The ``repro bench`` engine microbenchmark: simulated accesses per second.

Every figure in the repository is bounded by how fast the engine replays
memory accesses, so this module measures exactly that — the same simulation
run under the **reference** kernel (readable, object-per-access) and the
**fast** kernel (fused, columnar, allocation-free; see
:mod:`repro.sim.kernel`) — and records the result in ``BENCH_engine.json``,
the repository's performance trajectory file.

Two kinds of benchmark case bracket the engine's operating range:

* ``synthetic-xalan``, ``synthetic-mcf`` and ``synthetic-graph500_s16`` —
  the miss-heavy synthetic workloads under the full Triangel stack, packed
  in memory at build time.  Fill- and prefetch-heavy, so the shared cache
  model and the temporal prefetcher dominate; this is the end-to-end
  figure-generation rate.
* ``replay-hot`` — a *recorded* ``.rtrc`` pointer-chase trace whose working
  set stays L1-resident after warm-up, replayed under the same Triangel
  stack.  With almost no cache-model work per access, the per-access engine
  overhead is the measurement — the replay-rate ceiling, and the case where
  the fused kernel's object elimination shows up undiluted.  This is "the
  packed-trace benchmark" the project tracks a ≥ 2× fast-vs-reference
  target on.

Both kernels must agree bit-for-bit on every statistic; a mismatch makes
the bench fail (and exit non-zero from the CLI) rather than report a
meaningless rate.  Timing uses best-of-``repeats`` wall time over the whole
run, warm-up included.

The replay-hot case is additionally measured **sharded** (see
:mod:`repro.sim.shard`): for each requested shard count K the trace is
split into K windows with warm-up overlap, every window is replayed on a
fresh simulator and timed individually, and the *critical path* — the
slowest single window — is reported as the sharded wall time.  On a machine
with ≥ K idle cores that equals end-to-end wall time; reporting it keeps
the bench honest on builders with fewer cores, where the windows timeshare.
Sharded cases gate on the parity contract (merged statistics vs the
sequential fast kernel, within :data:`~repro.sim.shard.
SHARD_PARITY_TOLERANCE`; ``accesses`` exactly equal) and **never** on
speed — a slow build box must not fail CI, a wrong merge must.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.configs import build_prefetchers
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.kernel import run_fast_window, run_simulation
from repro.sim.shard import (
    SHARD_PARITY_TOLERANCE,
    merge_shard_outcomes,
    plan_shards,
    shard_parity_report,
)
from repro.sim.stream import access_columns
from repro.sim.timing import TimingModel

#: Where the CLI writes the benchmark record by default (repository root in
#: development checkouts; the current directory otherwise).
BENCH_FILENAME = "BENCH_engine.json"

#: Lines in the replay-hot chain: well inside the scaled 4 KiB L1.
_HOT_CHAIN_LINES = 48

#: The kernels every case is cross-checked and timed under.  Deliberately
#: not :data:`~repro.sim.kernel.KERNELS`: ``fast-sharded`` is the fast
#: kernel under a different replay plan, measured by the sharded cases
#: below, not a third implementation to compare.
_COMPARED_KERNELS = ("reference", "fast")


class BenchParityError(RuntimeError):
    """The two kernels disagreed on a statistic — the bench result is void."""


@dataclass
class BenchCase:
    """One (workload, configuration) cell measured under both kernels."""

    name: str
    workload: str
    configuration: str
    description: str
    trace: object = field(repr=False)


def _simulator(system: SystemConfig, configuration: str) -> Simulator:
    return Simulator(
        system.build_hierarchy(),
        build_prefetchers(configuration, system),
        timing=TimingModel(system.timing),
        config=system,
        configuration_name=configuration,
    )


def _assert_prepared(case: BenchCase) -> None:
    """Assert a case's stream statistics work stays off the timed path.

    The kernels ask the trace for its columns; a stream that re-packed (or
    re-expanded its write bitset) per call would bill that preparation to
    whichever kernel ran first and skew every rate.  Likewise the footprint
    counters the bench does *not* time must be memoised, not recomputed.
    """

    columns = access_columns(case.trace)
    again = access_columns(case.trace)
    if (
        again.pcs is not columns.pcs
        or again.addresses is not columns.addresses
        or again.writes is not columns.writes
    ):
        raise BenchParityError(
            f"{case.name}: trace re-packs its columns per call — stream "
            f"preparation would leak into the timed region"
        )
    counter = getattr(case.trace, "write_count", None)
    if counter is not None:
        counter()
        if getattr(case.trace, "_write_count", 0) is None:
            raise BenchParityError(
                f"{case.name}: write_count is not memoised — footprint "
                f"statistics would recount on every inspection"
            )


def _measure(
    case: BenchCase,
    system: SystemConfig,
    kernel: str,
    repeats: int,
    warmup_fraction: float,
) -> tuple[float, dict]:
    """Best wall-time over ``repeats`` runs and the (identical) statistics."""

    best = None
    stats = None
    warmup = int(len(case.trace) * warmup_fraction)
    for _ in range(repeats):
        simulator = _simulator(system, case.configuration)
        started = time.perf_counter()
        result = run_simulation(
            simulator,
            case.trace,
            kernel=kernel,
            workload_name=case.workload,
            warmup_accesses=warmup,
        )
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        stats = asdict(result.stats)
    return best, stats


#: Miss-heavy synthetic workloads timed under Triangel, in case order.
_SYNTHETIC_WORKLOADS = ("xalan", "mcf", "graph500_s16")


def _bench_cases(length: int, trace_dir: Path) -> list[BenchCase]:
    """Build the benchmark streams (packing/recording is not timed)."""

    from repro.experiments.jobs import trace_for_workload
    from repro.traces.format import load_trace, pack_trace
    from repro.traces.recorder import record_workload

    cases = [
        BenchCase(
            name=f"synthetic-{workload}",
            workload=workload,
            configuration="triangel",
            description=(
                "fill/prefetch-heavy synthetic workload, packed at build "
                "time; end-to-end figure-generation rate"
            ),
            trace=pack_trace(
                trace_for_workload(workload, {"length": length}), name=workload
            ),
        )
        for workload in _SYNTHETIC_WORKLOADS
    ]
    repeats = max(2, length // _HOT_CHAIN_LINES)
    recorded_path = record_workload(
        "pointer_chase",
        directory=trace_dir,
        name="bench_hot",
        overrides={"nodes": _HOT_CHAIN_LINES, "repeats": repeats},
    )
    cases.append(
        BenchCase(
            name="replay-hot",
            workload="trace:bench_hot",
            configuration="triangel",
            description=(
                "recorded .rtrc pointer chase, L1-resident after warm-up; "
                "per-access engine overhead, the replay-rate ceiling"
            ),
            trace=load_trace(recorded_path),
        )
    )
    return cases


def _measure_sharded(
    case: BenchCase,
    system: SystemConfig,
    shards: int,
    repeats: int,
    warmup_fraction: float,
) -> tuple[float, dict, object]:
    """Critical-path wall time, merged statistics and the plan for one K.

    Every window is replayed on a fresh simulator and timed individually
    (best of ``repeats``); the critical path is the slowest window — what
    end-to-end wall time becomes once each window has an idle core.
    """

    warmup = int(len(case.trace) * warmup_fraction)
    plan = plan_shards(len(case.trace), warmup, shards, overlap="warmup")
    best: list[float | None] = [None] * plan.shard_count
    outcomes = []
    for _ in range(repeats):
        outcomes = []
        for window in plan.windows:
            simulator = _simulator(system, case.configuration)
            started = time.perf_counter()
            outcome = run_fast_window(
                simulator, case.trace, window, workload_name=case.workload
            )
            elapsed = time.perf_counter() - started
            if best[window.index] is None or elapsed < best[window.index]:
                best[window.index] = elapsed
            outcomes.append(outcome)
    merged = merge_shard_outcomes(outcomes)
    return max(best), asdict(merged), plan


def _best_of(action, repeats: int) -> float:
    """Best wall time of ``action()`` over ``repeats`` runs."""

    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _measure_trace_io(trace_dir: Path, repeats: int) -> dict:
    """Container I/O rates and sizes on the recorded ``bench_hot`` trace.

    Three load paths bracket the trace-I/O design space:

    * ``v1_gzip_full_load`` — the pre-v2 compressed spelling: decompress
      the whole payload, then columns are ready;
    * ``v2_full_load`` — decode every delta/varint chunk into columns;
    * ``v2_window_decode`` — a fresh open followed by one window's
      columns, touching only the chunks the window covers (the sharded /
      sampled access pattern v2 exists for).  The timed v2 copy is
      re-chunked at 4096 records — the bench trace fits inside one
      default 64Ki chunk, which would make the window decode degenerate
      to a full decode and measure nothing.

    Sizes are recorded per encoding with bytes-per-access, plus the
    headline ``v2_ratio_vs_v1`` compression ratio against the raw 16
    bytes-per-record v1 layout.
    """

    from repro.traces.format import load_trace, save_trace

    v2_path = trace_dir / "bench_hot.rtrc"  # written v2 by _bench_cases
    packed = load_trace(v2_path).materialise()
    accesses = len(packed)
    v1_path = save_trace(packed, trace_dir / "bench_hot_v1.rtrc", version=1)
    v1_gzip_path = save_trace(
        packed, trace_dir / "bench_hot_v1gz.rtrc.gz", version=1
    )
    v2_chunked_path = save_trace(
        packed, trace_dir / "bench_hot_c4k.rtrc", chunk_records=4096
    )
    sizes = {
        "v1": v1_path.stat().st_size,
        "v1_gzip": v1_gzip_path.stat().st_size,
        "v2": v2_path.stat().st_size,
    }
    window_records = min(accesses, 4096)
    window_start = (accesses - window_records) // 2
    timings = {
        "v1_gzip_full_load_seconds": _best_of(
            lambda: load_trace(v1_gzip_path).access_columns(), repeats
        ),
        "v2_full_load_seconds": _best_of(
            lambda: load_trace(v2_path).access_columns(), repeats
        ),
        "v2_window_decode_seconds": _best_of(
            lambda: load_trace(v2_chunked_path).window_columns(
                window_start, window_start + window_records
            ),
            repeats,
        ),
    }
    return {
        "trace": "bench_hot",
        "accesses": accesses,
        "window_records": window_records,
        "encodings": {
            name: {
                "bytes": size,
                "bytes_per_access": round(size / accesses, 3),
            }
            for name, size in sizes.items()
        },
        "v2_ratio_vs_v1": round(sizes["v1"] / sizes["v2"], 2),
        **{key: round(value, 6) for key, value in timings.items()},
    }


def run_bench(
    length: int = 44_000,
    repeats: int = 3,
    scale: float = 1.0,
    warmup_fraction: float = 0.25,
    shard_counts: tuple = (2, 4),
) -> dict:
    """Run every bench case under both kernels; return the JSON-safe record.

    Raises :class:`BenchParityError` if any case's statistics differ
    between kernels — speed numbers for diverging simulations would be
    meaningless, and the parity guarantee is the fast kernel's contract.
    The replay-hot case is additionally replayed sharded at every K in
    ``shard_counts`` (warm-up overlap), parity-gated against the sequential
    fast kernel's statistics.
    """

    if length <= 0:
        raise ValueError("--length must be positive")
    if repeats <= 0:
        raise ValueError("--repeats must be positive")
    system = SystemConfig.scaled(scale)
    record: dict = {
        "bench": "engine-kernels",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "length": length,
        "repeats": repeats,
        "kernels": list(_COMPARED_KERNELS),
        "cases": [],
    }
    sharded_source: tuple[BenchCase, float, dict] | None = None
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        for case in _bench_cases(length, Path(tmp)):
            _assert_prepared(case)
            timings: dict[str, float] = {}
            statistics: dict[str, dict] = {}
            for kernel in _COMPARED_KERNELS:
                timings[kernel], statistics[kernel] = _measure(
                    case, system, kernel, repeats, warmup_fraction
                )
            if statistics["reference"] != statistics["fast"]:
                diverging = sorted(
                    key
                    for key in statistics["reference"]
                    if statistics["reference"][key] != statistics["fast"][key]
                )
                raise BenchParityError(
                    f"{case.name}: kernels disagree on {diverging} — "
                    f"fast-kernel results are not trustworthy"
                )
            accesses = len(case.trace)
            reference_aps = accesses / timings["reference"]
            fast_aps = accesses / timings["fast"]
            record["cases"].append(
                {
                    "name": case.name,
                    "workload": case.workload,
                    "configuration": case.configuration,
                    "description": case.description,
                    "accesses": accesses,
                    "reference_seconds": round(timings["reference"], 6),
                    "fast_seconds": round(timings["fast"], 6),
                    "reference_accesses_per_second": round(reference_aps),
                    "fast_accesses_per_second": round(fast_aps),
                    "speedup": round(fast_aps / reference_aps, 2),
                    "parity": True,
                }
            )
            if case.name == "replay-hot":
                sharded_source = (case, timings["fast"], statistics["fast"])

        # Sharded replay scales the hot case: the gate is parity (wrong
        # merged statistics fail the bench), never speed (a loaded builder
        # must not).
        for shards in shard_counts:
            if sharded_source is None:
                break
            case, fast_time, fast_stats = sharded_source
            critical, merged, plan = _measure_sharded(
                case, system, shards, repeats, warmup_fraction
            )
            report = shard_parity_report(fast_stats, merged)
            if report["accesses"] != 0:
                raise BenchParityError(
                    f"{case.name} (K={shards}): merged access count differs "
                    f"from sequential replay by {report['accesses']:.0f}"
                )
            deviation, counter = max(
                (value, key) for key, value in report.items() if key != "accesses"
            )
            if deviation > SHARD_PARITY_TOLERANCE:
                raise BenchParityError(
                    f"{case.name} (K={shards}): {counter} deviates "
                    f"{deviation:.4f} from sequential replay (tolerance "
                    f"{SHARD_PARITY_TOLERANCE})"
                )
            accesses = len(case.trace)
            record["cases"].append(
                {
                    "name": f"replay-hot-sharded-k{shards}",
                    "workload": case.workload,
                    "configuration": case.configuration,
                    "description": (
                        f"replay-hot split into {plan.shard_count} windows "
                        f"(warm-up overlap); critical-path time = slowest "
                        f"window = end-to-end wall on ≥{plan.shard_count} "
                        f"idle cores"
                    ),
                    "accesses": accesses,
                    "shards": plan.shard_count,
                    "shard_overlap": "warmup",
                    "critical_path_seconds": round(critical, 6),
                    "critical_path_accesses_per_second": round(accesses / critical),
                    "speedup": round(fast_time / critical, 2),
                    "parity": True,
                    "max_parity_deviation": round(deviation, 6),
                }
            )

        # Trace-container I/O on the recorded hot trace: how much smaller
        # v2 is, and what full-load vs window-selective decode costs.
        record["trace_io"] = _measure_trace_io(Path(tmp), repeats)
    record["packed_trace_speedup"] = next(
        case["speedup"] for case in record["cases"] if case["name"] == "replay-hot"
    )
    return record


def render_bench(record: dict) -> str:
    """The bench record as the aligned text table the CLI prints."""

    kernel_cases = [case for case in record["cases"] if "shards" not in case]
    sharded_cases = [case for case in record["cases"] if "shards" in case]
    lines = [
        f"engine kernel benchmark ({record['python']}, "
        f"best of {record['repeats']}, parity-checked)",
        f"{'case':<24} {'config':<10} {'accesses':>9} "
        f"{'reference/s':>12} {'fast/s':>12} {'speedup':>8}",
    ]
    for case in kernel_cases:
        lines.append(
            f"{case['name']:<24} {case['configuration']:<10} "
            f"{case['accesses']:>9} "
            f"{case['reference_accesses_per_second']:>12,} "
            f"{case['fast_accesses_per_second']:>12,} "
            f"{case['speedup']:>7.2f}x"
        )
    if sharded_cases:
        lines.append(
            "sharded replay (critical path = slowest window; "
            "speedup vs sequential fast)"
        )
        lines.append(
            f"{'case':<22} {'shards':>6} {'accesses':>9} "
            f"{'critical/s':>12} {'speedup':>8} {'max dev':>9}"
        )
        for case in sharded_cases:
            lines.append(
                f"{case['name']:<22} {case['shards']:>6} "
                f"{case['accesses']:>9} "
                f"{case['critical_path_accesses_per_second']:>12,} "
                f"{case['speedup']:>7.2f}x "
                f"{case['max_parity_deviation']:>9.6f}"
            )
    trace_io = record.get("trace_io")
    if trace_io:
        lines.append(
            f"trace I/O ({trace_io['trace']}, {trace_io['accesses']} "
            f"accesses; v2 is {trace_io['v2_ratio_vs_v1']}x smaller than v1)"
        )
        lines.append(
            f"{'encoding':<10} {'bytes':>10} {'B/access':>9}   load path"
        )
        load_notes = {
            "v1": "raw columns (mmap, zero decode)",
            "v1_gzip": (
                f"full decompress "
                f"{trace_io['v1_gzip_full_load_seconds']:.4f}s"
            ),
            "v2": (
                f"full decode {trace_io['v2_full_load_seconds']:.4f}s, "
                f"window({trace_io['window_records']}, 4k chunks) "
                f"{trace_io['v2_window_decode_seconds']:.4f}s"
            ),
        }
        for name, encoding in sorted(trace_io["encodings"].items()):
            lines.append(
                f"{name:<10} {encoding['bytes']:>10,} "
                f"{encoding['bytes_per_access']:>9} "
                f"  {load_notes.get(name, '')}"
            )
    return "\n".join(lines)


def write_bench(record: dict, path: str | Path) -> Path:
    """Write the record as stable, diff-friendly JSON; returns the path."""

    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:  # pragma: no cover - thin CLI shim for tooling
    """Allow ``python -m repro.experiments.bench`` in scripts."""

    record = run_bench()
    print(render_bench(record))
    write_bench(record, BENCH_FILENAME)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
