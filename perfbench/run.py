"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload miss-heavy --seed 1 --seconds 20 --trace 0

The workloads (``miss-heavy``, ``hot-replay``, ``service-mixed``) and every
metric are described in ``BENCHMARK.json`` and ``perfbench/NOTES.md``.  The
simulator is imported from the checkout's own ``src/`` tree; nothing is
installed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a fuller report (the
manifest, failure reasons, sample counts) and, for traced runs, the span
log are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def unit_of(name: str) -> str:
    """A metric's unit, from its name's suffix."""

    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio") or name.startswith("sim_"):
        return "ratio"
    return "count"


def metrics_for(measurement, traced: bool) -> dict:
    """Every metric the run reports, by name."""

    if traced:
        return dict(measurement.layers)
    tally = measurement.tally
    return {
        **measurement.end_to_end(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # failed/attempted inverted, so that the metric is never zero
        "success_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def _import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {SRC}/repro")
    # The run is hermetic: no kernel, store, trace-path or telemetry
    # settings leak in from the environment.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    spec = _load_spec()
    workloads = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    _import_program()
    import workloads as bench
    from repro.experiments.jobs import code_version

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = bench.WORKLOADS[args.workload]
        if args.workload == "miss-heavy":
            measurement = run(args.seed, args.seconds, traced)
        else:
            measurement = run(args.seed, args.seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    computed = metrics_for(measurement, traced)
    names = [entry["name"] for entry in spec["per_layer" if traced else "end_to_end"]]
    missing = [name for name in names if not math.isfinite(computed.get(name, math.nan))]
    if missing:
        sys.exit(f"perfbench: {args.workload} produced no value for {missing}")
    metrics = {name: {"value": computed[name], "unit": unit_of(name)} for name in names}

    tally = measurement.tally
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    manifest = {
        "workload": args.workload,
        "why": workloads[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "python": platform.python_version(),
        "code_version": code_version(),
        "sizes": measurement.sizes,
        "samples": {
            "setups": len(measurement.setup_s),
            "passes": len(measurement.pass_walls),
            "warm_operations": sum(map(len, measurement.warm_ms)),
            "cold_operations": sum(map(len, measurement.cold_ms)),
        },
    }
    if measurement.tracer is not None:
        spans = OUT / f"{stem}.spans.jsonl"
        manifest["spans"] = {"file": spans.name, "count": measurement.tracer.write_spans(spans)}
    report = {
        "manifest": manifest,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "pass_walls_s": measurement.pass_walls,
        "setup_s": measurement.setup_s,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for reason in tally.reasons:
        print(f"perfbench: failure: {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
