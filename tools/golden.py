#!/usr/bin/env python3
"""Golden result fingerprints: every configuration × three miss-heavy workloads.

Kernel parity (``tests/test_kernel.py``) proves the fast kernel agrees with
the reference engine, but both share the memory model and the prefetchers,
so an optimisation there can change both sides at once and parity still
passes.  The golden file pins what the simulator computed when it was
generated: for every registered configuration on ``mcf``, ``xalan`` and
``graph500_s16`` at 3000 accesses it stores a digest of the canonical
``SimulationStats``, a digest of every internal counter (cache levels,
DRAM, each prefetcher and its tables), and a few headline metrics in clear
so a drift report is readable.

Usage::

    PYTHONPATH=src python tools/golden.py            # rewrite the file
    PYTHONPATH=src python tools/golden.py --check    # compare, exit 1 on drift

``tests/test_golden.py`` runs the same comparison in the test suite.  An
intended model change regenerates the file in the same change, and the
diff is quoted in CHANGES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "results.json"

WORKLOADS = ("mcf", "xalan", "graph500_s16")
ACCESSES = 3000
#: Headline metrics stored in clear next to the digests.
KEY_METRICS = (
    "cycles",
    "l2_demand_misses",
    "temporal_prefetches_issued",
    "temporal_prefetches_useful",
    "dram_accesses",
    "markov_accesses",
    "markov_final_ways",
)


def _trace_overrides(workload: str) -> dict:
    # Graph500's generator names its length ``max_accesses``.
    if workload.startswith("graph500"):
        return {"max_accesses": ACCESSES}
    return {"length": ACCESSES}


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _counters(obj) -> dict:
    """Every dataclass ``stats`` reachable from ``obj`` one attribute deep,
    plus the Markov table's lookup table when its format has one."""

    found = {}
    stats = getattr(obj, "stats", None)
    if dataclasses.is_dataclass(stats):
        found["stats"] = dataclasses.asdict(stats)
    for name, value in sorted(vars(obj).items()) if hasattr(obj, "__dict__") else ():
        inner = getattr(value, "stats", None)
        if name != "stats" and dataclasses.is_dataclass(inner):
            found[name] = dataclasses.asdict(inner)
    # The 32-bit formats' upper-bits lookup table hangs off the Markov table.
    markov_format = getattr(getattr(obj, "markov", None), "format", None)
    lookup_table = getattr(markov_format, "lookup_table", None)
    if lookup_table is not None:
        found["lookup_table"] = dataclasses.asdict(lookup_table.stats)
    return found


def fingerprint(workload: str, configuration: str) -> dict:
    """Run one cell exactly as ``jobs.execute_spec`` does; return its record."""

    from repro.experiments.jobs import RunSpec, _build_simulator, trace_for_workload
    from repro.sim.config import SystemConfig
    from repro.sim.kernel import run_simulation

    spec = RunSpec.create(
        workload, configuration, SystemConfig(), trace_overrides=_trace_overrides(workload)
    )
    trace = trace_for_workload(workload, spec.trace_overrides_dict())
    simulator = _build_simulator(spec)
    result = run_simulation(
        simulator,
        trace,
        kernel="fast",
        max_accesses=spec.max_accesses,
        workload_name=spec.workload,
        warmup_accesses=int(len(trace) * spec.warmup_fraction),
    )
    stats = dataclasses.asdict(result.stats)
    hierarchy = simulator.hierarchy
    internals = {
        "caches": {
            cache.name: dataclasses.asdict(cache.stats)
            for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3)
        },
        "dram": dataclasses.asdict(hierarchy.dram.stats),
        "hierarchy": dataclasses.asdict(hierarchy.stats),
        "prefetchers": [
            {"name": prefetcher.name, **_counters(prefetcher)}
            for prefetcher in simulator.prefetchers
        ],
    }
    return {
        "stats_digest": _digest(stats),
        "internals_digest": _digest(internals),
        "metrics": {name: stats[name] for name in KEY_METRICS},
    }


def compute() -> dict:
    from repro.experiments.configs import available_configurations

    return {
        f"{workload}/{configuration}": fingerprint(workload, configuration)
        for workload in WORKLOADS
        for configuration in available_configurations()
    }


def render(results: dict) -> str:
    document = {"accesses": ACCESSES, "workloads": list(WORKLOADS), "results": results}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    args = parser.parse_args(argv)
    text = render(compute())
    if not args.check:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(text)
        print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
        return 0
    if GOLDEN_PATH.read_text() == text:
        print("golden results unchanged")
        return 0
    expected = json.loads(GOLDEN_PATH.read_text())["results"]
    actual = json.loads(text)["results"]
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            print(f"drift: {key}: {expected.get(key)} -> {actual.get(key)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
