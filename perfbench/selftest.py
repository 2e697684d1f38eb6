"""Self-test of the benchmark at toy size (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, emits every metric that
  ``BENCHMARK.json`` names, finite and with the unit it declares (and every
  end-to-end metric non-zero);
* an injected statistics mismatch is counted as a failed operation (the run
  reports ``correct: false``) rather than turned into a rate;
* ``run.py`` exits non-zero, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and ``perfbench/``.

Exits non-zero on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TOY = dataclasses.replace(
    workloads.FULL,
    miss_setup_repeats=2,
    hot_setup_repeats=2,
    parity_length=600,
    miss_length=1500,
    hot_repeats=300,
    service_warm_length=400,
    service_cold_lengths=(300, 350),
    service_warm_requests=6,
)


def fail(message: str) -> None:
    sys.exit(f"selftest: FAIL: {message}")


def run_workload(name: str, traced: bool, work: Path):
    function = workloads.WORKLOADS[name]
    if name == "miss-heavy":
        return function(3, 0.01, traced, sizes=TOY)
    return function(3, 0.01, traced, work, sizes=TOY)


def check_metrics(spec: dict, work: Path) -> None:
    for name in ("miss-heavy", "hot-replay", "service-mixed"):
        for traced in (False, True):
            measurement = run_workload(name, traced, work)
            if measurement.tally.failed:
                fail(f"{name} failed at toy size: {measurement.tally.reasons}")
            computed = run.metrics_for(measurement, traced)
            declared = spec["per_layer" if traced else "end_to_end"]
            for entry in declared:
                value = computed.get(entry["name"])
                if value is None or not math.isfinite(value):
                    fail(f"{name} (trace {int(traced)}) emits no {entry['name']}")
                if run.unit_of(entry["name"]) != entry["unit"]:
                    fail(f"{entry['name']} is emitted in {run.unit_of(entry['name'])}, "
                         f"declared in {entry['unit']}")
                if not traced and value <= 0:
                    fail(f"{name}: end-to-end {entry['name']} is {value}")
            extra = set(computed) - {entry["name"] for entry in declared}
            if extra:
                fail(f"{name} (trace {int(traced)}) emits undeclared {sorted(extra)}")
            print(f"selftest: {name} trace={int(traced)}: {len(declared)} metrics ok")


def check_injected_mismatch() -> None:
    from repro.experiments import jobs

    original = jobs.execute
    calls = {"n": 0}
    specs = 10  # miss-heavy runs nine single-core specs and one multiprogram

    def perturbed(spec, kernel=None):
        result = original(spec, kernel=kernel)
        calls["n"] += 1
        # parity gate (2 per spec), cold pass (1 per spec), then the warm
        # pass: corrupt the first warm single-core result.
        if calls["n"] == 3 * specs + 1:
            result.cycles += 1.0
        return result

    jobs.execute = perturbed
    try:
        measurement = run_workload("miss-heavy", False, None)
    finally:
        jobs.execute = original
    tally = measurement.tally
    if tally.failed != 1:
        fail(f"an injected mismatch gave {tally.failed} failures, expected 1")
    ratio = run.metrics_for(measurement, False)["success_ratio"]
    if not ratio < 1.0:
        fail(f"an injected mismatch left success_ratio at {ratio}")
    print(f"selftest: injected mismatch counted: {tally.failed} of {tally.attempted} failed")


def check_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    if done.returncode == 0 or done.stdout.strip():
        fail(f"run.py in a bare directory exited {done.returncode}: {done.stdout!r}")
    print("selftest: bare directory refused: " + done.stderr.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run._import_program()
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        check_metrics(spec, work)
        check_injected_mismatch()
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
