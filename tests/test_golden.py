"""Golden result fingerprints: the simulator still computes what it did.

``tests/golden/results.json`` holds, for every registered configuration on
``mcf``, ``xalan`` and ``graph500_s16`` at 3000 accesses, a digest of the
run's statistics and of every internal counter (see ``tools/golden.py``).
Performance work must leave every entry unchanged; an intended model change
regenerates the file with ``PYTHONPATH=src python tools/golden.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.configs import available_configurations

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("golden_tool", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = _load_tool()
EXPECTED = json.loads(GOLDEN.GOLDEN_PATH.read_text())


def test_golden_covers_every_configuration_and_workload():
    expected_keys = {
        f"{workload}/{configuration}"
        for workload in GOLDEN.WORKLOADS
        for configuration in available_configurations()
    }
    assert set(EXPECTED["results"]) == expected_keys
    assert EXPECTED["accesses"] == GOLDEN.ACCESSES


@pytest.mark.parametrize("workload", GOLDEN.WORKLOADS)
def test_results_match_golden(workload):
    drift = []
    for configuration in available_configurations():
        key = f"{workload}/{configuration}"
        actual = GOLDEN.fingerprint(workload, configuration)
        if actual != EXPECTED["results"][key]:
            drift.append(f"{key}: {EXPECTED['results'][key]} -> {actual}")
    assert not drift, "golden drift:\n" + "\n".join(drift)
