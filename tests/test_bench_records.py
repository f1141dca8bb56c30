"""The benchmark records at the repository root (``BENCH_*.json``) parse and
speak the benchmark's own terms: every workload and end-to-end metric they
name is declared in ``BENCHMARK.json``, with the declared unit. Read-only."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return workloads, units


def test_records_exist():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_declared_workloads_and_metrics(path):
    workloads, units = _declared()
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record.get("method"), str) and record["method"]
    claim = record.get("claim")
    if claim is not None:
        assert claim["workload"] in workloads and claim["metric"] in units, claim
    results = record["results"]
    assert results and set(results) <= workloads, set(results) - workloads
    for workload, metrics in results.items():
        assert metrics and set(metrics) <= set(units), (workload, set(metrics) - set(units))
        for name, entry in metrics.items():
            assert entry["unit"] == units[name], (workload, name)
            for side in ("before", "after"):
                value = entry[side]
                assert isinstance(value, (int, float)) and math.isfinite(value), (
                    workload, name, side,
                )
