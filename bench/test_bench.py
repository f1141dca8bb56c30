"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

import jobs
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("bench-env ")
    return json.loads(lines[-2][len("bench-env "):]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    env, result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])
    assert env["seed"] == 3 and env["pins"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["attempted"] == result["attempted"]


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == jobs.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pools_are_seeded_and_large_enough(workload):
    a, b, c = (jobs.make_pool(workload, s) for s in (5, 5, 6))
    assert len(a) >= run.MIN_JOBS
    assert [(j.kind, j.size, j.argv) for j in a] == [(j.kind, j.size, j.argv) for j in b]
    inputs = [pickle.dumps([(j.doc, j.payload) for j in pool]) for pool in (a, b, c)]
    assert inputs[0] == inputs[1]
    assert inputs[0] != inputs[2]


def _report(job, tmp_path):
    """Run one tiny job through latnorm and return its parsed report."""
    latnorm = run.import_latnorm()
    if job.argv is None:
        return jobs._net_verify(latnorm, job)[1]
    doc, out = tmp_path / "doc.json", tmp_path / "out.json"
    if job.doc is not None:
        doc.write_text(json.dumps(job.doc))
    assert latnorm.cli.main(job.cli_args(doc, out)) == 0
    return json.loads(out.read_text())


def _job(workload, kind):
    return next(j for j in jobs.make_pool(workload, 1, tiny=True) if j.kind == kind)


def _corrupted(job, report, corrupt):
    assert jobs.check(job, report) is None
    bad = copy.deepcopy(report)
    corrupt(bad)
    return jobs.check(job, bad)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_warm_up_does_not_depend_on_the_shuffle(workload):
    chosen = [[(j.jid, j.cls, j.kind) for j in run.warm_up_jobs(jobs.make_pool(workload, s))]
              for s in (5, 6)]
    assert chosen[0] == chosen[1]
    assert len(chosen[0]) == len({cls for _, cls, _ in chosen[0]})


def test_net_check_rejects_a_defect_above_eps(tmp_path):
    job = _job("net_cover", "eps0.25")
    report = _report(job, tmp_path)

    def corrupt(r):
        r["defect"][0] = job.payload["eps"] + 1e-6

    assert _corrupted(job, report, corrupt)


def test_extension_check_rejects_a_subspace_distance_of_one(tmp_path):
    job = _job("extension", "rotation")
    report = _report(job, tmp_path)

    def corrupt(r):
        r["cross_check"]["subspace_distances"]["fm_ap"] = 1.0

    assert _corrupted(job, report, corrupt)


def test_finite_set_checks_reject_wrong_answers(tmp_path):
    tob = _job("finite_sets", "tob")
    eps = str(tob.payload["eps"][0])

    def utob_defect(r):
        r["utob"][eps]["defect"]["value"][0] = float(eps) + 1e-6

    assert _corrupted(tob, _report(tob, tmp_path), utob_defect)

    cyc = _job("finite_sets", "cyclic")
    eps = str(cyc.payload["eps"][0])

    def far_witness(r):
        for part in r["results"][eps]["witness"]["parts"]:
            part["set"] = [[[100.0] * len(f) for f in el] for el in part["set"]]

    assert _corrupted(cyc, _report(cyc, tmp_path), far_witness)

    cex = _job("finite_sets", "counterexample")

    def table_entry(r):
        r["defect_table"][0][0] = 0.5

    assert _corrupted(cex, _report(cex, tmp_path), table_entry)


def test_exit_codes_and_raises_classify_jobs(tmp_path, monkeypatch):
    latnorm = run.import_latnorm()
    job = _job("extension", "random")
    jobs.write_docs([job], tmp_path)

    def fake_main(rc):
        def main(argv):
            if rc is None:
                raise ValueError("boom")
            (tmp_path / "out.json").write_text("{}")
            return rc
        return main

    for rc, status in ((0, "wrong"), (1, "wrong"), (3, "failed"), (None, "failed")):
        monkeypatch.setattr(latnorm.cli, "main", fake_main(rc))
        assert jobs.run_job(job, latnorm, tmp_path).status == status


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "net_cover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no latnorm sources" in proc.stderr
