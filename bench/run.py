"""latnorm benchmark: one closed-loop client driving the CLI and the library.

Run from the repository root:

    python3 bench/run.py --workload net_cover --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

One process runs one workload (``all`` starts one child process per
workload, one after another). The next job starts when the previous one
returns. Set-up builds a pool of jobs from the seed; the run then makes
whole passes over the pool until ``--seconds`` have passed, checking every
job's output. ``setup_s`` is timed in fresh processes (see
``time_setups``). Job times are scaled by a speed probe (see
``jobs.probe``); the unscaled figures are printed too. The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run alternates an untraced and a traced pass over the pool
and reports per-layer metrics, including the tracing overhead. A line
starting with ``bench-env`` before it records the interpreter, numpy and
BLAS versions, the thread pins, the seed, the job counts and the unscaled
times.

The run reads and writes only inside the repository: it imports latnorm
from ``src/`` and writes documents, reports and spans under ``.bench_out/``.
"""

import argparse
import gc
import gzip
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP thread pools. numpy is imported only later, in
# run_workload, so the pins hold when its thread pools start.
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINS)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("net_cover", "finite_sets", "extension")
SETUP_REPEATS = 3  # fresh processes whose set-up time is measured
SETUP_PROBES = 5  # speed probes before and after each of them
MIN_JOBS = 110  # every pool holds this many, so ten jobs lie beyond job_p90_s

END_TO_END = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

# Per-layer statistics of the traced run, per pass over the pool.
_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "pairs": "count",
    "entries_per_s": "1/s",
    "witness_size": "count",
    "net_size": "count",
    "candidates": "count",
    "orbit_size": "count",
    "group_order": "count",
}
LAYERS = [
    ("fibered.defect", ["calls", "self_s", "pairs", "entries_per_s"]),
    ("fibered.is_utob", ["calls", "self_s", "witness_size"]),
    ("fibered.greedy_order", ["calls", "self_s"]),
    ("fibered.heine_borel_net", ["calls", "self_s", "net_size"]),
    ("mixing.cyclic_witness", ["calls", "self_s", "total_s", "candidates"]),
    ("mixing.verify_cyclic", ["calls", "self_s"]),
    ("relative.defect_chain", ["calls", "self_s", "total_s"]),
    ("relative.orbit_functions", ["calls", "self_s", "orbit_size"]),
    ("relative.kronecker_subspace", ["total_s"]),
    ("relative.theorem_cross_check", ["calls", "self_s", "total_s"]),
    ("systems.enumerate_group", ["calls", "self_s", "group_order"]),
    ("systems.RelModule.encode", ["calls", "self_s"]),
    ("seqmodel.build_counterexample", ["calls", "self_s"]),
    ("serialize.parse_finite_set_doc", ["self_s"]),
    ("serialize.parse_extension_doc", ["self_s"]),
    ("cli.main", ["calls", "self_s"]),
]
# Sizes are means over the calls that returned; the rest are sums.
_MEANS = {"witness_size", "net_size", "orbit_size", "group_order"}
TRACE_EXTRA = [
    ("cli.report_bytes", "B"),
    ("trace.untraced.job_p50_s", "s"),
    ("trace.traced.job_p50_s", "s"),
    ("trace.untraced.jobs_per_s", "1/s"),
    ("trace.traced.jobs_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]
PER_LAYER = [(f"{n}.{s}", _UNITS[s]) for n, stats in LAYERS for s in stats] + TRACE_EXTRA


class BenchError(Exception):
    """The benchmark cannot run here (for example, no latnorm sources)."""


def import_latnorm():
    """Import latnorm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "latnorm" / "__init__.py").is_file():
        raise BenchError(f"no latnorm sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    latnorm = importlib.import_module("latnorm")
    importlib.import_module("latnorm.cli")
    if not Path(latnorm.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"latnorm imported from {latnorm.__file__}, not {src}")
    return latnorm


def quantile(sorted_values, p):
    """Mean of the values ranked within 2% of the p-quantile: steadier than
    one order statistic, and +inf when a failed job falls in that window."""
    n = len(sorted_values)
    lo = max(0, math.ceil((p - 0.02) * n) - 1)
    hi = max(lo + 1, min(n, math.ceil((p + 0.02) * n)))
    return statistics.fmean(sorted_values[lo:hi])


def job_stats(outcomes, scaled=True):
    """Median and p90 job time (a failed job counts as +inf) and jobs that
    passed their check per second of job time; probe-scaled or raw."""
    t = [o.scaled if scaled else o.elapsed for o in outcomes]
    times = sorted(x if o.status == "ok" else math.inf for x, o in zip(t, outcomes))
    ok = sum(o.status == "ok" for o in outcomes)
    return quantile(times, 0.5), quantile(times, 0.9), ok / sum(t), ok


def run_pass(pool, latnorm, workdir, jobs_mod, rec=None):
    """One pass over the pool; a failure marks its job and the pass goes on.

    The speed probe runs between jobs. Each job's time is scaled by the
    median of the six probes around it, which follows the machine's speed
    over about a second while smoothing the noise of single probes."""
    outcomes, probes = [], [jobs_mod.probe()]
    for job in pool:
        if rec is not None:
            rec.job = job.jid
        outcome = jobs_mod.run_job(job, latnorm, workdir)
        gc.collect()  # untimed: every job starts from a collected heap
        probes.append(jobs_mod.probe())
        if outcome.status != "ok":
            print(f"job {job.jid} ({job.kind}, size {job.size}) {outcome.status}: "
                  f"{outcome.reason}", file=sys.stderr)
        outcomes.append(outcome)
    for i, outcome in enumerate(outcomes):
        local = statistics.median(probes[max(0, i - 2) : i + 4])
        outcome.scaled = outcome.elapsed * jobs_mod.REF_PROBE_S / local
    return outcomes


def environment(np, args, pool):
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pins": PINS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool_jobs": len(pool),
        "pool_kinds": sorted({j.kind for j in pool}),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def traced_metrics(rec, passes, untraced, traced):
    summary = rec.summary(passes)
    metrics = {}
    for name, stats in LAYERS:
        row = summary.get(name, {})
        returned = row.get("returned", 0.0)
        for stat in stats:
            if stat in _MEANS:
                value = row.get(stat, 0.0) / returned if returned else 0.0
            elif stat == "entries_per_s":
                value = row.get("entries", 0.0) / row["self_s"] if row.get("self_s") else 0.0
            else:
                value = row.get(stat, 0.0)
            metrics[f"{name}.{stat}"] = metric(value, _UNITS[stat])
    u50, _, u_rate, _ = job_stats(untraced)
    t50, _, t_rate, _ = job_stats(traced)
    overhead = sum(o.scaled for o in traced) / sum(o.scaled for o in untraced) - 1.0
    values = {
        "cli.report_bytes": sum(o.report_bytes for o in traced) / passes,
        "trace.untraced.job_p50_s": u50,
        "trace.traced.job_p50_s": t50,
        "trace.untraced.jobs_per_s": u_rate,
        "trace.traced.jobs_per_s": t_rate,
        "trace.overhead_ratio": overhead,
    }
    for name, unit in TRACE_EXTRA:
        metrics[name] = metric(values[name], unit)
    return metrics


def kind_breakdown(rec, pool, traced):
    """Per job kind: job time and each layer's share of it (self time)."""
    kind_of = {j.jid: j.kind for j in pool}
    job_time: dict = {}
    for job, o in zip(pool * (len(traced) // len(pool)), traced):
        job_time[job.kind] = job_time.get(job.kind, 0.0) + o.elapsed
    layer: dict = {}
    for (name, _, _, _, jid), s in zip(rec.spans, rec.self_times()):
        key = (kind_of.get(jid, "?"), name)
        layer[key] = layer.get(key, 0.0) + s
    out = {}
    for kind, total in sorted(job_time.items()):
        shares = {n: s / total for (k, n), s in layer.items() if k == kind}
        out[kind] = {
            "job_s": total,
            "shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        }
    return out


def write_trace(rec, breakdown, args):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with gzip.open(OUT_DIR / f"spans-{stem}.jsonl.gz", "wt", encoding="utf-8") as fh:
        for name, t0, t1, parent, jid in rec.spans:
            fh.write(json.dumps([name, t0, t1, parent, jid]) + "\n")
    with open(OUT_DIR / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(breakdown, fh, indent=2)
    for kind, row in breakdown.items():
        top = ", ".join(f"{n} {100 * s:.1f}%" for n, s in list(row["shares"].items())[:4])
        print(f"trace {args.workload}/{kind}: {row['job_s']:.3f} s of jobs; {top}", file=sys.stderr)


def warm_up_jobs(pool):
    """One warm-up job per job class: the class's first generated job, the
    smallest of the first kind listed for it. The choice does not depend on
    the seed's shuffle, so neither does the set-up's work."""
    warm = {}
    for job in sorted(pool, key=lambda j: j.jid):
        warm.setdefault(job.cls, job)
    return list(warm.values())


def set_up(args, latnorm, jobs_mod, workdir):
    """Make the pool, write its documents and run the untimed warm-up."""
    pool = jobs_mod.make_pool(args.workload, args.seed, args.tiny)
    jobs_mod.write_docs(pool, workdir)
    warm = run_pass(warm_up_jobs(pool), latnorm, workdir, jobs_mod)
    return pool, sum(o.status == "wrong" for o in warm)


def time_setups(args, jobs_mod):
    """Seconds from process start to the first timed job, for each of
    SETUP_REPEATS fresh processes that import latnorm, set up and stop there,
    with the median of the speed probes taken around each. A fresh process
    pays every cold-start cost a CLI user pays."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        around = [jobs_mod.probe() for _ in range(SETUP_PROBES)]
        t0 = time.monotonic()  # CLOCK_MONOTONIC: one clock for all processes
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=False, timeout=150)
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]) - t0)
        around += [jobs_mod.probe() for _ in range(SETUP_PROBES)]
        probes.append(statistics.median(around))
    return times, probes


def setup_only(args):
    """The set-up process of ``time_setups``: print the monotonic time at
    which the first timed job would start."""
    latnorm = import_latnorm()
    jobs = importlib.import_module("jobs")
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        set_up(args, latnorm, jobs, workdir)
        print(time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_workload(args):
    latnorm = import_latnorm()
    np = importlib.import_module("numpy")
    jobs = importlib.import_module("jobs")
    spans = importlib.import_module("spans")

    setups, setup_probes = time_setups(args, jobs)
    setup_raw = statistics.median(setups)
    setup_s = statistics.median(t * jobs.REF_PROBE_S / p for t, p in zip(setups, setup_probes))

    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        pool, wrong = set_up(args, latnorm, jobs, workdir)
        # Whole passes, so that every run times the same job mix and the
        # traced run's per-pass counts are exact. The traced run follows
        # each untraced pass with a traced one.
        rec = spans.Recorder() if args.trace else None
        untraced, traced, passes = [], [], 0
        t_run = time.perf_counter()
        while passes == 0 or time.perf_counter() - t_run < args.seconds:
            untraced += run_pass(pool, latnorm, workdir, jobs)
            if rec is not None:
                rec.install()
                try:
                    traced += run_pass(pool, latnorm, workdir, jobs, rec)
                finally:
                    rec.uninstall()
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = untraced + traced
    if rec is not None:
        metrics = traced_metrics(rec, passes, untraced, traced)
        write_trace(rec, kind_breakdown(rec, pool, traced), args)
    else:
        p50, p90, rate, ok = job_stats(outcomes)
        values = {
            "setup_s": setup_s,
            "job_p50_s": p50,
            "job_p90_s": p90,
            "jobs_per_s": rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": ok / len(outcomes),
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}

    failed = sum(o.status != "ok" for o in outcomes)
    wrong += sum(o.status == "wrong" for o in outcomes)
    env = environment(np, args, pool)
    raw_p50, raw_p90, raw_rate, _ = job_stats(outcomes, scaled=False)
    env.update(passes=passes, attempted=len(outcomes), failed=failed, wrong=wrong,
               failed_ratio=failed / len(outcomes), setup_runs=setups,
               probe_s=statistics.median(setup_probes), ref_probe_s=jobs.REF_PROBE_S,
               raw={"setup_s": setup_raw, "job_p50_s": raw_p50, "job_p90_s": raw_p90,
                    "jobs_per_s": raw_rate})
    print("bench-env " + json.dumps(env))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """One child process per workload, one after another; the last line
    merges their results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        for key, m in result["metrics"].items():
            print(f"{name:12s} {key:40s} {m['value']:.6g} {m['unit']}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # --tiny shrinks every pool for the benchmark's own tests; --setup-only
    # is the set-up process started by time_setups.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_only:
            return setup_only(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
