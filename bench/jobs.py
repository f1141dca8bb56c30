"""Job pools, job execution and output checks for the latnorm benchmark.

A pool is the fixed list of jobs one run passes through. Every input is made
here from the workload seed, with numpy only: no latnorm module is used to
generate inputs, so a change to ``latnorm.fixtures`` or ``latnorm.serialize``
cannot shift a workload. Library jobs build latnorm objects directly from the
generated arrays.

Sizes are stratified: a kind with ``count`` jobs takes one size from each of
``count`` equal slices of a skewed law ``lo + (hi - lo) * u**power``, drawn by
the seed from the middle of its slice. Every pool therefore has the same shape (most
jobs small, about a tenth large) while the numbers inside it change with the
seed, which keeps medians and tails comparable from seed to seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

# Per-workload pool tables: (kind, count, lo, hi, power). The size is the
# sample count (net_cover), |M| or the prefix length (finite_sets) or the
# point count of a rotation (extension); the random and symmetric extension kinds ignore it and take their shapes in turn.
POOLS = {
    "net_cover": [
        ("eps0.5", 76, 10, 80, 2.0),
        ("eps0.35", 60, 10, 80, 2.0),
        ("eps0.25", 14, 10, 80, 2.0),
    ],
    "finite_sets": [
        ("tob", 60, 40, 200, 2.0),
        ("cyclic", 30, 30, 80, 2.0),
        ("counterexample", 30, 12, 24, 3.0),
    ],
    "extension": [
        ("random", 100, 1, 3, 1.0),
        ("rotation", 10, 16, 48, 3.0),
        ("symmetric", 7, 0, 0, 1.0),
        ("symmetric_s9", 1, 0, 0, 1.0),
    ],
}

# The same kinds at sizes small enough for the benchmark's own tests.
TINY_POOLS = {
    "net_cover": [("eps0.5", 1, 4, 6, 1.0), ("eps0.25", 1, 4, 6, 1.0)],
    "finite_sets": [
        ("tob", 1, 6, 8, 1.0),
        ("cyclic", 1, 6, 8, 1.0),
        ("counterexample", 1, 5, 6, 1.0),
    ],
    "extension": [
        ("random", 2, 1, 2, 1.0),
        ("rotation", 1, 4, 6, 1.0),
        ("symmetric", 1, 0, 0, 1.0),
    ],
}

WORKLOADS = tuple(POOLS)

# (k, q) pairs of the symmetric kind, in stratum order: S_k acting by a
# k-cycle and a transposition on each of q fibers over a static base.
SYMMETRIC = [(5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3), (7, 1)]
TINY_SYMMETRIC = [(4, 1)]

NET_TOL = 1e-9  # defect(samples, net) <= eps + NET_TOL
SUBSPACE_TOL = 1e-7  # three-subspace distances of the cross-check
CLI_TOL = 1e-9  # the default --tol of the CLI


@dataclass
class Job:
    """One unit of client work: a CLI invocation or a library verification."""

    jid: int
    cls: str  # CLI subcommand, or "net" for the library job
    kind: str  # finer label used by the traced run's breakdown
    size: int
    argv: list[str] | None = None  # CLI arguments; the document path is "{doc}"
    doc: dict | None = None  # JSON document written to disk during set-up
    payload: dict = field(default_factory=dict)  # what the check needs

    def cli_args(self, doc_path: Path, out_path: Path) -> list[str]:
        args = [str(doc_path) if a == "{doc}" else a for a in self.argv]
        return args + ["--out", str(out_path)]


@dataclass
class Outcome:
    elapsed: float  # wall seconds of the call into latnorm
    status: str  # "ok", "failed" (no answer) or "wrong" (a wrong answer)
    reason: str = ""
    report_bytes: int = 0
    scaled: float = 0.0  # elapsed, scaled to the reference probe speed


# ---------------------------------------------------------------------------
# input generation


def strata(rng, count, lo, hi, power):
    """One size per slice of the law lo + (hi - lo) * u**power, drawn from
    the middle fifth of the slice so that pools of different seeds keep
    the same shape."""
    u = (np.arange(count) + 0.4 + 0.2 * rng.random(count)) / count
    return [int(v) for v in np.rint(lo + (hi - lo) * u**power)]


def _cnormal(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _uneven_dims(rng, n_points, lo, hi):
    """Fiber dimensions in lo..hi that always include both ends."""
    dims = rng.integers(lo, hi + 1, size=n_points)
    ends = rng.choice(n_points, size=2, replace=False)
    dims[ends[0]], dims[ends[1]] = lo, hi
    return [int(d) for d in dims]


def _encode(stacks, n):
    """Finite-set elements as JSON: element -> fiber -> [re, im] entries."""
    fibers = [np.stack((s.real, s.imag), axis=-1).tolist() for s in stacks]
    return [[f[i] for f in fibers] for i in range(n)]


def _finite_set_doc(dims, sets):
    return {
        "space": {"points": [f"w{i}" for i in range(len(dims))], "dims": dims},
        "sets": {name: _encode(stacks, n) for name, (stacks, n) in sets.items()},
    }


def _net_jobs(rng, kind, sizes, start):
    """net_cover: an eps-net of the unit ball of a rank-2 suborthonormal
    basis on a 2-point space with dims (2, 3) whose second fiber drops to
    rank 1, probed by in-ball samples."""
    eps = float(kind[3:])
    dims = (2, 3)
    jobs = []
    for i, n_samples in enumerate(sizes):
        basis = []
        for w, dim in enumerate(dims):
            q, _ = np.linalg.qr(_cnormal(rng, (dim, 2)))
            b = np.zeros((2, dim), dtype=complex)
            rank = 2 if w == 0 else 1
            b[:rank] = q.T[:rank]
            basis.append(b)
        samples = []
        for w, dim in enumerate(dims):
            rank = 2 if w == 0 else 1
            lam = np.zeros((n_samples, 2), dtype=complex)
            lam[:, :rank] = _cnormal(rng, (n_samples, rank))
            nrm = np.linalg.norm(lam, axis=1, keepdims=True)
            lam = lam / nrm * rng.random((n_samples, 1))
            samples.append(lam @ basis[w])
        jobs.append(
            Job(
                start + i, "net", kind, n_samples,
                payload={"eps": eps, "dims": dims, "basis": basis, "samples": samples},
            )
        )
    return jobs


def _tob_jobs(rng, sizes, start):
    jobs = []
    for i, n in enumerate(sizes):
        dims = _uneven_dims(rng, 8, 1, 6)
        stacks = [_cnormal(rng, (n, d)) for d in dims]
        eps = sorted(rng.choice([0.5, 0.35, 0.25, 0.1], size=2, replace=False), reverse=True)
        argv = ["tob", "{doc}"]
        for e in eps:
            argv += ["--eps", str(e)]
        jobs.append(
            Job(start + i, "tob", "tob", n, argv, _finite_set_doc(dims, {"M": (stacks, n)}),
                {"eps": [float(e) for e in eps], "n": n})
        )
    return jobs


def _cyclic_jobs(rng, sizes, start):
    jobs = []
    for i, n in enumerate(sizes):
        dims = _uneven_dims(rng, 8, 1, 6)
        stacks = [_cnormal(rng, (n, d)) for d in dims]
        n_eps = 2 if i % 3 == 2 else 1
        eps = sorted(rng.choice([0.5, 0.35, 0.25], size=n_eps, replace=False), reverse=True)
        argv = ["cyclic", "{doc}"]
        for e in eps:
            argv += ["--eps", str(e)]
        jobs.append(
            Job(start + i, "cyclic", "cyclic", n, argv, _finite_set_doc(dims, {"M": (stacks, n)}),
                {"eps": [float(e) for e in eps], "stacks": stacks})
        )
    return jobs


def _counterexample_jobs(rng, sizes, start):
    return [
        Job(start + i, "counterexample", "counterexample", n,
            ["counterexample", "--n", str(n), "--delta", "0.05"], None, {"n": n, "delta": 0.05})
        for i, n in enumerate(sizes)
    ]


def _relabel(rng, space_w, gens, base_w, base_gens, factor):
    """Extension document with its upstairs points in a random order."""
    n = len(space_w)
    pi = rng.permutation(n)  # point i is stored at index pi[i]
    inv = np.argsort(pi)
    weights = np.empty(n)
    weights[pi] = space_w
    fmap = np.empty(n, dtype=int)
    fmap[pi] = factor
    new_gens = [pi[np.asarray(g)[inv]].tolist() for g in gens]
    return {
        "space": {"points": [f"x{i}" for i in range(n)], "weights": weights.tolist()},
        "generators": new_gens,
        "factor": {
            "base_space": {
                "points": [f"y{j}" for j in range(len(base_w))],
                "weights": [float(v) for v in base_w],
            },
            "map": fmap.tolist(),
            "base_generators": [list(map(int, g)) for g in base_gens],
        },
    }


def _random_weights(rng, q):
    w = rng.uniform(0.2, 1.0, size=q)
    return w / np.sum(w)


def _cycle(rng, k):
    """A k-cycle through 0..k-1 in a random order."""
    order = rng.permutation(k)
    perm = np.empty(k, dtype=int)
    perm[order] = np.roll(order, -1)
    return perm


def _swap(rng, k):
    """A random transposition of 0..k-1 (the identity when k == 1)."""
    perm = np.arange(k)
    if k > 1:
        a, b = rng.choice(k, size=2, replace=False)
        perm[a], perm[b] = b, a
    return perm


def _skew_product(rng, q, k):
    """Uniform skew product with one generator: tau(y, i) = (sigma(y), rho_y(i))
    with sigma a q-cycle and every rho_y a k-cycle, in random orders."""
    sigma = _cycle(rng, q)
    tau = np.empty(q * k, dtype=int)
    for y in range(q):
        tau[y * k + np.arange(k)] = sigma[y] * k + _cycle(rng, k)
    gens, base_gens = [tau], [sigma]
    factor = np.repeat(np.arange(q), k)
    return np.full(q * k, 1.0 / (q * k)), gens, np.full(q, 1.0 / q), base_gens, factor


def _static_base(rng, q, k, n_gens):
    """Identity downstairs with weighted base points. The generators permute
    the k points of every fiber among themselves: a k-cycle, then a
    transposition, each drawn per fiber."""
    base_w = _random_weights(rng, q)
    factor = np.repeat(np.arange(q), k)
    gens = []
    for g in range(n_gens):
        tau = np.empty(q * k, dtype=int)
        for y in range(q):
            idx = y * k + np.arange(k)
            tau[idx] = idx[_swap(rng, k) if g else _cycle(rng, k)]
        gens.append(tau)
    return (base_w / k)[factor], gens, base_w, [np.arange(q)] * n_gens, factor


def _rotation(n, n_base=2):
    factor = np.arange(n) % n_base
    return (
        np.full(n, 1.0 / n), [(np.arange(n) + 1) % n],
        np.full(n_base, 1.0 / n_base), [(np.arange(n_base) + 1) % n_base], factor,
    )


def _symmetric(rng, k, q):
    """S_k acting diagonally on q fibers of k points over a static base."""
    base_w = _random_weights(rng, q)
    factor = np.repeat(np.arange(q), k)
    cycle = np.concatenate([y * k + (np.arange(k) + 1) % k for y in range(q)])
    swap = np.arange(q * k)
    swap[0::k], swap[1::k] = np.arange(q) * k + 1, np.arange(q) * k
    return (base_w / k)[factor], [cycle, swap], base_w, [np.arange(q)] * 2, factor


def _extension_jobs(rng, kind, sizes, start, symmetric):
    jobs = []
    for i, size in enumerate(sizes):
        if kind == "random":
            # every shape in turn: base size, fiber size, skew or static
            q, k = 1 + i % 3, 1 + i // 3 % 3
            if i // 9 % 2 == 0:
                parts = _skew_product(rng, q, k)
            else:
                parts = _static_base(rng, q, k, n_gens=1 + i // 18 % 2)
            size = len(parts[0])
        elif kind == "rotation":
            size = 2 * max(2, round(size / 2))
            parts = _rotation(size)
        else:
            k, q = (9, 1) if kind == "symmetric_s9" else symmetric[i]
            parts = _symmetric(rng, k, q)
            size = k * q
        jobs.append(
            Job(start + i, "analyze", kind, size, ["analyze", "{doc}"], _relabel(rng, *parts), {})
        )
    return jobs


def make_pool(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The run's jobs for a workload, in a seed-shuffled order.

    The order is shuffled so that consecutive jobs mix kinds and sizes; the
    traced breakdown groups jobs back by kind.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    table = (TINY_POOLS if tiny else POOLS)[workload]
    jobs: list[Job] = []
    for kind, count, lo, hi, power in table:
        sizes = strata(rng, count, lo, hi, power)
        start = len(jobs)
        if workload == "net_cover":
            jobs += _net_jobs(rng, kind, sizes, start)
        elif kind == "tob":
            jobs += _tob_jobs(rng, sizes, start)
        elif kind == "cyclic":
            jobs += _cyclic_jobs(rng, sizes, start)
        elif kind == "counterexample":
            jobs += _counterexample_jobs(rng, sizes, start)
        else:
            jobs += _extension_jobs(rng, kind, sizes, start, TINY_SYMMETRIC if tiny else SYMMETRIC)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def write_docs(pool: list[Job], workdir: Path) -> None:
    """Write each job's document, then drop it from memory so that it
    neither counts in the peak RSS nor slows the garbage collector."""
    workdir.mkdir(parents=True, exist_ok=True)
    for job in pool:
        if job.doc is not None:
            (workdir / f"job{job.jid}.json").write_text(json.dumps(job.doc), encoding="utf-8")
            job.doc = None


# ---------------------------------------------------------------------------
# execution

# The speed probe: a fixed mix of small complex-array operations and
# interpreter work, the two kinds of work latnorm jobs consist of. On a
# shared machine the speed of the processor drifts by tens of percent over
# seconds to minutes; a job's time multiplied by REF_PROBE_S / probe() is
# its time at the speed at which the probe takes REF_PROBE_S.
REF_PROBE_S = 1e-3
_PROBE_X = np.exp(1j * np.arange(48 * 6).reshape(48, 6))


def probe() -> float:
    """Seconds the speed probe takes now: the best of three runs."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(24):
            diff = _PROBE_X[:, None, :] - _PROBE_X[None, k : k + 8, :]
            acc += float(np.sqrt(np.sum(diff.real**2 + diff.imag**2, axis=2)).min(axis=1).max())
            acc += sum(i * 0.5 for i in range(60))
        best = min(best, time.perf_counter() - t0)
    return best


def run_job(job: Job, latnorm, workdir: Path) -> Outcome:
    """Run one job, timing only the call into latnorm, then check it.

    A raised exception or a nonzero exit other than a verdict failure means
    no answer ("failed"); exit 1 (a failed verdict on inputs whose verdict is
    known to hold) or a failed output check means a wrong answer ("wrong").
    """
    out = workdir / "out.json"
    report: Any = None
    if job.argv is not None:
        argv = job.cli_args(workdir / f"job{job.jid}.json", out)
        out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        if job.argv is None:
            rc, report = _net_verify(latnorm, job)
        else:
            try:
                rc = latnorm.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any raise is a failed job; the run goes on
        return Outcome(time.perf_counter() - t0, "failed", f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if rc == 1:
        return Outcome(elapsed, "wrong", "exit 1: verdict failed")
    if rc != 0:
        return Outcome(elapsed, "failed", f"exit {rc}")
    size = 0
    try:
        if job.argv is not None:
            size = out.stat().st_size
            report = json.loads(out.read_text(encoding="utf-8"))
        reason = check(job, report)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        reason = f"malformed report: {type(exc).__name__}: {exc}"
    return Outcome(elapsed, "wrong" if reason else "ok", reason or "", size)


def _net_verify(latnorm, job: Job):
    """The library job: build the net, then the defect of the samples."""
    p = job.payload
    fibered = latnorm.fibered
    space = fibered.FiberSpace(latnorm.stone.PointSet.of_size(2), p["dims"])
    basis = fibered.FiniteSet(space, p["basis"], 2)
    samples = fibered.FiniteSet(space, p["samples"], job.size)
    net = fibered.heine_borel_net(basis, 1.0, p["eps"])
    rep = fibered.defect(samples, net)
    return 0, {"defect": rep.value.values.tolist(), "net_size": len(net)}


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def check(job: Job, report: dict) -> str | None:
    return CHECKS[job.cls](job, report)


def _check_net(job, report):
    worst = max(report["defect"])
    if not worst <= job.payload["eps"] + NET_TOL:
        return f"defect {worst} above eps {job.payload['eps']}"
    return None


def _check_tob(job, report):
    for eps in job.payload["eps"]:
        r = report["utob"].get(str(eps))
        if r is None or r["verdict"] is not True:
            return f"no utob verdict at eps {eps}"
        if not 1 <= r["witness_size"] <= job.payload["n"]:
            return f"witness size {r['witness_size']} out of range"
        if not max(r["defect"]["value"]) <= eps + CLI_TOL:
            return f"utob defect above eps {eps}"
    return None


def _check_cyclic(job, report):
    """Recheck each witness part independently: on its points, every element
    of M lies within eps of the part's set."""
    stacks = job.payload["stacks"]
    for eps in job.payload["eps"]:
        r = report["results"].get(str(eps))
        if r is None or r["verified"] is not True:
            return f"cyclic witness not verified at eps {eps}"
        masks = np.array([p["mask"] for p in r["witness"]["parts"]], dtype=bool)
        if not np.array_equal(masks.sum(axis=0), np.ones(len(stacks))):
            return f"witness parts are not a partition at eps {eps}"
        for part, mask in zip(r["witness"]["parts"], masks):
            for w in np.nonzero(mask)[0]:
                cand = np.array([[complex(z) for z in el[w]] for el in part["set"]])
                cand = cand.reshape(len(part["set"]), stacks[w].shape[1])
                diff = stacks[w][:, None, :] - cand[None, :, :]
                dist = np.sqrt(np.sum(np.abs(diff) ** 2, axis=2)).min(axis=1).max()
                if not dist <= eps + CLI_TOL:
                    return f"cyclic part misses M by {dist} > eps {eps} at point {w}"
    return None


def _check_counterexample(job, report):
    """Closed form: against F_m the defect is 1 at coordinates k > m and 0
    at k <= m and on the tail; the budget keeps coordinates 1..m0 with
    2^-m0 <= delta and removes exactly 2^-m0 of mass."""
    n, delta = job.payload["n"], job.payload["delta"]
    table = np.asarray(report["defect_table"], dtype=float)
    k = np.arange(1, n + 2)[:, None]
    m = np.arange(1, n + 1)[None, :]
    expected = ((k > m) & (k <= n)).astype(float)
    if table.shape != expected.shape or not np.allclose(table, expected, atol=1e-12):
        return "defect table differs from the closed form"
    m0 = math.ceil(math.log2(1 / delta))
    demo = report["egoroff"][str(delta)]
    if demo["m"] != m0 or abs(demo["removed_mass"] - 2.0**-m0) > 1e-12:
        return "egoroff cut differs from the closed form"
    if demo["max_defect_on_kept"] != 0.0:
        return "egoroff witness has a nonzero defect on the kept part"
    return None


def _check_analyze(job, report):
    cross = report["cross_check"]
    if report["validation"]["valid"] is not True:
        return "extension reported invalid"
    if report["discrete_spectrum"] is not True:
        return "discrete spectrum not found"
    worst = max(cross["subspace_distances"].values())
    if not worst <= SUBSPACE_TOL:
        return f"subspace distance {worst}"
    if cross["weakly_mixing_dim"] != 0:
        return f"weakly mixing dimension {cross['weakly_mixing_dim']}"
    return None


CHECKS = {
    "net": _check_net,
    "tob": _check_tob,
    "cyclic": _check_cyclic,
    "counterexample": _check_counterexample,
    "analyze": _check_analyze,
}
