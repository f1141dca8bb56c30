"""Truncated bounded-sequence model separating the two precompactness notions.

The model is a window of length N into the space of bounded Hilbert-space
valued sequences: points 1..N plus one designated tail coordinate, every
fiber of dimension N. The probe set consists of the single-coordinate
indicators 1_{k} (x) e_j for j <= k <= N; the nets F_n = {0, 1 (x) e_1, ...,
1 (x) e_n} drive the pointwise defect to zero on growing prefixes while any
finite candidate set of size d < N keeps a sup-norm defect of at least
sqrt(2)/2 somewhere beyond coordinate d. With the dyadic weights
mu({k}) = 2^{-k} the model also demonstrates trading mass for uniformity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTruncationError, SizeCapError
from .fibered import FiberSpace, FiniteSet, _pair_dist, defect
from .stone import DEFAULT_TOL, Idempotent, PointSet, StoneElement

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TruncatedSeqSpace:
    """Length-N window with a tail coordinate; every fiber is C^N."""

    n: int
    fiber_space: FiberSpace

    @staticmethod
    def build(n: int) -> "TruncatedSeqSpace":
        if n < 2:
            raise ValueError("need a prefix of length >= 2")
        labels = tuple(str(k) for k in range(1, n + 1)) + ("tail",)
        return TruncatedSeqSpace(n, FiberSpace(PointSet(labels), (n,) * (n + 1)))

    def weights(self) -> np.ndarray:
        """Dyadic weights 2^{-k} on the prefix, remainder mass on the tail."""
        w = np.array([2.0 ** -k for k in range(1, self.n + 1)] + [2.0 ** -self.n])
        return w

    def basis_vector(self, j: int) -> np.ndarray:
        """e_j (1-based) in the fiber."""
        e = np.zeros(self.n, dtype=complex)
        e[j - 1] = 1.0
        return e


def build_counterexample(n: int) -> tuple[TruncatedSeqSpace, FiniteSet, FiniteSet]:
    """Probe set M and the largest net F_n of the truncated model.

    M holds 1_{k} (x) e_j for 1 <= j <= k <= n (zero tail), ordered by k
    and then j, so rows k(k - 1)/2 .. k(k + 1)/2 - 1 at point k hold the k x k
    identity. F_n holds the zero element and then the constants 1 (x) e_l
    for l = 1..n (zero tail); the net F_m is ``F_n.subset(range(m + 1))``.
    ``SizeCapError`` when M cannot be allocated.
    """
    space = TruncatedSeqSpace.build(n)
    fs = space.fiber_space
    size = n * (n + 1) // 2
    try:
        m_stacks = [np.zeros((size, n), dtype=complex) for _ in range(fs.n_points)]
    except MemoryError:
        raise SizeCapError(
            f"the counterexample at n = {n} needs a probe set of "
            f"{16 * fs.n_points * size * n} bytes, which could not be allocated"
        ) from None
    for k in range(1, n + 1):
        start = k * (k - 1) // 2
        m_stacks[k - 1][start : start + k, :k] = np.eye(k)
    M = FiniteSet(fs, m_stacks, size)
    stacks = [np.eye(n + 1, n, k=-1, dtype=complex)] * n
    F_n = FiniteSet(fs, stacks + [np.zeros((n + 1, n), dtype=complex)], n + 1)
    return space, M, F_n


def verify_tob_bound(n: int, m: int) -> tuple[bool, StoneElement]:
    """Defect of the probe set against F_m: zero on 1..m, at most sqrt(2)
    after, each within ``DEFAULT_TOL``."""
    if not 1 <= m <= n:
        raise ValueError("net index out of range")
    _, M, F_n = build_counterexample(n)
    value = defect(M, F_n.subset(range(m + 1))).value
    ok = bool(np.all(value.values[:m] <= DEFAULT_TOL)) and value.le(SQRT2)
    return ok, value


def verify_not_utob(n: int, F: FiniteSet | None) -> tuple[int, int]:
    """Exhibit the uniform failure against an arbitrary candidate set.

    For |F| = d < n there are a coordinate index n0 > d and a basis index
    i <= n0 whose indicator stays at distance >= sqrt(2)/2 from every
    candidate at coordinate n0; counting the basis vectors against the d
    balls of radius sqrt(2)/2 guarantees one exists (the distance is compared
    within ``DEFAULT_TOL``). Returns (i, n0), 1-based.
    """
    space = TruncatedSeqSpace.build(n)
    if F is None or len(F) == 0:
        F = FiniteSet.zero(space.fiber_space)
        d = 0
    else:
        if F.space != space.fiber_space:
            raise ValueError("candidate set lives on a different truncation")
        d = len(F)
    if d >= n:
        raise ValueError("candidate set must be smaller than the prefix length")
    basis = np.eye(n, dtype=complex)
    for n0 in range(d + 1, n + 1):
        # distance from each e_i, i <= n0, to its nearest candidate at n0
        dist = _pair_dist(basis[:n0], F.stacks[n0 - 1]).min(axis=1)
        far = np.nonzero(dist >= SQRT2 / 2.0 - DEFAULT_TOL)[0]
        if far.size:
            return int(far[0]) + 1, n0
    raise RuntimeError(
        "no pigeonhole witness found; the truncated model is inconsistent"
    )


@dataclass
class EgoroffDemo:
    """Localization of the weighted model at a mass budget."""

    m: int
    kept: Idempotent
    removed_mass: float
    masked_set: FiniteSet
    witness: FiniteSet
    defect_value: StoneElement


def egoroff_demo(
    model: tuple[TruncatedSeqSpace, FiniteSet, FiniteSet], delta: float
) -> EgoroffDemo:
    """Cut the model ``build_counterexample(n)`` down to a prefix whose
    complement mass fits the budget.

    Keeps A = {1..m} for the smallest m with 2^{-m} <= delta; the cut probe
    set 1_A M is then uniformly totally order-bounded at every level, with
    witness 1_A F_m of defect zero. Budgets below the tail mass 2^{-n} are
    not representable at this truncation. The cut set ``kept * M`` shares
    M's stacks on A and takes fresh zeros elsewhere, so it writes no copy
    of the model.
    """
    if not delta > 0:  # NaN too
        raise ValueError("delta must be positive")
    space, M, F_n = model
    n = space.n
    m = 0
    while 2.0 ** -m > delta:
        m += 1
        if m > n:
            raise InfeasibleTruncationError(
                f"budget {delta} is below the tail mass {2.0 ** -n} of the "
                f"length-{n} truncation"
            )
    base = space.fiber_space.base
    mask = np.zeros(base.size, dtype=bool)
    mask[:m] = True
    kept = Idempotent(base, mask)
    removed_mass = float(np.sum(space.weights()[~mask]))
    masked_set = kept * M
    witness = kept * F_n.subset(range(m + 1))
    value = defect(masked_set, witness).value
    return EgoroffDemo(m, kept, removed_mass, masked_set, witness, value)
