"""Deterministic and randomized example systems used by the self-test suite.

Random extensions are skew products built so that validity holds by
construction: the base permutation preserves a uniform (or invariant) base
measure, fiber permutations respect the conditional weight pattern, and the
factor map is the projection. Group closures are kept small by rejection
sampling against the enumeration cap.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError
from .fibered import FiberSpace, FiniteSet
from .stone import PointSet
from .systems import Extension, FiniteProbabilitySpace, MPMap, enumerate_group


def identity_extension(n: int = 4) -> Extension:
    """Trivial extension: the system over itself with a full rotation."""
    space = FiniteProbabilitySpace(
        [f"x{i}" for i in range(n)], np.full(n, 1.0 / n)
    )
    rot = MPMap(np.roll(np.arange(n), -1))
    return Extension(space, [rot], space, [rot], np.arange(n))


def rotation_extension(n_top: int = 4, n_base: int = 2) -> Extension:
    """Rotation on n_top points over the rotation on n_base points, via mod."""
    if n_top % n_base != 0:
        raise ValueError("base size must divide the top size")
    top = FiniteProbabilitySpace(
        [f"x{i}" for i in range(n_top)], np.full(n_top, 1.0 / n_top)
    )
    base = FiniteProbabilitySpace(
        [f"y{i}" for i in range(n_base)], np.full(n_base, 1.0 / n_base)
    )
    tau = MPMap((np.arange(n_top) + 1) % n_top)
    sigma = MPMap((np.arange(n_base) + 1) % n_base)
    return Extension(top, [tau], base, [sigma], np.arange(n_top) % n_base)


def symmetric_extension(k: int = 5, q: int = 1) -> Extension:
    """S_k acting on each of q fibers of k points over a static base: a
    k-cycle and a transposition on every fiber at once, identity below."""
    n = k * q
    top = FiniteProbabilitySpace([f"x{i}" for i in range(n)], np.full(n, 1.0 / n))
    base = FiniteProbabilitySpace([f"y{j}" for j in range(q)], np.full(q, 1.0 / q))
    offsets = np.repeat(np.arange(q) * k, k)
    local = np.tile(np.arange(k), q)
    cycle = MPMap(offsets + (local + 1) % k)
    swap_local = local.copy()
    if k > 1:
        swap_local[local == 0], swap_local[local == 1] = 1, 0
    swap = MPMap(offsets + swap_local)
    ident = MPMap(np.arange(q))
    return Extension(top, [cycle, swap], base, [ident, ident], offsets // k)


def broken_extension() -> Extension:
    """Uniform 4-point system over a mismatched (0.6, 0.4) base; invalid."""
    top = FiniteProbabilitySpace([f"x{i}" for i in range(4)], np.full(4, 0.25))
    base = FiniteProbabilitySpace(["y0", "y1"], np.array([0.6, 0.4]))
    ident4 = MPMap(np.arange(4))
    ident2 = MPMap(np.arange(2))
    return Extension(top, [ident4], base, [ident2], np.array([0, 0, 1, 1]))


def _class_preserving_perm(rng: np.random.Generator, classes: np.ndarray) -> np.ndarray:
    """Random permutation fixing each block of equal class labels."""
    perm = np.arange(len(classes))
    for c in np.unique(classes):
        idx = np.nonzero(classes == c)[0]
        perm[idx] = idx[rng.permutation(len(idx))]
    return perm


def random_extension(
    rng: np.random.Generator,
    max_base: int = 4,
    max_fiber: int = 3,
    cap: int = 1000,
    max_tries: int = 20,
) -> Extension:
    """Random valid extension with an enumerable group closure.

    Two shapes: a skew product over a uniform rotating base with a shared
    conditional weight pattern, or a static base (identity downstairs) with
    independent fibers. Retries until the closure fits under ``cap``.
    """
    for _ in range(max_tries):
        try:
            if rng.random() < 0.6:
                ext = _skew_product(rng, max_base, max_fiber, cap)
            else:
                ext = _static_base(rng, max_base, max_fiber, cap)
            enumerate_group(ext.upstairs_gens, cap)  # raises over the cap
            return ext
        except CapExceededError:
            continue
    return rotation_extension()


def _weight_pattern(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive weights summing to 1 with deliberate repeats; returns
    (weights, class labels)."""
    n_classes = int(rng.integers(1, k + 1))
    classes = rng.integers(0, n_classes, size=k)
    raw = rng.uniform(0.2, 1.0, size=n_classes)
    w = raw[classes]
    return w / np.sum(w), classes


def _skew_product(rng, max_base, max_fiber, cap) -> Extension:
    q = int(rng.integers(1, max_base + 1))
    k = int(rng.integers(1, max_fiber + 1))
    pattern, classes = _weight_pattern(rng, k)
    base = FiniteProbabilitySpace(
        [f"y{i}" for i in range(q)], np.full(q, 1.0 / q)
    )
    top_weights = np.concatenate([pattern / q for _ in range(q)])
    top = FiniteProbabilitySpace(
        [f"x{y}.{i}" for y in range(q) for i in range(k)], top_weights
    )
    factor = np.repeat(np.arange(q), k)

    n_gens = int(rng.integers(1, 3))
    taus, sigmas = [], []
    for _ in range(n_gens):
        sigma = rng.permutation(q)
        tau = np.empty(q * k, dtype=int)
        for y in range(q):
            rho = _class_preserving_perm(rng, classes)
            tau[y * k + np.arange(k)] = sigma[y] * k + rho
        taus.append(MPMap(tau))
        sigmas.append(MPMap(sigma))
    return Extension(top, taus, base, sigmas, factor, cap=cap)


def _static_base(rng, max_base, max_fiber, cap) -> Extension:
    q = int(rng.integers(1, max_base + 1))
    sizes = rng.integers(1, max_fiber + 1, size=q)
    base_w = rng.uniform(0.2, 1.0, size=q)
    base_w = base_w / np.sum(base_w)
    base = FiniteProbabilitySpace([f"y{i}" for i in range(q)], base_w)

    labels, weights, factor = [], [], []
    patterns = []
    for y in range(q):
        pattern, classes = _weight_pattern(rng, int(sizes[y]))
        patterns.append(classes)
        for i in range(int(sizes[y])):
            labels.append(f"x{y}.{i}")
            weights.append(pattern[i] * base_w[y])
            factor.append(y)
    top = FiniteProbabilitySpace(labels, np.array(weights))
    offsets = np.concatenate([[0], np.cumsum(sizes)])[:-1]

    n_gens = int(rng.integers(1, 3))
    taus = []
    for _ in range(n_gens):
        tau = np.empty(top.size, dtype=int)
        for y in range(q):
            rho = _class_preserving_perm(rng, patterns[y])
            tau[offsets[y] + np.arange(int(sizes[y]))] = offsets[y] + rho
        taus.append(MPMap(tau))
    ident = MPMap(np.arange(q))
    return Extension(top, taus, base, [ident] * n_gens, np.array(factor), cap=cap)


def random_fiber_space(
    rng: np.random.Generator, max_points: int = 4, max_dim: int = 3
) -> FiberSpace:
    n = int(rng.integers(1, max_points + 1))
    dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=n))
    return FiberSpace(PointSet.of_size(n), dims)


def random_finite_set(
    rng: np.random.Generator,
    space: FiberSpace,
    n_elements: int,
    scale: float = 1.0,
) -> FiniteSet:
    stacks = [
        scale
        * (rng.standard_normal((n_elements, d)) + 1j * rng.standard_normal((n_elements, d)))
        / np.sqrt(2.0)
        for d in space.dims
    ]
    return FiniteSet(space, stacks, n_elements)


def random_function(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
