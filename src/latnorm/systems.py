"""Finite measure-preserving systems, their generators, and extensions.

Dynamics are measure-preserving point permutations given by generators;
``koopman(perm, f)`` is the composition operator of one permutation, and
the group is never enumerated to apply it. ``enumerate_group`` lists the
closure of the generators, and orbits are walked from the generators alone,
each inverse taken as the argsort of its generator.
An extension is a factor map intertwining two such systems. Its validation
and its fibers read the factor map in whole-array passes (``np.bincount``
and one stable sort), never one downstairs point at a time. The conditional
expectation averages over factor fibers, and the relative inner
product/norm turn the upstairs function space into a fiberwise module over
the downstairs algebra. ``Extension.rel`` is that module (a ``RelModule``,
built once per extension); it encodes a whole stack of functions into a
``FiniteSet`` and decodes one back, one fancy index per fiber.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CapExceededError, DimensionMismatchError
from .fibered import FiberSpace, FiniteSet
from .stone import DEFAULT_TOL, PointSet, StoneElement


class FiniteProbabilitySpace:
    """Finite point set with strictly positive weights summing to one."""

    __slots__ = ("labels", "weights")

    def __init__(self, labels, weights):
        labels = tuple(str(l) for l in labels)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(labels),):
            raise ValueError("one weight per point required")
        if len(set(labels)) != len(labels):
            raise ValueError("point labels must be distinct")
        if not np.all(weights > 0):  # NaN too
            raise ValueError("weights must be strictly positive")
        if abs(float(np.sum(weights)) - 1.0) > DEFAULT_TOL:
            raise ValueError(f"weights sum to {float(np.sum(weights))}, not 1")
        self.labels = labels
        self.weights = weights

    @property
    def size(self) -> int:
        return len(self.labels)

    def point_set(self) -> PointSet:
        return PointSet(self.labels)

    def integral(self, f: np.ndarray) -> complex:
        return complex(np.sum(np.asarray(f) * self.weights))

    def inner(self, f, g) -> complex:
        """Weighted L2 inner product, linear in the first argument."""
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        return complex(np.sum(f * np.conj(g) * self.weights))

    def norm2(self, f) -> float:
        return float(np.sqrt(max(self.inner(f, f).real, 0.0)))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteProbabilitySpace)
            and self.labels == other.labels
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.labels, self.weights.tobytes()))


class MPMap:
    """Invertible point map of a finite space, stored as an image array."""

    __slots__ = ("perm",)

    def __init__(self, perm: Sequence[int]):
        perm = np.asarray(perm, dtype=int)
        n = perm.shape[0]
        if sorted(perm.tolist()) != list(range(n)):
            raise ValueError(f"{perm.tolist()} is not a permutation")
        self.perm = perm

    def __len__(self):
        return len(self.perm)

    def preserves(self, space: FiniteProbabilitySpace) -> bool:
        if len(self.perm) != space.size:
            return False
        return bool(np.all(np.abs(space.weights[self.perm] - space.weights) <= DEFAULT_TOL))


def _generator_steps(gens: Sequence[MPMap]) -> list[np.ndarray]:
    """Index maps of the Koopman steps of each generator g and its inverse.

    Per generator, first ``x[g^-1]`` (the image of x under g), then ``x[g]``
    (under g^-1), so that the inverses of the identity's orbit come out as
    the closure of ``enumerate_group``: left products by g, then by g^-1.
    The inverse g^-1 is ``np.argsort(g.perm)``, and the argsort of each
    step is the step that the walk of point indices takes.
    """
    return [s for g in gens for s in (np.argsort(g.perm), g.perm)]


def _walk_orbit(
    x, steps: Sequence, key: Callable, cap: int, move: Callable = operator.getitem
) -> list:
    """Breadth-first orbit of x under ``steps``, image y moving to
    ``move(y, s)``: by default the array ``y[s]`` of an index map s.

    Known images are expanded in discovery order, each by every step in
    order; an image whose ``key`` was seen before is dropped, so the first
    representative found is kept. Raises once the orbit would exceed cap.
    """
    images = [x]
    seen = {key(x)}
    for y in images:  # the list is the queue: appended images are visited too
        for s in steps:
            z = move(y, s)
            k = key(z)
            if k not in seen:
                if len(images) + 1 > cap:
                    raise CapExceededError(f"orbit exceeds cap {cap}")
                seen.add(k)
                images.append(z)
    return images


def enumerate_group(
    gens: Sequence[MPMap], cap: int = 10**5
) -> tuple[tuple[int, ...], ...]:
    """Closure of the generators under composition and inversion.

    The closure is the orbit of the identity: walked breadth-first, an
    element y steps to y.g^-1 and y.g, whose inverses are the left products
    g.y^-1 and g^-1.y^-1. The inverses of the walked elements therefore list
    the closure breadth-first from the identity, each element extended by
    every generator and then its inverse, in order, so the enumeration is
    deterministic. Raises once the closure would exceed ``cap``.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise DimensionMismatchError("generators act on different point counts")
    walked = np.array(
        _walk_orbit(np.arange(n), _generator_steps(gens), np.ndarray.tobytes, cap)
    )
    return tuple(map(tuple, np.argsort(walked, axis=1).tolist()))


def koopman(perm, f: np.ndarray) -> np.ndarray:
    """Composition operator of the point permutation ``perm``:
    (T f)(x) = f(perm^{-1} x), acting on the last (point) axis, so a
    ``(k, n)`` stack maps row by row."""
    f = np.asarray(f, dtype=complex)
    out = np.empty_like(f)
    out[..., np.asarray(perm)] = f
    return out


@dataclass
class ValidationReport:
    valid: bool
    violations: list[str] = field(default_factory=list)


class Extension:
    """Two intertwined systems with a factor map from the big one down.

    ``factor[x]`` is the index of the downstairs point below upstairs point
    x; generator i upstairs is paired with generator i downstairs. The
    downstairs image of any upstairs group element is derived through the
    factor map (``downstairs_perm``), so the two actions stay paired.
    """

    def __init__(
        self,
        upstairs: FiniteProbabilitySpace,
        upstairs_gens: Sequence[MPMap],
        downstairs: FiniteProbabilitySpace,
        downstairs_gens: Sequence[MPMap],
        factor: Sequence[int],
        cap: int = 10**5,
    ):
        if len(upstairs_gens) != len(downstairs_gens):
            raise ValueError("generator lists must be paired")
        self.upstairs = upstairs
        self.downstairs = downstairs
        self.upstairs_gens = tuple(upstairs_gens)
        self.downstairs_gens = tuple(downstairs_gens)
        self.factor = np.asarray(factor, dtype=int)
        if self.factor.shape != (upstairs.size,):
            raise ValueError("factor map needs one image per upstairs point")
        if np.any(self.factor < 0) or np.any(self.factor >= downstairs.size):
            raise ValueError("factor map image out of range")
        self.cap = cap
        self._rel = None
        # the last report of validate_extension, which RelModule reads
        # rather than validating again
        self._validation = None

    @property
    def rel(self) -> "RelModule":
        """The fiberwise module of the extension, built on first use."""
        if self._rel is None:
            self._rel = RelModule(self)
        return self._rel

    def downstairs_perm(self, perm) -> np.ndarray:
        """Downstairs image of an upstairs permutation of the group."""
        perm = np.asarray(perm, dtype=int)
        sigma = np.full(self.downstairs.size, -1, dtype=int)
        sigma[self.factor] = self.factor[perm]
        if np.any(sigma < 0):
            raise ValueError("factor map is not surjective")
        return sigma

    def fibers(self) -> list[np.ndarray]:
        """Upstairs indices over each downstairs point, in point order, each
        ascending: one stable sort of the factor map, split at the fiber
        sizes."""
        sizes = np.bincount(self.factor, minlength=self.downstairs.size)
        return np.split(np.argsort(self.factor, kind="stable"), np.cumsum(sizes)[:-1])


def validate_extension(ext: Extension) -> ValidationReport:
    """Diagnostic check of generator sizes, measure preservation, pushforward,
    nonempty fibers and intertwining at ``DEFAULT_TOL``, in that order.

    The report is kept on the extension, whose ``RelModule`` reads it rather
    than validating again.
    """
    violations = []
    for side, space, gens in (
        ("upstairs", ext.upstairs, ext.upstairs_gens),
        ("downstairs", ext.downstairs, ext.downstairs_gens),
    ):
        for i, g in enumerate(gens):
            if len(g) != space.size:
                violations.append(f"{side} generator {i} has wrong size")
            elif not g.preserves(space):
                violations.append(f"{side} generator {i} does not preserve the measure")
    # each fiber's mass summed in point order, as ``cond_expectation`` sums
    labels, weights = ext.downstairs.labels, ext.downstairs.weights
    push = np.bincount(ext.factor, ext.upstairs.weights, len(labels))
    for y in np.flatnonzero(np.abs(push - weights) > DEFAULT_TOL):
        violations.append(
            f"pushforward mass {push[y]:.12g} at point {labels[y]} != weight "
            f"{weights[y]:.12g}"
        )
    empty = np.flatnonzero(np.bincount(ext.factor, minlength=len(labels)) == 0)
    if empty.size:
        violations.append(f"empty fibers over {[labels[y] for y in empty]}")
    for i, (tau, sigma) in enumerate(zip(ext.upstairs_gens, ext.downstairs_gens)):
        if len(tau) != ext.upstairs.size or len(sigma) != ext.downstairs.size:
            continue
        lhs = ext.factor[tau.perm]
        rhs = sigma.perm[ext.factor]
        if not np.array_equal(lhs, rhs):
            violations.append(f"generator pair {i} does not intertwine the factor map")
    ext._validation = ValidationReport(valid=not violations, violations=violations)
    return ext._validation


def cond_expectation(f: np.ndarray, ext: Extension) -> np.ndarray:
    """Average f over each factor fiber, weighted by conditional mass, along
    the last (point) axis; each row of a stack sums in the 1-D order."""
    f = np.asarray(f, dtype=complex)
    num = np.zeros((ext.downstairs.size,) + f.shape[:-1], dtype=complex)
    np.add.at(num, ext.factor, np.moveaxis(f * ext.upstairs.weights, -1, 0))
    return np.moveaxis(num, 0, -1) / ext.downstairs.weights


def embed_J(g: np.ndarray, ext: Extension) -> np.ndarray:
    """Lift a downstairs function to a fiberwise-constant upstairs one."""
    return np.asarray(g, dtype=complex)[ext.factor]


def rel_inner(f: np.ndarray, g: np.ndarray, ext: Extension) -> np.ndarray:
    """Fiberwise inner product with values downstairs."""
    return cond_expectation(np.asarray(f, dtype=complex) * np.conj(g), ext)


def rel_norm(f: np.ndarray, ext: Extension) -> StoneElement:
    """Fiberwise norm of an upstairs function, as a downstairs element."""
    vals = np.real(rel_inner(f, f, ext))
    return StoneElement(ext.downstairs.point_set(), np.sqrt(np.maximum(vals, 0.0)))


class RelModule:
    """Fiberwise module picture of the upstairs function space.

    The fiber over a downstairs point lists its preimage points in order;
    ``encode`` rescales by the square root of the conditional weights so
    the Euclidean fiber norm of an encoded function equals its relative
    norm. Functions travel as ``(k, n_x)`` arrays, one per row, and module
    elements as ``FiniteSet`` stacks. Only a valid extension has a module:
    the last ``validate_extension`` report decides, or a new one when there
    is none.
    """

    def __init__(self, ext: Extension):
        report = ext._validation
        if report is None:
            report = validate_extension(ext)
        if not report.valid:
            raise ValueError(
                "invalid extension: " + "; ".join(report.violations)
            )
        self.ext = ext
        self.fiber_points = ext.fibers()
        dims = tuple(len(p) for p in self.fiber_points)
        self.space = FiberSpace(ext.downstairs.point_set(), dims)
        self.sqrt_weights = [
            np.sqrt(ext.upstairs.weights[pts] / ext.downstairs.weights[y])
            for y, pts in enumerate(self.fiber_points)
        ]

    def encode(self, fs: np.ndarray) -> FiniteSet:
        """The rows of a ``(k, n_x)`` array of functions as k module elements."""
        fs = np.asarray(fs, dtype=complex)
        n_x = self.ext.upstairs.size
        if fs.ndim != 2 or fs.shape[1] != n_x:
            raise DimensionMismatchError(
                f"expected a (k, {n_x}) array of functions, got shape {fs.shape}"
            )
        stacks = [
            fs[:, pts] * sw for pts, sw in zip(self.fiber_points, self.sqrt_weights)
        ]
        return FiniteSet(self.space, stacks, len(fs))

    def decode(self, F: FiniteSet) -> np.ndarray:
        """The ``(len(F), n_x)`` array of functions that ``encode`` maps to F."""
        out = np.zeros((len(F), self.ext.upstairs.size), dtype=complex)
        for pts, sw, s in zip(self.fiber_points, self.sqrt_weights, F.stacks):
            out[:, pts] = s / sw
        return out
