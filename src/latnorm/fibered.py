"""Fiberwise lattice-normed modules over a finite Stone algebra.

A module element assigns to every point of the base a vector in a finite
dimensional complex Hilbert fiber; the lattice norm is the fiberwise
Euclidean norm. Elements live in ``FiniteSet``s, one stack per fiber, and a
single element is a set of length one. The central quantity is the defect
of a set M against a finite candidate set F,

    defect(M, F)(w) = max_{x in M} min_{y in F} ||x(w) - y(w)||,

which measures order-precompactness pointwise. On top of it sit epsilon-net
constructions (``GridNet``s over a suborthonormal basis, Heine-Borel style,
or over a zonotope's generators), zonotope membership distances solved by
projected gradient, and the bookkeeping for uniform total order-boundedness
witnesses. A family of pointwise values (a traversal's radii, prefix
defects, zonotope distances) is one ``(k, n_points)`` float array; a single
value is a ``StoneElement``.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    IterationLimitError,
    SizeCapError,
)
from .stone import (
    DEFAULT_TOL,
    ComplexCoefficient,
    Idempotent,
    PartitionOfUnity,
    PointSet,
    StoneElement,
)


@dataclass(frozen=True)
class FiberSpace:
    """Finite point set together with a fiber dimension per point."""

    base: PointSet
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) != self.base.size:
            raise DimensionMismatchError("one fiber dimension per point required")
        if any(d < 1 for d in self.dims):
            raise ValueError("fiber dimensions must be >= 1")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def n_points(self) -> int:
        return self.base.size

    @property
    def max_dim(self) -> int:
        return max(self.dims)


def _check_space(a, b):
    if a.space != b.space:
        raise DimensionMismatchError("operands live on different fiber spaces")


class FiniteSet:
    """Finite ordered list of module elements on a common fiber space.

    Stored as one unpadded (n_elements, dim) stack per fiber so that every
    kernel vectorizes. A single module element is a set of length one, and
    ``subset([i])`` takes element i out of a set. ``M + N`` and ``M - N``
    act elementwise on sets of one length, ``p * M`` shares M's stack at
    every point where the idempotent p is 1 and is 0 elsewhere, and
    ``c * M`` multiplies by a coefficient field or a scalar. The stacks
    are read-only: a set freezes the arrays it is given in place, uncopied.
    """

    __slots__ = ("space", "stacks", "_n")
    __array_ufunc__ = None  # numpy operands defer to the operators below

    def __init__(self, space: FiberSpace, stacks: Sequence[np.ndarray], n: int):
        self.space = space
        # C order: ``_dist`` views each row as floats along the last axis
        self.stacks = [np.ascontiguousarray(s, dtype=complex) for s in stacks]
        self._n = int(n)
        for s, d in zip(self.stacks, space.dims):
            if s.shape != (self._n, d):
                raise DimensionMismatchError(
                    f"stack shape {s.shape} does not match ({self._n}, {d})"
                )
            s.flags.writeable = False

    @staticmethod
    def zero(space: FiberSpace) -> "FiniteSet":
        """The one-element set of the zero element."""
        return FiniteSet(space, [np.zeros((1, d), dtype=complex) for d in space.dims], 1)

    @staticmethod
    def concat(sets: Sequence["FiniteSet"]) -> "FiniteSet":
        """The elements of every set in turn, on their common fiber space."""
        if not sets:
            raise ValueError("cannot infer the space of no sets")
        for F in sets[1:]:
            _check_space(sets[0], F)
        stacks = [np.concatenate(fibers) for fibers in zip(*(F.stacks for F in sets))]
        return FiniteSet(sets[0].space, stacks, sum(len(F) for F in sets))

    def __len__(self):
        return self._n

    def subset(self, indices: Sequence[int]) -> "FiniteSet":
        idx = list(indices)
        return FiniteSet(self.space, [s[idx] for s in self.stacks], len(idx))

    def _elementwise(self, other, op) -> "FiniteSet":
        if not isinstance(other, FiniteSet):
            return NotImplemented
        _check_space(self, other)
        if len(other) != self._n:
            raise DimensionMismatchError(f"sets of {self._n} and {len(other)} elements")
        stacks = [op(a, b) for a, b in zip(self.stacks, other.stacks)]
        return FiniteSet(self.space, stacks, self._n)

    def __add__(self, other) -> "FiniteSet":
        return self._elementwise(other, np.add)

    def __sub__(self, other) -> "FiniteSet":
        return self._elementwise(other, np.subtract)

    def __rmul__(self, other) -> "FiniteSet":
        if isinstance(other, (Idempotent, ComplexCoefficient)):
            if other.base != self.space.base:
                raise DimensionMismatchError("coefficient on a different point set")
            if isinstance(other, Idempotent):
                # a selection, not a product: that would flip zero signs of
                # kept entries and make a cut inf a nan. A kept stack is
                # shared; a cut one is ``np.zeros``, untouched pages until read
                stacks = [s if p else np.zeros(s.shape, complex)
                          for p, s in zip(other.mask, self.stacks)]
            else:
                # factor first: numpy's complex array product is not symmetric
                # in the last bit, and c * s is the product of c with each row
                stacks = [c * s for c, s in zip(other.values, self.stacks)]
        elif isinstance(other, numbers.Number):
            stacks = [other * s for s in self.stacks]
        else:
            return NotImplemented
        return FiniteSet(self.space, stacks, self._n)

    __mul__ = __rmul__

    def norms(self) -> np.ndarray:
        """(n_elements, n_points) lattice norms, by ``_dist`` as every distance."""
        return np.stack([_dist(s) for s in self.stacks], axis=1)

    def norm_sup(self) -> StoneElement:
        """Pointwise supremum of the lattice norms of the elements."""
        if self._n == 0:
            return StoneElement.zeros(self.space.base)
        return StoneElement(self.space.base, self.norms().max(axis=0))

    def __repr__(self):
        return f"FiniteSet(n={self._n}, points={self.space.n_points})"


@dataclass
class DefectReport:
    """Value and witness of a defect computation.

    ``argmin[i, w]`` is the index into ``witness`` of the fiberwise nearest
    candidate for element i of the probed set at point w.
    """

    value: StoneElement
    witness: FiniteSet
    argmin: np.ndarray


def _dist(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms of complex differences along the last axis: the one
    distance formula between fiber vectors, so that traversal tables and
    defect tables (a prefix defect and its recheck) agree to the last bit."""
    v = diff.view(float)
    return np.sqrt(np.einsum("...k,...k->...", v, v))


def _diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[:, None, :] - b[None, :, :]``, bit for bit: each row of a
    repeated len(b) times, then b subtracted in place, so that numpy's loops
    run along whole rows of b rather than over one fiber vector per pair.
    Every entry is the same subtraction into the same C-ordered array."""
    n_b, d = b.shape
    diff = np.repeat(a.astype(np.result_type(a, b), copy=False), n_b, axis=0)
    diff = diff.reshape(len(a), n_b, d)
    return np.subtract(diff, b, out=diff)


def _pair_dist(stack_a: np.ndarray, stack_b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of two complex stacks.

    Computed by ``_dist`` from explicit differences (``_diffs``: repeated
    rows of the one stack less the other, the broadcast difference bit for
    bit): the Gram identity would lose ~1e-8 of absolute accuracy near
    zero, which the exact-coincidence checks cannot afford. Chunks of 2**16
    differences keep the temporaries in cache, without which a traversal's
    |M| x |M| tables are memory-bound.
    A stack of more than 48 rows paired with itself is computed by blocks of
    at most 32 rows, each from its own first row on and mirrored below it:
    |a - b| and |b - a| are one float, so each unordered pair is computed
    once. On fewer rows the blocks cost more than they save.
    """
    n_a, d = stack_a.shape
    n_b = stack_b.shape[0]
    out = np.empty((n_a, n_b))
    chunk = max(1, (1 << 16) // max(n_b * max(d, 1), 1))
    if stack_a is stack_b and n_a > 48:
        rows = min(chunk, 32)
        for i0 in range(0, n_a, rows):
            i1 = min(i0 + rows, n_a)
            block = _dist(_diffs(stack_a[i0:i1], stack_a[i0:]))
            out[i0:i1, i0:] = block
            out[i1:, i0:i1] = block[:, i1 - i0 :].T
        return out
    for i0 in range(0, n_a, chunk):
        out[i0 : i0 + chunk] = _dist(_diffs(stack_a[i0 : i0 + chunk], stack_b))
    return out


# Differences below which ``_nearest`` compares every row, where the
# searches cost more than they save: against the same code with
# the gate at 0, the ``extension`` bench (seed 1, --seconds 20, 10 rotating
# rounds, 2-vCPU VM) read job_p90_s 2.85 -> 3.27 ms (+14.6%, 10 of 10),
# job_p50_s +10.0% and jobs_per_s -9.2% (9 of 10 each) without it, while a
# second copy of the gated code read within 1.0% (5 of 10) of the first.
_SCAN = 1 << 13
_TINY = 2.0**-480  # least nonzero |re|, |im| of candidates searched by row key


def _exact(a: np.ndarray) -> bool:
    """Whether every |re|, |im| of a is finite and 0 or at least ``_TINY``.
    Two distinct such floats differ by at least 2**-532, whose square does
    not underflow, so between rows of such floats (a probe row equal to a
    row of a is one) a ``_dist`` is 0 exactly when they are equal as floats."""
    v = np.abs(a.view(float))
    return bool(np.all((v == 0) | ((v >= _TINY) & (v < np.inf))))


def _nearest(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.min`` and ``np.argmin`` along the rows of ``_pair_dist(s, t)``,
    bit for bit. On tables of at least ``_SCAN`` differences, zero rows of s
    (-0.0 entries included) take the norms ``_dist(t)``, their distances bit
    for bit since 0 - y is -y or a signed zero. With ``_exact`` candidates
    t, a nonzero row found in t is then at 0 from its first copy. Only the
    other rows are compared. Rows are found by sorting byte keys of
    ``t + 0.0`` (-0.0 folds into +0.0), and each hit is confirmed on the
    floats."""
    if s.size * len(t) < _SCAN:
        dist = _pair_dist(s, t)
        return np.min(dist, axis=1), np.argmin(dist, axis=1)
    norms = _dist(t)
    mins, argmin = np.full(len(s), norms.min()), np.full(len(s), norms.argmin())
    rest = np.flatnonzero(s.any(axis=1))
    if _exact(t):
        key = np.dtype((np.void, t.itemsize * t.shape[1]))
        t_keys = (t + 0.0).view(key).ravel()
        by = np.argsort(t_keys, kind="stable")  # copies in index order
        ts, x = t[by], s[rest]
        pos = np.minimum(np.searchsorted(t_keys[by], (x + 0.0).view(key).ravel()), len(t) - 1)
        member = (ts[pos] == x).all(axis=1)
        mins[rest[member]], argmin[rest[member]] = 0.0, by[pos[member]]
        rest = rest[~member]
    if len(rest):
        dist = _pair_dist(s[rest], t)
        mins[rest], argmin[rest] = np.min(dist, axis=1), np.argmin(dist, axis=1)
    return mins, argmin


def defect(M: FiniteSet, F: FiniteSet) -> DefectReport:
    """Pointwise worst-case distance from M to its nearest candidate in F.

    On tables of at least ``_SCAN`` differences, ``_nearest`` gives zero
    rows of M the norms of F, puts a row of M that also occurs in F at 0
    from its first copy (where every entry of F at the point is finite and
    0 or of modulus at least 2**-480), and compares only the other rows.
    Against a ``GridNet`` (a ``heine_borel_net``) only the net rows that can
    be nearest are compared. Value and argmin equal the dense computation
    bit for bit.
    """
    _check_space(M, F)
    if len(M) == 0 or len(F) == 0:
        raise ValueError("defect requires nonempty M and F")
    n_pts = M.space.n_points
    value = np.empty(n_pts)
    argmin = np.empty((len(M), n_pts), dtype=int)
    net = isinstance(F, GridNet)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN distance
        for w, s in enumerate(M.stacks):
            mins, argmin[:, w] = F.nearest(w, s) if net else _nearest(s, F.stacks[w])
            value[w] = float(np.max(mins))
    return DefectReport(StoneElement(M.space.base, value), F, argmin)


def prefix_defects(M: FiniteSet, F: FiniteSet) -> np.ndarray:
    """``(len(F), n_points)`` array whose row k is the defect of M against
    the first k + 1 elements of F: per point, the running minimum of one
    ``defect`` table along F, then the max over M, so each row equals
    ``defect(M, F.subset(range(k + 1))).value.values`` bit for bit."""
    _check_space(M, F)
    if len(M) == 0 or len(F) == 0:
        raise ValueError("defect requires nonempty M and F")
    out = np.empty((len(F), M.space.n_points))
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN distance
        for w, (s, t) in enumerate(zip(M.stacks, F.stacks)):
            # zero rows (-0.0 entries included) share one distance row, so
            # the first stands for all; with none, argmin is 0, a compared row
            rows = s.any(axis=1)
            rows[rows.argmin()] = True
            out[:, w] = np.minimum.accumulate(_pair_dist(s[rows], t), axis=1).max(axis=0)
    return out


@dataclass
class UtobReport:
    """Outcome of a uniform total order-boundedness check."""

    verdict: bool
    witness: FiniteSet
    report: DefectReport | None
    epsilon: float


class Traversal:
    """Gonzalez farthest-point traversal of M, built whole at construction
    and shared by every reader.

    Seeded by the element of largest lattice norm; each step places the
    element farthest (in sup norm of the pointwise distance) from those
    already placed, ties to the lowest index. The ``_pair_dist`` tables of
    all fibers are held as one (|M|, n_points, |M|) array (n_points |M|^2
    floats, freed once built; ``SizeCapError`` when it cannot be
    allocated), so each step reads the placed element's column of every
    fiber's table as one contiguous block.
    The tuple ``order`` holds every index of M in placement order, and row
    j of the read-only ``radii`` is the running radius after j + 1
    placements: the pointwise defect of M against ``order[:j + 1]``.
    ``recheck(k)`` is the independent ``defect`` of M against the first k
    placed elements, computed once per k.
    """

    def __init__(self, M: FiniteSet):
        self.M = M
        order = []
        n_pts, n = M.space.n_points, len(M)
        self.radii = np.empty((n, n_pts))
        self._rechecks: dict[int, DefectReport] = {}
        try:
            # tables[i] holds column i of every fiber's table, one contiguous
            # (P, |M|) block read per step
            tables = np.empty((n, n_pts, n))
            with np.errstate(invalid="ignore"):  # inf - inf is a NaN distance
                for w, s in enumerate(M.stacks):
                    tables[:, w] = _pair_dist(s, s).T
        except MemoryError:
            raise SizeCapError(
                f"the traversal of |M| = {n} over P = {n_pts} points needs a "
                f"({n}, {n_pts}, {n}) distance table of {8 * n_pts * n * n} bytes, "
                "which could not be allocated"
            ) from None
        placed = np.zeros(n, dtype=bool)
        mindist = np.full((n_pts, n), np.inf)
        scores = M.norms().max(axis=1)  # seed: the largest lattice norm
        for j in range(n):
            nxt = int(scores.argmax())
            np.minimum(mindist, tables[nxt], out=mindist)
            placed[nxt] = True
            mindist.max(axis=1, out=self.radii[j])
            order.append(nxt)
            mindist.max(axis=0, out=scores)
            scores[placed] = -1.0
        self.order = tuple(order)
        self.radii.flags.writeable = False

    def recheck(self, k: int) -> DefectReport:
        if k not in self._rechecks:
            self._rechecks[k] = defect(self.M, self.M.subset(self.order[:k]))
        return self._rechecks[k]


def is_utob(M: FiniteSet, eps: float, *, traversal: Traversal | None = None) -> UtobReport:
    """Check uniform total order-boundedness of M at level eps.

    Any finite M is uniformly totally order-bounded (M itself is a witness
    with defect zero); the value of this routine is the witness it returns:
    the shortest prefix of the farthest-point traversal of M whose running
    radius is pointwise within eps + ``DEFAULT_TOL`` (all of M when none is,
    as with NaN entries), with the defect recomputed independently for the
    verdict, compared with eps at ``DEFAULT_TOL`` too: the recheck
    ``defect(M, witness)`` reads only M and the witness, never the
    traversal's table. The witness's elements are elements of M, so where
    ``defect`` finds member rows they are at 0 without a distance computed,
    and only the elements left out of the witness are compared.
    ``traversal``, a ``Traversal`` of M, is the way to share one traversal,
    and one recheck per distinct witness, across several eps.
    """
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    if traversal is None:
        traversal = Traversal(M)
    elif traversal.M is not M:
        raise ValueError("the traversal belongs to another set")
    if len(M) == 0:
        return UtobReport(True, FiniteSet(M.space, [s[:0] for s in M.stacks], 0), None, eps)
    within = traversal.radii.max(axis=1) <= eps + DEFAULT_TOL
    first = int(within.argmax())  # 0 when no row is within
    k = first + 1 if within[first] else len(M)
    report = traversal.recheck(k)
    verdict = report.value.le(eps)
    return UtobReport(verdict, report.witness, report, eps)


def greedy_order(M: FiniteSet) -> list[int]:
    """Full farthest-point insertion order of M."""
    return list(Traversal(M).order)


def truncate_to_ball(F: FiniteSet, r: float) -> FiniteSet:
    """Cut every element down to the ball of radius 2r.

    Each y is replaced by p*y where p is the idempotent of
    {|y| <= 2r + ``DEFAULT_TOL``}: a kept fiber keeps its bytes, a cut one
    is 0, and when nothing is cut the result is F itself. For any probe set
    inside the ball of radius r this never increases pointwise nearest
    distances. r = 0 is allowed: the ball is then the zero set, and only
    fibers of norm at most ``DEFAULT_TOL`` are kept.
    """
    if not r >= 0:  # NaN too
        raise ValueError("r must be nonnegative")
    keep = F.norms() <= 2.0 * r + DEFAULT_TOL
    if keep.all():
        return F
    stacks = [np.where(keep[:, w, None], s, 0) for w, s in enumerate(F.stacks)]
    return FiniteSet(F.space, stacks, len(F))


def set_sum(M: FiniteSet, N: FiniteSet) -> FiniteSet:
    """Minkowski sum {a + b}, ordered M-major."""
    _check_space(M, N)
    stacks = []
    for sm, sn in zip(M.stacks, N.stacks):
        d = sm.shape[1]
        stacks.append((sm[:, None, :] + sn[None, :, :]).reshape(-1, d))
    return FiniteSet(M.space, stacks, len(M) * len(N))


class FiberwiseMap:
    """Linear map given by one matrix per point; bounded by its largest
    fiber operator norm."""

    def __init__(self, space_in: FiberSpace, space_out: FiberSpace, mats):
        if space_in.base != space_out.base:
            raise DimensionMismatchError("fiber maps must share the point set")
        self.space_in = space_in
        self.space_out = space_out
        self.mats = [np.asarray(m, dtype=complex) for m in mats]
        for m, di, do in zip(self.mats, space_in.dims, space_out.dims):
            if m.shape != (do, di):
                raise DimensionMismatchError(
                    f"matrix shape {m.shape} does not match ({do}, {di})"
                )

    def bound(self) -> float:
        return max(float(np.linalg.norm(m, 2)) for m in self.mats)


def set_image(T: FiberwiseMap, M: FiniteSet) -> FiniteSet:
    """Elementwise image of M under a fiberwise linear map."""
    if M.space != T.space_in:
        raise DimensionMismatchError("set not in the map's domain")
    stacks = [s @ m.T for s, m in zip(M.stacks, T.mats)]
    return FiniteSet(T.space_out, stacks, len(M))


# ---------------------------------------------------------------------------
# epsilon-nets


def _check_finite(name: str, value: float) -> None:
    """Raise a ``ValueError`` naming the argument when it is NaN or infinite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {value}")


_GRIDS = 8  # disc grids kept by disc_grid's memo
_GRID_RINGS = 32  # grids of more rings are built anew on each call


def disc_grid(radius: float, mesh: float) -> np.ndarray:
    """Finite mesh-net of the closed complex disc of the given radius.

    Polar grid: rings spaced mesh/sqrt(2) apart, angular spacing on each
    ring with chord length at most mesh/sqrt(2); every point of the disc is
    then within mesh of a grid point. The origin comes first, then each
    ring from the inside out, counterclockwise from the positive real axis,
    all rings built in one pass of array operations.

    Grids of at most 32 rings (3,334 points, 53 KB) are memoized per
    (radius, mesh), read as floats, and the memo keeps the 8 used last;
    larger grids are built anew on each call and not kept. Each call returns
    a new read-only array. A memoized one lies over the memo's immutable
    bytes, which no caller can make writable, so no caller can change the
    grid a later call returns. An infinite mesh gives the one-ring grid.
    A ring count that is not finite (radius / mesh overflows) is a
    ``ValueError`` naming both; a grid that cannot be allocated is a
    ``SizeCapError`` naming its ring count and bytes.
    """
    _check_finite("radius", radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if not mesh > 0:  # NaN too
        raise ValueError("mesh must be positive")
    radius, mesh = float(radius), float(mesh)
    rings = _rings(radius, mesh)
    if not math.isfinite(rings):
        raise ValueError(
            f"radius {radius} and mesh {mesh} give a ring count that is not finite"
        )
    if rings > _GRID_RINGS:
        grid = _build_grid(radius, mesh)
        grid.flags.writeable = False
        return grid
    return np.frombuffer(_grid_bytes(radius, mesh), dtype=complex)


def _rings(radius: float, mesh: float) -> float:
    """The number of rings of ``disc_grid(radius, mesh)``, before rounding up."""
    return radius / (mesh / math.sqrt(2.0))


@functools.lru_cache(maxsize=_GRIDS)
def _grid_bytes(radius: float, mesh: float) -> bytes:
    """The bytes of ``disc_grid(radius, mesh)``, built once per memo entry."""
    return _build_grid(radius, mesh).tobytes()


def _build_grid(radius: float, mesh: float) -> np.ndarray:
    """``disc_grid(radius, mesh)``, built in one pass of array operations."""
    if radius == 0:
        return np.zeros(1, dtype=complex)
    step = mesh / math.sqrt(2.0)
    rings = _rings(radius, mesh)
    n_rings = max(1, math.ceil(rings))
    # ring k of n holds at least 2 pi k rings / n points: pi rings (n + 1) in all
    need = min(16 * (1 + math.pi * rings * (n_rings + 1)), sys.float_info.max)
    if need <= np.iinfo(np.intp).max:  # else larger than any numpy array
        try:
            rho = radius * np.arange(1, n_rings + 1) / n_rings
            n_theta = np.maximum(1, np.ceil(2.0 * math.pi * rho / step)).astype(int)
            ring = np.repeat(np.arange(n_rings), n_theta)
            k = np.arange(len(ring)) - (np.cumsum(n_theta) - n_theta)[ring]
            angles = 2.0 * math.pi * k / n_theta[ring]
            return np.concatenate(([0j], rho[ring] * np.exp(1j * angles)))
        except MemoryError:
            pass
    raise SizeCapError(
        f"disc_grid({radius}, {mesh}) needs {n_rings:.6g} rings, a grid of at least "
        f"{need:.4g} bytes, which could not be allocated"
    )


def _net_grid(m: int, radius: float, mesh: float, cap: int) -> np.ndarray:
    """``disc_grid(radius, mesh)`` for a net on m >= 1 elements, radius > 0.

    A grid holds the origin and a point on each ring at least, so the net
    has at least m (n_rings + 1)^m rows. When that exceeds the cap, the net
    is refused with ``SizeCapError`` before the grid is built.
    """
    rings = _rings(radius, mesh)
    low = max(1, math.ceil(rings)) + 1 if math.isfinite(rings) else math.inf
    if low > cap or m * low**m > cap:
        raise SizeCapError(
            f"net would need at least {m}*{low}^{m} > cap {cap}; "
            "raise the cap or loosen the mesh"
        )
    return disc_grid(radius, mesh)


_U = 2.0**-53  # unit roundoff of float64
_LIVE = 1e-150  # basis rows with a smaller squared norm keep their whole grid


class _Gram:
    """The Gram of a basis stack s at one point: the conjugate transpose
    ``sh`` of s, the Gram diagonal ``n2`` (the squared row norms), the
    ``live`` rows (n2 > ``_LIVE``), the rows that are exactly ``zero``, and
    ``off``, the largest modulus off the diagonal."""

    __slots__ = ("sh", "n2", "live", "zero", "off")

    def __init__(self, s: np.ndarray):
        self.sh = s.conj().T
        gram = s @ self.sh
        self.n2 = gram.diagonal().real
        self.live = self.n2 > _LIVE
        self.zero = ~s.any(axis=1)
        self.off = float(np.abs(gram - np.diag(gram.diagonal())).max(initial=0.0))


def _suborthonormal_grams(basis: FiniteSet) -> list[_Gram]:
    """``check_suborthonormal``, returning the ``_Gram`` of each point."""
    grams = []
    for w, s in enumerate(basis.stacks):
        if not np.isfinite(s).all():
            raise ValueError(f"basis not finite at point {w}")
        g = _Gram(s)
        if g.off > 1e-7:
            raise ValueError(f"basis not fiberwise orthogonal at point {w}")
        if float(np.minimum(np.abs(g.n2), np.abs(g.n2 - 1.0)).max(initial=0.0)) > 1e-7:
            raise ValueError(f"basis norms not idempotent-valued at point {w}")
        grams.append(g)
    return grams


def check_suborthonormal(basis: FiniteSet) -> None:
    """Raise unless the basis is finite and pairwise orthogonal with
    idempotent norms, each Gram entry within 1e-7. An empty basis passes.

    The points are checked in order, each for all three in that order.
    ``heine_borel_net`` hands the Grams formed here to its ``GridNet``, so
    each point's Gram is formed once per net.
    """
    _suborthonormal_grams(basis)


class GridNet(FiniteSet):
    """The images ``sum_j lam_j e_j`` of every tuple ``lam`` of grid points
    under the m elements e_j of ``basis``, in ``itertools.product`` order
    (the last coefficient varies fastest), together with that factorization,
    which lets ``defect`` skip the rows that cannot be nearest.

    Row ``sum_j g_j * len(grid)**(m - 1 - j)`` is y(g) = sum_j grid[g_j] e_j.
    At one point, with C_j = <x, e_j> and n_j^2 = |e_j|^2,

        |x - y(g)|^2 = |x|^2 - sum_j |C_j|^2 / n_j^2 + sum_j q_j(g_j) + cross(g),
        q_j(k) = |C_j - grid[k] n_j^2|^2 / n_j^2,
        |cross(g)| <= X = max|offdiag Gram| (m R)^2,  R = max|grid|.

    ``nearest`` keeps, per coordinate, every k with computed q_j(k) within
    ``slack`` of that coordinate's minimum q_j(k_j*), then works in two
    steps. First, one row per sample: the lowest kept index of each
    coordinate gives a row, and all these rows are built and compared at
    once. Where the product of the kept indices holds that row alone, it is
    the nearest. Second, each sample whose kept product holds more rows
    (near-ties, non-finite samples, rows below ``_LIVE``) is compared, one
    at a time, with every row of that product, which overwrites its first
    answer; no sample of the ``net_cover`` benchmark takes this step. A
    pruned g is strictly worse than the kept g' that sets each of its
    pruned coordinates to k_j*:
    |x - y(g)|^2 - |x - y(g')|^2 > slack - 2 X - 2 err_q. With

        slack = 2 (X + 32 (d + m + 1) u Z^2) + 1e-300,  Z = |x| + m R max_j n_j,

    the second term covers, about twice over, the rounding of q (matmuls, the
    difference, the squares), the rounding of both computed squared distances
    (net rows, differences, sums), the error of the measured Gram, and the 5u
    relative gap that keeps ``sqrt`` from merging them; 1e-300 covers
    underflow. So the computed distance of g exceeds that of g': g is neither
    the minimum nor its lowest-index tie, and value and argmin equal the dense
    ones bit for bit. The X term makes this hold for any basis, orthogonal
    (``heine_borel_net``) or not (``zonotope_net``'s generators). A row that
    is exactly zero at the point (-0.0 entries included) keeps grid index 0
    alone for a finite sample and grid: a finite grid value times it is a
    signed zero, which leaves every net row unchanged but for the sign of a
    zero, so any g has the distance of the lower index that sets g_j = 0.
    A nonzero row with n_j^2 <= 1e-150 (``_LIVE``, below which the relative
    bounds would need subnormal care) keeps its whole grid, and so does
    every coordinate for a non-finite sample, and every live row for a
    non-finite basis (its slack is not finite): keeping everything is the
    dense computation.

    The net holds only the factorization: ``len(net)`` is ``len(grid)**m``,
    ``nearest`` builds kept rows only, from their picks (one array of g_j
    per coordinate j), and the index above only for each sample's nearest row,
    and every row's stacks are computed on first access, then frozen. The
    basis (the caller's set) and the grid are read-only, so the
    factorization stays true. ``heine_borel_net`` hands the net the basis
    Grams its suborthonormality check formed, so each point's Gram is formed
    once per net; a net given none forms it at each ``nearest`` call.
    ``subset``, ``p * net``, ``set_image`` and every other operation read
    the stacks and build a plain ``FiniteSet``.
    """

    __slots__ = ("basis", "grid", "_grams", "_stacks")

    def __init__(
        self, basis: FiniteSet, grid: np.ndarray, cap: int, *, _grams: list[_Gram] | None = None
    ):
        m, n = len(basis), len(grid) ** len(basis)
        if m * n > cap:
            raise SizeCapError(
                f"net would need {m}*{len(grid)}^{m} = {m * n} > cap {cap}; "
                "raise the cap or loosen the mesh"
            )
        self.space = basis.space
        self._n = n
        self.basis = basis
        self.grid = np.array(grid, dtype=complex)
        self.grid.flags.writeable = False
        self._grams = _grams
        self._stacks = None

    @property
    def stacks(self) -> list[np.ndarray]:
        """Every net row, per fiber: built on first access, then frozen."""
        if self._stacks is None:
            picks = np.unravel_index(np.arange(self._n), (len(self.grid),) * len(self.basis))
            self._stacks = [self._rows(w, picks) for w in range(self.space.n_points)]
            for s in self._stacks:
                s.flags.writeable = False
        return self._stacks

    def _rows(self, w: int, picks: Sequence[np.ndarray]) -> np.ndarray:
        """The net rows at point w whose coordinate j takes grid index
        ``picks[j][i]`` (row i): the rows of grid coefficients times the
        basis stack. Any index set gives the bytes of the same rows of the
        whole product, because the coefficients get at least two rows: numpy
        multiplies a single row by gemv, which need not round like gemm."""
        n = len(picks[0])
        coeffs = np.zeros((max(n, 2), len(picks)), dtype=complex)
        for j, pick in enumerate(picks):
            coeffs[:n, j] = self.grid[pick]
        return (coeffs @ self.basis.stacks[w])[:n]

    def _kept(self, w: int, X: np.ndarray) -> np.ndarray:
        """(n, m, len(grid)) mask of the grid indices kept per sample row of
        X and coordinate, at point w."""
        s = self.basis.stacks[w]
        m, d = s.shape
        grid = self.grid
        g = _Gram(s) if self._grams is None else self._grams[w]
        sh, n2, live = g.sh, g.n2, g.live
        finite = np.isfinite(X).all(axis=1)
        X = np.where(finite[:, None], X, 0)
        # q of the live rows only: every other row keeps its whole grid
        t = (X @ sh)[:, live, None] - grid * n2[live, None]
        q = t.real**2
        q += t.imag**2
        q /= n2[live, None]
        R = float(np.abs(grid).max())
        Z = np.linalg.norm(X, axis=1) + m * R * math.sqrt(float(n2.max()))
        slack = 2.0 * (g.off * (m * R) ** 2 + 32 * (d + m + 1) * _U * Z**2) + 1e-300
        far = np.greater(q, q.min(axis=2, keepdims=True) + slack[:, None, None])
        keep = np.ones((len(X), m, len(grid)), dtype=bool)
        keep[:, live] = np.logical_not(far, out=far)
        if np.isfinite(R):  # a finite grid value times a zero row is a zero
            keep[:, g.zero, 1:] = False
        keep[~finite] = True
        return keep

    def nearest(self, w: int, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance from each row of X to its nearest net row at point w, and
        the lowest index attaining it: ``np.min`` and ``np.argmin`` of the
        ``_pair_dist`` table, bit for bit, from the kept rows alone."""
        keep = self._kept(w, X)
        n, m, size = keep.shape
        # each sample's lowest kept row: its nearest where it keeps no other
        first = keep.argmax(axis=2).T
        mins = _dist(X - self._rows(w, first))
        argmin = np.ravel_multi_index(first, (size,) * m)
        # every coordinate keeps one index at least: n * m kept is one row each
        if np.count_nonzero(keep) == n * m:
            return mins, argmin
        # the samples whose kept product holds more rows: compare them all
        for i in np.flatnonzero(keep.sum(axis=2).prod(axis=1) > 1):
            # its kept product in ascending net index order, so that argmin
            # breaks ties as the dense table does
            picks = [p.ravel() for p in np.meshgrid(*map(np.flatnonzero, keep[i]), indexing="ij")]
            dist = _dist(X[i] - self._rows(w, picks))
            mins[i] = np.min(dist)  # not dist[argmin]: a NaN's sign bit can differ
            argmin[i] = np.ravel_multi_index([p[np.argmin(dist)] for p in picks], (size,) * m)
        return mins, argmin


def heine_borel_net(basis: FiniteSet, c: float, eps: float, cap: int = 10**6) -> FiniteSet:
    """Finite eps-net for the ball of radius c in the module spanned by a
    suborthonormal basis.

    The net is the image of a product of disc grids (radius c, mesh
    eps/sqrt(d)) under the basis: every x with |x| <= c pointwise in the
    spanned module has pointwise nearest distance at most eps to the net.
    The net is a ``GridNet``: it holds that factorization and builds no
    rows, and ``defect`` against it builds and compares one row per sample,
    and more only where the pruning keeps more. Its grid comes from
    ``disc_grid``'s memo, and each point's Gram is formed once per net, by
    the suborthonormality check, which hands it to the net. A net over the
    cap is refused before its grid is built.
    """
    _check_finite("c", c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    grams = _suborthonormal_grams(basis)
    m = len(basis)
    if c == 0 or m == 0:
        return FiniteSet.zero(basis.space)
    return GridNet(basis, _net_grid(m, c, eps / math.sqrt(m), cap), cap, _grams=grams)


def zonotope_net(F: FiniteSet, mesh: float, cap: int = 10**6):
    """Finite net of the zonotope of F (the module combinations of its
    elements with coefficients of modulus <= 1) and its pointwise mesh bound.

    Returns ``(net, slack)`` where every element of the zonotope is within
    the StoneElement ``slack = mesh * sum_y |y|`` of the net, pointwise. The
    net is a ``GridNet`` on the generators and a disc grid of radius 1,
    refused before the grid is built when it would exceed the cap. The
    slack is zero where every generator is, an infinite mesh included.
    """
    if not mesh > 0:  # NaN too
        raise ValueError("mesh must be positive")
    space = F.space
    if len(F) == 0:
        return FiniteSet.zero(space), StoneElement.zeros(space.base)
    norm_sum = np.sum(F.norms(), axis=0)
    slack = np.multiply(mesh, norm_sum, out=np.zeros_like(norm_sum), where=norm_sum != 0)
    return GridNet(F, _net_grid(len(F), 1.0, mesh, cap), cap), StoneElement(space.base, slack)


# ---------------------------------------------------------------------------
# zonotope distances


def _padded(M: FiniteSet) -> np.ndarray:
    """(n_elements, n_points, max_dim) array of M, zero-padded across fibers."""
    space = M.space
    out = np.zeros((len(M), space.n_points, space.max_dim), dtype=complex)
    for w, s in enumerate(M.stacks):
        out[:, w, : space.dims[w]] = s
    return out


def _project_discs(lam: np.ndarray) -> np.ndarray:
    mod = np.abs(lam)
    scale = np.where(mod > 1.0, 1.0 / np.maximum(mod, 1e-300), 1.0)
    return lam * scale


def _solve_disc_fit(
    G: np.ndarray,
    b: np.ndarray,
    tol: float,
    max_iter: int,
):
    """Minimize ||G lam - b|| over per-coordinate unit discs, batched.

    Projected gradient with step 1/L (L the largest eigenvalue of the fiber
    Gram matrix) plus Nesterov momentum with a monotone safeguard. Stops per
    problem once the Frank-Wolfe gap certifies the distance within ``tol``
    of the optimum; that gap is the only stop rule, so every stopped problem
    is certified.

    Returns ``(dist, certified, iterations)`` with ``dist`` of shape
    ``(batch, n_points)``.
    """
    n_pts, d_max, m = G.shape
    batch = b.shape[0]
    gram = np.einsum("wdi,wdj->wij", np.conj(G), G)
    ghb = np.einsum("wdi,bwd->bwi", np.conj(G), b)
    if m == 0:
        dist = np.linalg.norm(b, axis=2)
        return dist, np.ones((batch, n_pts), dtype=bool), 0
    L = np.maximum(np.linalg.eigvalsh(gram).max(axis=1), 0.0)
    step = 1.0 / np.maximum(L, 1e-30)

    def objective(lam):
        resid = np.einsum("wdi,bwi->bwd", G, lam) - b
        return 0.5 * np.sum(np.abs(resid) ** 2, axis=2)

    def grad(lam):
        return np.einsum("wij,bwj->bwi", gram, lam) - ghb

    lam = np.zeros((batch, n_pts, m), dtype=complex)
    lam_prev = lam.copy()
    f_lam = objective(lam)
    best = np.sqrt(2.0 * f_lam)
    done = np.zeros((batch, n_pts), dtype=bool)
    t_mom = np.ones((batch, n_pts))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        beta = ((t_mom - 1.0) / t_next)[..., None]
        y = lam + beta * (lam - lam_prev)
        cand = _project_discs(y - step[None, :, None] * grad(y))
        f_cand = objective(cand)
        worse = f_cand > f_lam
        if np.any(worse):
            fallback = _project_discs(lam - step[None, :, None] * grad(lam))
            f_fb = objective(fallback)
            cand = np.where(worse[..., None], fallback, cand)
            f_cand = np.where(worse, f_fb, f_cand)
            t_next = np.where(worse, 1.0, t_next)
        lam_prev, lam, f_lam, t_mom = lam, cand, f_cand, t_next

        gamma = grad(lam)
        gap = np.maximum(
            np.sum(np.real(lam * np.conj(gamma)), axis=2)
            + np.sum(np.abs(gamma), axis=2),
            0.0,
        )
        dist = np.sqrt(2.0 * f_lam)
        best = np.minimum(best, dist)
        lower = np.sqrt(np.maximum(dist**2 - 2.0 * gap, 0.0))
        done |= (dist - lower) <= tol
        if np.all(done):
            break
    return best, done, iterations


def zonotope_report(
    M: FiniteSet,
    F: FiniteSet,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, dict]:
    """Pointwise distances of every element of M to the zonotope of F, a
    ``(len(M), n_points)`` array, together with solver diagnostics."""
    _check_space(M, F)
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    G = _padded(F).transpose(1, 2, 0)
    b = _padded(M)
    dist, done, iters = _solve_disc_fit(G, b, tol, max_iter)
    diag = {
        "iterations": int(iters),
        "tol": tol,
        "max_iter": max_iter,
        "stopped": int(np.sum(done)),
        "problems": int(done.size),
    }
    if not np.all(done):
        raise IterationLimitError(
            f"zonotope solver uncertified after {iters} iterations", best=dist
        )
    return dist, diag


def cp_check(
    M: FiniteSet,
    F: FiniteSet,
    eps: float,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> bool:
    """Is M inside the zonotope of F fattened by an eps-ball, pointwise?"""
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    dist, _ = zonotope_report(M, F, tol=tol, max_iter=max_iter)
    # a distance certified within tol of eps + tol, compared within tol
    return bool(np.all(dist <= eps + tol + tol))


@dataclass
class CpWitness:
    """Zonotope-containment witness: for each element of the probed set, a
    partition of unity selecting its fiberwise nearest candidate."""

    witness: FiniteSet
    selections: tuple[PartitionOfUnity, ...]


def cp_witness_from_utob(M: FiniteSet, eps: float) -> CpWitness:
    """Turn a uniform total order-boundedness witness into idempotent
    selections placing each element of M inside Z_F + eps-ball."""
    utob = is_utob(M, eps)
    if not utob.verdict or utob.report is None:
        raise ValueError(f"M is not uniformly totally order-bounded at eps={eps}")
    F0 = utob.witness
    base = M.space.base
    selections = []
    for i in range(len(M)):
        row = utob.report.argmin[i]
        masks = [row == j for j in range(len(F0))]
        selections.append(
            PartitionOfUnity([Idempotent(base, mk) for mk in masks])
        )
    return CpWitness(F0, tuple(selections))
