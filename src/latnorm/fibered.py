"""Fiberwise lattice-normed modules over a finite Stone algebra.

A module element assigns to every point of the base a vector in a finite
dimensional complex Hilbert fiber; the lattice norm is the fiberwise
Euclidean norm. The central quantity is the defect of a set M against a
finite candidate set F,

    defect(M, F)(w) = max_{x in M} min_{y in F} ||x(w) - y(w)||,

which measures order-precompactness pointwise. On top of it sit epsilon-net
constructions (Heine-Borel style over a suborthonormal basis), zonotope
membership distances solved by projected gradient, and the bookkeeping for
uniform total order-boundedness witnesses.
"""

from __future__ import annotations

import math
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


class ModuleVector:
    """One complex vector per point of the base."""

    __slots__ = ("space", "fibers")

    def __init__(self, space: FiberSpace, fibers: Sequence[np.ndarray]):
        fibers = [np.asarray(f, dtype=complex) for f in fibers]
        if len(fibers) != space.n_points:
            raise DimensionMismatchError("one fiber per point required")
        for f, d in zip(fibers, space.dims):
            if f.shape != (d,):
                raise DimensionMismatchError(
                    f"fiber shape {f.shape} does not match dimension {d}"
                )
        self.space = space
        self.fibers = fibers

    @staticmethod
    def zeros(space: FiberSpace) -> "ModuleVector":
        return ModuleVector(space, [np.zeros(d, dtype=complex) for d in space.dims])

    def copy(self) -> "ModuleVector":
        return ModuleVector(self.space, [f.copy() for f in self.fibers])

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _check_space(self, other)
        return ModuleVector(
            self.space, [a + b for a, b in zip(self.fibers, other.fibers)]
        )

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        _check_space(self, other)
        return ModuleVector(
            self.space, [a - b for a, b in zip(self.fibers, other.fibers)]
        )

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.space, [-f for f in self.fibers])

    def __rmul__(self, other) -> "ModuleVector":
        if isinstance(other, ComplexCoefficient):
            if other.base != self.space.base:
                raise DimensionMismatchError("coefficient on a different point set")
            return ModuleVector(
                self.space,
                [lam * f for lam, f in zip(other.values, self.fibers)],
            )
        if isinstance(other, Idempotent):
            if other.base != self.space.base:
                raise DimensionMismatchError("idempotent on a different point set")
            return ModuleVector(
                self.space,
                [f * bool(m) for m, f in zip(other.mask, self.fibers)],
            )
        if isinstance(other, (int, float, complex)):
            return ModuleVector(self.space, [other * f for f in self.fibers])
        return NotImplemented

    __mul__ = __rmul__

    def conj(self) -> "ModuleVector":
        return ModuleVector(self.space, [np.conj(f) for f in self.fibers])

    def lattice_norm(self) -> StoneElement:
        """Pointwise Euclidean norm of the fibers."""
        return StoneElement(
            self.space.base, [float(np.linalg.norm(f)) for f in self.fibers]
        )

    def inner(self, other: "ModuleVector") -> ComplexCoefficient:
        """Fiberwise inner product, linear in the first argument."""
        _check_space(self, other)
        vals = [
            complex(np.sum(a * np.conj(b)))
            for a, b in zip(self.fibers, other.fibers)
        ]
        return ComplexCoefficient(self.space.base, vals)

    def __repr__(self):
        return f"ModuleVector(points={self.space.n_points})"


class FiniteSet:
    """Finite ordered list of module vectors on a common fiber space.

    Stored as one unpadded (n_elements, dim) stack per fiber so that defect
    computations vectorize; individual elements are materialized on demand,
    and ``p * M`` multiplies all of them by an idempotent or a scalar.
    """

    __slots__ = ("space", "stacks", "_n")

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

    @staticmethod
    def from_vectors(vectors: Sequence[ModuleVector], space: FiberSpace | None = None):
        vectors = list(vectors)
        if space is None:
            if not vectors:
                raise ValueError("cannot infer the space of an empty set")
            space = vectors[0].space
        for v in vectors:
            if v.space != space:
                raise DimensionMismatchError("elements live on different fiber spaces")
        stacks = [
            np.array([v.fibers[w] for v in vectors], dtype=complex).reshape(
                len(vectors), d
            )
            for w, d in enumerate(space.dims)
        ]
        return FiniteSet(space, stacks, len(vectors))

    def __len__(self):
        return self._n

    def __getitem__(self, i: int) -> ModuleVector:
        return ModuleVector(self.space, [s[i] for s in self.stacks])

    def __iter__(self):
        return (self[i] for i in range(self._n))

    def subset(self, indices: Sequence[int]) -> "FiniteSet":
        idx = list(indices)
        return FiniteSet(self.space, [s[idx] for s in self.stacks], len(idx))

    def __rmul__(self, other) -> "FiniteSet":
        if isinstance(other, Idempotent):
            if other.base != self.space.base:
                raise DimensionMismatchError("idempotent on a different point set")
            stacks = [s * m for m, s in zip(other.mask, self.stacks)]
        elif isinstance(other, (int, float, complex)):
            stacks = [other * s for s in self.stacks]
        else:
            return NotImplemented
        return FiniteSet(self.space, stacks, self._n)

    def norm_sup(self) -> StoneElement:
        """Pointwise supremum of the lattice norms of the elements."""
        if self._n == 0:
            return StoneElement.zeros(self.space.base)
        vals = [float(np.max(np.linalg.norm(s, axis=1))) for s in self.stacks]
        return StoneElement(self.space.base, vals)

    def __repr__(self):
        return f"FiniteSet(n={self._n}, points={self.space.n_points})"


@dataclass(frozen=True)
class Zonotope:
    """Module combinations of the generators with coefficients of modulus <= 1."""

    generators: FiniteSet


@dataclass
class DefectReport:
    """Value and witness of a defect computation.

    ``argmin[i, w]`` is the index into ``witness`` of the fiberwise nearest
    candidate for element i of the probed set at point w.
    """

    value: StoneElement
    witness: FiniteSet
    argmin: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.value.base.labels),
            "value": [float(v) for v in self.value.values],
            "witness_size": len(self.witness),
            "argmin": self.argmin.tolist(),
        }

    def to_csv(self) -> str:
        lines = ["point,defect"]
        for label, v in zip(self.value.base.labels, self.value.values):
            lines.append(f"{label},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _dist(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms of complex differences along the last axis: the one
    distance formula between fiber vectors, so that traversal rows and defect
    tables (a prefix defect and its recheck) agree to the last bit."""
    v = diff.view(float)
    return np.sqrt(np.einsum("...k,...k->...", v, v))


def _pair_dist(stack_a: np.ndarray, stack_b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of two complex stacks.

    Computed by ``_dist`` from explicit differences (chunked to bound
    memory): the Gram identity would lose ~1e-8 of absolute accuracy near
    zero, which the exact-coincidence checks cannot afford.
    """
    n_a, d = stack_a.shape
    n_b = stack_b.shape[0]
    out = np.empty((n_a, n_b))
    chunk = max(1, (1 << 22) // max(n_b * max(d, 1), 1))
    for i0 in range(0, n_a, chunk):
        out[i0 : i0 + chunk] = _dist(
            stack_a[i0 : i0 + chunk, None, :] - stack_b[None, :, :]
        )
    return out


def _distances_to(M: FiniteSet, x_fibers: Sequence[np.ndarray]) -> np.ndarray:
    """(n_points, n_elements) distances from every element of M to the
    vector with fibers ``x_fibers``, the same values as ``_pair_dist``."""
    out = np.empty((M.space.n_points, len(M)))
    for w, (s, x) in enumerate(zip(M.stacks, x_fibers)):
        out[w] = _dist(s - x)
    return out


def defect(M: FiniteSet, F: FiniteSet) -> DefectReport:
    """Pointwise worst-case distance from M to its nearest candidate in F."""
    _check_space(M, F)
    if len(M) == 0 or len(F) == 0:
        raise ValueError("defect requires nonempty M and F")
    n_pts = M.space.n_points
    value = np.empty(n_pts)
    argmin = np.empty((len(M), n_pts), dtype=int)
    for w in range(n_pts):
        dist = _pair_dist(M.stacks[w], F.stacks[w])
        argmin[:, w] = np.argmin(dist, axis=1)
        value[w] = float(np.max(np.min(dist, axis=1)))
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
    for w in range(M.space.n_points):
        dist = _pair_dist(M.stacks[w], F.stacks[w])
        out[:, w] = np.minimum.accumulate(dist, axis=1).max(axis=0)
    return out


@dataclass
class UtobReport:
    """Outcome of a uniform total order-boundedness check."""

    verdict: bool
    witness: FiniteSet
    report: DefectReport | None
    epsilon: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "witness_size": len(self.witness),
            "defect": None if self.report is None else self.report.to_json_dict(),
        }


def _norm_table(M: FiniteSet) -> np.ndarray:
    """(n_elements, n_points) table of fiber norms."""
    return np.stack(
        [np.linalg.norm(s, axis=1) for s in M.stacks], axis=1
    ) if len(M) else np.zeros((0, M.space.n_points))


class Traversal:
    """Gonzalez farthest-point traversal of M, shared by every reader.

    Seeded by the element of largest lattice norm; each step places the
    element farthest (in sup norm of the pointwise distance) from those
    already placed, ties to the lowest index. ``grow(k)`` places elements
    only until k are placed, one distance row per placed element. ``order``
    lists the placed indices, and row j of ``radii`` is the running radius
    after j + 1 placements: the pointwise defect of M against
    ``order[:j + 1]``. ``recheck(k)`` is the independent ``defect`` of M
    against the first k placed elements, computed once per k;
    ``utob(eps, tol)`` is ``is_utob`` through this traversal, computed once
    per (eps, tol).
    """

    def __init__(self, M: FiniteSet):
        self.M = M
        self.order: list[int] = []
        self.radii = np.empty((len(M), M.space.n_points))
        self._placed = np.zeros(len(M), dtype=bool)
        self._mindist = np.full((M.space.n_points, len(M)), np.inf)
        self._rechecks: dict[int, DefectReport] = {}
        self._utob: dict[tuple[float, float], UtobReport] = {}

    def grow(self, k: int) -> np.ndarray:
        """Place the first k elements (all of M when k exceeds it) and
        return their rows of ``radii``."""
        M = self.M
        while len(self.order) < min(k, len(M)):
            if self.order:
                scores = self._mindist.max(axis=0)
                scores[self._placed] = -1.0
                nxt = int(scores.argmax())
            else:
                nxt = int(np.argmax(np.max(_norm_table(M), axis=1)))
            row = _distances_to(M, [s[nxt] for s in M.stacks])
            np.minimum(self._mindist, row, out=self._mindist)
            self._placed[nxt] = True
            self.radii[len(self.order)] = self._mindist.max(axis=1)
            self.order.append(nxt)
        return self.radii[:k]

    def recheck(self, k: int) -> DefectReport:
        if k not in self._rechecks:
            self._rechecks[k] = defect(self.M, self.M.subset(self.order[:k]))
        return self._rechecks[k]

    def utob(self, eps: float, tol: float) -> UtobReport:
        key = (eps, tol)
        if key not in self._utob:
            self._utob[key] = is_utob(self.M, eps, tol, traversal=self)
        return self._utob[key]


def is_utob(
    M: FiniteSet,
    eps: float,
    tol: float = DEFAULT_TOL,
    traversal: Traversal | None = None,
) -> UtobReport:
    """Check uniform total order-boundedness of M at level eps.

    Any finite M is uniformly totally order-bounded (M itself is a witness
    with defect zero); the value of this routine is the witness it returns:
    the shortest prefix of the farthest-point traversal of M whose prefix
    defect is pointwise below eps, with the defect recomputed
    independently for the verdict. ``traversal``, a ``Traversal`` of M,
    lets several eps share one traversal, and one recheck per distinct
    witness.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if traversal is None:
        traversal = Traversal(M)
    elif traversal.M is not M:
        raise ValueError("the traversal belongs to another set")
    if len(M) == 0:
        return UtobReport(True, FiniteSet(M.space, [s[:0] for s in M.stacks], 0), None, eps)
    for k in range(1, len(M) + 1):
        if float(np.max(traversal.grow(k)[-1])) <= eps + tol:
            break
    report = traversal.recheck(k)
    verdict = report.value.le(eps, tol)
    return UtobReport(verdict, report.witness, report, eps)


def greedy_order(M: FiniteSet) -> list[int]:
    """Full farthest-point insertion order of M."""
    traversal = Traversal(M)
    traversal.grow(len(M))
    return traversal.order


def truncate_to_ball(F: FiniteSet, r: float, tol: float = DEFAULT_TOL) -> FiniteSet:
    """Cut every element down to the ball of radius 2r.

    Each y is replaced by p*y where p is the idempotent of {|y| <= 2r}. For
    any probe set inside the ball of radius r this never increases pointwise
    nearest distances. r = 0 is allowed: the ball is then the zero set.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    stacks = []
    norms = _norm_table(F)
    keep = norms <= 2.0 * r + tol
    for w, s in enumerate(F.stacks):
        stacks.append(s * keep[:, w][:, None])
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

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.space != self.space_in:
            raise DimensionMismatchError("vector not in the map's domain")
        return ModuleVector(
            self.space_out, [m @ f for m, f in zip(self.mats, x.fibers)]
        )


def set_image(T: FiberwiseMap, M: FiniteSet) -> FiniteSet:
    """Elementwise image of M under a fiberwise linear map."""
    if M.space != T.space_in:
        raise DimensionMismatchError("set not in the map's domain")
    stacks = [s @ m.T for s, m in zip(M.stacks, T.mats)]
    return FiniteSet(T.space_out, stacks, len(M))


# ---------------------------------------------------------------------------
# epsilon-nets


def disc_grid(radius: float, mesh: float) -> np.ndarray:
    """Finite mesh-net of the closed complex disc of the given radius.

    Polar grid: rings spaced mesh/sqrt(2) apart, angular spacing on each
    ring with chord length at most mesh/sqrt(2); every point of the disc is
    then within mesh of a grid point.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if mesh <= 0:
        raise ValueError("mesh must be positive")
    if radius == 0:
        return np.zeros(1, dtype=complex)
    step = mesh / math.sqrt(2.0)
    n_rings = max(1, math.ceil(radius / step))
    points = [0.0 + 0.0j]
    for k in range(1, n_rings + 1):
        rho = radius * k / n_rings
        n_theta = max(1, math.ceil(2.0 * math.pi * rho / step))
        angles = 2.0 * math.pi * np.arange(n_theta) / n_theta
        points.extend(rho * np.exp(1j * angles))
    return np.asarray(points, dtype=complex)


def check_suborthonormal(basis: FiniteSet, tol: float = 1e-7) -> None:
    """Raise unless the basis is pairwise orthogonal with idempotent norms."""
    d = len(basis)
    for w, s in enumerate(basis.stacks):
        gram = s @ np.conj(s.T)
        off = gram - np.diag(np.diag(gram))
        if d > 1 and float(np.max(np.abs(off))) > tol:
            raise ValueError(f"basis not fiberwise orthogonal at point {w}")
        diag = np.real(np.diag(gram))
        if float(np.max(np.minimum(np.abs(diag), np.abs(diag - 1.0)))) > tol:
            raise ValueError(f"basis norms not idempotent-valued at point {w}")


def _grid_image(F: FiniteSet, grid: np.ndarray, cap: int) -> FiniteSet:
    """Images ``sum_j lam_j F[j]`` of every tuple ``lam`` of grid points, in
    ``itertools.product`` order (the last coefficient varies fastest)."""
    m = len(F)
    total = m * len(grid) ** m
    if total > cap:
        raise SizeCapError(
            f"net would need {m}*{len(grid)}^{m} = {total} > cap {cap}; "
            "raise the cap or loosen the mesh"
        )
    combos = np.stack(np.meshgrid(*[grid] * m, indexing="ij"), -1).reshape(-1, m)
    return FiniteSet(F.space, [combos @ s for s in F.stacks], combos.shape[0])


def heine_borel_net(
    basis: FiniteSet,
    c: float,
    eps: float,
    cap: int = 10**6,
    tol: float = 1e-7,
) -> FiniteSet:
    """Finite eps-net for the ball of radius c in the module spanned by a
    suborthonormal basis.

    The net is the image of a product of disc grids (radius c, mesh
    eps/sqrt(d)) under the basis: every x with |x| <= c pointwise in the
    spanned module has pointwise nearest distance at most eps to the net.
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    check_suborthonormal(basis, tol)
    space = basis.space
    if c == 0 or len(basis) == 0:
        return FiniteSet.from_vectors([ModuleVector.zeros(space)], space)
    return _grid_image(basis, disc_grid(c, eps / math.sqrt(len(basis))), cap)


def zonotope_net(Z: Zonotope, mesh: float, cap: int = 10**6):
    """Finite net of a zonotope together with its pointwise mesh bound.

    Returns ``(net, slack)`` where every element of the zonotope is within
    the StoneElement ``slack = mesh * sum_y |y|`` of the net, pointwise.
    """
    F = Z.generators
    space = F.space
    if len(F) == 0:
        net = FiniteSet.from_vectors([ModuleVector.zeros(space)], space)
        return net, StoneElement.zeros(space.base)
    norm_sum = np.sum(_norm_table(F), axis=0)
    slack = StoneElement(space.base, mesh * norm_sum)
    return _grid_image(F, disc_grid(1.0, mesh), cap), slack


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
    L = np.array([max(float(np.max(np.linalg.eigvalsh(g))), 0.0) for g in gram])
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


def zonotope_distance(
    x: ModuleVector,
    Z: Zonotope,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> StoneElement:
    """Pointwise distance from x to the zonotope of Z's generators."""
    dists = zonotope_distances(
        FiniteSet.from_vectors([x]), Z, tol=tol, max_iter=max_iter
    )
    return dists[0]


def zonotope_distances(
    M: FiniteSet,
    Z: Zonotope,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> list[StoneElement]:
    """Batched pointwise zonotope distances for every element of M."""
    dists, _ = zonotope_report(M, Z, tol=tol, max_iter=max_iter)
    return dists


def zonotope_report(
    M: FiniteSet,
    Z: Zonotope,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> tuple[list[StoneElement], dict]:
    """Zonotope distances together with solver diagnostics."""
    F = Z.generators
    _check_space(M, F)
    if tol <= 0:
        raise ValueError("tol must be positive")
    G = _padded(F).transpose(1, 2, 0)
    b = _padded(M)
    dist, done, iters = _solve_disc_fit(G, b, tol, max_iter)
    out = [StoneElement(M.space.base, dist[i]) for i in range(len(M))]
    diag = {
        "iterations": int(iters),
        "tol": tol,
        "max_iter": max_iter,
        "stopped": int(np.sum(done)),
        "problems": int(done.size),
    }
    if not np.all(done):
        raise IterationLimitError(
            f"zonotope solver uncertified after {iters} iterations", best=out
        )
    return out, diag


def cp_check(
    M: FiniteSet,
    F: FiniteSet,
    eps: float,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> bool:
    """Is M inside the zonotope of F fattened by an eps-ball, pointwise?"""
    if eps <= 0:
        raise ValueError("eps must be positive")
    dists = zonotope_distances(M, Zonotope(F), tol=tol, max_iter=max_iter)
    return all(d.le(eps + tol, tol) for d in dists)


@dataclass
class CpWitness:
    """Zonotope-containment witness: for each element of the probed set, a
    partition of unity selecting its fiberwise nearest candidate."""

    witness: FiniteSet
    selections: tuple[PartitionOfUnity, ...]


def cp_witness_from_utob(
    M: FiniteSet, eps: float, tol: float = DEFAULT_TOL
) -> CpWitness:
    """Turn a uniform total order-boundedness witness into idempotent
    selections placing each element of M inside Z_F + eps-ball."""
    utob = is_utob(M, eps, tol)
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
