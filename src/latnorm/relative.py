"""Relative structure of an extension: almost periodic functions, generated
submodules, the Kronecker subspace, and localization.

Orbits of upstairs functions are probed for order-precompactness inside the
fiberwise module of the extension. A function is conditionally almost
periodic when its orbit is uniformly totally order-bounded there; the
Kronecker subspace is spanned by the finitely generated invariant
submodules grown from point indicators; on finite models the two always
exhaust the whole function space, and the cross-check below verifies that
the independent pipelines agree instead of assuming it.

The orbit routines read an orbit's traversal from the extension, which keeps
one per orbit set for its lifetime; the Kronecker subspace and the
cross-check visit each point orbit once, not each indicator. A defect chain
is one ``(K, n_points)`` array, a traversal's read-only radii, and Egoroff
localization reads it as it is.

An invariant submodule is closed under band projections, so the Kronecker
subspace is the direct sum of its fiber parts, one orthonormal block per
downstairs fiber; the AP and TOB spans are point masks. The cross-check's
linear algebra therefore costs the sum of |fiber|^3, not n_x^3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fibered import FiniteSet, Traversal, defect, is_utob, set_sum
from .stone import DEFAULT_TOL
from .systems import Extension, RelModule, _generator_steps, _walk_orbit, embed_J


# ---------------------------------------------------------------------------
# orbits


def orbit_functions(f, ext: Extension, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Deduplicated images of f under the group of the upstairs generators.

    Walked breadth-first from f under the generators and their inverses
    (Schreier-graph orbit algorithm), so the cost is the orbit size, not the
    group order; ``ext.cap`` bounds the orbit size. Images whose entries
    agree after rounding to multiples of tol count as one.
    """
    f = np.asarray(f, dtype=complex)
    scale = max(tol, 1e-300)

    def key(g):
        return np.round(g.view(float) / scale).astype(np.int64).tobytes()

    images = _walk_orbit(f, _generator_steps(ext.upstairs_gens), key, ext.cap)
    return np.array(images, dtype=complex)


def orbit(f, ext: Extension, tol: float = DEFAULT_TOL) -> FiniteSet:
    """Orbit of f encoded into the fiberwise module of the extension."""
    return ext.rel.encode(orbit_functions(f, ext, tol))


def _traversal(f, ext: Extension, tol: float) -> Traversal:
    """The traversal of f's encoded orbit, memoized in ``ext._orbits``.

    The orbit of any image of f is f's own orbit, so a walk files its one
    traversal under the bytes of every image it kept; each orbit set is then
    walked, encoded and traversed once per extension and tol.
    """
    f = np.asarray(f, dtype=complex)
    hit = ext._orbits.get((tol, f.tobytes()))
    if hit is None:
        images = orbit_functions(f, ext, tol)
        hit = Traversal(ext.rel.encode(images))
        for g in images:
            ext._orbits.setdefault((tol, g.tobytes()), hit)
    return hit


def _point_orbits(ext: Extension, tol: float) -> list[tuple]:
    """``(traversal, indicator, points)`` per point orbit, in order of the
    orbit's first point, whose indicator it is: the indicators grouped by
    the traversal they share."""
    orbits: dict[Traversal, tuple] = {}
    for x in range(ext.upstairs.size):
        f = np.zeros(ext.upstairs.size, dtype=complex)
        f[x] = 1.0
        orbits.setdefault(_traversal(f, ext, tol), (f, []))[1].append(x)
    return [(trav, f, xs) for trav, (f, xs) in orbits.items()]


# ---------------------------------------------------------------------------
# conditional almost periodicity


@dataclass
class APReport:
    """Per-epsilon verdicts and witnesses for one function's orbit."""

    function: np.ndarray
    eps_values: tuple[float, ...]
    verdicts: list[bool]
    witnesses: list[FiniteSet]

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts)


def is_conditionally_ap(
    f,
    ext: Extension,
    eps_values: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> APReport:
    """Probe the orbit of f for uniform total order-boundedness at each eps.

    Every eps reads its witness off the one traversal of the orbit.
    """
    trav = _traversal(f, ext, tol)
    reps = [is_utob(trav.M, eps, tol, traversal=trav) for eps in eps_values]
    return APReport(
        np.asarray(f, dtype=complex),
        tuple(eps_values),
        [bool(rep.verdict) for rep in reps],
        [rep.witness for rep in reps],
    )


def defect_chain(M: FiniteSet) -> np.ndarray:
    """Defect values of M against its increasing greedy witness prefixes,
    one row per prefix: the read-only radii of one farthest-point traversal."""
    return Traversal(M).radii


def orbit_tob_verdict(f, ext: Extension, tol: float = DEFAULT_TOL) -> bool:
    """Pointwise (order) convergence of the orbit's defect chain to zero.

    Distinct from the uniform pipeline: this checks that the chain of
    defects over increasing witnesses is pointwise decreasing and ends at
    zero, with no uniformity requirement along the way.
    """
    U = _traversal(f, ext, tol).radii
    return bool(np.all(U[1:] <= U[:-1] + tol) and np.all(U[-1] <= tol))


# ---------------------------------------------------------------------------
# generated submodules and the Kronecker subspace


@dataclass
class SubmoduleBasis:
    """Suborthonormal basis of the module generated by an orbit.

    ``vectors[j]`` has, over each point, either a unit fiber vector or zero;
    ``ranks[w]`` counts the nonzero ones at point w.
    """

    module: RelModule
    vectors: FiniteSet
    ranks: np.ndarray

    def __len__(self):
        return len(self.vectors)

    def project(self, X: FiniteSet) -> FiniteSet:
        """Fiberwise orthogonal projection of every element of X onto the
        generated module."""
        stacks = [
            (s @ np.conj(B).T) @ B for s, B in zip(X.stacks, self.vectors.stacks)
        ]
        return FiniteSet(self.module.space, stacks, len(X))


def generated_submodule(f, ext: Extension, tol: float = DEFAULT_TOL) -> SubmoduleBasis:
    """Fiberwise orthonormalization of the module spanned by the orbit of f.

    Per fiber the orbit vectors are stacked and reduced by SVD; singular
    values below tol times the fiber dimension times the largest singular
    value are treated as rank defects. The cut is relative because orbit
    points share a weight: a point holding a tiny share of its fiber's
    weight still generates its line. The result is invariant under the
    action because the orbit is.
    """
    orb = _traversal(f, ext, tol).M
    fiber_bases = []
    for stack, d in zip(orb.stacks, orb.space.dims):
        _, sv, vh = np.linalg.svd(stack, full_matrices=False)
        fiber_bases.append(vh[: int(np.sum(sv > tol * d * np.max(sv, initial=0.0)))])
    ranks = np.array([len(b) for b in fiber_bases], dtype=int)
    n_basis = int(ranks.max())
    stacks = []
    for b, d in zip(fiber_bases, orb.space.dims):
        s = np.zeros((n_basis, d), dtype=complex)
        s[: len(b)] = b
        stacks.append(s)
    return SubmoduleBasis(ext.rel, FiniteSet(orb.space, stacks, n_basis), ranks)


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the orthonormal rows of basis."""
    return basis.T @ np.conj(basis)


@dataclass
class KroneckerReport:
    """One orthonormal ``(r_y, |fiber y|)`` row block per downstairs fiber,
    columns in ``fiber_points[y]`` order. Module and weighted coordinates
    differ by one scalar per fiber, so the projector is the same in both."""

    dim: int
    blocks: list[np.ndarray]
    fiber_points: list[np.ndarray]
    seed_ranks: list[int]

    def projector(self) -> np.ndarray:
        """The block-diagonal ``(n_x, n_x)`` projector."""
        n_x = sum(len(pts) for pts in self.fiber_points)
        P = np.zeros((n_x, n_x), dtype=complex)
        for B, pts in zip(self.blocks, self.fiber_points):
            P[np.ix_(pts, pts)] = projector(B)
        return P


def kronecker_subspace(ext: Extension, tol: float = DEFAULT_TOL) -> KroneckerReport:
    """Span of the invariant modules generated by every point indicator.

    One module per point orbit; per fiber, its basis rows (by orbit, then
    basis vector) go through one SVD in module coordinates, cut at 1e-10
    times that fiber's largest singular value, whatever the fiber weighs.
    ``seed_ranks[x]`` is the size of the module of point x's orbit.
    """
    rows = [[] for _ in range(ext.downstairs.size)]
    seed_ranks = np.zeros(ext.upstairs.size, dtype=int)
    for _, f, xs in _point_orbits(ext, tol):
        sb = generated_submodule(f, ext, tol)
        for y, (s, r) in enumerate(zip(sb.vectors.stacks, sb.ranks)):
            rows[y].append(s[:r])
        seed_ranks[xs] = len(sb)
    blocks = []
    for stack in map(np.concatenate, rows):
        _, sv, vh = np.linalg.svd(stack, full_matrices=False)
        blocks.append(vh[: int(np.sum(sv > 1e-10 * np.max(sv, initial=0.0)))])
    dim = sum(map(len, blocks))
    return KroneckerReport(dim, blocks, ext.rel.fiber_points, seed_ranks.tolist())


# ---------------------------------------------------------------------------
# Egoroff localization


@dataclass
class EgoroffReport:
    kept: np.ndarray  # bool mask of the points kept
    removed: list[int]
    removed_mass: float
    thresholds: dict[float, int | None]


def egoroff_localize(
    U: np.ndarray,
    weights: np.ndarray,
    delta: float,
    eps_values: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
    tol: float = DEFAULT_TOL,
) -> EgoroffReport:
    """Trade a mass budget for uniform convergence of a decreasing chain.

    ``U`` is the ``(K, n_points)`` chain, one row per link; it must decrease
    pointwise (defects against increasing witness sets do). Points are
    ranked by how slowly their values decay (late values first, ties toward
    the larger index) and greedily removed while the removed mass stays
    within delta; points whose whole profile is already below tol are never
    spent on. Thresholds report, per epsilon, the first chain index that is
    uniformly below epsilon on the kept set, whose mask is ``kept``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    U = np.asarray(U, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if U.ndim != 2 or len(U) == 0 or U.shape[1:] != weights.shape:
        raise ValueError("need a nonempty (K, n_points) chain and one weight per point")
    if not np.all(U[1:] <= U[:-1] + tol):
        raise ValueError("chain is not pointwise decreasing")
    slow_order = np.lexsort(tuple(U))[::-1]  # last chain element is primary
    slow_order = slow_order[~np.all(U[:, slow_order] <= tol, axis=0)]
    removed = []
    removed_mass = 0.0
    for idx in slow_order.tolist():
        if removed_mass + weights[idx] <= delta + 1e-15:
            removed.append(idx)
            removed_mass += float(weights[idx])
    kept = np.ones(U.shape[1], dtype=bool)
    kept[removed] = False
    thresholds: dict[float, int | None] = {}
    for eps in eps_values:
        below = np.all(U[:, kept] <= eps + tol, axis=1)
        thresholds[eps] = int(below.argmax()) + 1 if below.any() else None
    return EgoroffReport(kept, sorted(removed), removed_mass, thresholds)


# ---------------------------------------------------------------------------
# cross-checks


@dataclass
class CrossCheckReport:
    n_points: int
    kronecker_dim: int
    ap_dim: int
    tob_dim: int
    distances: dict[str, float]
    inclusion_residuals: dict[str, float]
    ap_verdicts: list[bool]
    ap_witness_sizes: list[list[int]]
    egoroff_thresholds: dict[float, int | None]
    corollary: dict[str, bool]
    weakly_mixing_dim: int
    note: str = field(default="")

    @property
    def subspaces_coincide(self) -> bool:
        return all(d <= 1e-7 for d in self.distances.values())


def _fiber_distances(kron: KroneckerReport, ap: np.ndarray, tob: np.ndarray):
    """Distances and inclusion residuals of the three spans, AP and TOB given
    by point masks (projectors ``diag(mask)``). Every projector is block
    diagonal, so each spectral norm is the largest over the fibers, and two
    coordinate projectors are 1 apart where their masks differ, else 0."""
    fm_ap = fm_tob = fm_in_ap = 0.0
    for B, pts in zip(kron.blocks, kron.fiber_points):
        P = projector(B)
        a, t = ap[pts], tob[pts]
        fm_ap = max(fm_ap, float(np.linalg.norm(P - np.diag(a), 2)))
        fm_tob = max(fm_tob, float(np.linalg.norm(P - np.diag(t), 2)))
        fm_in_ap = max(fm_in_ap, float(np.linalg.norm(P - a[:, None] * P, 2)))
    distances = {"fm_ap": fm_ap, "fm_tob": fm_tob, "ap_tob": float(np.any(ap != tob))}
    inclusions = {"fm_in_ap": fm_in_ap, "ap_in_tob": float(np.any(ap & ~tob))}
    return distances, inclusions


def theorem_cross_check(
    ext: Extension,
    eps_values: Sequence[float] = (0.5, 0.25),
    delta_values: Sequence[float] = (0.25, 0.1),
) -> CrossCheckReport:
    """Compare the three subspace pipelines and the localization criterion.

    Pipeline 1 grows invariant submodules from point indicators (Kronecker
    subspace); pipeline 2 spans the indicators whose orbits pass the uniform
    precompactness probe; pipeline 3 spans those whose defect chains decrease
    pointwise to zero. The report also evaluates the four equivalent
    characterizations (discrete spectrum, density of the almost periodic
    part, density of the order-precompact part, localizability) and states
    the finite-scale degeneracy explicitly.

    Each point orbit is visited once, with one AP probe, one TOB verdict and
    one localization per delta. The localized indicator ``1_kept * e_x`` is
    e_x over a kept point and the zero function, probed too, over a cut one.
    """
    n_x = ext.upstairs.size
    kron = kronecker_subspace(ext)

    ap_ok, tob_ok = np.zeros((2, n_x), dtype=bool)
    ap_sizes = np.zeros((n_x, len(eps_values)), dtype=int)
    egoroff_ok = True
    eps_ref = min(eps_values)
    thresholds: dict[float, int | None] = {d: 0 for d in delta_values}
    for trav, f, xs in _point_orbits(ext, DEFAULT_TOL):
        rep = is_conditionally_ap(f, ext, eps_values)
        ap_ok[xs] = rep.all_pass
        ap_sizes[xs] = [len(wit) for wit in rep.witnesses]
        tob_ok[xs] = orbit_tob_verdict(f, ext)
        for delta in delta_values:
            loc = egoroff_localize(
                trav.radii, ext.downstairs.weights, delta, eps_values=[eps_ref]
            )
            t_here, t_max = loc.thresholds[eps_ref], thresholds[delta]
            thresholds[delta] = None if None in (t_here, t_max) else max(t_max, t_here)
            kept = loc.kept[ext.factor[xs]]
            egoroff_ok &= rep.all_pass or not kept.any()
            if not kept.all():
                zero = np.zeros(n_x, dtype=complex)
                egoroff_ok &= is_conditionally_ap(zero, ext, eps_values).all_pass

    distances, inclusions = _fiber_distances(kron, ap_ok, tob_ok)
    corollary = {
        "discrete_spectrum": kron.dim == n_x,
        "ap_dense": bool(ap_ok.all()),
        "tob_dense": bool(tob_ok.all()),
        "egoroff_localizable": egoroff_ok,
    }
    return CrossCheckReport(
        n_points=n_x,
        kronecker_dim=kron.dim,
        ap_dim=int(ap_ok.sum()),
        tob_dim=int(tob_ok.sum()),
        distances=distances,
        inclusion_residuals=inclusions,
        ap_verdicts=ap_ok.tolist(),
        ap_witness_sizes=ap_sizes.tolist(),
        egoroff_thresholds=thresholds,
        corollary=corollary,
        weakly_mixing_dim=n_x - kron.dim,
        note=(
            "finite-scale degeneracy: the weakly mixing complement is "
            f"{n_x - kron.dim}-dimensional (expected 0 on finite models); "
            "the subspace equalities are verified, not assumed"
        ),
    )


def ap_closure_properties(
    ext: Extension,
    f,
    g,
    h,
    eps: float,
    tol: float = DEFAULT_TOL,
) -> dict[str, bool]:
    """Verify closure of the almost periodic part under the module structure.

    Uses the constructed witnesses, not the trivial full-orbit ones: the sum
    f+g is approximated by sums of the two witnesses at 2*eps, the module
    product (lifted h times f) by coefficient multiples of f's witness at
    eps * max|h|, and conjugate/modulus by the transformed witness at eps.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    h = np.asarray(h, dtype=complex)
    wit_f = is_utob(orbit(f, ext), eps, tol).witness
    wit_g = is_utob(orbit(g, ext), eps, tol).witness
    space = wit_f.space

    out = {}
    sum_orbit = orbit(f + g, ext)
    out["sum"] = defect(sum_orbit, set_sum(wit_f, wit_g)).value.le(2 * eps, 10 * tol)

    # every coefficient of h's orbit times every element of f's witness,
    # coefficient-major
    steps_y = _generator_steps(ext.downstairs_gens)
    coeffs = np.array(_walk_orbit(h, steps_y, np.ndarray.tobytes, ext.cap))
    wit_mod = FiniteSet(
        space,
        [
            (coeffs[:, w, None, None] * s).reshape(-1, s.shape[1])
            for w, s in enumerate(wit_f.stacks)
        ],
        len(coeffs) * len(wit_f),
    )
    mod_orbit = orbit(embed_J(h, ext) * f, ext)
    bound = eps * float(np.max(np.abs(h)))
    out["module_action"] = defect(mod_orbit, wit_mod).value.le(bound, 10 * tol)

    conj_orbit = orbit(np.conj(f), ext)
    wit_conj = FiniteSet(space, [np.conj(s) for s in wit_f.stacks], len(wit_f))
    out["conjugation"] = defect(conj_orbit, wit_conj).value.le(eps, 10 * tol)

    abs_orbit = orbit(np.abs(f).astype(complex), ext)
    wit_abs = FiniteSet(
        space, [np.abs(s).astype(complex) for s in wit_f.stacks], len(wit_f)
    )
    out["modulus"] = defect(abs_orbit, wit_abs).value.le(eps, 10 * tol)
    return out
