"""Relative structure of an extension: almost periodic functions, generated
submodules, the Kronecker subspace, and localization.

Orbits of upstairs functions are probed for order-precompactness inside the
fiberwise module of the extension. A function is conditionally almost
periodic when its orbit is uniformly totally order-bounded there; the
Kronecker subspace is spanned by the finitely generated invariant
submodules grown from point indicators; on finite models the two always
exhaust the whole function space, and the cross-check below verifies that
the independent pipelines agree instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .fibered import FiniteSet, Traversal, defect, is_utob, set_sum
from .stone import DEFAULT_TOL, Idempotent, StoneElement
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


class OrbitCache:
    """Orbits of functions on one extension, memoized by the function's bytes.

    ``cache(f)`` returns the ``Traversal`` of f's encoded orbit, so that every
    pipeline of one check shares one orbit walk and one traversal per
    function. The routines taking ``orbits=`` read their orbit from it, walked
    at the cache's tol, instead of walking their own.
    """

    def __init__(self, ext: Extension, tol: float = DEFAULT_TOL):
        self.ext = ext
        self.tol = tol
        self._memo: dict[bytes, Traversal] = {}

    def __call__(self, f) -> Traversal:
        f = np.asarray(f, dtype=complex)
        key = f.tobytes()
        hit = self._memo.get(key)
        if hit is None:
            hit = Traversal(orbit(f, self.ext, self.tol))
            self._memo[key] = hit
        return hit


# ---------------------------------------------------------------------------
# conditional almost periodicity


@dataclass
class APReport:
    """Per-epsilon verdicts and witnesses for one function's orbit."""

    function: np.ndarray
    eps_values: tuple[float, ...]
    verdicts: list[bool]
    witnesses: list[FiniteSet]
    defects: list[StoneElement]

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "eps": list(self.eps_values),
            "verdicts": self.verdicts,
            "witness_sizes": [len(w) for w in self.witnesses],
            "max_defect": [float(d.sup_norm()) for d in self.defects],
        }


def is_conditionally_ap(
    f,
    ext: Extension,
    eps_values: Sequence[float],
    tol: float = DEFAULT_TOL,
    orbits: OrbitCache | None = None,
) -> APReport:
    """Probe the orbit of f for uniform total order-boundedness at each eps.

    Every eps reads its witness off the one traversal of the orbit.
    """
    if orbits is None:
        orbits = OrbitCache(ext, tol)
    trav = orbits(f)
    verdicts, witnesses, defects = [], [], []
    for eps in eps_values:
        rep = trav.utob(eps, tol)
        verdicts.append(bool(rep.verdict))
        witnesses.append(rep.witness)
        defects.append(
            rep.report.value
            if rep.report is not None
            else StoneElement.zeros(trav.M.space.base)
        )
    return APReport(np.asarray(f, dtype=complex), tuple(eps_values), verdicts, witnesses, defects)


def defect_chain(M: FiniteSet) -> list[StoneElement]:
    """Defect values of M against its increasing greedy witness prefixes:
    the radius sequence of one farthest-point traversal."""
    return [StoneElement(M.space.base, d) for d in Traversal(M).grow(len(M))]


def orbit_tob_verdict(
    f,
    ext: Extension,
    tol: float = DEFAULT_TOL,
    orbits: OrbitCache | None = None,
) -> bool:
    """Pointwise (order) convergence of the orbit's defect chain to zero.

    Distinct from the uniform pipeline: this checks that the chain of
    defects over increasing witnesses is pointwise decreasing and ends at
    zero, with no uniformity requirement along the way.
    """
    if orbits is None:
        orbits = OrbitCache(ext, tol)
    trav = orbits(f)
    U = trav.grow(len(trav.M))
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


def generated_submodule(
    f,
    ext: Extension,
    tol: float = DEFAULT_TOL,
    orbits: OrbitCache | None = None,
) -> SubmoduleBasis:
    """Fiberwise orthonormalization of the module spanned by the orbit of f.

    Per fiber the orbit vectors are stacked and reduced by SVD; singular
    values below tol times the fiber dimension are treated as rank defects.
    The result is invariant under the action because the orbit is.
    """
    if orbits is None:
        orbits = OrbitCache(ext, tol)
    orb = orbits(f).M
    fiber_bases = []
    for stack, d in zip(orb.stacks, orb.space.dims):
        _, sv, vh = np.linalg.svd(stack, full_matrices=False)
        fiber_bases.append(vh[: int(np.sum(sv > tol * d))])
    ranks = np.array([len(b) for b in fiber_bases], dtype=int)
    n_basis = int(ranks.max())
    stacks = []
    for b, d in zip(fiber_bases, orb.space.dims):
        s = np.zeros((n_basis, d), dtype=complex)
        s[: len(b)] = b
        stacks.append(s)
    return SubmoduleBasis(ext.rel, FiniteSet(orb.space, stacks, n_basis), ranks)


def _phi(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Coordinates in which the weighted inner product is the standard one."""
    return np.atleast_2d(vectors) * np.sqrt(weights)[None, :]


def span_basis(vectors_phi: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal row basis of the span, with relative rank cutoff."""
    if vectors_phi.size == 0:
        return np.zeros((0, vectors_phi.shape[-1]), dtype=complex)
    _, sv, vh = np.linalg.svd(np.atleast_2d(vectors_phi), full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((0, vectors_phi.shape[-1]), dtype=complex)
    r = int(np.sum(sv > rtol * sv[0]))
    return vh[:r]


def projector(basis_phi: np.ndarray) -> np.ndarray:
    return basis_phi.T @ np.conj(basis_phi)


def subspace_distance(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    return float(np.linalg.norm(projector(basis_a) - projector(basis_b), 2))


def containment_residual(inner_basis: np.ndarray, outer_basis: np.ndarray) -> float:
    """How far the first span sticks out of the second (0 means contained)."""
    p_in, p_out = projector(inner_basis), projector(outer_basis)
    return float(np.linalg.norm(p_in - p_out @ p_in, 2))


@dataclass
class KroneckerReport:
    dim: int
    basis_phi: np.ndarray
    seed_ranks: list[int]

    def projector(self) -> np.ndarray:
        return projector(self.basis_phi)


def kronecker_subspace(
    ext: Extension, tol: float = DEFAULT_TOL, orbits: OrbitCache | None = None
) -> KroneckerReport:
    """Span of the invariant modules generated by every point indicator.

    Each generated module is expanded into plain functions by cutting its
    decoded basis down to single fibers (rows ordered by seed point, basis
    vector, then fiber; all-zero cuts dropped), and the union is
    orthonormalized in the weighted inner product upstairs.
    """
    if orbits is None:
        orbits = OrbitCache(ext, tol)
    n_x = ext.upstairs.size
    on_fiber = ext.factor == np.arange(ext.downstairs.size)[:, None]  # (n_y, n_x)
    vectors = []
    seed_ranks = []
    for x0 in range(n_x):
        f = np.zeros(n_x, dtype=complex)
        f[x0] = 1.0
        sb = generated_submodule(f, ext, tol, orbits)
        seed_ranks.append(len(sb))
        cuts = (ext.rel.decode(sb.vectors)[:, None, :] * on_fiber).reshape(-1, n_x)
        vectors.append(cuts[np.any(np.abs(cuts) > 0, axis=1)])
    stack = np.concatenate(vectors)
    basis = span_basis(_phi(stack, ext.upstairs.weights))
    return KroneckerReport(basis.shape[0], basis, seed_ranks)


def has_discrete_spectrum(ext: Extension, tol: float = DEFAULT_TOL) -> bool:
    """True when the Kronecker subspace is the whole function space."""
    return kronecker_subspace(ext, tol).dim == ext.upstairs.size


# ---------------------------------------------------------------------------
# Egoroff localization


@dataclass
class EgoroffReport:
    kept: Idempotent
    removed: list[int]
    removed_mass: float
    thresholds: dict[float, int | None]

    def to_json_dict(self) -> dict:
        return {
            "kept": self.kept.mask.astype(int).tolist(),
            "removed": list(self.removed),
            "removed_mass": self.removed_mass,
            "thresholds": {str(k): v for k, v in self.thresholds.items()},
        }


def egoroff_localize(
    u_seq: Sequence[StoneElement],
    weights: np.ndarray,
    delta: float,
    eps_values: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
    tol: float = DEFAULT_TOL,
) -> EgoroffReport:
    """Trade a mass budget for uniform convergence of a decreasing chain.

    ``u_seq`` must decrease pointwise (defects against increasing witness
    sets do). Points are ranked by how slowly their values decay (late
    values first, ties toward the larger index) and greedily removed while
    the removed mass stays within delta; points whose whole profile is
    already below tol are never spent on. Thresholds report, per epsilon,
    the first chain index that is uniformly below epsilon on the kept set.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    u_seq = list(u_seq)
    if not u_seq:
        raise ValueError("need at least one chain element")
    base = u_seq[0].base
    if any(u.base != base for u in u_seq):
        raise DimensionMismatchError("chain elements on different point sets")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (base.size,):
        raise ValueError("one weight per point required")
    U = np.array([u.values for u in u_seq])  # (K, n)
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
    kept_mask = np.ones(base.size, dtype=bool)
    kept_mask[removed] = False
    thresholds: dict[float, int | None] = {}
    for eps in eps_values:
        below = np.all(U[:, kept_mask] <= eps + tol, axis=1)
        thresholds[eps] = int(below.argmax()) + 1 if below.any() else None
    return EgoroffReport(
        Idempotent(base, kept_mask), sorted(removed), removed_mass, thresholds
    )


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

    def to_json_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "kronecker_dim": self.kronecker_dim,
            "ap_dim": self.ap_dim,
            "tob_dim": self.tob_dim,
            "subspace_distances": self.distances,
            "inclusion_residuals": self.inclusion_residuals,
            "ap_verdicts": self.ap_verdicts,
            "ap_witness_sizes": self.ap_witness_sizes,
            "egoroff_thresholds": {
                str(k): v for k, v in self.egoroff_thresholds.items()
            },
            "corollary": self.corollary,
            "weakly_mixing_dim": self.weakly_mixing_dim,
            "note": self.note,
        }

    def ap_witness_csv(self, eps_values) -> str:
        """Per-basis-function witness table."""
        header = "basis_index,verdict," + ",".join(
            f"witness_size_eps_{e}" for e in eps_values
        )
        rows = [header]
        for i, (ok, sizes) in enumerate(zip(self.ap_verdicts, self.ap_witness_sizes)):
            rows.append(f"{i},{ok}," + ",".join(str(s) for s in sizes))
        return "\n".join(rows) + "\n"


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

    Each indicator's orbit is walked and traversed once; every pipeline,
    the localized indicators included, reads from that one traversal.
    """
    orbits = OrbitCache(ext)
    n_x = ext.upstairs.size
    w = ext.upstairs.weights

    kron = kronecker_subspace(ext, orbits=orbits)

    ap_members, ap_verdicts, ap_sizes = [], [], []
    tob_members = []
    egoroff_ok = True
    eps_ref = min(eps_values)
    thresholds: dict[float, int | None] = {d: 0 for d in delta_values}
    for x0 in range(n_x):
        f = np.zeros(n_x, dtype=complex)
        f[x0] = 1.0
        rep = is_conditionally_ap(f, ext, eps_values, orbits=orbits)
        ap_verdicts.append(rep.all_pass)
        ap_sizes.append([len(w) for w in rep.witnesses])
        if rep.all_pass:
            ap_members.append(f)
        if orbit_tob_verdict(f, ext, orbits=orbits):
            tob_members.append(f)
        trav = orbits(f)
        chain = [StoneElement(trav.M.space.base, u) for u in trav.grow(len(trav.M))]
        for delta in delta_values:
            loc = egoroff_localize(
                chain, ext.downstairs.weights, delta, eps_values=[eps_ref]
            )
            t_here = loc.thresholds[eps_ref]
            if t_here is None or thresholds[delta] is None:
                thresholds[delta] = None
            else:
                thresholds[delta] = max(thresholds[delta], t_here)
            mask = embed_J(loc.kept.mask.astype(complex), ext)
            rep_loc = is_conditionally_ap(mask * f, ext, eps_values, orbits=orbits)
            egoroff_ok = egoroff_ok and rep_loc.all_pass

    ap_stack = np.array(ap_members, dtype=complex).reshape(len(ap_members), n_x)
    tob_stack = np.array(tob_members, dtype=complex).reshape(len(tob_members), n_x)
    ap_basis = span_basis(_phi(ap_stack, w))
    tob_basis = span_basis(_phi(tob_stack, w))

    distances = {
        "fm_ap": subspace_distance(kron.basis_phi, ap_basis),
        "fm_tob": subspace_distance(kron.basis_phi, tob_basis),
        "ap_tob": subspace_distance(ap_basis, tob_basis),
    }
    inclusions = {
        "fm_in_ap": containment_residual(kron.basis_phi, ap_basis),
        "ap_in_tob": containment_residual(ap_basis, tob_basis),
    }
    corollary = {
        "discrete_spectrum": kron.dim == n_x,
        "ap_dense": ap_basis.shape[0] == n_x,
        "tob_dense": tob_basis.shape[0] == n_x,
        "egoroff_localizable": egoroff_ok,
    }
    return CrossCheckReport(
        n_points=n_x,
        kronecker_dim=kron.dim,
        ap_dim=ap_basis.shape[0],
        tob_dim=tob_basis.shape[0],
        distances=distances,
        inclusion_residuals=inclusions,
        ap_verdicts=ap_verdicts,
        ap_witness_sizes=ap_sizes,
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
