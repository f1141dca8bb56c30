"""Independent oracles shared by the unit and acceptance tests."""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from latnorm import (
    CapExceededError,
    ConstructionError,
    FiberSpace,
    FiniteSet,
    Idempotent,
    Traversal,
    defect,
    disc_grid,
    exhaustion,
    greedy_order,
    is_utob,
    orbit,
    orbit_functions,
    truncate_to_ball,
)
from latnorm.fibered import _LIVE, _PAIRS, _U, _dist, _pair_dist
from latnorm.fixtures import random_extension, rotation_extension, symmetric_extension
from latnorm.relative import (
    CrossCheckReport,
    egoroff_localize,
    is_conditionally_ap,
    orbit_tob_verdict,
)
from latnorm.stone import DEFAULT_TOL
from latnorm.systems import Extension, FiniteProbabilitySpace, MPMap, embed_J


def grid_zonotope_oracle(x, F, mesh=0.01):
    """Distance from the element x (a one-element set) to the zonotope of F:
    grid the last coefficient disc, solve the first coefficient in closed
    form; exact for one generator, within mesh * |last generator| of the
    optimum for two."""
    grid = disc_grid(1.0, mesh)
    out = np.zeros(x.space.n_points)
    for w in range(x.space.n_points):
        b = x.stacks[w][0]
        gens = F.stacks[w]
        if len(F) == 1:
            vals = np.linalg.norm(b[None, :] - grid[:, None] * gens[0][None, :], axis=1)
        elif len(F) == 2:
            g1, g2 = gens
            resid = b[None, :] - grid[:, None] * g2[None, :]
            n1 = float(np.vdot(g1, g1).real)
            if n1 < 1e-30:
                vals = np.linalg.norm(resid, axis=1)
            else:
                lam = resid @ np.conj(g1) / n1
                lam = lam * np.minimum(1.0, 1.0 / np.maximum(np.abs(lam), 1e-300))
                vals = np.linalg.norm(resid - lam[:, None] * g1[None, :], axis=1)
        else:
            raise NotImplementedError("oracle covers one or two generators")
        out[w] = float(vals.min())
    return out


def frontier_group_closure(gens, cap=10**5):
    """Closure of the generators (``MPMap``s) under composition and
    inversion, breadth-first one frontier at a time: each element of a
    frontier, in order, is left-multiplied by every generator and then its
    inverse. Raises ``CapExceededError`` once the closure would exceed cap."""
    n = len(gens[0])
    steps = []
    for g in gens:
        inv = np.empty(n, dtype=int)
        inv[g.perm] = np.arange(n)
        steps += [g.perm, inv]
    identity = np.arange(n)
    closure = [tuple(identity.tolist())]
    seen = set(closure)
    frontier = [identity]
    while frontier:
        new_frontier = []
        for el in frontier:
            for s in steps:
                nxt = s[el]  # s after el
                key = tuple(nxt.tolist())
                if key not in seen:
                    if len(seen) + 1 > cap:
                        raise CapExceededError(f"group closure exceeds cap {cap}")
                    seen.add(key)
                    closure.append(key)
                    new_frontier.append(nxt)
        frontier = new_frontier
    return tuple(closure)


def closure_orbit_functions(f, ext):
    """Orbit of f by walking the whole group closure of the frontier oracle:
    the Koopman image ``g[t] = f`` under every element t in closure order,
    deduplicated by key rounded at ``DEFAULT_TOL`` (the first image of each
    key is kept)."""
    f = np.asarray(f, dtype=complex)
    seen = {}
    for t in frontier_group_closure(ext.upstairs_gens, ext.cap):
        g = np.empty_like(f)
        g[list(t)] = f
        key = np.round(g.view(float) / DEFAULT_TOL).astype(np.int64).tobytes()
        if key not in seen:
            seen[key] = g
    return np.array(list(seen.values()), dtype=complex)


def per_point_fibers(ext):
    """``Extension.fibers`` by one scan of the factor map per downstairs
    point."""
    return [np.nonzero(ext.factor == y)[0] for y in range(ext.downstairs.size)]


def per_point_violations(ext):
    """The violation list of ``validate_extension``: one generator loop per
    side, and one scan of the factor map per downstairs point for the
    pushforward and for empty fibers."""
    violations = []
    for i, g in enumerate(ext.upstairs_gens):
        if len(g) != ext.upstairs.size:
            violations.append(f"upstairs generator {i} has wrong size")
        elif not g.preserves(ext.upstairs):
            violations.append(f"upstairs generator {i} does not preserve the measure")
    for i, g in enumerate(ext.downstairs_gens):
        if len(g) != ext.downstairs.size:
            violations.append(f"downstairs generator {i} has wrong size")
        elif not g.preserves(ext.downstairs):
            violations.append(f"downstairs generator {i} does not preserve the measure")
    push = np.zeros(ext.downstairs.size)
    np.add.at(push, ext.factor, ext.upstairs.weights)
    for y in range(ext.downstairs.size):
        if abs(push[y] - ext.downstairs.weights[y]) > DEFAULT_TOL:
            violations.append(
                f"pushforward mass {push[y]:.12g} at point "
                f"{ext.downstairs.labels[y]} != weight "
                f"{ext.downstairs.weights[y]:.12g}"
            )
    empty = [
        ext.downstairs.labels[y]
        for y in range(ext.downstairs.size)
        if not np.any(ext.factor == y)
    ]
    if empty:
        violations.append(f"empty fibers over {empty}")
    for i, (tau, sigma) in enumerate(zip(ext.upstairs_gens, ext.downstairs_gens)):
        if len(tau) != ext.upstairs.size or len(sigma) != ext.downstairs.size:
            continue
        if not np.array_equal(ext.factor[tau.perm], sigma.perm[ext.factor]):
            violations.append(f"generator pair {i} does not intertwine the factor map")
    return violations


def scattered_generator_steps(gens):
    """``_generator_steps`` with each inverse scattered from the image
    array and checked as an ``MPMap``: per generator, g^-1 and then g."""
    steps = []
    for g in gens:
        inv = np.empty_like(g.perm)
        inv[g.perm] = np.arange(len(g.perm))
        steps += [MPMap(inv).perm, g.perm]
    return steps


def _fiber_encoding(ext):
    """Fiber point lists, fiber space and square-root conditional weights
    of the module encoding, from the extension alone."""
    points = per_point_fibers(ext)
    space = FiberSpace(ext.downstairs.point_set(), tuple(len(p) for p in points))
    sqrt_w = [
        np.sqrt(ext.upstairs.weights[p] / ext.downstairs.weights[y])
        for y, p in enumerate(points)
    ]
    return points, space, sqrt_w


def uneven_extension():
    """Static base under fibers of 2, 4 and 1 points that interleave upstairs,
    with unequal weights across fibers: a swap on one fiber, a 4-cycle on
    another."""
    up = FiniteProbabilitySpace(
        [f"x{i}" for i in range(7)], [0.1, 0.2, 0.1, 0.1, 0.2, 0.2, 0.1]
    )
    down = FiniteProbabilitySpace(["y0", "y1", "y2"], [0.4, 0.4, 0.2])
    swap = MPMap([0, 5, 2, 3, 4, 1, 6])
    cycle = MPMap([2, 1, 3, 6, 4, 5, 0])
    ident = MPMap([0, 1, 2])
    return Extension(up, [swap, cycle], down, [ident, ident], [1, 0, 1, 1, 2, 0, 1])


def encoding_cases():
    """Extensions for the encoding oracles: uneven interleaved fibers,
    rotation and symmetric-group extensions, then random ones."""
    rng = np.random.default_rng(41)
    yield uneven_extension()
    yield rotation_extension(6, 3)
    yield symmetric_extension(4, 2)
    for _ in range(8):
        yield random_extension(rng)


def per_function_encode(fs, ext):
    """Encode one function at a time as a plain list of its fibers, then
    stack fiber w of every function into the set's stack w."""
    points, space, sqrt_w = _fiber_encoding(ext)
    fs = np.asarray(fs, dtype=complex)
    vectors = [[f[p] * sw for p, sw in zip(points, sqrt_w)] for f in fs]
    stacks = [
        np.array([v[w] for v in vectors], dtype=complex).reshape(len(fs), d)
        for w, d in enumerate(space.dims)
    ]
    return FiniteSet(space, stacks, len(fs))


def per_function_decode(F, ext):
    """Decode one element (row j of every stack) at a time: the
    ``(len(F), n_x)`` array."""
    points, _, sqrt_w = _fiber_encoding(ext)
    rows = []
    for j in range(len(F)):
        out = np.zeros(ext.upstairs.size, dtype=complex)
        for p, sw, s in zip(points, sqrt_w, F.stacks):
            out[p] = s[j] / sw
        rows.append(out)
    return np.array(rows, dtype=complex).reshape(len(F), ext.upstairs.size)


def indicator(n, x0):
    f = np.zeros(n, dtype=complex)
    f[x0] = 1.0
    return f


def per_indicator_submodule(f, ext):
    """Generated module of f from its own orbit walk: per fiber, the SVD of
    the encoded orbit, rows with singular values above ``DEFAULT_TOL`` times
    the fiber dimension, zero-padded to the largest fiber rank. Returns the
    padded ``FiniteSet`` of basis vectors."""
    orb = orbit(f, ext)
    fiber_bases = []
    for stack, d in zip(orb.stacks, orb.space.dims):
        _, sv, vh = np.linalg.svd(stack, full_matrices=False)
        fiber_bases.append(vh[: int(np.sum(sv > DEFAULT_TOL * d))])
    n_basis = max(len(b) for b in fiber_bases)
    stacks = []
    for b, d in zip(fiber_bases, orb.space.dims):
        s = np.zeros((n_basis, d), dtype=complex)
        s[: len(b)] = b
        stacks.append(s)
    return FiniteSet(orb.space, stacks, n_basis)


def _cut_rows(vectors, ext):
    """Decode the basis one element at a time and cut each function to one
    fiber at a time, all-zero cuts dropped."""
    rows = []
    for j in range(len(vectors)):
        h = per_function_decode(vectors.subset([j]), ext)[0]
        for y in range(ext.downstairs.size):
            cut = h * (ext.factor == y)
            if np.any(np.abs(cut) > 0):
                rows.append(cut)
    return rows


def _phi(vectors, weights):
    """Coordinates in which the weighted inner product is the standard one."""
    return np.atleast_2d(vectors) * np.sqrt(weights)[None, :]


def span_basis(vectors_phi, rtol=1e-10):
    """Orthonormal row basis of the span, with a rank cutoff relative to the
    largest singular value of the whole stack."""
    if vectors_phi.size == 0:
        return np.zeros((0, vectors_phi.shape[-1]), dtype=complex)
    _, sv, vh = np.linalg.svd(np.atleast_2d(vectors_phi), full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((0, vectors_phi.shape[-1]), dtype=complex)
    r = int(np.sum(sv > rtol * sv[0]))
    return vh[:r]


def projector(basis):
    """Dense projector onto the span of the orthonormal rows of basis."""
    return basis.T @ np.conj(basis)


def subspace_distance(basis_a, basis_b):
    """Spectral norm of the difference of the two dense projectors."""
    return float(np.linalg.norm(projector(basis_a) - projector(basis_b), 2))


def containment_residual(inner_basis, outer_basis):
    """How far the first span sticks out of the second (0 means contained),
    from the two dense projectors."""
    p_in, p_out = projector(inner_basis), projector(outer_basis)
    return float(np.linalg.norm(p_in - p_out @ p_in, 2))


@dataclass
class DenseKronecker:
    """A Kronecker subspace as one dense orthonormal row basis of
    ``(n_x,)``-vectors in weighted coordinates."""

    dim: int
    basis_phi: np.ndarray
    seed_ranks: list

    def projector(self):
        return projector(self.basis_phi)


def _kronecker_report(rows, seed_ranks, ext):
    """One global SVD of every fiber cut in weighted coordinates; its rank
    cutoff is relative to the largest singular value over all fibers."""
    stack = np.array(rows, dtype=complex)
    basis = span_basis(_phi(stack, ext.upstairs.weights))
    return DenseKronecker(basis.shape[0], basis, seed_ranks)


def per_cut_kronecker_subspace(ext):
    """Kronecker subspace from one generated module per point orbit: the
    module of the first indicator of each orbit (orbits found by their own
    walks), decoded and cut one element at a time."""
    n_x = ext.upstairs.size
    orbit_of = [None] * n_x
    rows, modules = [], []
    for x0 in range(n_x):
        if orbit_of[x0] is not None:
            continue
        f = indicator(n_x, x0)
        for x in np.nonzero(orbit_functions(f, ext))[1]:
            orbit_of[x] = len(modules)
        modules.append(per_indicator_submodule(f, ext))
        rows += _cut_rows(modules[-1], ext)
    return _kronecker_report(rows, [len(modules[k]) for k in orbit_of], ext)


def per_indicator_kronecker_subspace(ext):
    """Kronecker subspace with every indicator's orbit walked and its module
    built on its own, all of their cuts stacked."""
    n_x = ext.upstairs.size
    rows, seed_ranks = [], []
    for x0 in range(n_x):
        vectors = per_indicator_submodule(indicator(n_x, x0), ext)
        seed_ranks.append(len(vectors))
        rows += _cut_rows(vectors, ext)
    return _kronecker_report(rows, seed_ranks, ext)


def per_indicator_ap(ext, eps_values):
    """AP verdicts and witness sizes per indicator, each from its own orbit
    walk and its own ``Traversal``."""
    n_x = ext.upstairs.size
    verdicts, sizes = [], []
    for x0 in range(n_x):
        M = orbit(indicator(n_x, x0), ext)
        trav = Traversal(M)
        reps = [is_utob(M, eps, traversal=trav) for eps in eps_values]
        verdicts.append(all(bool(r.verdict) for r in reps))
        sizes.append([len(r.witness) for r in reps])
    return verdicts, sizes


def per_indicator_cross_check(ext, eps_values=(0.5, 0.25), delta_values=(0.25, 0.1)):
    """``theorem_cross_check`` one indicator at a time: every indicator gets
    its own AP probe, TOB verdict and localizations, and each localization
    probes the localized indicator ``mask * f`` itself. The three spans are
    dense: the per-cut Kronecker subspace and the spans of the AP and TOB
    indicators, compared through their ``(n_x, n_x)`` projectors."""
    n_x = ext.upstairs.size
    w = ext.upstairs.weights
    kron = per_cut_kronecker_subspace(ext)
    ap_members, ap_verdicts, ap_sizes, tob_members = [], [], [], []
    egoroff_ok = True
    eps_ref = min(eps_values)
    thresholds = {d: 0 for d in delta_values}
    for x0 in range(n_x):
        f = indicator(n_x, x0)
        rep = is_conditionally_ap(f, ext, eps_values)
        ap_verdicts.append(rep.all_pass)
        ap_sizes.append([len(wit) for wit in rep.witnesses])
        if rep.all_pass:
            ap_members.append(f)
        if orbit_tob_verdict(f, ext):
            tob_members.append(f)
        # every point of an orbit localizes by the orbit's chain listed from
        # its first point, whose indicator's traversal the cross-check keeps
        first = int(np.nonzero(orbit_functions(f, ext))[1].min())
        trav = Traversal(orbit(indicator(n_x, first), ext))
        for delta in delta_values:
            loc = egoroff_localize(
                trav.radii, ext.downstairs.weights, delta, eps_values=[eps_ref]
            )
            t_here = loc.thresholds[eps_ref]
            if t_here is None or thresholds[delta] is None:
                thresholds[delta] = None
            else:
                thresholds[delta] = max(thresholds[delta], t_here)
            mask = embed_J(loc.kept.astype(complex), ext)
            rep_loc = is_conditionally_ap(mask * f, ext, eps_values)
            egoroff_ok = egoroff_ok and rep_loc.all_pass
    ap_stack = np.array(ap_members, dtype=complex).reshape(len(ap_members), n_x)
    tob_stack = np.array(tob_members, dtype=complex).reshape(len(tob_members), n_x)
    ap_basis = span_basis(_phi(ap_stack, w))
    tob_basis = span_basis(_phi(tob_stack, w))
    return CrossCheckReport(
        n_points=n_x,
        kronecker_dim=kron.dim,
        ap_dim=ap_basis.shape[0],
        tob_dim=tob_basis.shape[0],
        distances={
            "fm_ap": subspace_distance(kron.basis_phi, ap_basis),
            "fm_tob": subspace_distance(kron.basis_phi, tob_basis),
            "ap_tob": subspace_distance(ap_basis, tob_basis),
        },
        inclusion_residuals={
            "fm_in_ap": containment_residual(kron.basis_phi, ap_basis),
            "ap_in_tob": containment_residual(ap_basis, tob_basis),
        },
        ap_verdicts=ap_verdicts,
        ap_witness_sizes=ap_sizes,
        egoroff_thresholds=thresholds,
        corollary={
            "discrete_spectrum": kron.dim == n_x,
            "ap_dense": ap_basis.shape[0] == n_x,
            "tob_dense": tob_basis.shape[0] == n_x,
            "egoroff_localizable": egoroff_ok,
        },
        weakly_mixing_dim=n_x - kron.dim,
        note=(
            "finite-scale degeneracy: the weakly mixing complement is "
            f"{n_x - kron.dim}-dimensional (expected 0 on finite models); "
            "the subspace equalities are verified, not assumed"
        ),
    )


def brute_force_greedy_order(M):
    """Farthest-point order from full pairwise distance tables: seed at the
    largest lattice norm, then repeatedly the element whose sup over points
    of the distance to the placed set is largest (lowest index on ties)."""
    n = len(M)
    if n == 0:
        return []
    # explicit differences with the textbook re**2 + im**2 sum, independent
    # of the library's distance formula
    tables = []
    for s in M.stacks:
        diff = s[:, None, :] - s[None, :, :]
        tables.append(np.sqrt(np.sum(diff.real**2 + diff.imag**2, axis=2)))
    dist = np.stack(tables, axis=2)  # (n, n, n_points)
    norms = np.stack([np.linalg.norm(s, axis=1) for s in M.stacks], axis=1)
    order = [int(np.argmax(np.max(norms, axis=1)))]
    while len(order) < n:
        scores = np.max(np.min(dist[:, order, :], axis=1), axis=1)
        scores[order] = -1.0
        order.append(int(np.argmax(scores)))
    return order


def dense_defect(M, F):
    """``defect`` with every row of M compared with every row of F at every
    point: one whole ``_pair_dist`` table per fiber, its row minima and
    first argmins, and their max. Returns ``(value, argmin)`` arrays."""
    value = np.empty(M.space.n_points)
    argmin = np.empty((len(M), M.space.n_points), dtype=int)
    for w in range(M.space.n_points):
        dist = _pair_dist(M.stacks[w], F.stacks[w])
        argmin[:, w] = np.argmin(dist, axis=1)
        value[w] = float(np.max(np.min(dist, axis=1)))
    return value, argmin


def dense_prefix_defects(M, F):
    """``prefix_defects`` from whole ``_pair_dist`` tables: per point, the
    running minimum of every row of M along F, then the max over M."""
    out = np.empty((len(F), M.space.n_points))
    for w in range(M.space.n_points):
        dist = _pair_dist(M.stacks[w], F.stacks[w])
        out[:, w] = np.minimum.accumulate(dist, axis=1).max(axis=0)
    return out


def brute_force_defect_chain(M, order):
    """Defect reports of M against every prefix of ``order``, each
    recomputed from scratch."""
    return [defect(M, M.subset(order[:n])) for n in range(1, len(order) + 1)]


def per_prefix_cyclic_witness(M, eps, r, tol=1e-9):
    """Parts of a cyclic witness whose candidate covers each come from a
    full ``defect`` of M against the greedy prefix of the truncated set;
    only the parts that some point uses are kept."""
    truncated = truncate_to_ball(M, r)
    order = greedy_order(truncated)
    order_sets = [truncated.subset(order[:n]) for n in range(1, len(order) + 1)]
    covers = [
        Idempotent(M.space.base, defect(M, F).value.values <= eps + tol)
        for F in order_sets
    ]
    total = covers[0]
    for c in covers[1:]:
        total = total | c
    if not total.is_one():
        raise ConstructionError("no candidate covers every point")
    parts = []
    for p, F in zip(exhaustion(covers), order_sets):
        if p.is_zero():
            continue
        glued = FiniteSet(
            F.space, [np.where(p.mask[w], s, 0) for w, s in enumerate(F.stacks)], len(F)
        )
        parts.append((p, glued))
    return parts


def witness_parts(w):
    """The paper's form of a cyclic witness: one pair (q_n, F_n) per prefix
    length n that some point takes, ascending, with q_n = {prefix == n} and
    F_n = q_n times the first n elements of the chain."""
    parts = []
    for n in np.unique(w.prefix).tolist():
        q = Idempotent(w.chain.space.base, w.prefix == n)
        parts.append((q, q * w.chain.subset(range(n))))
    return parts


def dense_verify_cyclic(M, eps, parts, tol=1e-9):
    """``verify_cyclic`` of a witness in the paper's form (``witness_parts``)
    by a full ``defect`` of M against each part's set at every point,
    localized afterwards by the part's idempotent."""
    if len(M) == 0:
        return True
    return all((defect(M, F).value * q).le(eps, tol) for q, F in parts)


def per_part_cyclic_report(report, witnesses, verdicts):
    """A ``cyclic`` JSON report line whose results are rendered one part at
    a time: each stack by ``tolist``, and the complex entries written by the
    encoder's ``default=str``. ``witnesses`` holds ``(epsilon, parts)``
    pairs, each in the paper's form; ``report`` gives every other key."""
    results = {}
    for (eps, parts), ok in zip(witnesses, verdicts):
        rendered = [
            {
                "mask": q.mask.astype(int).tolist(),
                "set_size": len(F),
                "set": [list(e) for e in zip(*(s.tolist() for s in F.stacks))],
            }
            for q, F in parts
        ]
        results[str(eps)] = {"verified": ok, "witness": {"epsilon": eps, "parts": rendered}}
    return json.dumps({**report, "results": results}, default=str)


def masked_sum_mix(partition, family):
    """Mixing of a family (one element per part) as the sum over parts of
    each part's 0/1 mask times its element, fiber by fiber: the one-element
    set sum_a p_a x_a."""
    out = [np.zeros(d, dtype=complex) for d in family.space.dims]
    for a, p in enumerate(partition):
        out = [o + s[a] * bool(m) for o, s, m in zip(out, family.stacks, p.mask)]
    return FiniteSet(family.space, [o[None, :] for o in out], 1)


def product_grid_image(F, grid):
    """Images of every tuple of grid points under F, the tuples enumerated by
    ``itertools.product`` (last coefficient fastest)."""
    combos = np.array(list(itertools.product(grid, repeat=len(F))), dtype=complex)
    return FiniteSet(F.space, [combos @ s for s in F.stacks], combos.shape[0])


def flat_index_rows(net, w, index):
    """The rows of a ``GridNet`` at flat net indices: each index split into
    its grid indices by integer division, the coefficients padded to at
    least two rows so that numpy multiplies by gemm."""
    m, size = len(net.basis), len(net.grid)
    coeffs = np.zeros((max(len(index), 2), m), dtype=complex)
    for j in range(m):
        coeffs[: len(index), j] = net.grid[index // size ** (m - 1 - j) % size]
    return (coeffs @ net.basis.stacks[w])[: len(index)]


def grid_net_kept(net, w, X):
    """``GridNet._kept`` as first written: q formed whole, the non-live
    coordinates zeroed by ``np.where`` and the mask negated from ``>``."""
    s = net.basis.stacks[w]
    m, d = s.shape
    grid = net.grid
    gram = s @ s.conj().T
    n2 = gram.diagonal().real
    live = n2 > _LIVE
    finite = np.all(np.isfinite(X), axis=1)
    X = np.where(finite[:, None], X, 0)
    t = (X @ s.conj().T)[:, :, None] - grid * n2[:, None]
    scale = np.where(live, n2, 1.0)[:, None]
    q = np.where(live[:, None], (t.real**2 + t.imag**2) / scale, 0.0)
    R = float(np.max(np.abs(grid)))
    off = float(np.max(np.abs(gram - np.diag(gram.diagonal()))))
    Z = np.linalg.norm(X, axis=1) + m * R * math.sqrt(float(np.max(n2)))
    slack = 2.0 * (off * (m * R) ** 2 + 32 * (d + m + 1) * _U * Z**2) + 1e-300
    keep = ~(q > q.min(axis=2, keepdims=True) + slack[:, None, None])
    if np.isfinite(R):
        keep[:, ~s.any(axis=1), 1:] = False
    keep[~finite] = True
    return keep


def grid_net_nearest(net, w, X):
    """``GridNet.nearest`` as first written: the kept products enumerated as
    flat net indices, their rows built by ``flat_index_rows``, and each
    sample's first minimum found by comparing neighbouring hits."""
    keep = grid_net_kept(net, w, X)
    n, m, size = keep.shape
    counts = keep.sum(axis=2)
    firsts = np.cumsum(counts, axis=0) - counts
    kept = [np.nonzero(keep[:, j])[1] for j in range(m)]
    rows_per = counts.prod(axis=1)
    ends = np.cumsum(rows_per)
    mins = np.empty(n)
    argmin = np.empty(n, dtype=int)
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - rows_per[a] + _PAIRS, "right")))
        sample, index = np.arange(a, b), np.zeros(b - a, dtype=int)
        for j in range(m):
            rep = counts[sample, j]
            pos = np.arange(int(rep.sum())) - np.repeat(np.cumsum(rep) - rep, rep)
            pick = kept[j][np.repeat(firsts[sample, j], rep) + pos]
            sample = np.repeat(sample, rep)
            index = np.repeat(index, rep) * size + pick
        dist = _dist(X[sample] - flat_index_rows(net, w, index))
        starts = np.cumsum(rows_per[a:b]) - rows_per[a:b]
        mins[a:b] = np.minimum.reduceat(dist, starts)
        hit = (dist == np.repeat(mins[a:b], rows_per[a:b])) | np.isnan(dist)
        at = np.flatnonzero(hit)
        argmin[a:b] = index[at[np.r_[True, sample[at[1:]] != sample[at[:-1]]]]]
        a = b
    return mins, argmin


def ring_loop_disc_grid(radius, mesh):
    """``disc_grid`` built one ring at a time: the origin, then each ring's
    points appended in angle order."""
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


def per_link_orbit_tob_verdict(chain, tol=1e-9):
    """Pointwise decrease and final zero of a chain, one ``le`` per link."""
    for u, v in zip(chain, chain[1:]):
        if not v.le(u, tol):
            return False
    return chain[-1].le(0.0, tol)


def per_link_egoroff_localize(u_seq, weights, delta, eps_values, tol=1e-9):
    """Egoroff localization with the decrease checked one ``le`` per link and
    each threshold found by scanning the chain: ``(kept mask, removed,
    removed mass, thresholds)``."""
    for u, v in zip(u_seq, u_seq[1:]):
        if not v.le(u, tol):
            raise ValueError("chain is not pointwise decreasing")
    U = np.array([u.values for u in u_seq])
    removed, removed_mass = [], 0.0
    for idx in np.lexsort(tuple(U))[::-1]:
        idx = int(idx)
        if np.all(U[:, idx] <= tol):
            continue
        if removed_mass + weights[idx] <= delta + 1e-15:
            removed.append(idx)
            removed_mass += float(weights[idx])
    kept = np.ones(U.shape[1], dtype=bool)
    kept[removed] = False
    thresholds = {}
    for eps in eps_values:
        thresholds[eps] = None
        for n, u in enumerate(u_seq, start=1):
            if np.all(u.values[kept] <= eps + tol):
                thresholds[eps] = n
                break
    return kept, sorted(removed), removed_mass, thresholds


def per_scalar_sets(sets_doc, dims):
    """The named sets of a finite-set document on fibers of the given dims,
    converted one scalar at a time: ``(stacks per set name, diagnostics)``,
    a diagnostic for each malformed set, element, fiber or entry, in document
    order. An entry is a number or an [re, im] pair of numbers (bools count
    as numbers) whose value is finite, with real and imaginary parts at most
    1e150 in magnitude."""
    diags, out = [], {}
    for name, elements in sets_doc.items():
        path = f"$.sets.{name}"
        if not isinstance(elements, list):
            diags.append(f"{path}: expected a list of elements")
            continue
        stacks = [np.zeros((len(elements), d), dtype=complex) for d in dims]
        for i, elem in enumerate(elements):
            if not isinstance(elem, list) or len(elem) != len(dims):
                diags.append(
                    f"{path}[{i}]: expected one fiber per point ({len(dims)} fibers)"
                )
                continue
            for w, fib in enumerate(elem):
                if not isinstance(fib, list) or len(fib) != dims[w]:
                    diags.append(f"{path}[{i}][{w}]: expected {dims[w]} entries")
                    continue
                for k, v in enumerate(fib):
                    where = f"{path}[{i}][{w}][{k}]"
                    number = isinstance(v, (int, float))
                    pair = (
                        isinstance(v, list)
                        and len(v) == 2
                        and all(isinstance(c, (int, float)) for c in v)
                    )
                    if not (number or pair):
                        diags.append(f"{where}: expected a number or [re, im] pair")
                        continue
                    try:
                        z = complex(v) if number else complex(v[0], v[1])
                    except OverflowError:
                        z = None
                    if z is None or not (math.isfinite(z.real) and math.isfinite(z.imag)):
                        diags.append(f"{where}: expected finite numbers")
                        continue
                    if abs(z.real) > 1e150 or abs(z.imag) > 1e150:
                        diags.append(f"{where}: expected |re| and |im| at most 1e150")
                        continue
                    stacks[w][i, k] = z
        out[name] = stacks
    return out, diags
