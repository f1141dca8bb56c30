"""Named invariant checks backing the CLI self-test.

Every check draws its own instances from the supplied generator and raises
AssertionError with a short message on violation; ``run_all`` collects the
outcomes. The pytest suite covers the same ground (and more, with
independent oracles); this module exists so a deployed install can vet
itself without a test harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fixtures
from .errors import IncompleteCoverError
from .fibered import (
    FiberSpace,
    FiberwiseMap,
    FiniteSet,
    cp_check,
    cp_witness_from_utob,
    defect,
    heine_borel_net,
    is_utob,
    prefix_defects,
    set_image,
    set_sum,
    truncate_to_ball,
    zonotope_net,
    zonotope_report,
)
from .mixing import cyclic_witness, eq_idempotent, mix, mix_membership, verify_cyclic
from .relative import (
    ap_closure_properties,
    defect_chain,
    egoroff_localize,
    generated_submodule,
    is_conditionally_ap,
    kronecker_subspace,
    orbit,
    orbit_functions,
    theorem_cross_check,
)
from .seqmodel import SQRT2, build_counterexample, egoroff_demo, verify_not_utob, verify_tob_bound
from .stone import (
    ComplexCoefficient,
    Idempotent,
    PartitionOfUnity,
    PointSet,
    StoneElement,
    exhaustion,
)
from .systems import (
    cond_expectation,
    embed_J,
    enumerate_group,
    koopman,
    rel_inner,
    rel_norm,
    validate_extension,
)

TOL = 1e-9


def _random_stone(rng, ps):
    return StoneElement(ps, rng.standard_normal(ps.size))


def _generator_perms(ext):
    """The identity and each upstairs generator, the elements the Koopman
    and invariance checks visit. A property that composition keeps (an
    isometry, an invariant subspace) holds on the whole finite group once
    it holds on the generators: each inverse is a power of its element."""
    return [np.arange(ext.upstairs.size)] + [g.perm for g in ext.upstairs_gens]


# ---------------------------------------------------------------------------
# stone


def check_stone_lattice_axioms(rng, n=50):
    for _ in range(n):
        ps = PointSet.of_size(int(rng.integers(1, 5)))
        a, b = _random_stone(rng, ps), _random_stone(rng, ps)
        assert (a.abs().sup_norm() == 0.0) == bool(np.all(a.values == 0))
        assert (a + b).abs().le(a.abs() + b.abs(), TOL), "triangle inequality"
        pos_a, pos_b = a.abs(), a.abs() + b.abs()
        assert pos_a.sup_norm() <= pos_b.sup_norm() + TOL, "monotone norm"
        assert a.inf(a).eq(a) and a.sup(b).eq(b.sup(a))


def check_stone_exhaustion(rng, n=50):
    for _ in range(n):
        ps = PointSet.of_size(int(rng.integers(1, 7)))
        k = int(rng.integers(1, 5))
        masks = [rng.random(ps.size) < 0.5 for _ in range(k)]
        hole = ~np.logical_or.reduce(masks)
        masks[int(rng.integers(0, k))] |= hole  # force a cover
        cover = [Idempotent(ps, m) for m in masks]
        part = exhaustion(cover)
        assert isinstance(part, PartitionOfUnity)
        for p, c in zip(part, cover):
            assert p.le(c), "part exceeds its cover element"
    ps = PointSet.of_size(2)
    try:
        exhaustion([Idempotent(ps, [True, False])] * 2)
        raise AssertionError("incomplete cover must be rejected")
    except IncompleteCoverError:
        pass


def check_stone_support_identity(rng, n=50):
    for _ in range(n):
        ps = PointSet.of_size(int(rng.integers(1, 6)))
        vals = rng.standard_normal(ps.size)
        vals[np.abs(vals) < 0.1] = 0.0  # all nonzero values exceed tol
        a = StoneElement(ps, vals)
        assert (a.support(TOL) * a).eq(a)


# ---------------------------------------------------------------------------
# fibered


def _instance(rng, n_elems, scale=1.0, space=None):
    space = space or fixtures.random_fiber_space(rng)
    return fixtures.random_finite_set(rng, space, n_elems, scale)


def check_defect_oracle(rng, n=25):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        M = fixtures.random_finite_set(rng, space, int(rng.integers(1, 5)))
        F = fixtures.random_finite_set(rng, space, int(rng.integers(1, 4)))
        rep = defect(M, F)
        for w in range(space.n_points):
            best = max(
                min(
                    float(np.linalg.norm(M.stacks[w][i] - F.stacks[w][j]))
                    for j in range(len(F))
                )
                for i in range(len(M))
            )
            assert abs(best - rep.value.values[w]) <= 1e-12, "brute force mismatch"
        assert defect(M, M).value.le(0.0, TOL), "defect(M, M) must vanish"


def check_defect_subadditive(rng, n=50):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        M, N = _instance(rng, 3, space=space), _instance(rng, 2, space=space)
        G, H = _instance(rng, 2, space=space), _instance(rng, 2, space=space)
        lhs = defect(set_sum(M, N), set_sum(G, H)).value
        rhs = defect(M, G).value + defect(N, H).value
        assert lhs.le(rhs, TOL), "sum-set defect bound"


def _hadamard(M, N):
    """{x * y} for the fiberwise coordinate product, ordered M-major; its
    lattice norm is submultiplicative."""
    stacks = [
        (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])
        for a, b in zip(M.stacks, N.stacks)
    ]
    return FiniteSet(M.space, stacks, len(M) * len(N))


def check_defect_product_bound(rng, n=50):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        M, N = _instance(rng, 2, space=space), _instance(rng, 2, space=space)
        G, H = _instance(rng, 2, space=space), _instance(rng, 2, space=space)
        mMN, mGH = _hadamard(M, N), _hadamard(G, H)
        A, B = M.norm_sup(), N.norm_sup()
        dMG, dNH = defect(M, G).value, defect(N, H).value
        bound = A * dNH + dMG * dNH + B * dMG
        assert defect(mMN, mGH).value.le(bound, TOL), "product defect bound"


def check_defect_enlargement(rng, n=50):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        Mt = _instance(rng, 3, space=space)
        F = _instance(rng, 2, space=space)
        t = float(rng.uniform(0.05, 0.5))
        noise = fixtures.random_finite_set(rng, space, 3)
        rows = []
        for i in range(3):
            e = noise.subset([i])
            scale = t / max(e.norm_sup().sup_norm(), 1e-12) * float(rng.random())
            rows.append(Mt.subset([i]) + scale * e)
        M = FiniteSet.concat(rows)
        lhs = defect(M, F).value
        rhs = StoneElement.constant(space.base, t) + defect(Mt, F).value
        assert lhs.le(rhs, TOL), "enlargement defect bound"


def check_defect_linear_map(rng, n=50):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        mats = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in space.dims
        ]
        T = FiberwiseMap(space, space, mats)
        c = T.bound()
        M, F = _instance(rng, 3, space=space), _instance(rng, 2, space=space)
        lhs = defect(set_image(T, M), set_image(T, F)).value
        rhs = c * defect(M, F).value
        assert lhs.le(rhs, TOL), "bounded map defect bound"


def check_defect_truncation(rng, n=50):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        r = float(rng.uniform(0.3, 1.2))
        M = fixtures.random_finite_set(rng, space, 3)
        # scale M into the ball of radius r
        cap = M.norm_sup().sup_norm()
        M = (r / max(cap, r)) * M
        F = fixtures.random_finite_set(rng, space, 3, scale=3.0)
        Ft = truncate_to_ball(F, r)
        assert Ft.norm_sup().le(2 * r, TOL), "truncated set leaves the ball"
        assert defect(M, Ft).value.le(defect(M, F).value, TOL), "truncation bound"


def check_lipschitz_surrogate(rng, n=50):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        M = _instance(rng, 3, space=space)
        F = _instance(rng, 3, space=space)
        pert = fixtures.random_finite_set(rng, space, 3, scale=0.2)
        diff = defect(M, F).value - defect(M, F + pert).value
        assert diff.abs().le(pert.norm_sup(), TOL), "matched-list Lipschitz bound"


def _suborthonormal_basis(rng, space, d):
    """Random suborthonormal basis of length d with some rank defects."""
    stacks = [np.zeros((d, dim), dtype=complex) for dim in space.dims]
    for w, dim in enumerate(space.dims):
        r = min(d, dim)
        if rng.random() < 0.3 and r > 1:
            r -= 1  # exercise a genuine rank drop
        a = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        q, _ = np.linalg.qr(a)
        stacks[w][:r, :] = q.T[:r]
    return FiniteSet(space, stacks, d)


def check_heine_borel(rng, n_samples=200, eps=0.5, c=1.0):
    space = fixtures.random_fiber_space(rng, max_points=3, max_dim=3)
    d = 2
    basis = _suborthonormal_basis(rng, space, d)
    net = heine_borel_net(basis, c, eps)
    stacks = [np.zeros((n_samples, dim), dtype=complex) for dim in space.dims]
    for i in range(n_samples):
        for w in range(space.n_points):
            lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            supp = np.linalg.norm(basis.stacks[w], axis=1) > 0.5
            lam = lam * supp
            nrm = np.linalg.norm(lam)
            if nrm > 0:
                lam = lam / nrm * c * rng.random()
            stacks[w][i] = lam @ basis.stacks[w]
    M = FiniteSet(space, stacks, n_samples)
    assert defect(M, net).value.le(eps, TOL), "net misses a bounded element"


def check_heine_borel_structured(rng, n_samples=50, eps=0.5):
    """defect against a Heine-Borel net equals the dense defect bit for bit,
    on a basis whose second row vanishes at one point, for samples at grid
    midpoints (ties between net rows) and samples off the module."""
    space = FiberSpace(PointSet.of_size(2), (2, 3))
    stacks = []
    for w, dim in enumerate(space.dims):
        q, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
        stacks.append(q.T * [[1.0], [float(w == 0)]])
    net = heine_borel_net(FiniteSet(space, stacks, 2), 1.0, eps)
    i, k = rng.integers(0, len(net.grid), (2, n_samples, 2))
    ties = [0.5 * (net.grid[i] + net.grid[k]) @ s for s in stacks]
    off = fixtures.random_finite_set(rng, space, n_samples, scale=0.5)
    M = FiniteSet(space, [np.vstack(p) for p in zip(ties, off.stacks)], 2 * n_samples)
    rep = defect(M, net)
    ref = defect(M, net.subset(range(len(net))))
    assert rep.value.values.tobytes() == ref.value.values.tobytes(), "value differs"
    assert np.array_equal(rep.argmin, ref.argmin), "argmin differs"


def check_utob_witness(rng, n=20):
    for _ in range(n):
        M = _instance(rng, int(rng.integers(2, 7)))
        eps = float(rng.uniform(0.3, 2.0))
        rep = is_utob(M, eps)
        assert rep.verdict
        assert defect(M, rep.witness).value.le(eps, TOL), "witness recheck"
        assert len(rep.witness) <= len(M)


def check_zonotope_membership(rng, n=20):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        F = _instance(rng, int(rng.integers(1, 4)), space=space)
        x = FiniteSet.zero(space)
        for j in range(len(F)):
            mods = rng.random(space.n_points)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, space.n_points))
            x = x + ComplexCoefficient(space.base, mods * phases) * F.subset([j])
        dval = zonotope_report(x, F, tol=1e-7, max_iter=50_000)[0].max()
        assert dval <= 1e-6, f"membership distance {dval}"


def check_zonotope_equivalence(rng, n=10):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng, max_points=3, max_dim=2)
        M = _instance(rng, 3, space=space)
        eps = float(rng.uniform(0.4, 1.0))
        wit = cp_witness_from_utob(M, eps)
        # the selections certify the containment elementwise
        for i, pou in enumerate(wit.selections):
            for j, p in enumerate(pou):
                gap = (M.subset([i]) - wit.witness.subset([j])).norm_sup() * p
                assert gap.le(eps, TOL), "selection misses the bound"
        assert cp_check(M, wit.witness, eps, tol=1e-6, max_iter=50_000)

        # converse: containment in a fattened zonotope gives a uniform witness
        F = _instance(rng, 2, space=space)
        pts = []
        for _ in range(3):
            u = FiniteSet.zero(space)
            for j in range(len(F)):
                mods = rng.random(space.n_points)
                ph = np.exp(1j * rng.uniform(0, 2 * np.pi, space.n_points))
                u = u + ComplexCoefficient(space.base, mods * ph) * F.subset([j])
            noise = fixtures.random_finite_set(rng, space, 1)
            nn = noise.norm_sup().sup_norm()
            pts.append(u + (eps / max(nn, 1e-12) * 0.9) * noise)
        M2 = FiniteSet.concat(pts)
        net, slack = zonotope_net(F, mesh=0.25, cap=10**6)
        bound = StoneElement.constant(space.base, eps) + slack
        assert defect(M2, net).value.le(bound, 1e-6), "zonotope net witness"


def check_bounded_chain(rng, n=20):
    for _ in range(n):
        M = _instance(rng, int(rng.integers(1, 6)))
        value = defect(M, FiniteSet.zero(M.space)).value.values
        assert value.tobytes() == M.norm_sup().values.tobytes(), "defect vs {0}"
        chain = defect_chain(M)
        assert np.all(chain[1:] <= chain[:-1] + TOL), "chain must decrease"
        assert np.all(chain[-1] <= TOL)


# ---------------------------------------------------------------------------
# mixing


def check_bset_axioms(rng, n=100):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        xs = fixtures.random_finite_set(rng, space, 3)
        x, y, z = (xs.subset([i]) for i in range(3))
        assert eq_idempotent(x, x).is_one()
        assert eq_idempotent(x, y) == eq_idempotent(y, x)
        prod = eq_idempotent(x, y) & eq_idempotent(y, z)
        assert prod.le(eq_idempotent(x, z)), "transitivity inequality"


def check_bset_map_law(rng, n=50):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        k = int(rng.integers(1, 4))
        fam = fixtures.random_finite_set(rng, space, k)
        z = fixtures.random_finite_set(rng, space, 1)
        masks = np.zeros((k, space.n_points), dtype=bool)
        assign = rng.integers(0, k, size=space.n_points)
        for a in range(k):
            masks[a] = assign == a
        pou = PartitionOfUnity([Idempotent(space.base, m) for m in masks])
        glued = mix(pou, fam)
        lhs = (z - glued).norm_sup()
        rhs = StoneElement.zeros(space.base)
        for a, p in enumerate(pou):
            rhs = rhs + (z - fam.subset([a])).norm_sup() * p
        assert lhs.eq(rhs, TOL), "mixing law for distances"
        wit = mix_membership(glued, fam)
        assert wit is not None, "mixing must be recognized"


def check_mix_membership_perturbation(rng, n=25):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        M = fixtures.random_finite_set(rng, space, 3)
        tol = 1e-9
        x = M.subset([int(rng.integers(0, 3))])
        w0 = int(rng.integers(0, space.n_points))
        x = FiniteSet(space, [s + 10 * tol if w == w0 else s for w, s in enumerate(x.stacks)], 1)
        assert mix_membership(x, M, tol) is None, "perturbed point accepted"


def check_cyclic_roundtrip(rng, n=15):
    for _ in range(n):
        M = _instance(rng, int(rng.integers(1, 6)))
        r = M.norm_sup().sup_norm() + 0.1
        for eps in (0.5, 0.1):
            w = cyclic_witness(M, eps, r)
            assert verify_cyclic(M, eps, w), "round trip failed"
            for _, Fn in w.parts:
                assert Fn.norm_sup().le(2 * r, TOL), "mixed generators escape"


def check_defect_mix_invariance(rng, n=25):
    for _ in range(n):
        space = fixtures.random_fiber_space(rng)
        M = fixtures.random_finite_set(rng, space, 3)
        F = fixtures.random_finite_set(rng, space, 2)
        base_val = defect(M, F).value
        mixes = []
        for _ in range(4):
            assign = rng.integers(0, len(M), size=space.n_points)
            masks = [assign == a for a in range(len(M))]
            pou = PartitionOfUnity([Idempotent(space.base, m) for m in masks])
            mixes.append(mix(pou, M))
        enlarged = FiniteSet.concat([M, *mixes])
        assert defect(enlarged, F).value.eq(base_val, TOL), "mixing moved the sup"


# ---------------------------------------------------------------------------
# systems


def check_extension_validation(rng):
    assert validate_extension(fixtures.identity_extension()).valid
    assert validate_extension(fixtures.rotation_extension(4, 2)).valid
    report = validate_extension(fixtures.broken_extension())
    assert not report.valid and any("pushforward" in v for v in report.violations)
    for _ in range(10):
        assert validate_extension(fixtures.random_extension(rng)).valid


def check_koopman_properties(rng, n=10):
    for _ in range(n):
        ext = fixtures.random_extension(rng)
        nx = ext.upstairs.size
        f = fixtures.random_function(rng, nx)
        assert np.allclose(koopman(np.arange(nx), f), f)
        fr = np.real(f)
        gr = np.real(fixtures.random_function(rng, nx))
        for t in _generator_perms(ext):
            tf = koopman(t, fr)
            tg = koopman(t, gr)
            assert np.allclose(
                koopman(t, np.maximum(fr, gr)), np.maximum(tf, tg)
            ), "lattice homomorphism"
            assert abs(
                ext.upstairs.integral(koopman(t, f)) - ext.upstairs.integral(f)
            ) <= 1e-12, "integral preservation"
            assert (
                abs(ext.upstairs.norm2(koopman(t, f)) - ext.upstairs.norm2(f))
                <= 1e-12
            ), "Koopman isometry"


def check_group_enumeration(rng):
    from .systems import MPMap

    assert enumerate_group([MPMap([0, 1, 2])]) == ((0, 1, 2),)
    four_cycle = MPMap([1, 2, 3, 0])
    assert len(enumerate_group([four_cycle])) == 4
    for _ in range(5):
        gens = [MPMap(rng.permutation(4)) for _ in range(2)]
        closure = enumerate_group(gens, cap=10**4)
        assert 24 % len(closure) == 0, "Lagrange violated in S_4"
        members = set(closure)
        # brute-force fixpoint oracle
        grown = set(members)
        for a in members:
            for b in members:
                grown.add(tuple(np.array(a)[np.array(b)]))
        assert grown == members, "closure not closed under composition"


def check_adjoint_tower_isometry(rng, n=25):
    for _ in range(n):
        ext = fixtures.random_extension(rng)
        f = fixtures.random_function(rng, ext.upstairs.size)
        g = fixtures.random_function(rng, ext.downstairs.size)
        lhs = ext.upstairs.inner(embed_J(g, ext), f)
        rhs = ext.downstairs.inner(g, cond_expectation(f, ext))
        assert abs(lhs - rhs) <= TOL, "adjointness"
        assert (
            abs(
                ext.downstairs.integral(cond_expectation(f, ext))
                - ext.upstairs.integral(f)
            )
            <= TOL
        ), "tower identity"
        f2 = fixtures.random_function(rng, ext.upstairs.size)
        for t in _generator_perms(ext):
            lhs2 = rel_inner(koopman(t, f), koopman(t, f2), ext)
            rhs2 = koopman(ext.downstairs_perm(t), rel_inner(f, f2, ext))
            assert np.max(np.abs(lhs2 - rhs2)) <= TOL, "relative isometry"


def check_encode_decode(rng, n=25):
    for _ in range(n):
        ext = fixtures.random_extension(rng)
        rel = ext.rel
        f = fixtures.random_function(rng, ext.upstairs.size)
        g = fixtures.random_function(rng, ext.downstairs.size)
        V = rel.encode(np.array([f, embed_J(g, ext) * f]))
        assert np.allclose(rel.decode(V)[0], f), "decode round trip"
        assert V.subset([0]).norm_sup().eq(rel_norm(f, ext), TOL), "encode isometry"
        assert all(
            np.allclose(s[1], g_w * s[0]) for g_w, s in zip(g, V.stacks)
        ), "module action through encode"
        total = ext.downstairs.integral(np.real(rel_inner(f, f, ext)))
        assert abs(total - ext.upstairs.norm2(f) ** 2) <= TOL


# ---------------------------------------------------------------------------
# relative structure


def check_orbit_basics(rng):
    from .systems import Extension, FiniteProbabilitySpace, MPMap

    space = FiniteProbabilitySpace(["a", "b", "c"], [1 / 3] * 3)
    still = Extension(
        space, [MPMap([0, 1, 2])], space, [MPMap([0, 1, 2])], [0, 1, 2]
    )
    assert len(orbit_functions(fixtures.random_function(rng, 3), still)) == 1

    rot = fixtures.rotation_extension(4, 2)
    delta = np.zeros(4, dtype=complex)
    delta[0] = 1.0
    orb = orbit_functions(delta, rot)
    assert len(orb) == 4, "full rotation orbit of an indicator"
    norms = {round(rot.upstairs.norm2(g), 12) for g in orb}
    assert len(norms) == 1, "orbit norms must agree"


def check_conditional_ap(rng, n=10):
    for _ in range(n):
        ext = fixtures.random_extension(rng)
        f = fixtures.random_function(rng, ext.upstairs.size)
        eps = float(rng.uniform(0.2, 1.0))
        rep = is_conditionally_ap(f, ext, [eps])
        assert rep.verdicts[0]
        assert defect(orbit(f, ext), rep.witnesses[0]).value.le(eps, TOL)


def check_generated_submodule(rng, n=8):
    rot = fixtures.rotation_extension(4, 2)
    delta = np.zeros(4, dtype=complex)
    delta[0] = 1.0
    sb = generated_submodule(delta, rot)
    assert list(sb.ranks) == [2, 2], "rotation fibers have rank 2"
    for _ in range(n):
        ext = fixtures.random_extension(rng)
        f = fixtures.random_function(rng, ext.upstairs.size)
        sb = generated_submodule(f, ext)
        basis = ext.rel.decode(sb.vectors)
        for t in _generator_perms(ext):
            moved = ext.rel.encode(koopman(t, basis))
            proj = sb.project(moved)
            gap = max(
                np.max(np.linalg.norm(a - b, axis=1))
                for a, b in zip(moved.stacks, proj.stacks)
            )
            assert gap <= 1e-8, "generated module not invariant"


def check_kronecker(rng):
    ident = fixtures.identity_extension(5)
    assert kronecker_subspace(ident).dim == 5
    rot = fixtures.rotation_extension(4, 2)
    kr = kronecker_subspace(rot)
    assert kr.dim == 4
    P = kr.projector()
    for t in _generator_perms(rot):
        A = np.zeros((4, 4))
        A[np.asarray(t), np.arange(4)] = 1.0  # Koopman matrix in phi coords
        assert np.linalg.norm(P @ A - A @ P, 2) <= 1e-9, "projector not invariant"
    g = fixtures.random_function(rng, rot.downstairs.size)
    D = np.diag(embed_J(g, rot))
    assert np.linalg.norm(P @ D - D @ P, 2) <= 1e-9, "projector not a module map"


def check_ap_module_closure(rng, n=6):
    for _ in range(n):
        ext = fixtures.random_extension(rng)
        f = fixtures.random_function(rng, ext.upstairs.size)
        g = fixtures.random_function(rng, ext.upstairs.size)
        h = fixtures.random_function(rng, ext.downstairs.size)
        eps = float(rng.uniform(0.3, 0.8))
        out = ap_closure_properties(ext, f, g, h, eps)
        assert all(out.values()), f"module closure failed: {out}"
        # reverse triangle for the relative norm
        lhs = rel_norm(np.abs(f) - np.abs(g), ext)
        rhs = rel_norm(f - g, ext)
        assert lhs.le(rhs, TOL), "reverse triangle"


def check_orbit_in_submodule_net(rng, n=5):
    for _ in range(n):
        ext = fixtures.random_extension(rng, max_base=3, max_fiber=2)
        f = fixtures.random_function(rng, ext.upstairs.size)
        sb = generated_submodule(f, ext)
        c = rel_norm(f, ext).sup_norm()
        eps = 0.5
        net = heine_borel_net(sb.vectors, c + 1e-9, eps, cap=10**7)
        assert defect(orbit(f, ext), net).value.le(eps, TOL), "orbit escapes net"


def check_egoroff_localize(rng):
    _, M, F_n = build_counterexample(8)
    chain = prefix_defects(M, F_n)[1:9]
    weights = np.array([2.0**-k for k in range(1, 9)] + [2.0**-8])
    rep = egoroff_localize(chain, weights, delta=0.25)
    kept = np.nonzero(rep.kept)[0]
    assert set(kept.tolist()) == {0, 1, 8}, "expected the 2-prefix plus tail"
    assert rep.removed_mass <= 0.25 + 1e-12
    # thresholds: on the kept set the chain hits zero at index 2
    assert rep.thresholds[0.05] == 2


def check_cross_check(rng, n=4):
    for ext in [
        fixtures.identity_extension(3),
        fixtures.rotation_extension(4, 2),
        *[fixtures.random_extension(rng) for _ in range(n)],
    ]:
        rep = theorem_cross_check(ext)
        assert rep.subspaces_coincide, rep.distances
        assert all(rep.corollary.values()), rep.corollary
        assert rep.weakly_mixing_dim == 0
        assert max(rep.inclusion_residuals.values()) <= 1e-7


# ---------------------------------------------------------------------------
# sequence model


def check_seq_counterexample(rng):
    n = 10
    prev = None
    for m in range(1, n + 1):
        ok, value = verify_tob_bound(n, m)
        assert ok
        if prev is not None:
            assert value.le(prev, TOL), "defect chain must decrease"
        prev = value
        assert value.sup_norm() >= SQRT2 / 2 - TOL or m == n
    for d in (1, 2, 3):
        for big in (d + 2, n):
            F = build_counterexample(big)[2].subset(range(1, d + 1))
            i, n0 = verify_not_utob(big, F)
            assert n0 > d
    demo_prev = 0
    model = build_counterexample(n)
    for delta in (0.5, 0.25, 0.1, 0.05):
        demo = egoroff_demo(model, delta)
        assert demo.m >= demo_prev, "shrinking budget must grow the prefix"
        demo_prev = demo.m
        assert 2.0**-demo.m <= delta + 1e-15
        assert demo.defect_value.sup_norm() <= TOL


# ---------------------------------------------------------------------------
# registry


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0  # wall time of the check


REGISTRY: list[tuple[str, Callable]] = [
    ("stone.lattice-axioms", check_stone_lattice_axioms),
    ("stone.exhaustion", check_stone_exhaustion),
    ("stone.support-identity", check_stone_support_identity),
    ("fibered.defect-oracle", check_defect_oracle),
    ("fibered.defect-subadditive", check_defect_subadditive),
    ("fibered.defect-product-bound", check_defect_product_bound),
    ("fibered.defect-enlargement", check_defect_enlargement),
    ("fibered.defect-linear-map", check_defect_linear_map),
    ("fibered.defect-truncation", check_defect_truncation),
    ("fibered.lipschitz-surrogate", check_lipschitz_surrogate),
    ("fibered.heine-borel", check_heine_borel),
    ("fibered.heine-borel-structured", check_heine_borel_structured),
    ("fibered.utob-witness", check_utob_witness),
    ("fibered.zonotope-membership", check_zonotope_membership),
    ("fibered.zonotope-equivalence", check_zonotope_equivalence),
    ("fibered.bounded-chain", check_bounded_chain),
    ("mixing.bset-axioms", check_bset_axioms),
    ("mixing.bset-map-law", check_bset_map_law),
    ("mixing.membership-perturbation", check_mix_membership_perturbation),
    ("mixing.cyclic-roundtrip", check_cyclic_roundtrip),
    ("mixing.defect-mix-invariance", check_defect_mix_invariance),
    ("systems.extension-validation", check_extension_validation),
    ("systems.koopman", check_koopman_properties),
    ("systems.group-enumeration", check_group_enumeration),
    ("systems.adjoint-tower-isometry", check_adjoint_tower_isometry),
    ("systems.encode-decode", check_encode_decode),
    ("relative.orbit", check_orbit_basics),
    ("relative.conditional-ap", check_conditional_ap),
    ("relative.generated-submodule", check_generated_submodule),
    ("relative.kronecker", check_kronecker),
    ("relative.ap-module-closure", check_ap_module_closure),
    ("relative.orbit-in-submodule-net", check_orbit_in_submodule_net),
    ("relative.egoroff-localize", check_egoroff_localize),
    ("relative.cross-check", check_cross_check),
    ("seqmodel.counterexample", check_seq_counterexample),
]


def run_all(seed: int = 0, fixture=None) -> list[CheckResult]:
    """Run every registered invariant check with a fresh seeded generator.

    When ``fixture`` (an Extension) is given, its validation and cross-check
    are appended as named entries, so a deliberately broken input fails with
    the invariant that caught it.
    """
    results = []
    for name, fn in REGISTRY:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        try:
            fn(rng)
            passed, detail = True, ""
        except AssertionError as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # a crash is a failure with context
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    if fixture is not None:
        t0 = time.perf_counter()
        report = validate_extension(fixture)
        results.append(
            CheckResult(
                "fixture.extension-valid",
                report.valid,
                "; ".join(report.violations),
                time.perf_counter() - t0,
            )
        )
        if report.valid:
            t0 = time.perf_counter()
            rep = theorem_cross_check(fixture)
            results.append(
                CheckResult(
                    "fixture.cross-check",
                    rep.subspaces_coincide and all(rep.corollary.values()),
                    str(rep.distances),
                    time.perf_counter() - t0,
                )
            )
    return results
