"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (visible with ``pytest -s``; ``pytest
-v`` shows the same verdict per test) and asserts its runtime budget.
"""

import time

import numpy as np

from latnorm import (
    ComplexCoefficient,
    FiberSpace,
    FiniteSet,
    PointSet,
    ap_closure_properties,
    build_counterexample,
    cond_expectation,
    cp_check,
    cp_witness_from_utob,
    cyclic_witness,
    defect,
    egoroff_demo,
    embed_J,
    enumerate_group,
    heine_borel_net,
    is_utob,
    koopman,
    rel_inner,
    theorem_cross_check,
    verify_cyclic,
    verify_not_utob,
    verify_tob_bound,
    zonotope_report,
)
from latnorm.checks import (
    check_bset_axioms,
    check_bset_map_law,
    check_defect_enlargement,
    check_defect_linear_map,
    check_defect_product_bound,
    check_defect_subadditive,
    check_defect_truncation,
    check_lipschitz_surrogate,
)
from latnorm.fixtures import (
    identity_extension,
    random_extension,
    random_fiber_space,
    random_finite_set,
    random_function,
    rotation_extension,
)
from latnorm.seqmodel import SQRT2
from oracles import grid_zonotope_oracle, witness_parts

TOL = 1e-9


def _report(num: int, name: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.1f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s"


def test_ac1_counterexample_bounds():
    t0 = time.perf_counter()
    n = 16
    space, M, F_n = build_counterexample(n)
    for m in range(1, n):
        ok, value = verify_tob_bound(n, m)
        assert ok
        assert np.all(value.values[:m] <= TOL)
        assert np.all(value.values <= SQRT2 + TOL)

    rng = np.random.default_rng(161)
    fs = space.fiber_space
    for d in range(1, 9):
        adversaries = [F_n.subset(range(1, d + 1))]  # the d constants
        for _ in range(3):
            stacks = [
                (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
                / np.sqrt(2)
                for _ in range(fs.n_points)
            ]
            adversaries.append(FiniteSet(fs, stacks, d))
        # candidates clustered on the early basis directions
        stacks = [
            np.eye(d, n).astype(complex) + 0.1 * rng.standard_normal((d, n))
            for _ in range(fs.n_points)
        ]
        adversaries.append(FiniteSet(fs, stacks, d))
        for F in adversaries:
            i, n0 = verify_not_utob(n, F)
            assert d < n0 <= n and 1 <= i <= n0
            e = space.basis_vector(i)
            dist = float(
                np.min(np.linalg.norm(F.stacks[n0 - 1] - e[None, :], axis=1))
            )
            assert dist >= SQRT2 / 2 - TOL
    _report(1, "counterexample bounds", t0, 5.0)


def test_ac2_zonotope_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(162)

    for k in range(200):
        space = random_fiber_space(rng, max_points=6, max_dim=4)
        F = random_finite_set(rng, space, int(rng.integers(1, 4)), scale=0.8)
        M = random_finite_set(rng, space, int(rng.integers(1, 5)))
        eps = float(rng.uniform(0.3, 1.0))

        # uniform order-boundedness witness turns into zonotope containment
        wit = cp_witness_from_utob(M, eps)
        assert cp_check(M, wit.witness, eps, tol=1e-6, max_iter=100_000)

        # membership constructions solve to numerical zero
        x = FiniteSet.zero(space)
        for j in range(len(F)):
            mods = rng.random(space.n_points)
            ph = np.exp(1j * rng.uniform(0, 2 * np.pi, space.n_points))
            x = x + ComplexCoefficient(space.base, mods * ph) * F.subset([j])
        dist, _ = zonotope_report(x, F, tol=1e-7, max_iter=100_000)
        assert dist.max() <= 1e-6

    # solver against the independent grid oracle
    for k in range(50):
        space = random_fiber_space(rng, max_points=6, max_dim=4)
        m = int(rng.integers(1, 3))
        F = random_finite_set(rng, space, m, scale=0.6)
        x = random_finite_set(rng, space, 1, scale=1.0)
        d, _ = zonotope_report(x, F, tol=1e-7, max_iter=100_000)
        oracle = grid_zonotope_oracle(x, F, mesh=0.01)
        assert np.max(np.abs(d[0] - oracle)) <= 0.02
    _report(2, "zonotope equivalence", t0, 60.0)


def test_ac3_heine_borel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(163)
    space = FiberSpace(PointSet.of_size(2), (2, 3))
    for d in (1, 2):
        stacks = [np.zeros((d, dim), dtype=complex) for dim in space.dims]
        for w, dim in enumerate(space.dims):
            a = rng.standard_normal((dim, d)) + 1j * rng.standard_normal((dim, d))
            q, _ = np.linalg.qr(a)
            r = d if w == 0 else max(1, d - 1)  # second fiber drops rank
            stacks[w][:r, :] = q.T[:r]
        basis = FiniteSet(space, stacks, d)
        supports = [
            np.linalg.norm(basis.stacks[w], axis=1) > 0.5
            for w in range(space.n_points)
        ]
        for eps in (0.5, 0.25):
            net = heine_borel_net(basis, c=1.0, eps=eps)
            stacks = [np.zeros((1000, dim), dtype=complex) for dim in space.dims]
            for i in range(1000):
                for w in range(space.n_points):
                    lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    lam = lam * supports[w]
                    nrm = np.linalg.norm(lam)
                    if nrm > 0:
                        lam = lam / nrm * rng.random()
                    stacks[w][i] = lam @ basis.stacks[w]
            M = FiniteSet(space, stacks, 1000)
            assert defect(M, net).value.le(eps, TOL)
    _report(3, "Heine-Borel nets", t0, 30.0)


def test_ac4_defect_calculus():
    t0 = time.perf_counter()
    for check in (
        check_defect_subadditive,
        check_defect_product_bound,
        check_defect_enlargement,
        check_defect_linear_map,
        check_defect_truncation,
        check_lipschitz_surrogate,
    ):
        check(np.random.default_rng(164), n=500)
    _report(4, "defect calculus", t0, 30.0)


def test_ac5_mixing_cyclic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(165)
    for _ in range(100):
        space = random_fiber_space(rng, max_points=6, max_dim=3)
        M = random_finite_set(rng, space, int(rng.integers(1, 6)))
        r = M.norm_sup().sup_norm() + 0.1
        for eps, w in zip((0.5, 0.1), cyclic_witness(M, (0.5, 0.1), r)):
            assert verify_cyclic(M, eps, w)
            for q, Fn in witness_parts(w):
                assert Fn.norm_sup().le(2 * r, TOL)
                assert (defect(M, Fn).value * q).le(eps, TOL)
    check_bset_axioms(np.random.default_rng(1650), n=500)
    check_bset_map_law(np.random.default_rng(1651), n=500)
    _report(5, "mixing and cyclic compactness", t0, 30.0)


def test_ac6_extension_layer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(166)
    for _ in range(200):
        ext = random_extension(rng)
        nx, ny = ext.upstairs.size, ext.downstairs.size
        f = random_function(rng, nx)
        f2 = random_function(rng, nx)
        g = random_function(rng, ny)
        lhs = ext.upstairs.inner(embed_J(g, ext), f)
        rhs = ext.downstairs.inner(g, cond_expectation(f, ext))
        assert abs(lhs - rhs) <= TOL
        assert (
            abs(
                ext.downstairs.integral(cond_expectation(f, ext))
                - ext.upstairs.integral(f)
            )
            <= TOL
        )
        closure = enumerate_group(ext.upstairs_gens)
        idx = rng.integers(0, len(closure), size=min(8, len(closure)))
        for j in idx:
            t = closure[int(j)]
            lhs2 = rel_inner(koopman(t, f), koopman(t, f2), ext)
            rhs2 = koopman(ext.downstairs_perm(t), rel_inner(f, f2, ext))
            assert np.max(np.abs(lhs2 - rhs2)) <= TOL
    _report(6, "extension layer", t0, 60.0)


def test_ac7_subspace_cross_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(167)
    fixtures = [
        identity_extension(4),
        rotation_extension(4, 2),
        rotation_extension(6, 3),
        rotation_extension(8, 2),
    ]
    extensions = fixtures + [random_extension(rng) for _ in range(50)]
    for ext in extensions:
        assert len(enumerate_group(ext.upstairs_gens)) <= 10**3
        rep = theorem_cross_check(ext)
        assert all(d <= 1e-7 for d in rep.distances.values()), rep.distances
        assert all(rep.corollary.values()), rep.corollary
        assert max(rep.inclusion_residuals.values()) <= 1e-7
        assert rep.weakly_mixing_dim == 0
        assert "weakly mixing" in rep.note  # degeneracy flagged explicitly
        f = random_function(rng, ext.upstairs.size)
        g = random_function(rng, ext.upstairs.size)
        h = random_function(rng, ext.downstairs.size)
        laws = ap_closure_properties(ext, f, g, h, eps=0.5)
        assert all(laws.values()), laws
    _report(7, "subspace cross-check", t0, 120.0)


def test_ac8_egoroff_localization():
    t0 = time.perf_counter()
    model = build_counterexample(16)
    for delta in (0.25, 0.05):
        demo = egoroff_demo(model, delta)
        assert 2.0 ** -demo.m <= delta + 1e-15
        kept = demo.kept.mask
        assert kept[: demo.m].all() and not kept[demo.m :].any()
        # the localized family is uniformly totally order-bounded at every
        # level: its defect against the cut witness vanishes on A
        value = defect(demo.masked_set, demo.witness).value
        assert np.all(value.values[kept] <= TOL)
        assert value.sup_norm() <= TOL
        rep = is_utob(demo.masked_set, 1e-6)
        assert rep.verdict
    _report(8, "Egoroff localization", t0, 30.0)
