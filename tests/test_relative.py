import itertools
import json
import sys
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import latnorm.relative as relative
from latnorm import (
    CapExceededError,
    Extension,
    FiniteProbabilitySpace,
    FiniteSet,
    MPMap,
    PointSet,
    RelModule,
    StoneElement,
    SubmoduleBasis,
    ap_closure_properties,
    defect,
    defect_chain,
    egoroff_localize,
    enumerate_group,
    generated_submodule,
    heine_borel_net,
    is_conditionally_ap,
    koopman,
    kronecker_subspace,
    orbit,
    orbit_functions,
    orbit_tob_verdict,
    prefix_defects,
    rel_norm,
    theorem_cross_check,
)
from latnorm.checks import _generator_perms
from latnorm.fixtures import (
    random_extension,
    random_function,
    rotation_extension,
    symmetric_extension,
)
from latnorm.seqmodel import build_counterexample
from latnorm.systems import embed_J
from oracles import (
    closure_orbit_functions,
    containment_residual,
    encoding_cases,
    frontier_group_closure,
    per_cut_kronecker_subspace,
    per_indicator_ap,
    per_indicator_cross_check,
    per_indicator_kronecker_subspace,
    per_link_egoroff_localize,
    per_link_orbit_tob_verdict,
    projector,
    span_basis,
    subspace_distance,
)

TOL = 1e-9


def still_extension(n=3):
    """One-point group acting trivially on a uniform space over itself."""
    space = FiniteProbabilitySpace([f"x{i}" for i in range(n)], [1.0 / n] * n)
    ident = MPMap(range(n))
    return Extension(space, [ident], space, [ident], range(n))


def tiny_fiber_extension():
    """A swap on each of two fibers, one of weight 1, one of weight 2e-21."""
    up = FiniteProbabilitySpace(["x0", "x1", "x2", "x3"], [0.5, 0.5, 1e-21, 1e-21])
    down = FiniteProbabilitySpace(["y0", "y1"], [1.0, 2e-21])
    return Extension(up, [MPMap([1, 0, 3, 2])], down, [MPMap([0, 1])], [0, 0, 1, 1])


def delta(n, i):
    out = np.zeros(n, dtype=complex)
    out[i] = 1.0
    return out


class TestOrbit:
    def test_trivial_action(self):
        ext = still_extension(3)
        f = random_function(np.random.default_rng(0), 3)
        assert len(orbit_functions(f, ext)) == 1

    def test_rotation_indicator(self):
        ext = rotation_extension(4, 2)
        orb = orbit_functions(delta(4, 0), ext)
        assert len(orb) == 4
        as_set = {tuple(np.round(np.real(g)).astype(int)) for g in orb}
        assert as_set == {
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        }

    def test_walk_matches_closure_oracle(self):
        # same images in the same order as the walk over the whole closure,
        # including functions with repeated values (smaller orbits, dedupe)
        rng = np.random.default_rng(20)
        exts = [random_extension(rng) for _ in range(8)]
        exts += [rotation_extension(12, 3), rotation_extension(6, 6)]
        exts += [symmetric_extension(k, q) for k, q in [(3, 2), (4, 1), (5, 1)]]
        for ext in exts:
            n = ext.upstairs.size
            funcs = [
                delta(n, 0),
                delta(n, n - 1),
                np.ones(n, dtype=complex),
                random_function(rng, n),
                np.round(random_function(rng, n, scale=1.5)),
            ]
            for f in funcs:
                walked = orbit_functions(f, ext)
                oracle = closure_orbit_functions(f, ext)
                assert walked.shape == oracle.shape
                assert np.array_equal(walked, oracle)

    def test_cap_bounds_orbit_size_not_group_order(self):
        ext = symmetric_extension(5, 1)  # group order 120
        ext.cap = 5
        assert len(orbit_functions(delta(5, 2), ext)) == 5
        f = random_function(np.random.default_rng(21), 5)
        with pytest.raises(CapExceededError):
            orbit_functions(f, ext)  # 120 distinct images
        ext.cap = 120
        assert len(orbit_functions(f, ext)) == 120

    def test_equal_l2_norms(self):
        rng = np.random.default_rng(1)
        ext = random_extension(rng)
        f = random_function(rng, ext.upstairs.size)
        norms = [ext.upstairs.norm2(g) for g in orbit_functions(f, ext)]
        assert max(norms) - min(norms) <= TOL


class TestConditionallyAP:
    def test_always_true_on_finite_models(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ext = random_extension(rng)
            f = random_function(rng, ext.upstairs.size)
            rep = is_conditionally_ap(f, ext, [0.5, 0.1])
            assert rep.all_pass

    def test_trivial_extension_norm_is_modulus(self):
        # over itself the relative norm is the pointwise modulus
        ext = still_extension(4)
        f = random_function(np.random.default_rng(3), 4)
        assert np.allclose(rel_norm(f, ext).values, np.abs(f))

    def test_witness_recheck(self):
        rng = np.random.default_rng(4)
        ext = random_extension(rng)
        f = random_function(rng, ext.upstairs.size)
        eps = 0.3
        rep = is_conditionally_ap(f, ext, [eps])
        assert defect(orbit(f, ext), rep.witnesses[0]).value.le(eps, TOL)


class TestGeneratedSubmodule:
    def test_constant_function_rank_one(self):
        ext = rotation_extension(4, 2)
        sb = generated_submodule(np.ones(4, dtype=complex), ext)
        assert list(sb.ranks) == [1, 1] and len(sb) == 1

    def test_rotation_indicator_full_rank(self):
        ext = rotation_extension(4, 2)
        sb = generated_submodule(delta(4, 0), ext)
        assert list(sb.ranks) == [2, 2]

    def test_invariance_under_action(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ext = random_extension(rng)
            f = random_function(rng, ext.upstairs.size)
            sb = generated_submodule(f, ext)
            basis = ext.rel.decode(sb.vectors)
            for t in enumerate_group(ext.upstairs_gens)[:6]:
                moved = ext.rel.encode([koopman(t, h) for h in basis])
                proj = sb.project(moved)
                for a, b in zip(moved.stacks, proj.stacks):
                    assert np.max(np.linalg.norm(a - b, axis=1)) <= 1e-8

    def test_suborthonormal_output(self):
        ext = rotation_extension(6, 2)
        sb = generated_submodule(delta(6, 1), ext)
        for w in range(2):
            B = sb.vectors.stacks[w]
            gram = B @ np.conj(B.T)
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-10
            diag = np.real(np.diag(gram))
            assert np.all(np.minimum(np.abs(diag), np.abs(diag - 1)) <= 1e-10)


class TestKronecker:
    def test_bit_equal_to_per_cut_oracle(self):
        for ext in encoding_cases():
            kr, oracle = kronecker_subspace(ext), per_cut_kronecker_subspace(ext)
            assert kr.dim == oracle.dim and kr.seed_ranks == oracle.seed_ranks
            assert kr.projector().tobytes() == oracle.projector().tobytes()

    def test_identity_action_full(self):
        ext = still_extension(5)
        assert kronecker_subspace(ext).dim == 5

    def test_rotation_four_over_two(self):
        # fiberwise the square of the rotation acts on each 2-point fiber;
        # both relative eigenfunctions per fiber survive, total dimension 4
        assert kronecker_subspace(rotation_extension(4, 2)).dim == 4

    def test_projector_commutes(self):
        ext = rotation_extension(4, 2)
        kr = kronecker_subspace(ext)
        P = kr.projector()
        for t in enumerate_group(ext.upstairs_gens):
            A = np.zeros((4, 4))
            A[np.asarray(t), np.arange(4)] = 1.0
            assert np.linalg.norm(P @ A - A @ P, 2) <= TOL
        g = random_function(np.random.default_rng(6), 2)
        D = np.diag(embed_J(g, ext))
        assert np.linalg.norm(P @ D - D @ P, 2) <= TOL

    def test_discrete_spectrum_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            ext = random_extension(rng)
            assert kronecker_subspace(ext).dim == ext.upstairs.size

    def test_rank_does_not_depend_on_fiber_weight(self):
        # a fiber of weight 2e-21 under one of weight 1: every finite
        # extension has discrete spectrum, whatever its fibers weigh
        ext = tiny_fiber_extension()
        kr = kronecker_subspace(ext)
        assert kr.dim == 4 and [B.shape for B in kr.blocks] == [(2, 2), (2, 2)]
        rep = theorem_cross_check(ext)
        assert rep.kronecker_dim == rep.ap_dim == rep.tob_dim == 4
        assert all(rep.corollary.values()) and rep.subspaces_coincide

    def test_fiber_distances_equal_the_dense_norms(self):
        # random orthonormal blocks of random rank on uneven, interleaved
        # fibers against random AP and TOB masks, one fiber all false
        rng = np.random.default_rng(18)
        strict = np.zeros(5, dtype=int)
        for _ in range(300):
            dims = rng.integers(1, 6, size=int(rng.integers(1, 5)))
            n_x = int(dims.sum())
            fiber_points = np.split(rng.permutation(n_x), np.cumsum(dims)[:-1])
            ap, tob = rng.random((2, n_x)) < 0.6
            empty = fiber_points[int(rng.integers(len(dims)))]
            ap[empty] = tob[empty] = False
            blocks = []
            for d, pts in zip(dims, fiber_points):
                # half the time as many basis vectors as AP points, so that
                # distances below 1 occur
                r = int(ap[pts].sum()) if rng.random() < 0.5 else int(rng.integers(d + 1))
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                blocks.append(np.linalg.qr(a)[0][:, :r].T)
            kr = relative.KroneckerReport(
                sum(len(B) for B in blocks), blocks, fiber_points, []
            )
            dense = np.zeros((kr.dim, n_x), dtype=complex)
            row = 0
            for B, pts in zip(blocks, fiber_points):
                dense[row : row + len(B), pts] = B
                row += len(B)
            ap_basis, tob_basis = np.eye(n_x, dtype=complex)[ap], np.eye(n_x, dtype=complex)[tob]
            distances, inclusions = relative._fiber_distances(kr, ap, tob)
            want = (
                subspace_distance(dense, ap_basis),
                subspace_distance(dense, tob_basis),
                subspace_distance(ap_basis, tob_basis),
                containment_residual(dense, ap_basis),
                containment_residual(ap_basis, tob_basis),
            )
            got = (*distances.values(), *inclusions.values())
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)
            assert np.allclose(kr.projector(), projector(dense), rtol=0.0, atol=1e-12)
            strict += [1e-9 < v < 1 - 1e-9 for v in got]
        # fm_ap, fm_tob and fm_in_ap each fall strictly between 0 and 1
        assert np.all(strict[[0, 1, 3]] > 0)


def _commutes(P, perm):
    """Whether the projector P (in phi coordinates) commutes with the
    Koopman matrix of perm, a permutation matrix there too."""
    A = np.zeros(P.shape)
    A[np.asarray(perm), np.arange(len(perm))] = 1.0
    return np.linalg.norm(P @ A - A @ P, 2) <= 1e-9


def _module_invariant(sb, perm):
    """Whether the module of sb holds every image of its basis under perm."""
    moved = sb.module.encode(koopman(perm, sb.module.decode(sb.vectors)))
    proj = sb.project(moved)
    return all(
        np.max(np.linalg.norm(a - b, axis=1), initial=0.0) <= 1e-8
        for a, b in zip(moved.stacks, proj.stacks)
    )


def _cycle_union(rng, gen, n):
    """Indicator of a random union of the cycles of gen, or of a random
    set of points when gen is None."""
    if gen is None:
        return (rng.random(n) < 0.5).astype(float)
    out = np.zeros(n)
    for x in range(n):
        if not out[x] and rng.random() < 0.5:
            y = x
            while not out[y]:
                out[y] = 1.0
                y = gen.perm[y]
    return out


def _span_module(ext, f):
    """The module spanned fiberwise by f alone, not by its orbit."""
    stacks = []
    for s in ext.rel.encode(f[None]).stacks:
        norm = np.linalg.norm(s)
        stacks.append(s / norm if norm > 1e-12 else np.zeros_like(s))
    vectors = FiniteSet(ext.rel.space, stacks, 1)
    ranks = np.array([int(np.any(s != 0)) for s in stacks])
    return SubmoduleBasis(ext.rel, vectors, ranks)


class TestGeneratorInvariance:
    """Invariance under the identity and the generators, which the selftest
    checks, is invariance under the whole closure."""

    @staticmethod
    def _verdicts(check, ext):
        gens = [check(t) for t in _generator_perms(ext)]
        group = [check(t) for t in frontier_group_closure(ext.upstairs_gens)]
        return all(gens), all(group)

    def test_same_verdict_on_generators_and_closure(self):
        rng = np.random.default_rng(40)
        outcomes = set()
        for _ in range(25):
            ext = random_extension(rng)
            n = ext.upstairs.size
            P = kronecker_subspace(ext).projector()
            assert self._verdicts(lambda t: _commutes(P, t), ext) == (True, True)
            f = random_function(rng, n)
            sb = generated_submodule(f, ext)
            assert self._verdicts(lambda t: _module_invariant(sb, t), ext) == (True, True)
            # coordinate subspaces, invariant exactly on unions of point
            # orbits: random sets, and unions of one generator's cycles
            for gen in (None,) + ext.upstairs_gens:
                P = np.diag(_cycle_union(rng, gen, n))
                on_gens, on_group = self._verdicts(lambda t: _commutes(P, t), ext)
                assert on_gens == on_group
                outcomes.add(on_gens)
            sb = _span_module(ext, f)
            on_gens, on_group = self._verdicts(lambda t: _module_invariant(sb, t), ext)
            assert on_gens == on_group
            outcomes.add(on_gens)
        assert outcomes == {True, False}

    def test_indicator_span_fails_both(self):
        ext = rotation_extension(4, 2)
        P = np.diag(delta(4, 0).real)
        assert self._verdicts(lambda t: _commutes(P, t), ext) == (False, False)
        sb = _span_module(ext, delta(4, 0))
        assert list(sb.ranks) == [1, 0]
        assert self._verdicts(lambda t: _module_invariant(sb, t), ext) == (False, False)


class TestEgoroffLocalize:
    def test_uniformly_convergent_keeps_all(self):
        _, M, F_n = build_counterexample(4)
        chain = prefix_defects(M, F_n)[1:5]
        # uniform weights: everything converges by the last index anyway
        rep = egoroff_localize(chain, np.full(5, 0.2), delta=0.05)
        assert rep.kept.all() or rep.removed_mass <= 0.05
        rep2 = egoroff_localize(chain * 0.0, np.full(5, 0.2), delta=0.5)
        assert rep2.kept.all()

    def test_dyadic_counterexample_prefix(self):
        n = 8
        space, M, F_n = build_counterexample(n)
        chain = prefix_defects(M, F_n)[1 : n + 1]
        weights = space.weights()
        for m_target, delta in [(2, 0.25), (4, 1 / 16)]:
            rep = egoroff_localize(chain, weights, delta)
            kept = set(np.nonzero(rep.kept)[0].tolist())
            # the tail never converges slowly here (defect 0), so it stays
            assert kept == set(range(m_target)) | {n}
            assert rep.removed_mass <= delta + 1e-12
            assert rep.thresholds[0.5] == m_target

    def test_not_decreasing_rejected(self):
        space, M, F_n = build_counterexample(3)
        chain = prefix_defects(M, F_n)[1:4]
        with pytest.raises(ValueError):
            egoroff_localize(chain[::-1], space.weights(), 0.5)

    def test_localized_function_stays_ap(self):
        rng = np.random.default_rng(8)
        ext = random_extension(rng)
        f = random_function(rng, ext.upstairs.size)
        chain = defect_chain(orbit(f, ext))
        rep = egoroff_localize(chain, ext.downstairs.weights, delta=0.25)
        mask = embed_J(rep.kept.astype(complex), ext)
        assert is_conditionally_ap(mask * f, ext, [0.5, 0.1]).all_pass


def random_chains(seed, count=300, tol=TOL):
    """Random chains on 1..7 points: mostly decreasing, with links at exactly
    ``u + tol``, links just above it, converged points and zero tails."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, n = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        rows = [rng.random(n) * rng.choice([1e-10, 1.0, 2.0])]
        for _ in range(k - 1):
            prev = rows[-1]
            step = rng.choice(["decay", "at_tol", "above_tol", "zero"], p=[0.6, 0.2, 0.1, 0.1])
            if step == "decay":
                rows.append(prev * rng.random(n))
            elif step == "at_tol":
                rows.append(prev + tol)
            elif step == "above_tol":
                rows.append(np.where(rng.random(n) < 0.5, prev + 2 * tol, prev))
            else:
                rows.append(np.zeros(n))
        weights = rng.random(n) + 0.01
        weights /= weights.sum()
        delta = float(rng.choice([0.05, 0.3, 0.7, 1.5]))
        yield np.array(rows), weights, delta


def elements(U):
    """The rows of a chain as ``StoneElement``s, the oracles' input."""
    return [StoneElement(PointSet.of_size(U.shape[1]), u) for u in U]


def test_egoroff_localize_equals_per_link_oracle():
    eps_values = (1.0, 0.5, 0.1, 1e-3, 1e-12)
    outcomes = {"rejected": 0, "all_removed": 0, "none_threshold": 0}
    for chain, weights, delta in random_chains(31):
        try:
            kept, removed, mass, thresholds = per_link_egoroff_localize(
                elements(chain), weights, delta, eps_values
            )
        except ValueError:
            with pytest.raises(ValueError):
                egoroff_localize(chain, weights, delta, eps_values)
            outcomes["rejected"] += 1
            continue
        rep = egoroff_localize(chain, weights, delta, eps_values)
        assert np.array_equal(rep.kept, kept)
        assert rep.removed == removed and rep.removed_mass == mass
        assert rep.thresholds == thresholds
        outcomes["all_removed"] += not kept.any()
        outcomes["none_threshold"] += None in thresholds.values()
    assert all(outcomes.values()), outcomes


def test_orbit_tob_verdict_equals_per_link_oracle(monkeypatch):
    verdicts = set()
    for chain, _, _ in random_chains(32):
        fake = SimpleNamespace(M=None, radii=chain)
        with monkeypatch.context() as m:
            m.setattr(relative, "_traversal", lambda f, ext, tol: fake)
            got = orbit_tob_verdict(None, None)
        assert got == per_link_orbit_tob_verdict(elements(chain))
        verdicts.add(got)
    assert verdicts == {True, False}
    ext = random_extension(np.random.default_rng(33))
    for x0 in range(ext.upstairs.size):
        f = delta(ext.upstairs.size, x0)
        M = relative._traversal(f, ext, TOL).M
        chain = elements(defect_chain(M))
        assert orbit_tob_verdict(f, ext) == per_link_orbit_tob_verdict(chain)


def test_egoroff_rejects_misshapen_chains():
    weights = np.array([0.5, 0.5])
    for chain in (np.zeros((0, 2)), np.array([1.0, 0.5]), np.ones((3, 3))):
        with pytest.raises(ValueError, match="nonempty"):
            egoroff_localize(chain, weights, 0.1)
    assert egoroff_localize(np.ones((3, 2)), weights, 0.1).kept.all()


def test_traversal_radii_are_read_only():
    ext = rotation_extension(4, 2)
    e0, e1 = np.eye(ext.upstairs.size, dtype=complex)[:2]
    trav = relative._traversal(e0, ext, TOL)
    with pytest.raises(ValueError):
        trav.radii += 1.0
    assert orbit_tob_verdict(e1, ext)
    assert relative._traversal(e1, ext, TOL) is trav
    assert not defect_chain(trav.M).flags.writeable


class TestCrossCheck:
    def test_builds_one_rel_module(self, monkeypatch):
        ext = random_extension(np.random.default_rng(34))
        built = []
        init = RelModule.__init__
        monkeypatch.setattr(
            RelModule, "__init__", lambda self, e: built.append(e) or init(self, e)
        )
        theorem_cross_check(ext)
        assert built == [ext]

    def test_identity_everything_coincides(self):
        rep = theorem_cross_check(still_extension(4))
        assert rep.kronecker_dim == 4
        assert all(d == 0.0 for d in rep.distances.values())
        assert all(rep.corollary.values())
        assert rep.weakly_mixing_dim == 0

    def test_rotation_fixture(self):
        rep = theorem_cross_check(rotation_extension(4, 2))
        assert rep.subspaces_coincide and all(rep.corollary.values())

    def test_random_extensions(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            rep = theorem_cross_check(random_extension(rng))
            assert rep.subspaces_coincide, rep.distances
            assert all(rep.corollary.values())
            assert max(rep.inclusion_residuals.values()) <= 1e-7
            assert "weakly mixing" in rep.note


class TestSharedOrbits:
    def test_analysis_never_enumerates_the_group(self, monkeypatch):
        def enumerated(*args, **kwargs):
            raise AssertionError("the group closure was enumerated")

        # every latnorm module that holds the name, as it imports it
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "latnorm" and hasattr(module, "enumerate_group"):
                monkeypatch.setattr(module, "enumerate_group", enumerated)
        rng = np.random.default_rng(22)
        ext = symmetric_extension(4, 2)
        rep = theorem_cross_check(ext)
        assert rep.subspaces_coincide and all(rep.corollary.values())
        f = random_function(rng, 8)
        g = random_function(rng, 8)
        h = random_function(rng, 2)
        assert all(ap_closure_properties(ext, f, g, h, eps=0.5).values())

    def test_one_walk_and_traversal_per_orbit(self, monkeypatch):
        point_walks, function_walks = [], []
        traversals, localizations, probes = [], [], []
        walk = relative._walk_orbit

        def walked(x, *args, **kwargs):
            # a point walk starts at a point index, a function walk at an array
            if isinstance(x, int):
                point_walks.append(x)
            else:
                function_walks.append(np.asarray(x).tobytes())
            return walk(x, *args, **kwargs)

        def counted(log, fn, key):
            def inner(x, *args, **kwargs):
                log.append(key(x))
                return fn(x, *args, **kwargs)

            return inner

        monkeypatch.setattr(relative, "_walk_orbit", walked)
        monkeypatch.setattr(
            relative, "Traversal", counted(traversals, relative.Traversal, id),
        )
        monkeypatch.setattr(
            relative, "egoroff_localize",
            counted(localizations, relative.egoroff_localize, id),
        )
        monkeypatch.setattr(
            relative, "is_conditionally_ap",
            counted(probes, relative.is_conditionally_ap, lambda f: np.any(f != 0)),
        )
        logs = (point_walks, function_walks, traversals, localizations, probes)
        for ext in (
            rotation_extension(8, 2),  # one point orbit of 8
            symmetric_extension(4, 2),  # two of 4
            random_extension(np.random.default_rng(30)),  # sizes 2, 2 and 4
        ):
            for log in logs:
                log.clear()
            n = ext.upstairs.size
            point_orbits = {
                frozenset(int(np.asarray(t)[x]) for t in enumerate_group(ext.upstairs_gens))
                for x in range(n)
            }
            assert len(point_orbits) < n
            deltas = (0.5, 0.25, 0.1)
            theorem_cross_check(ext, delta_values=deltas)
            # one localization per point orbit and delta, and one AP probe
            # of a nonzero function per point orbit
            assert len(localizations) == len(point_orbits) * len(deltas)
            assert sum(probes) == len(point_orbits)
            # one point walk per point orbit, from its first point, and no
            # function walk but at most the zero function's
            assert point_walks == sorted(min(o) for o in point_orbits)
            zero = np.zeros(n, dtype=complex).tobytes()
            assert function_walks in ([], [zero])
            # one traversal per walk
            assert len(traversals) == len(point_walks) + len(function_walks)
            done = len(traversals), list(function_walks)
            # a second cross-check walks nothing and traverses nothing
            point_walks.clear()
            theorem_cross_check(ext, delta_values=deltas)
            assert point_walks == [] and (len(traversals), function_walks) == done


class TestPointOrbits:
    """The point walk of ``_point_orbits`` against the function walk of each
    indicator, and the per-shape SVD batches against one call per matrix."""

    def cases(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            yield random_extension(rng)
        for n_top, n_base in ((4, 2), (6, 3), (8, 2), (12, 4)):
            yield rotation_extension(n_top, n_base)
        for k, q in ((3, 2), (4, 1), (4, 2), (5, 1)):
            yield symmetric_extension(k, q)

    def test_walks_and_files_as_the_indicators_do(self):
        # at tol 3, 1 and 0 round alike, so every indicator is its own orbit
        for ext, tol in itertools.product(self.cases(), (TOL, 3.0)):
            n = ext.upstairs.size
            ext._orbits.clear()
            orbits = relative._point_orbits(ext, tol)
            assert relative._point_orbits(ext, tol) is orbits  # kept
            filed = dict(ext._orbits)
            covered = []
            for trav, f, points in orbits:
                walked = orbit_functions(f, ext, tol)
                assert np.nonzero(walked)[1].tolist() == points
                assert f.tobytes() == walked[0].tobytes() == delta(n, points[0]).tobytes()
                assert trav.M.stacks[0].tobytes() == ext.rel.encode(walked).stacks[0].tobytes()
                covered += points
            assert sorted(covered) == list(range(n))
            assert [points[0] for _, _, points in orbits] == sorted(
                points[0] for _, _, points in orbits
            )
            # every indicator's own traversal, filed under the same keys
            ext._orbits.clear()
            for x in range(n):
                relative._traversal(delta(n, x), ext, tol)
            assert filed.keys() == ext._orbits.keys()
            for key, trav in filed.items():
                ref = ext._orbits[key]
                assert trav.order == ref.order
                assert trav.radii.tobytes() == ref.radii.tobytes()

    def test_same_cap_as_the_function_walk(self):
        for ext in self.cases():
            orbits = relative._point_orbits(ext, TOL)
            largest = max(orbits, key=lambda o: len(o[2]))
            size = len(largest[2])
            # a new walk each time, not the kept orbits
            ext.cap = size
            ext._point_orbits.clear()
            assert len(relative._point_orbits(ext, TOL)) == len(orbits)
            assert len(orbit_functions(largest[1], ext)) == size
            if size == 1:
                continue
            ext.cap = size - 1
            ext._point_orbits.clear()
            with pytest.raises(CapExceededError) as by_points:
                relative._point_orbits(ext, TOL)
            with pytest.raises(CapExceededError) as by_function:
                orbit_functions(largest[1], ext)
            assert str(by_points.value) == str(by_function.value) == f"orbit exceeds cap {size - 1}"

    def test_svd_batches_equal_per_matrix_calls(self, monkeypatch):
        batched = relative._svd_by_shape
        calls = []

        def checked(mats, compute_uv=True):
            out = batched(mats, compute_uv)
            assert len(out) == len(mats)
            for m, got in zip(mats, out):
                want = np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
                want = want[1:] if compute_uv else (want,)
                got = got if compute_uv else (got,)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            calls.append((compute_uv, len({m.shape for m in mats}), len(mats)))
            return out

        monkeypatch.setattr(relative, "_svd_by_shape", checked)
        for ext in self.cases():
            theorem_cross_check(ext)
        # both kinds of batch ran, and some batched several matrices per call
        assert {uv for uv, _, _ in calls} == {True, False}
        assert any(shapes < mats for _, shapes, mats in calls)


@dataclass(eq=False)
class LiftedTraversal:
    """A stand-in traversal: a set, a chain of radii and a recheck."""

    M: object
    radii: np.ndarray
    recheck: object


class TestSharedOrbitOracles:
    """The shared orbit traversals against a per-indicator reference in
    which every indicator walks, orthonormalizes and traverses its own
    orbit."""

    EPS = (0.5, 0.25, 0.1, 0.05)

    def cases(self):
        yield from encoding_cases()
        rng = np.random.default_rng(42)
        for _ in range(60):
            yield random_extension(rng)
        for n_top, n_base in ((4, 2), (6, 2), (6, 3), (8, 4)):
            yield rotation_extension(n_top, n_base)
        for k, q in ((3, 1), (3, 2), (4, 1), (4, 2)):
            yield symmetric_extension(k, q)

    def test_equals_per_indicator_reference(self):
        for ext in self.cases():
            ref = per_indicator_kronecker_subspace(ext)
            verdicts, sizes = per_indicator_ap(ext, self.EPS)
            kr = kronecker_subspace(ext)
            rep = theorem_cross_check(ext, eps_values=self.EPS)
            assert kr.dim == rep.kronecker_dim == ref.dim
            assert kr.seed_ranks == ref.seed_ranks
            assert kr.projector().tobytes() == ref.projector().tobytes()
            assert rep.ap_verdicts == verdicts
            assert rep.ap_witness_sizes == sizes

    def test_cross_check_equals_per_indicator_oracle(self, monkeypatch):
        zero_probes = []
        probe = relative.is_conditionally_ap

        def counted(f, *args, **kwargs):
            zero_probes.append(not np.any(f != 0))
            return probe(f, *args, **kwargs)

        monkeypatch.setattr(relative, "is_conditionally_ap", counted)
        # a finite orbit's chain ends at zero, so only a chain that does not
        # converge leaves a delta with no threshold: file a copy of one
        # orbit's traversal, its chain lifted by 1, under that orbit's keys
        lifted = rotation_extension(6, 3)
        trav = relative._traversal(np.eye(6, dtype=complex)[0], lifted, TOL)
        fake = LiftedTraversal(trav.M, trav.radii + 1.0, trav.recheck)
        for key, hit in list(lifted._orbits.items()):
            if hit is trav:
                lifted._orbits[key] = fake
        no_threshold = False
        for ext in [*self.cases(), lifted]:
            for deltas in ((0.25, 0.1), (0.5, 0.25, 0.1), (0.9,)):
                rep = theorem_cross_check(ext, self.EPS, deltas)
                ref = per_indicator_cross_check(ext, self.EPS, deltas)
                assert json.dumps(asdict(rep)) == json.dumps(asdict(ref))
                no_threshold |= None in rep.egoroff_thresholds.values()
        # the localization cut points (so the zero function was probed) and
        # left some delta with no uniform threshold
        assert any(zero_probes) and no_threshold


class TestApClosure:
    def test_module_closure_laws(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            ext = random_extension(rng)
            f = random_function(rng, ext.upstairs.size)
            g = random_function(rng, ext.upstairs.size)
            h = random_function(rng, ext.downstairs.size)
            out = ap_closure_properties(ext, f, g, h, eps=0.5)
            assert all(out.values()), out

    def test_reverse_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ext = random_extension(rng)
            f = random_function(rng, ext.upstairs.size)
            g = random_function(rng, ext.upstairs.size)
            lhs = rel_norm(np.abs(f) - np.abs(g), ext)
            assert lhs.le(rel_norm(f - g, ext), TOL)


def test_orbit_tob_verdict_everywhere():
    rng = np.random.default_rng(12)
    ext = random_extension(rng)
    f = random_function(rng, ext.upstairs.size)
    assert orbit_tob_verdict(f, ext)


def test_orbit_inside_generated_net():
    # the orbit sits inside its generated module and the module net covers it
    rng = np.random.default_rng(13)
    ext = rotation_extension(6, 3)
    f = random_function(rng, 6)
    sb = generated_submodule(f, ext)
    c = rel_norm(f, ext).sup_norm()
    net = heine_borel_net(sb.vectors, c + 1e-9, eps=0.5, cap=10**7)
    assert defect(orbit(f, ext), net).value.le(0.5, TOL)


def test_span_utilities():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    basis = span_basis(a)
    assert basis.shape[0] == 3
    assert subspace_distance(basis, basis) <= 1e-12
