from types import SimpleNamespace

import numpy as np
import pytest

import latnorm.relative as relative
from latnorm import (
    CapExceededError,
    DimensionMismatchError,
    Extension,
    FiniteProbabilitySpace,
    MPMap,
    PointSet,
    RelModule,
    StoneElement,
    ap_closure_properties,
    defect,
    defect_chain,
    egoroff_localize,
    generated_submodule,
    has_discrete_spectrum,
    heine_borel_net,
    is_conditionally_ap,
    kronecker_subspace,
    orbit,
    orbit_functions,
    orbit_tob_verdict,
    rel_norm,
    theorem_cross_check,
)
from latnorm.fixtures import (
    random_extension,
    random_function,
    rotation_extension,
    symmetric_extension,
)
from latnorm.relative import span_basis, subspace_distance
from latnorm.seqmodel import build_counterexample
from latnorm.systems import embed_J
from oracles import (
    closure_orbit_functions,
    encoding_cases,
    per_cut_kronecker_subspace,
    per_link_egoroff_localize,
    per_link_orbit_tob_verdict,
)

TOL = 1e-9


def still_extension(n=3):
    """One-point group acting trivially on a uniform space over itself."""
    space = FiniteProbabilitySpace([f"x{i}" for i in range(n)], [1.0 / n] * n)
    ident = MPMap(range(n))
    return Extension(space, [ident], space, [ident], range(n))


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
            for t in ext.action.closure[:6]:
                moved = ext.rel.encode([ext.action.koopman(t, h) for h in basis])
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
            assert kr.basis_phi.tobytes() == oracle.basis_phi.tobytes()

    def test_identity_action_full(self):
        ext = still_extension(5)
        assert kronecker_subspace(ext).dim == 5
        assert has_discrete_spectrum(ext)

    def test_rotation_four_over_two(self):
        # fiberwise the square of the rotation acts on each 2-point fiber;
        # both relative eigenfunctions per fiber survive, total dimension 4
        assert kronecker_subspace(rotation_extension(4, 2)).dim == 4

    def test_projector_commutes(self):
        ext = rotation_extension(4, 2)
        kr = kronecker_subspace(ext)
        P = kr.projector()
        for t in ext.action.closure:
            A = np.zeros((4, 4))
            A[np.asarray(t), np.arange(4)] = 1.0
            assert np.linalg.norm(P @ A - A @ P, 2) <= TOL
        g = random_function(np.random.default_rng(6), 2)
        D = np.diag(embed_J(g, ext))
        assert np.linalg.norm(P @ D - D @ P, 2) <= TOL

    def test_discrete_spectrum_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert has_discrete_spectrum(random_extension(rng))


class TestEgoroffLocalize:
    def test_uniformly_convergent_keeps_all(self):
        _, M, nets = build_counterexample(4)
        chain = [defect(M, F).value for F in nets]
        # uniform weights: everything converges by the last index anyway
        rep = egoroff_localize(chain, np.full(5, 0.2), delta=0.05)
        assert rep.kept.is_one() or rep.removed_mass <= 0.05
        rep2 = egoroff_localize(
            [c * 0.0 for c in chain], np.full(5, 0.2), delta=0.5
        )
        assert rep2.kept.is_one()

    def test_dyadic_counterexample_prefix(self):
        n = 8
        space, M, nets = build_counterexample(n)
        chain = [defect(M, F).value for F in nets]
        weights = space.weights()
        for m_target, delta in [(2, 0.25), (4, 1 / 16)]:
            rep = egoroff_localize(chain, weights, delta)
            kept = set(np.nonzero(rep.kept.mask)[0].tolist())
            # the tail never converges slowly here (defect 0), so it stays
            assert kept == set(range(m_target)) | {n}
            assert rep.removed_mass <= delta + 1e-12
            assert rep.thresholds[0.5] == m_target

    def test_not_decreasing_rejected(self):
        space, M, nets = build_counterexample(3)
        chain = [defect(M, F).value for F in nets]
        with pytest.raises(ValueError):
            egoroff_localize(list(reversed(chain)), space.weights(), 0.5)

    def test_localized_function_stays_ap(self):
        rng = np.random.default_rng(8)
        ext = random_extension(rng)
        f = random_function(rng, ext.upstairs.size)
        chain = defect_chain(orbit(f, ext))
        rep = egoroff_localize(chain, ext.downstairs.weights, delta=0.25)
        mask = embed_J(rep.kept.mask.astype(complex), ext)
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
        yield [StoneElement(PointSet.of_size(n), r) for r in rows], weights, delta


def test_egoroff_localize_equals_per_link_oracle():
    eps_values = (1.0, 0.5, 0.1, 1e-3, 1e-12)
    outcomes = {"rejected": 0, "all_removed": 0, "none_threshold": 0}
    for chain, weights, delta in random_chains(31):
        try:
            kept, removed, mass, thresholds = per_link_egoroff_localize(
                chain, weights, delta, eps_values
            )
        except ValueError:
            with pytest.raises(ValueError):
                egoroff_localize(chain, weights, delta, eps_values)
            outcomes["rejected"] += 1
            continue
        rep = egoroff_localize(chain, weights, delta, eps_values)
        assert np.array_equal(rep.kept.mask, kept)
        assert rep.removed == removed and rep.removed_mass == mass
        assert rep.thresholds == thresholds
        outcomes["all_removed"] += not kept.any()
        outcomes["none_threshold"] += None in thresholds.values()
    assert all(outcomes.values()), outcomes


def test_orbit_tob_verdict_equals_per_link_oracle():
    verdicts = set()
    for chain, _, _ in random_chains(32):
        U = np.array([u.values for u in chain])
        fake = SimpleNamespace(M=chain, grow=lambda k: U[:k])
        got = orbit_tob_verdict(None, None, orbits=lambda f: fake)
        assert got == per_link_orbit_tob_verdict(chain)
        verdicts.add(got)
    assert verdicts == {True, False}
    ext = random_extension(np.random.default_rng(33))
    orbits = relative.OrbitCache(ext)
    for x0 in range(ext.upstairs.size):
        f = delta(ext.upstairs.size, x0)
        expected = per_link_orbit_tob_verdict(defect_chain(orbits(f).M))
        assert orbit_tob_verdict(f, ext, orbits=orbits) == expected


def test_egoroff_rejects_chains_on_mixed_point_sets():
    a = StoneElement(PointSet.of_size(2), [1.0, 1.0])
    b = StoneElement(PointSet(("p", "q")), [0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        egoroff_localize([a, b], np.array([0.5, 0.5]), 0.1)


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

    def test_report_serializes(self):
        rep = theorem_cross_check(rotation_extension(4, 2))
        doc = rep.to_json_dict()
        assert set(doc) >= {
            "kronecker_dim",
            "ap_verdicts",
            "subspace_distances",
            "egoroff_thresholds",
            "corollary",
            "weakly_mixing_dim",
            "note",
        }
        csv = rep.ap_witness_csv((0.5, 0.25))
        assert csv.startswith("basis_index,verdict")
        assert len(csv.strip().splitlines()) == 5


class TestSharedOrbits:
    def test_analysis_never_enumerates_the_group(self, monkeypatch):
        def enumerated(self):
            raise AssertionError("the group closure was enumerated")

        monkeypatch.setattr(Extension, "action", property(enumerated))
        rng = np.random.default_rng(22)
        ext = symmetric_extension(4, 2)
        rep = theorem_cross_check(ext)
        assert rep.subspaces_coincide and all(rep.corollary.values())
        f = random_function(rng, 8)
        g = random_function(rng, 8)
        h = random_function(rng, 2)
        assert all(ap_closure_properties(ext, f, g, h, eps=0.5).values())

    def test_one_walk_and_traversal_per_function(self, monkeypatch):
        walks, traversals = [], []

        def counted(log, fn, key):
            def inner(x, *args, **kwargs):
                log.append(key(x))
                return fn(x, *args, **kwargs)

            return inner

        monkeypatch.setattr(
            relative, "orbit_functions",
            counted(walks, relative.orbit_functions, lambda f: np.asarray(f).tobytes()),
        )
        monkeypatch.setattr(
            relative, "Traversal", counted(traversals, relative.Traversal, id),
        )
        ext = random_extension(np.random.default_rng(23))
        theorem_cross_check(ext, delta_values=(0.5, 0.25, 0.1))
        n = ext.upstairs.size
        # the indicators, and at most the zero function from the localization
        assert len(walks) == len(set(walks)) and n <= len(walks) <= n + 1
        assert len(traversals) == len(walks)


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
