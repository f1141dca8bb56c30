import numpy as np
import pytest

from latnorm import (
    CapExceededError,
    DimensionMismatchError,
    Extension,
    FiniteProbabilitySpace,
    MPMap,
    RelModule,
    cond_expectation,
    embed_J,
    enumerate_group,
    koopman,
    rel_inner,
    rel_norm,
    validate_extension,
)
from latnorm.fixtures import (
    broken_extension,
    identity_extension,
    random_extension,
    random_function,
    rotation_extension,
    symmetric_extension,
)
from oracles import (
    encoding_cases,
    frontier_group_closure,
    per_function_decode,
    per_function_encode,
)

TOL = 1e-9


def uniform_4_over_2():
    top = FiniteProbabilitySpace([f"x{i}" for i in range(4)], [0.25] * 4)
    base = FiniteProbabilitySpace(["u", "v"], [0.5, 0.5])
    return Extension(
        top, [MPMap(range(4))], base, [MPMap(range(2))], [0, 0, 1, 1]
    )


class TestSpaces:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(["a", "b"], [0.5, 0.6])

    def test_zero_weight_forbidden(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(["a", "b"], [1.0, 0.0])


class TestValidation:
    def test_identity_extension_valid(self):
        assert validate_extension(identity_extension()).valid

    def test_pushforward_violation(self):
        report = validate_extension(broken_extension())
        assert not report.valid
        assert any("pushforward" in v for v in report.violations)

    def test_rotation_mod_two_valid(self):
        # direct check: pi(x + 1) = pi(x) + 1 mod 2
        ext = rotation_extension(4, 2)
        for x in range(4):
            assert ext.factor[(x + 1) % 4] == (ext.factor[x] + 1) % 2
        assert validate_extension(ext).valid

    def test_intertwining_violation_detected(self):
        top = FiniteProbabilitySpace([f"x{i}" for i in range(4)], [0.25] * 4)
        base = FiniteProbabilitySpace(["u", "v"], [0.5, 0.5])
        tau = MPMap([1, 2, 3, 0])
        sigma = MPMap([0, 1])  # should be the swap to intertwine
        ext = Extension(top, [tau], base, [sigma], [0, 1, 0, 1])
        report = validate_extension(ext)
        assert any("intertwine" in v for v in report.violations)


class TestKoopman:
    def test_identity_element(self):
        ext = rotation_extension(4, 2)
        f = random_function(np.random.default_rng(0), 4)
        assert np.allclose(koopman((0, 1, 2, 3), f), f)

    def test_rotation_shifts_indicator(self):
        ext = rotation_extension(4, 2)
        delta0 = np.zeros(4, dtype=complex)
        delta0[0] = 1.0
        shifted = koopman(ext.upstairs_gens[0].perm, delta0)
        assert np.allclose(shifted, [0, 1, 0, 0])

    def test_isometry(self):
        rng = np.random.default_rng(1)
        ext = rotation_extension(6, 3)
        f = random_function(rng, 6)
        for t in enumerate_group(ext.upstairs_gens):
            assert ext.upstairs.norm2(koopman(t, f)) == pytest.approx(
                ext.upstairs.norm2(f)
            )

    def test_homomorphism(self):
        rng = np.random.default_rng(2)
        ext = random_extension(rng)
        f = random_function(rng, ext.upstairs.size)
        cl = enumerate_group(ext.upstairs_gens)
        for s in cl[: min(5, len(cl))]:
            for t in cl[: min(5, len(cl))]:
                st = tuple(np.asarray(s)[np.asarray(t)])
                lhs = koopman(s, koopman(t, f))
                rhs = koopman(st, f)
                assert np.allclose(lhs, rhs)

    def test_lattice_homomorphism_and_integral(self):
        rng = np.random.default_rng(3)
        ext = rotation_extension(6, 2)
        f = np.real(random_function(rng, 6))
        g = np.real(random_function(rng, 6))
        for t in enumerate_group(ext.upstairs_gens):
            tf = koopman(t, f)
            tg = koopman(t, g)
            assert np.allclose(koopman(t, np.maximum(f, g)), np.maximum(tf, tg))
            assert ext.upstairs.integral(tf) == pytest.approx(
                ext.upstairs.integral(f)
            )


class TestEnumerateGroup:
    def test_identity_generator(self):
        assert enumerate_group([MPMap([0, 1, 2])]) == ((0, 1, 2),)

    def test_four_cycle(self):
        closure = enumerate_group([MPMap([1, 2, 3, 0])])
        assert len(closure) == 4

    def test_lagrange_in_s5(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            gens = [MPMap(rng.permutation(5)) for _ in range(2)]
            closure = enumerate_group(gens, cap=10**4)
            assert 120 % len(closure) == 0
            members = set(closure)
            grown = {
                tuple(np.asarray(a)[np.asarray(b)])
                for a in members
                for b in members
            }
            assert grown <= members

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            enumerate_group([MPMap([1, 2, 3, 4, 0]), MPMap([1, 0, 2, 3, 4])], cap=10)

    def test_equals_frontier_oracle_in_order_and_cap(self):
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(200):
            n = int(rng.integers(1, 8))
            gens = [MPMap(rng.permutation(n)) for _ in range(rng.integers(1, 4))]
            cases.append((gens, int(10 ** rng.uniform(np.log10(5), 5))))
        for k, order in ((4, 24), (5, 120)):
            for q in (1, 2):
                gens = symmetric_extension(k, q).upstairs_gens
                cases += [(gens, cap) for cap in (order - 1, order, 10**5)]
        capped = 0
        for gens, cap in cases:
            try:
                ref = frontier_group_closure(gens, cap)
            except CapExceededError:
                capped += 1
                with pytest.raises(CapExceededError):
                    enumerate_group(gens, cap)
                continue
            assert enumerate_group(gens, cap) == ref
        assert 10 <= capped < len(cases) - 10

    def test_fixture_retries_a_draw_over_the_cap(self):
        # the first draw at seed 61 has a closure of 5,184 > 1,000 elements:
        # with one try the fixture falls back to its rotation
        fallback = random_extension(np.random.default_rng(61), max_tries=1)
        assert fallback.upstairs.labels == ("x0", "x1", "x2", "x3")
        ext = random_extension(np.random.default_rng(61))
        assert [g.perm.tolist() for g in ext.upstairs_gens] == [[1, 0, 2], [0, 1, 2]]
        assert [g.perm.tolist() for g in ext.downstairs_gens] == [[0], [0]]
        assert ext.factor.tolist() == [0, 0, 0]
        assert len(frontier_group_closure(ext.upstairs_gens)) <= 1000

    def test_measure_preservation_check(self):
        space = FiniteProbabilitySpace(["a", "b", "c"], [0.5, 0.25, 0.25])
        assert MPMap([0, 2, 1]).preserves(space)
        assert not MPMap([1, 0, 2]).preserves(space)


class TestConditionalExpectation:
    def test_constant(self):
        ext = uniform_4_over_2()
        out = cond_expectation(np.full(4, 3.5, dtype=complex), ext)
        assert np.allclose(out, 3.5)

    def test_hand_computed_average(self):
        # uniform 4 points over 2, fibers {x0,x1} and {x2,x3}: f = (1,3,2,4)
        # averages to (2, 3)
        ext = uniform_4_over_2()
        out = cond_expectation(np.array([1, 3, 2, 4], dtype=complex), ext)
        assert np.allclose(out, [2.0, 3.0])

    def test_section_identity(self):
        rng = np.random.default_rng(5)
        ext = uniform_4_over_2()
        g = random_function(rng, 2)
        assert np.allclose(cond_expectation(embed_J(g, ext), ext), g)


class TestRelativeForms:
    def test_norm_of_unit(self):
        ext = uniform_4_over_2()
        out = rel_norm(np.ones(4, dtype=complex), ext)
        assert np.allclose(out.values, 1.0)

    def test_single_indicator(self):
        ext = uniform_4_over_2()
        f = np.zeros(4, dtype=complex)
        f[0] = 1.0
        out = rel_norm(f, ext)
        assert np.allclose(out.values, [np.sqrt(0.5), 0.0])

    def test_integrated_square_is_l2_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ext = random_extension(rng)
            f = random_function(rng, ext.upstairs.size)
            total = ext.downstairs.integral(np.real(rel_inner(f, f, ext)))
            assert total == pytest.approx(ext.upstairs.norm2(f) ** 2, abs=TOL)


class TestEmbed:
    def test_unit(self):
        ext = uniform_4_over_2()
        assert np.allclose(embed_J(np.ones(2, dtype=complex), ext), 1.0)

    def test_adjointness(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ext = random_extension(rng)
            f = random_function(rng, ext.upstairs.size)
            g = random_function(rng, ext.downstairs.size)
            lhs = ext.upstairs.inner(embed_J(g, ext), f)
            rhs = ext.downstairs.inner(g, cond_expectation(f, ext))
            assert lhs == pytest.approx(rhs, abs=TOL)

    def test_multiplicative(self):
        rng = np.random.default_rng(8)
        ext = uniform_4_over_2()
        g, h = random_function(rng, 2), random_function(rng, 2)
        assert np.allclose(
            embed_J(g * h, ext), embed_J(g, ext) * embed_J(h, ext)
        )


class TestRelModule:
    def test_unit_has_unit_fibers(self):
        rel = uniform_4_over_2().rel
        V = rel.encode(np.ones((1, 4), dtype=complex))
        assert np.allclose(V.norm_sup().values, 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ext = random_extension(rng)
            fs = np.array([random_function(rng, ext.upstairs.size) for _ in range(3)])
            assert np.allclose(ext.rel.decode(ext.rel.encode(fs)), fs)

    def test_encode_is_isometric(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ext = random_extension(rng)
            f = random_function(rng, ext.upstairs.size)
            assert ext.rel.encode(f[None]).norm_sup().eq(rel_norm(f, ext), TOL)

    def test_encode_is_module_map(self):
        rng = np.random.default_rng(11)
        ext = rotation_extension(6, 3)
        f = random_function(rng, 6)
        g = random_function(rng, 3)
        V = ext.rel.encode(np.array([embed_J(g, ext) * f, f]))
        for g_w, s in zip(g, V.stacks):
            assert np.allclose(s[0], g_w * s[1])

    def test_invalid_extension_rejected(self):
        with pytest.raises(ValueError):
            RelModule(broken_extension())
        with pytest.raises(ValueError):
            broken_extension().rel
        # the module reads a kept report and rejects an invalid one too
        ext = broken_extension()
        assert not validate_extension(ext).valid
        with pytest.raises(ValueError, match="pushforward"):
            ext.rel

    def test_rejects_arrays_that_are_not_function_stacks(self):
        rel = uniform_4_over_2().rel
        for bad in (np.ones(4), np.ones((2, 3)), np.ones((1, 2, 4))):
            with pytest.raises(DimensionMismatchError):
                rel.encode(bad)

    def test_built_once_per_extension(self):
        ext = uniform_4_over_2()
        assert ext.rel is ext.rel and ext.rel.ext is ext


class TestStackEncoding:
    """The stack ``encode``/``decode`` against the per-function oracles."""

    def test_bit_equal_to_per_function_oracles(self):
        rng = np.random.default_rng(42)
        uneven = 0
        for ext in encoding_cases():
            uneven += len(set(ext.rel.space.dims)) > 1
            for k in (1, 5):
                fs = np.array([random_function(rng, ext.upstairs.size) for _ in range(k)])
                F, oracle = ext.rel.encode(fs), per_function_encode(fs, ext)
                assert F.space == oracle.space and len(F) == len(oracle) == k
                for a, b in zip(F.stacks, oracle.stacks):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                    assert a.flags["C_CONTIGUOUS"]
                back = ext.rel.decode(F)
                assert back.tobytes() == per_function_decode(F, ext).tobytes()
                assert back.shape == (k, ext.upstairs.size)
        assert uneven >= 2


def test_relative_isometry_paired_actions():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ext = random_extension(rng)
        f = random_function(rng, ext.upstairs.size)
        g = random_function(rng, ext.upstairs.size)
        for t in enumerate_group(ext.upstairs_gens)[:10]:
            lhs = rel_inner(koopman(t, f), koopman(t, g), ext)
            rhs = koopman(ext.downstairs_perm(t), rel_inner(f, g, ext))
            assert np.max(np.abs(lhs - rhs)) <= TOL


class TestStackAction:
    """The composition operators and the conditional expectation act on the
    last (point) axis: a ``(k, n)`` stack maps row by row, bit for bit, and a
    single function maps as before."""

    @staticmethod
    def _cases(rng):
        ext = rotation_extension(4, 2)
        for k in (4, 2, 3):  # k == n_x, k == n_y, and neither
            yield ext, random_function(rng, 4 * k).reshape(k, 4)
        ext = random_extension(rng)
        yield ext, random_function(rng, 5 * ext.upstairs.size).reshape(5, -1)

    def test_stack_equals_per_row_images(self):
        rng = np.random.default_rng(31)
        for ext, fs in self._cases(rng):
            gs = fs[:, : ext.downstairs.size]
            for t in enumerate_group(ext.upstairs_gens):
                out = koopman(t, fs)
                assert out.tobytes() == np.array([koopman(t, f) for f in fs]).tobytes()
                sigma = ext.downstairs_perm(t)
                out = koopman(sigma, gs)
                assert out.tobytes() == np.array([koopman(sigma, g) for g in gs]).tobytes()
            out = cond_expectation(fs, ext)
            assert out.tobytes() == np.array([cond_expectation(f, ext) for f in fs]).tobytes()

    def test_square_stack_is_not_permuted_by_rows(self):
        # the old first-axis indexing moved rows of a 4 x 4 stack instead of
        # points: 3 of the 4 rotations differed from the per-row images
        ext = rotation_extension(4, 2)
        fs = np.arange(16, dtype=complex).reshape(4, 4)
        for t in enumerate_group(ext.upstairs_gens):
            perm = np.asarray(t)
            expected = np.empty_like(fs)
            expected[:, perm] = fs
            assert koopman(t, fs).tobytes() == expected.tobytes()

    def test_single_function_unchanged(self):
        # the 1-D results of the first-axis formulas, bit for bit
        rng = np.random.default_rng(32)
        for _ in range(10):
            ext = random_extension(rng)
            f = random_function(rng, ext.upstairs.size)
            g = f[: ext.downstairs.size]
            for t in enumerate_group(ext.upstairs_gens)[:6]:
                old = np.empty_like(f)
                old[np.asarray(t)] = f
                assert koopman(t, f).tobytes() == old.tobytes()
                old = np.empty_like(g)
                old[ext.downstairs_perm(t)] = g
                assert koopman(ext.downstairs_perm(t), g).tobytes() == old.tobytes()
            num = np.zeros(ext.downstairs.size, dtype=complex)
            np.add.at(num, ext.factor, f * ext.upstairs.weights)
            old = num / ext.downstairs.weights
            assert cond_expectation(f, ext).tobytes() == old.tobytes()

