import numpy as np
import pytest

from latnorm import (
    CapExceededError,
    DimensionMismatchError,
    Extension,
    FiniteProbabilitySpace,
    GroupAction,
    MPMap,
    RelModule,
    UnknownGroupElementError,
    cond_expectation,
    embed_J,
    enumerate_group,
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
        assert np.allclose(ext.action.koopman((0, 1, 2, 3), f), f)

    def test_rotation_shifts_indicator(self):
        ext = rotation_extension(4, 2)
        delta0 = np.zeros(4, dtype=complex)
        delta0[0] = 1.0
        shifted = ext.action.koopman(ext.upstairs_gens[0], delta0)
        assert np.allclose(shifted, [0, 1, 0, 0])

    def test_isometry(self):
        rng = np.random.default_rng(1)
        ext = rotation_extension(6, 3)
        f = random_function(rng, 6)
        for t in ext.action.closure:
            assert ext.upstairs.norm2(ext.action.koopman(t, f)) == pytest.approx(
                ext.upstairs.norm2(f)
            )

    def test_homomorphism(self):
        rng = np.random.default_rng(2)
        ext = random_extension(rng)
        f = random_function(rng, ext.upstairs.size)
        cl = ext.action.closure
        for s in cl[: min(5, len(cl))]:
            for t in cl[: min(5, len(cl))]:
                st = tuple(np.asarray(s)[np.asarray(t)])
                lhs = ext.action.koopman(s, ext.action.koopman(t, f))
                rhs = ext.action.koopman(st, f)
                assert np.allclose(lhs, rhs)

    def test_unknown_element_rejected(self):
        ext = rotation_extension(4, 2)
        with pytest.raises(UnknownGroupElementError):
            ext.action.koopman((1, 0, 2, 3), np.zeros(4))

    def test_lattice_homomorphism_and_integral(self):
        rng = np.random.default_rng(3)
        ext = rotation_extension(6, 2)
        f = np.real(random_function(rng, 6))
        g = np.real(random_function(rng, 6))
        for t in ext.action.closure:
            tf = ext.action.koopman(t, f)
            tg = ext.action.koopman(t, g)
            assert np.allclose(
                ext.action.koopman(t, np.maximum(f, g)), np.maximum(tf, tg)
            )
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
        for t in ext.action.closure[:10]:
            lhs = rel_inner(ext.action.koopman(t, f), ext.action.koopman(t, g), ext)
            rhs = ext.koopman_y(t, rel_inner(f, g, ext))
            assert np.max(np.abs(lhs - rhs)) <= TOL


def test_group_action_contains():
    act = GroupAction(
        FiniteProbabilitySpace(["a", "b", "c"], [1 / 3] * 3), [MPMap([1, 2, 0])]
    )
    assert act.contains((2, 0, 1)) and not act.contains((1, 0, 2))
