import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latnorm import (
    ComplexCoefficient,
    DimensionMismatchError,
    Idempotent,
    IncompleteCoverError,
    PartitionOfUnity,
    PointSet,
    StoneElement,
    exhaustion,
)


def se(*vals):
    return StoneElement(PointSet.of_size(len(vals)), vals)


class TestLatticeOps:
    def test_sup_pointwise_join(self):
        out = se(1, 0).sup(se(0, 1))
        assert np.allclose(out.values, [1, 1])

    def test_inf_idempotent(self):
        a = se(0.3, -2, 5)
        assert a.inf(a).eq(a)

    def test_mul_pointwise(self):
        out = se(2, 3) * se(1, 0)
        assert np.allclose(out.values, [2, 0])

    def test_idempotent_selects(self):
        # a cut inf reads 0, not the nan of 0 * inf, and a kept -0.0 stays
        p = Idempotent(PointSet.of_size(3), [False, True, True])
        out = se(np.inf, 1, -0.0) * p
        assert out.values.tobytes() == np.array([0.0, 1.0, -0.0]).tobytes()
        assert (p * se(np.inf, 1, -0.0)).values.tobytes() == out.values.tobytes()

    def test_add_scalar_mul(self):
        out = 2.0 * se(1, -1) + se(0, 3)
        assert np.allclose(out.values, [2, 1])

    def test_mismatched_base_rejected(self):
        with pytest.raises(DimensionMismatchError):
            se(1, 2) + se(1, 2, 3)


class TestSupNorm:
    def test_zero(self):
        assert se(0, 0, 0).sup_norm() == 0.0

    def test_max_modulus(self):
        assert se(1, -3).sup_norm() == 3.0

    def test_constant(self):
        eps = 1e-4
        assert se(eps, eps).sup_norm() == eps


class TestSupport:
    def test_definition(self):
        assert se(0, 5).support(1e-9).mask.tolist() == [False, True]

    def test_zero_element(self):
        assert se(0, 0).support(1e-3).is_zero()

    def test_below_tolerance_excluded(self):
        assert se(1e-12, 1).support(1e-9).mask.tolist() == [False, True]

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            se(1.0).support(-1.0)


class TestExhaustion:
    def test_single_element(self):
        ps = PointSet.of_size(3)
        part = exhaustion([Idempotent.one(ps)])
        assert len(part) == 1 and part[0].is_one()

    def test_first_fit_hand_example(self):
        # cover [(1,1,0), (0,1,1)] in listed priority -> [(1,1,0), (0,0,1)]
        ps = PointSet.of_size(3)
        cover = [Idempotent(ps, [1, 1, 0]), Idempotent(ps, [0, 1, 1])]
        part = exhaustion(cover)
        assert part[0].mask.tolist() == [True, True, False]
        assert part[1].mask.tolist() == [False, False, True]

    def test_priority_reorders(self):
        # the cover listed in the other order: the first listed takes the overlap
        ps = PointSet.of_size(3)
        cover = [Idempotent(ps, [0, 1, 1]), Idempotent(ps, [1, 1, 0])]
        part = exhaustion(cover)
        assert part[0].mask.tolist() == [False, True, True]
        assert part[1].mask.tolist() == [True, False, False]

    def test_incomplete_cover(self):
        ps = PointSet.of_size(2)
        cover = [Idempotent(ps, [1, 0]), Idempotent(ps, [1, 0])]
        with pytest.raises(IncompleteCoverError):
            exhaustion(cover)


class TestPartitionOfUnity:
    def test_overlapping_rejected(self):
        ps = PointSet.of_size(2)
        with pytest.raises(ValueError):
            PartitionOfUnity([Idempotent(ps, [1, 1]), Idempotent(ps, [0, 1])])

    def test_complement_pair(self):
        ps = PointSet.of_size(4)
        p = Idempotent(ps, [1, 0, 1, 0])
        part = PartitionOfUnity([p, p.complement()])
        assert len(part) == 2


class TestComplexCoefficient:
    def test_modulus_is_stone(self):
        ps = PointSet.of_size(2)
        lam = ComplexCoefficient(ps, [3 + 4j, 1j])
        assert np.allclose(lam.modulus().values, [5, 1])

    def test_conj_involution(self):
        ps = PointSet.of_size(2)
        lam = ComplexCoefficient(ps, [1 + 2j, -1j])
        assert np.allclose(lam.conj().conj().values, lam.values)


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=100, deadline=None)
@given(
    vals=arrays(np.float64, 4, elements=finite_floats),
    other=arrays(np.float64, 4, elements=finite_floats),
)
def test_lattice_norm_axioms(vals, other):
    ps = PointSet.of_size(4)
    a, b = StoneElement(ps, vals), StoneElement(ps, other)
    assert (a.abs().sup_norm() == 0.0) == bool(np.all(vals == 0))
    assert (a + b).abs().le(a.abs() + b.abs(), 1e-6 * max(1, a.sup_norm(), b.sup_norm()))
    if a.abs().le(b.abs(), 0.0):
        assert a.abs().sup_norm() <= b.abs().sup_norm()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 4))
def test_exhaustion_always_partitions(data, n, k):
    ps = PointSet.of_size(n)
    masks = [
        np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        for _ in range(k)
    ]
    masks[-1] = masks[-1] | ~np.logical_or.reduce(masks)
    cover = [Idempotent(ps, m) for m in masks]
    part = exhaustion(cover)
    assert isinstance(part, PartitionOfUnity)
    for p, c in zip(part, cover):
        assert p.le(c)


def test_pointwise_sup_of_family():
    a, b, c = se(1, 0, 2), se(0, 3, 1), se(2, 2, 2)
    assert np.allclose(functools.reduce(StoneElement.sup, [a, b, c]).values, [2, 3, 2])


def test_support_times_element_recovers_element():
    a = se(0.5, 0, -2)
    assert (a.support(1e-9) * a).eq(a)
