import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from latnorm import (
    ComplexCoefficient,
    DimensionMismatchError,
    FiniteProbabilitySpace,
    FiberSpace,
    FiberwiseMap,
    FiniteSet,
    GridNet,
    Idempotent,
    IterationLimitError,
    PointSet,
    SizeCapError,
    StoneElement,
    Traversal,
    cp_check,
    cp_witness_from_utob,
    cyclic_witness,
    defect,
    defect_chain,
    disc_grid,
    egoroff_demo,
    egoroff_localize,
    eq_idempotent,
    greedy_order,
    heine_borel_net,
    is_utob,
    mix_membership,
    orbit,
    prefix_defects,
    set_image,
    set_sum,
    theorem_cross_check,
    truncate_to_ball,
    zonotope_net,
    zonotope_report,
)
from latnorm.fibered import _GRID_RINGS, _GRIDS, _grid_bytes, _pair_dist, check_suborthonormal
from latnorm.seqmodel import build_counterexample
from latnorm.fixtures import (
    random_extension,
    random_fiber_space,
    random_finite_set,
    rotation_extension,
)
from oracles import (
    broadcast_pair_dist,
    brute_force_defect_chain,
    brute_force_greedy_order,
    dense_defect,
    dense_prefix_defects,
    farthest_point_traversal,
    flat_index_rows,
    grid_net_kept,
    grid_net_nearest,
    grid_zonotope_oracle,
    per_point_check_suborthonormal,
    product_grid_image,
    ring_loop_disc_grid,
)

TOL = 1e-9


def single_fiber_space(dim=1):
    return FiberSpace(PointSet.of_size(1), (dim,))


def scalars(space, *vals):
    """FiniteSet of one-dimensional fiber values over a single point."""
    return FiniteSet(space, [np.array(vals, dtype=complex).reshape(-1, 1)], len(vals))


def element(space, *fibers):
    """One-element set with the given fibers."""
    return FiniteSet(space, [np.array(f, dtype=complex).reshape(1, -1) for f in fibers], 1)


class TestLatticeNorm:
    def test_zero(self):
        space = random_fiber_space(np.random.default_rng(0))
        assert FiniteSet.zero(space).norm_sup().sup_norm() == 0.0

    def test_pythagoras(self):
        space = single_fiber_space(2)
        x = element(space, [3.0, 4.0])
        assert np.allclose(x.norm_sup().values, [5.0])
        assert x.norms().tolist() == [[5.0]]

    def test_homogeneity(self):
        space = FiberSpace(PointSet.of_size(2), (2, 2))
        x = element(space, [1, 0], [0, 1])
        lam = ComplexCoefficient(space.base, [2.0, 0.0])
        assert np.allclose((lam * x).norm_sup().values, [2.0, 0.0])
        # |lam x| = |lam| |x| in general
        rng = np.random.default_rng(3)
        y = element(space, rng.standard_normal(2) + 1j, rng.standard_normal(2))
        mu = ComplexCoefficient(space.base, rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lhs = (mu * y).norm_sup()
        rhs = mu.modulus() * y.norm_sup()
        assert lhs.eq(rhs, TOL)

    def test_infinite_entries_have_infinite_norms(self):
        # no 0 * inf is formed, so nothing warns: the norm of inf is inf.
        # The distance of an infinite entry from itself is inf - inf, a NaN,
        # which traversals, defects, prefix defects and the mixing checks
        # read without a warning
        space = FiberSpace(PointSet.of_size(2), (2, 1))
        F = FiniteSet(
            space,
            [np.array([[np.inf, 1.0], [0.5, 0.0]]),
             np.array([[complex(1.0, -np.inf)], [2.0]])],
            2,
        )
        assert F.norms().tolist() == [[np.inf, np.inf], [0.5, 2.0]]
        assert F.norm_sup().values.tolist() == [np.inf, np.inf]
        out = truncate_to_ball(F, r=1.0)
        assert [s.tolist() for s in out.stacks] == [[[0j, 0j], [0.5, 0j]], [[0j], [2.0]]]
        assert Traversal(F).order == (0, 1)  # seeded by the infinite norm
        rep = defect(F, F)
        assert np.isnan(rep.value.values).all() and rep.argmin.tolist() == [[0, 0], [1, 1]]
        assert np.isnan(prefix_defects(F, F)).all()
        utob = is_utob(F, 1.0)  # no prefix is within eps: all of F, rechecked NaN
        assert not utob.verdict and len(utob.witness) == 2
        # |x - x| is NaN at both points, which is not within a tolerance:
        # x agrees with itself nowhere and matches no member of F. An inf or
        # a NaN in one fiber leaves agreement in the others
        x = F.subset([0])
        assert eq_idempotent(x, x).mask.tolist() == [False, False]
        assert mix_membership(x, F) is None
        for bad in (np.inf, np.nan):
            y = FiniteSet(space, [np.array([[bad, 1.0]]), np.array([[2.0]])], 1)
            assert eq_idempotent(y, y).mask.tolist() == [False, True]
            assert mix_membership(y, y) is None


class TestDefect:
    def test_self_defect_vanishes(self):
        M = random_finite_set(np.random.default_rng(1), random_fiber_space(np.random.default_rng(2)), 4)
        assert defect(M, M).value.sup_norm() == 0.0

    def test_single_fiber_scalars(self):
        space = single_fiber_space()
        assert defect(scalars(space, 3), scalars(space, 1)).value.values[0] == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            space = random_fiber_space(rng, max_points=3, max_dim=3)
            M = random_finite_set(rng, space, 4)
            F = random_finite_set(rng, space, 2)
            rep = defect(M, F)
            for w in range(space.n_points):
                expected = max(
                    min(
                        np.linalg.norm(M.stacks[w][i] - F.stacks[w][j])
                        for j in range(len(F))
                    )
                    for i in range(len(M))
                )
                assert rep.value.values[w] == pytest.approx(expected, abs=1e-12)

    def test_argmin_consistent(self):
        rng = np.random.default_rng(8)
        space = random_fiber_space(rng)
        M, F = random_finite_set(rng, space, 3), random_finite_set(rng, space, 3)
        rep = defect(M, F)
        for i in range(len(M)):
            for w in range(space.n_points):
                j = rep.argmin[i, w]
                dists = np.linalg.norm(F.stacks[w] - M.stacks[w][i], axis=1)
                assert dists[j] == pytest.approx(dists.min(), abs=1e-12)

    def test_empty_rejected(self):
        space = single_fiber_space()
        M = scalars(space, 1)
        empty = FiniteSet(space, [np.zeros((0, 1), dtype=complex)], 0)
        with pytest.raises(ValueError):
            defect(M, empty)


class TestUtob:
    def test_any_finite_set_passes(self):
        rng = np.random.default_rng(9)
        M = random_finite_set(rng, random_fiber_space(rng), 5)
        rep = is_utob(M, 1e-6)
        assert rep.verdict

    def test_large_eps_single_witness(self):
        space = single_fiber_space()
        M = scalars(space, 0.0, 0.1, -0.1, 0.05)
        rep = is_utob(M, eps=1.0)
        assert rep.verdict and len(rep.witness) == 1

    def test_threshold_holds_at_eps_plus_tol(self):
        # M = {0, x}, eps = 0.5: one element covers the other exactly when
        # x <= eps + TOL, and a defect of exactly eps + TOL passes the recheck
        space = single_fiber_space()
        edge = 0.5 + TOL
        for x, size in ((edge, 1), (0.5 + 5e-10, 1), (np.nextafter(edge, 1), 2)):
            rep = is_utob(scalars(space, 0.0, x), eps=0.5)
            assert len(rep.witness) == size and rep.verdict

    def test_witness_recheck(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            M = random_finite_set(rng, random_fiber_space(rng), 6)
            eps = float(rng.uniform(0.2, 1.5))
            rep = is_utob(M, eps)
            assert defect(M, rep.witness).value.le(eps, TOL)

    def test_greedy_order_inserts_all(self):
        rng = np.random.default_rng(11)
        M = random_finite_set(rng, random_fiber_space(rng), 5)
        order = greedy_order(M)
        assert sorted(order) == list(range(5))


def _traversal_cases():
    """Random sets, then sets with many exact distance ties: repeated
    elements and encoded orbits of point indicators; last, a random set of
    100 elements, whose traversal tables are filled by row blocks."""
    rng = np.random.default_rng(40)
    for n in (1, 2, 7, 30):
        yield random_finite_set(rng, random_fiber_space(rng), n)
    M = random_finite_set(rng, random_fiber_space(rng), 4)
    yield M.subset([0, 1, 0, 2, 3, 1, 3])
    for ext in (rotation_extension(12, 3), random_extension(rng), random_extension(rng)):
        for x0 in range(min(ext.upstairs.size, 3)):
            f = np.zeros(ext.upstairs.size, dtype=complex)
            f[x0] = 1.0
            yield orbit(f, ext)
    yield random_finite_set(rng, random_fiber_space(rng), 100)


def _nonfinite_cases():
    """Random sets with NaN, +-inf and complex-inf entries planted, and one
    with repeated elements so that NaN and inf distances tie."""
    rng = np.random.default_rng(44)
    values = [np.nan, np.inf, -np.inf, complex(np.inf, np.inf), complex(0, -np.inf),
              complex(np.nan, 1)]
    for n in (1, 2, 5, 12, 30):
        for value in values:
            M = random_finite_set(rng, random_fiber_space(rng), n)
            stacks = [s.copy() for s in M.stacks]
            for _ in range(int(rng.integers(1, 4))):
                s = stacks[int(rng.integers(len(stacks)))]
                s[rng.integers(n), rng.integers(s.shape[1])] = value
            M = FiniteSet(M.space, stacks, n)
            yield M
    yield M.subset([0, 1, 0, 2, 3, 1, 3])


class TestTraversal:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_matches_brute_force_oracle(self):
        for M in itertools.chain(_traversal_cases(), _nonfinite_cases()):
            trav = Traversal(M)
            radii, order = trav.radii, list(trav.order)
            assert order == brute_force_greedy_order(M) == greedy_order(M)
            oracle = brute_force_defect_chain(M, order)
            assert len(radii) == len(oracle)
            for k, (prefix, rep) in enumerate(zip(radii, oracle), 1):
                assert np.array_equal(prefix, rep.value.values, equal_nan=True)
                assert np.array_equal(prefix, trav.recheck(k).value.values, equal_nan=True)
            assert np.array_equal(defect_chain(M), radii, equal_nan=True)

    def test_utob_witness_is_oracle_prefix(self):
        for M in _traversal_cases():
            order = brute_force_greedy_order(M)
            oracle = brute_force_defect_chain(M, order)
            for eps in (1.5, 0.5, 0.2, 1e-6):
                n = next(
                    (k for k, r in enumerate(oracle, 1) if r.value.le(eps, TOL)),
                    len(order),
                )
                rep = is_utob(M, eps)
                assert len(rep.witness) == n
                assert np.array_equal(rep.report.argmin, oracle[n - 1].argmin)
                assert rep.report.value.values.tolist() == oracle[n - 1].value.values.tolist()

    def test_shared_traversal_equals_fresh_utob(self):
        for M in itertools.chain(_traversal_cases(), _uneven_sets()):
            scale = max(float(M.norm_sup().sup_norm()), 1.0)
            eps_values = [scale * f for f in (2.0, 0.5, 0.2, 0.05)] + [1e-6]
            for eps_order in (
                sorted(eps_values),
                sorted(eps_values, reverse=True),
                eps_values + eps_values[::-1],
            ):
                shared = Traversal(M)
                for eps in eps_order:
                    got = is_utob(M, eps, traversal=shared)
                    ref = is_utob(M, eps)
                    assert got.verdict == ref.verdict
                    assert [s.tobytes() for s in got.witness.stacks] == [
                        s.tobytes() for s in ref.witness.stacks
                    ]
                    assert np.array_equal(got.report.argmin, ref.report.argmin)
                    assert got.report.value.values.tobytes() == ref.report.value.values.tobytes()
                assert list(shared.order) == greedy_order(M)
                assert shared.radii.tolist() == Traversal(M).radii.tolist()

    def test_traversal_replays_and_memoizes(self, monkeypatch):
        import latnorm.fibered as fibered

        calls = []
        real = fibered._pair_dist
        monkeypatch.setattr(
            fibered, "_pair_dist",
            lambda a, b: calls.append(a.shape) or real(a, b),
        )
        rng = np.random.default_rng(42)
        M = random_finite_set(rng, random_fiber_space(rng), 12)
        trav = Traversal(M)
        # built whole, from one distance table per fiber
        assert calls == [s.shape for s in M.stacks]
        radii = trav.radii.tolist()
        assert len(radii) == 12 and sorted(trav.order) == list(range(12))
        assert Traversal(M).radii.tolist() == radii
        assert list(trav.order) == list(Traversal(M).order) == greedy_order(M)
        assert defect_chain(M).tolist() == radii
        assert trav.recheck(3) is trav.recheck(3)
        shared = [is_utob(M, 0.5, traversal=trav) for _ in range(2)]
        assert shared[0].report is shared[1].report
        with pytest.raises(ValueError):
            is_utob(M.subset(range(12)), 0.5, traversal=trav)
        empty = Traversal(M.subset([]))
        assert empty.radii.shape == (0, M.space.n_points) and list(empty.order) == []

    def test_order_is_read_only(self):
        # a traversal is shared, so a write to its order would change the
        # witness of every later reader
        rng = np.random.default_rng(3)
        M = random_finite_set(rng, random_fiber_space(rng), 20)
        ref = is_utob(M, 1.0)
        assert ref.verdict and len(ref.witness) == 10
        trav = Traversal(M)
        with pytest.raises(AttributeError):
            trav.order.reverse()
        with pytest.raises(TypeError):
            trav.order[0] = trav.order[1]
        got = is_utob(M, 1.0, traversal=trav)
        assert got.verdict == ref.verdict
        assert [s.tobytes() for s in got.witness.stacks] == [s.tobytes() for s in ref.witness.stacks]
        order = greedy_order(M)
        order.reverse()
        assert list(trav.order) == greedy_order(M) != order

    def test_no_radius_within_eps_takes_all_of_M(self):
        # NaN radii compare false, so the witness is the whole traversal
        rng = np.random.default_rng(43)
        M = random_finite_set(rng, random_fiber_space(rng), 6)
        stacks = [s.copy() for s in M.stacks]
        stacks[0][2, 0] = np.nan
        M = FiniteSet(M.space, stacks, 6)
        rep = is_utob(M, 1e6)
        assert len(rep.witness) == 6 and not rep.verdict


def _uneven_sets():
    """Random sets on uneven fibers: 1..8 points, dims 1..24, 1..60 elements."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        space = random_fiber_space(rng, max_points=8, max_dim=24)
        yield random_finite_set(rng, space, int(rng.integers(1, 61)))


class TestDistanceFormula:
    def test_traversal_prefix_equals_recheck(self):
        for M in _uneven_sets():
            trav = Traversal(M)
            for k, prefix in enumerate(trav.radii, 1):
                recheck = defect(M, M.subset(trav.order[:k])).value.values
                assert prefix.tolist() == recheck.tolist()

    def test_matches_independent_oracle(self):
        import latnorm.fibered as fibered

        for M in _uneven_sets():
            R = M.subset(list(range(len(M))) + [0])  # last row repeats row 0
            for s in R.stacks:
                got = fibered._pair_dist(s, s)
                diff = s[:, None, :] - s[None, :, :]
                ref = np.sqrt(np.sum(diff.real**2 + diff.imag**2, axis=2))
                assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
                assert np.all(np.diag(got) == 0.0)
                # the traversal reads rows where ``defect`` reads columns
                assert np.array_equal(got, got.T)
                assert got[0, -1] == got[-1, 0] == 0.0

    def test_norm_sup_is_the_defect_against_zero(self):
        # sizes 1..400 and dims 1..24, with signed zeros and NaN planted
        rng = np.random.default_rng(61)
        specials = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), np.nan]
        for _ in range(300):
            space = random_fiber_space(rng, max_points=3, max_dim=24)
            n = int(np.exp(rng.uniform(0.0, np.log(400.0))))
            M = random_finite_set(rng, space, n)
            stacks = [s.copy() for s in M.stacks]
            for s in stacks:
                for _ in range(int(rng.integers(0, 4))):
                    s[rng.integers(n), rng.integers(s.shape[1])] = rng.choice(specials)
                s[rng.random(n) < 0.1] = rng.choice(specials[:4])  # whole rows
            M = FiniteSet(space, stacks, n)
            zero = FiniteSet.zero(space)
            sup = M.norm_sup().values.tobytes()
            assert defect(M, zero).value.values.tobytes() == sup
            assert prefix_defects(M, zero)[0].tobytes() == sup


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_a_stack_paired_with_itself_equals_the_unshared_table(self):
        # one block up to 48 rows, blocks of 32 rows (fewer for wide fibers)
        # above: each pair is computed once and mirrored
        rng = np.random.default_rng(47)
        specials = [np.nan, np.inf, -np.inf, complex(0, -np.inf), 0.0, -0.0,
                    complex(-0.0, -0.0)]
        sizes = [1, 2, 3, 31, 32, 33, 47, 48, 49, 50, 63, 64, 65, 96, 97, 100, 129, 200, 257, 300]
        for n in sizes:
            for d in (1, 3, 6, 24):
                s = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
                for _ in range(min(n, 6)):
                    s[rng.integers(n)] = rng.choice(specials)  # whole rows
                    s[rng.integers(n), rng.integers(d)] = rng.choice(specials)
                s[n // 2] = s[0]  # a repeated row
                got = _pair_dist(s, s)
                assert got.tobytes() == _pair_dist(s, s.copy()).tobytes(), (n, d)


def _planted(rng, n, d, specials, count):
    """An (n, d) complex stack with count special entries planted."""
    s = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    for _ in range(count if n else 0):
        s[rng.integers(n), rng.integers(d)] = rng.choice(specials)
    return s


class TestRepeatedRowDifferences:
    """``_pair_dist`` builds its differences from repeated rows; its tables
    equal the broadcast kernel's (``oracles.broadcast_pair_dist``) byte for
    byte, and the traversal built on them equals the farthest-point oracle."""

    SPECIALS = [np.nan, np.inf, -np.inf, complex(np.inf, -np.inf), complex(0, np.nan),
                0.0, -0.0, complex(-0.0, -0.0), 5e-324, -2.5e-310, complex(1e-320, -4e-323)]

    def _same(self, a, b):
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN distance
            got, ref = _pair_dist(a, b), broadcast_pair_dist(a, b)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (a.shape, b.shape)

    def test_empty_stacks(self):
        for d in (1, 3, 22):
            empty, s = np.zeros((0, d), complex), np.ones((5, d), complex)
            for a, b in ((empty, empty), (empty, s), (s, empty)):
                self._same(a, b)

    def test_dims_and_sizes_with_special_entries(self):
        rng = np.random.default_rng(35)
        for d in (*range(1, 9), 22):
            for n_a, n_b in ((1, 1), (3, 7), (17, 5), (48, 48), (49, 60), (120, 31)):
                a = _planted(rng, n_a, d, self.SPECIALS, 4)
                b = _planted(rng, n_b, d, self.SPECIALS, 4)
                b[0] = a[0]  # a repeated row, at 0
                self._same(a, b)
                self._same(a, a[::-1].copy())

    def test_self_pairs_at_and_above_48_rows(self):
        rng = np.random.default_rng(36)
        for n in (47, 48, 49, 50, 64, 65, 97, 200):
            for d in (1, 2, 6, 22):
                s = _planted(rng, n, d, self.SPECIALS, 6)
                s[n // 2] = s[0]
                self._same(s, s)  # mirrored blocks
                self._same(s, s.copy())  # every pair

    def test_chunk_boundaries(self):
        # chunks of 2**16 // (n_b d) rows: 8 rows for n_b d = 8192, one row
        # for n_b d = 40000, 2730 rows for n_b d = 24, and mirrored blocks of
        # 14 rows for 200 rows of dim 22
        rng = np.random.default_rng(37)
        b = _planted(rng, 1024, 8, self.SPECIALS, 20)
        for n_a in (1, 7, 8, 9, 16, 17, 40):
            self._same(_planted(rng, n_a, 8, self.SPECIALS, 3), b)
        few = _planted(rng, 3, 8, self.SPECIALS, 2)
        self._same(few, _planted(rng, 5000, 8, self.SPECIALS, 30))
        self._same(_planted(rng, 5461, 8, self.SPECIALS, 30), few)
        s = _planted(rng, 200, 22, self.SPECIALS, 10)
        self._same(s, s)

    def test_traversal_equals_the_farthest_point_oracle(self):
        rng = np.random.default_rng(38)
        for n in (1, 2, 5, 13, 48, 49, 90, 150, 200):
            space = random_fiber_space(rng, max_points=8, max_dim=22)
            M = random_finite_set(rng, space, n)
            stacks = [s.copy() for s in M.stacks]
            if n % 2:  # NaN and inf entries at odd sizes
                for _ in range(3):
                    s = stacks[int(rng.integers(len(stacks)))]
                    s[rng.integers(n), rng.integers(s.shape[1])] = rng.choice(self.SPECIALS[:5])
            M = FiniteSet(space, stacks, n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the traversal keeps its own errstate
                trav = Traversal(M)
            order, radii = farthest_point_traversal(M)
            assert list(trav.order) == order, n
            assert trav.radii.tobytes() == radii.tobytes(), n


@pytest.fixture
def every_table_scans(monkeypatch):
    """Tables of any size take the searches that ``_SCAN`` gates."""
    import latnorm.fibered as fibered

    monkeypatch.setattr(fibered, "_SCAN", 0)


@pytest.mark.usefixtures("every_table_scans")
class TestZeroRows:
    """``defect`` and ``prefix_defects`` compare only the rows of M that are
    nonzero at a point; value, argmin and prefix bytes equal the dense
    tables of ``oracles``. Small tables skip the search for zero rows, so
    here every table takes it."""

    @staticmethod
    def _assert_dense(M, F):
        value, argmin = dense_defect(M, F)
        rep = defect(M, F)
        assert rep.value.values.tobytes() == value.tobytes()
        assert np.array_equal(rep.argmin, argmin)
        assert prefix_defects(M, F).tobytes() == dense_prefix_defects(M, F).tobytes()

    @staticmethod
    def _zeroed(rng, X, share):
        """X with rows zeroed at random per point: +0.0, -0.0 and mixed
        signs, and now and then a whole fiber."""
        zeros = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        stacks = []
        for s in X.stacks:
            s = s.copy()
            cut = rng.random(len(X)) < (1.0 if rng.random() < 0.15 else share)
            s[cut] = rng.choice(zeros, size=(int(cut.sum()), s.shape[1]))
            stacks.append(s)
        return FiniteSet(X.space, stacks, len(X))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_random_zeroed_rows_equal_dense(self):
        for seed, M in enumerate(_uneven_sets()):
            rng = np.random.default_rng(3000 + seed)
            F = random_finite_set(rng, M.space, int(rng.integers(1, 20)))
            for share in (0.3, 0.9):
                Z = self._zeroed(rng, M, share)
                self._assert_dense(Z, F)
                self._assert_dense(Z, self._zeroed(rng, F, share))
                self._assert_dense(Z, Z)
        for M in _nonfinite_cases():
            rng = np.random.default_rng(len(M))
            Z = self._zeroed(rng, M, 0.5)
            self._assert_dense(Z, M)
            self._assert_dense(M, Z)

    def test_one_row_and_all_zero_sets(self):
        rng = np.random.default_rng(48)
        space = random_fiber_space(rng)
        X = random_finite_set(rng, space, 4)
        zero = FiniteSet.zero(space)
        negative = FiniteSet(space, [-s for s in zero.stacks], 1)
        for M in (zero, negative, X.subset([2]), self._zeroed(rng, X, 1.0)):
            for F in (X, X.subset([1]), zero, negative):
                self._assert_dense(M, F)
        # a zero row's nearest candidate is the first of least norm
        F = FiniteSet(space, [np.stack([s[1], s[0], s[1]]) for s in X.stacks], 3)
        assert (defect(zero, F).argmin == (X.norms()[0] < X.norms()[1])).all()

    def test_counterexample_equals_dense(self):
        for n in (24, 48):
            _, M, F_n = build_counterexample(n)
            self._assert_dense(M, F_n)
            self._assert_dense(M, F_n.subset(range(n // 2)))

    def test_counterexample_at_100(self):
        # the dense table at 100 takes seconds per point: closed form for the
        # whole table, dense columns at four points
        n = 100
        _, M, F_n = build_counterexample(n)
        table = prefix_defects(M, F_n)
        k = np.arange(1, n + 2)[None, :]
        m = np.arange(n + 1)[:, None]
        assert table.tobytes() == ((k > m) & (k <= n)).astype(float).tobytes()
        for w in (0, 49, 99, 100):
            dist = _pair_dist(M.stacks[w], F_n.stacks[w])
            dense = np.minimum.accumulate(dist, axis=1).max(axis=0)
            assert table[:, w].tobytes() == dense.tobytes()
        rep = defect(M, F_n)
        assert not rep.value.values.any() and not rep.argmin[: n * (n - 1) // 2, -2].any()


@pytest.mark.usefixtures("every_table_scans")
class TestMemberRows:
    """``defect`` gives a row of M that occurs among the candidates 0 and
    the index of its first copy, and compares only the other rows, where
    every entry of the candidates at the point is finite and 0 or of
    modulus at least 2**-480. Value, argmin and the sign of each value
    equal the dense table of ``oracles``; here every table is large enough
    for the search."""

    @staticmethod
    def _assert_dense(M, F):
        value, argmin = dense_defect(M, F)
        rep = defect(M, F)
        assert rep.value.values.tobytes() == value.tobytes()
        assert np.array_equal(np.signbit(rep.value.values), np.signbit(value))
        assert np.array_equal(rep.argmin, argmin)

    @staticmethod
    def _pooled(rng, space, n, pool):
        """n elements whose entries are drawn from pool, so rows repeat."""
        stacks = [rng.choice(pool, size=(n, d)) for d in space.dims]
        return FiniteSet(space, stacks, n)

    @staticmethod
    def _flipped(X):
        """X with the sign of every zero real and imaginary part flipped."""
        stacks = []
        for s in X.stacks:
            v = s.copy().view(float)
            v[v == 0] = np.where(np.signbit(v[v == 0]), 0.0, -0.0)
            stacks.append(v.view(complex))
        return FiniteSet(X.space, stacks, len(X))

    @staticmethod
    def _pair_dist_rows(monkeypatch):
        """Record the (rows, columns) of every ``_pair_dist`` table."""
        import latnorm.fibered as fibered

        shapes, inner = [], fibered._pair_dist
        monkeypatch.setattr(
            fibered, "_pair_dist", lambda a, b: shapes.append((len(a), len(b))) or inner(a, b)
        )
        return shapes

    def test_member_rows_with_flipped_zero_signs(self):
        pool = np.array([0.0, 1.0, -1.0, 1j, complex(0.5, -0.0), complex(-0.0, 2.0)])
        for seed in range(40):
            rng = np.random.default_rng(4000 + seed)
            space = random_fiber_space(rng, max_points=4, max_dim=3)
            F = self._pooled(rng, space, int(rng.integers(1, 25)), pool)
            M = self._pooled(rng, space, int(rng.integers(1, 25)), pool)
            for probe in (M, self._flipped(M), self._flipped(F), F.subset([0])):
                self._assert_dense(probe, F)
                self._assert_dense(probe, self._flipped(F))

    def test_repeated_candidates(self):
        rng = np.random.default_rng(49)
        space = FiberSpace(PointSet.of_size(1), (3,))
        X = random_finite_set(rng, space, 6)
        F = X.subset([3, 1, 3, 3, 5, 1, 0])
        self._assert_dense(random_finite_set(rng, space, 4), F)
        self._assert_dense(X, F)
        # a probe at equal distance from two distinct rows takes the first
        F = FiniteSet(space, [np.array([[2, 0, 0], [0, 2, 0], [2, 0, 0]], dtype=complex)], 3)
        M = FiniteSet(space, [np.array([[1, 1, 0], [0, 2, 0]], dtype=complex)], 2)
        assert defect(M, F).argmin[:, 0].tolist() == [0, 1]
        self._assert_dense(M, F)

    def test_a_set_against_itself_and_reversed(self, monkeypatch):
        for M in _uneven_sets():
            R = M.subset(range(len(M) - 1, -1, -1))
            D = M.subset(list(range(len(M))) * 2)  # every row twice
            for F in (M, R, D, self._flipped(R)):
                self._assert_dense(M, F)
                self._assert_dense(F, M)
            rep = defect(M, R)
            assert not rep.value.values.any()
            assert (rep.argmin == len(M) - 1 - np.arange(len(M))[:, None]).all()
            assert (defect(D, M).argmin == np.tile(np.arange(len(M)), 2)[:, None]).all()
        shapes = self._pair_dist_rows(monkeypatch)
        defect(M, R)
        assert shapes == []  # every row of M is a candidate: nothing compared

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_nonfinite_entries_and_one_row_sets(self):
        for M in _nonfinite_cases():
            R = M.subset(range(len(M) - 1, -1, -1))
            for F in (M, R, M.subset([0]), M.subset([len(M) - 1])):
                self._assert_dense(M, F)
                self._assert_dense(F, M)
                self._assert_dense(M.subset([0]), F)
            # non-finite probes against the finite rows, whose search it is
            rows = [i for i in range(len(M)) if all(np.isfinite(s[i]).all() for s in M.stacks)]
            if rows:
                self._assert_dense(M, M.subset(rows[::-1]))
        space = FiberSpace(PointSet.of_size(2), (2, 1))
        one = element(space, [np.inf, 1.0], [np.nan])
        self._assert_dense(one, one)
        self._assert_dense(one, FiniteSet.zero(space))

    def test_rows_equal_in_distance_but_not_in_floats(self):
        # 3e-170 and its neighbour differ by 4e-186, whose square underflows:
        # the rows are at computed distance 0, so the first of them is the
        # nearest, not the probe's own copy; from 2**-480 on they are apart
        space = FiberSpace(PointSet.of_size(1), (2,))
        for tiny in (3e-170, 2.0**-490, 2.0**-480):
            near = np.nextafter(tiny, 1.0)
            F = FiniteSet(space, [np.array([[5, 0], [tiny, 1], [near, 1]], dtype=complex)], 3)
            M = F.subset([2, 1])
            self._assert_dense(M, F)
            assert defect(M, F).argmin[:, 0].tolist() == ([2, 1] if tiny == 2.0**-480 else [1, 1])
        # a probe off the candidates can still be at computed distance 0
        F = FiniteSet(space, [np.array([[5, 0], [0, 1], [3e-170, 1]], dtype=complex)[[0, 1, 1]]], 3)
        self._assert_dense(F.subset([1]) + FiniteSet(space, [np.array([[3e-170, 0]])], 1), F)
        pool = np.array([0.0, -0.0, 3e-170, np.nextafter(3e-170, 1.0), -3e-170, 1.0,
                         complex(3e-170, 1.0), 2.0**-480, np.nextafter(2.0**-480, 1.0)])
        for seed in range(2000):
            rng = np.random.default_rng(5000 + seed)
            space = random_fiber_space(rng, max_points=2, max_dim=2)
            # every other F is exact: probes near 3e-170 then miss the search
            # but can be at computed distance 0 from a candidate
            F = self._pooled(rng, space, int(rng.integers(1, 8)), pool[[0, 1, 5, 7, 8]] if seed % 2 else pool)
            M = self._pooled(rng, space, int(rng.integers(1, 8)), pool)
            self._assert_dense(M, F)
            self._assert_dense(F, F.subset(range(len(F) - 1, -1, -1)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_recheck_equals_the_dense_defect_of_the_prefix(self):
        for M in itertools.chain(_uneven_sets(), _nonfinite_cases()):
            trav = Traversal(M)
            for k in sorted({1, (len(M) + 1) // 2, len(M)}):
                value, argmin = dense_defect(M, M.subset(trav.order[:k]))
                rep = trav.recheck(k)
                assert rep.value.values.tobytes() == value.tobytes()
                assert np.array_equal(rep.argmin, argmin)


class TestStackLayout:
    def test_strided_stacks_give_the_c_ordered_results(self):
        # Fortran-ordered and column-reversed stacks are stored C-ordered,
        # so every kernel reads them exactly as it reads C-ordered copies
        def results(M, F):
            rep, trav = defect(M, F), Traversal(M)
            return [
                rep.value.values.tobytes(),
                rep.argmin.tobytes(),
                prefix_defects(M, F).tobytes(),
                trav.radii.tobytes(),
                trav.order,
            ]

        def rebuilt(X, layout):
            return FiniteSet(X.space, [layout(s) for s in X.stacks], len(X))

        for seed, M in enumerate(_uneven_sets()):
            if seed % 6:
                continue
            F = random_finite_set(np.random.default_rng(2000 + seed), M.space, 5)
            for layout in (np.asfortranarray, lambda s: s[:, ::-1]):
                copy = lambda s: np.array(layout(s), order="C")
                assert results(rebuilt(M, layout), rebuilt(F, layout)) == results(
                    rebuilt(M, copy), rebuilt(F, copy)
                )

    def test_stacks_are_read_only(self):
        # a traversal keeps M and rechecks it lazily, so M must not change
        rng = np.random.default_rng(45)
        space = random_fiber_space(rng)
        caller = [rng.normal(size=(5, d)) + 0j for d in space.dims]
        M = FiniteSet(space, caller, 5)
        trav = Traversal(M)
        derived = [M, M.subset([0, 2]), M + M, M - M, 2.0 * M, FiniteSet.concat([M, M])]
        for X in derived:
            for w in range(space.n_points):
                with pytest.raises(ValueError):
                    X.stacks[w][trav.order[0] % len(X)] += 10
        assert trav.recheck(1).value.values.tolist() == trav.radii[0].tolist()
        assert all(s is t for s, t in zip(M.stacks, caller))  # frozen, not copied
        with pytest.raises(ValueError):
            caller[0][0, 0] = 0.0

    def test_traversal_holds_its_tables_only_while_building(self):
        import tracemalloc

        space = FiberSpace(PointSet.of_size(8), (1, 6, 3, 4, 2, 5, 6, 3))
        n, P = 300, space.n_points
        M = random_finite_set(np.random.default_rng(46), space, n)
        tables = P * n * n * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trav = Traversal(M)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the tables, one fiber's table on its way in, chunk temporaries
        assert tables < peak - before <= tables + n * n * 8 + (4 << 20)
        # kept: the radii and the order, O(P |M|)
        assert after - before <= 4 * P * n * 8 + (64 << 10)
        assert trav.radii.shape == (n, P)


class TestPrefixDefects:
    def test_rows_equal_defect_of_each_prefix(self):
        for seed, M in enumerate(_uneven_sets()):
            rng = np.random.default_rng(1000 + seed)
            F = random_finite_set(rng, M.space, int(rng.integers(1, 61)))
            table = prefix_defects(M, F)
            assert table.shape == (len(F), M.space.n_points)
            for k in range(len(F)):
                recheck = defect(M, F.subset(range(k + 1))).value.values
                assert table[k].tolist() == recheck.tolist()

    def test_greedy_prefixes_equal_traversal_chain(self):
        for M in _uneven_sets():
            chain = Traversal(M).radii.tolist()
            assert prefix_defects(M, M.subset(greedy_order(M))).tolist() == chain

    def test_empty_sets_rejected(self):
        M = scalars(single_fiber_space(), 1.0, 2.0)
        with pytest.raises(ValueError):
            prefix_defects(M.subset([]), M)
        with pytest.raises(ValueError):
            prefix_defects(M, M.subset([]))


class TestHeineBorel:
    def test_zero_radius(self):
        space = single_fiber_space(2)
        basis = FiniteSet(space, [np.eye(2, dtype=complex)], 2)
        net = heine_borel_net(basis, c=0.0, eps=0.5)
        assert len(net) == 1 and net.norm_sup().sup_norm() == 0.0

    def test_rank_one_big_eps(self):
        space = single_fiber_space(1)
        basis = FiniteSet(space, [np.ones((1, 1), dtype=complex)], 1)
        samples = scalars(space, 1.0, -1.0, 1j, 0.5 - 0.5j)
        zero_only = scalars(space, 0.0)
        assert defect(samples, zero_only).value.le(2.0, TOL)
        net = heine_borel_net(basis, c=1.0, eps=2.0)
        assert defect(samples, net).value.le(2.0, TOL)

    def test_monte_carlo_rank_two(self):
        # sampled bounded elements all fall within eps of the net
        rng = np.random.default_rng(12)
        space = FiberSpace(PointSet.of_size(2), (2, 3))
        stacks = [np.zeros((2, 2), dtype=complex), np.zeros((2, 3), dtype=complex)]
        stacks[0][0, 0] = 1.0
        stacks[0][1, 1] = 1.0
        stacks[1][0, 2] = 1.0  # second basis vector drops rank on fiber 1
        basis = FiniteSet(space, stacks, 2)
        net = heine_borel_net(basis, c=1.0, eps=0.5)
        samples = []
        for _ in range(200):
            lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lam = lam / max(np.linalg.norm(lam), 1.0) * rng.random()
            samples.append(element(space, lam @ basis.stacks[0], (lam * [1, 0]) @ basis.stacks[1]))
        M = FiniteSet.concat(samples)
        assert defect(M, net).value.le(0.5, TOL)

    def test_empty_basis_gives_the_zero_set(self):
        # a basis of no elements is vacuously suborthonormal: its ball is {0}
        space = FiberSpace(PointSet.of_size(2), (2, 1))
        empty = FiniteSet(space, [np.zeros((0, 2)), np.zeros((0, 1))], 0)
        zero = FiniteSet.zero(space)
        for c in (0.0, 1.0):
            net = heine_borel_net(empty, c, 0.5)
            assert type(net) is FiniteSet
            assert [s.tobytes() for s in net.stacks] == [s.tobytes() for s in zero.stacks]

    def test_suborthonormality_enforced(self):
        space = single_fiber_space(2)
        skew = FiniteSet(
            space, [np.array([[1, 0], [1, 1]], dtype=complex) / np.sqrt(2)], 2
        )
        with pytest.raises(ValueError):
            heine_borel_net(skew, c=1.0, eps=0.5)

    def test_non_finite_basis_rejected(self):
        space = single_fiber_space(2)
        for bad in (np.nan, np.inf):
            for rows in (1, 2):
                stack = np.eye(2, dtype=complex)[:rows].copy()
                stack[0, 0] = bad
                with pytest.raises(ValueError):
                    heine_borel_net(FiniteSet(space, [stack], rows), c=1.0, eps=0.5)

    def test_size_cap(self):
        space = single_fiber_space(2)
        basis = FiniteSet(space, [np.eye(2, dtype=complex)], 2)
        with pytest.raises(SizeCapError):
            heine_borel_net(basis, c=1.0, eps=0.01, cap=100)
        with pytest.raises(SizeCapError):
            zonotope_net(basis, mesh=0.01, cap=100)

    def test_non_finite_arguments_rejected(self):
        # a NaN or infinite radius or c, and a NaN mesh or eps, is a
        # ValueError naming the argument, raised before disc_grid's memo is
        # read and before zonotope_net's slack multiplies the mesh by a norm
        space = single_fiber_space(2)
        basis = FiniteSet(space, [np.eye(2, dtype=complex)], 2)
        empty = FiniteSet(space, [np.zeros((0, 2))], 0)
        zero_rows = FiniteSet(space, [np.zeros((2, 2))], 2)
        before = _grid_bytes.cache_info()
        for bad in (np.nan, np.inf, -np.inf, np.float64(np.nan)):
            calls = [
                ("radius", lambda: disc_grid(bad, 0.5)),
                ("radius", lambda: disc_grid(bad, bad)),
                ("c", lambda: heine_borel_net(basis, bad, 0.5)),
                ("c", lambda: heine_borel_net(empty, bad, bad)),
            ]
            for name, call in calls:
                with pytest.raises(ValueError, match=f"^{name} must be finite, not {bad}$"):
                    call()
        for bad in (np.nan, -np.inf, np.float64(np.nan)):
            calls = [
                ("mesh", lambda: disc_grid(1.0, bad)),
                ("eps", lambda: heine_borel_net(basis, 1.0, bad)),
                ("eps", lambda: heine_borel_net(empty, 1.0, bad)),
                ("mesh", lambda: zonotope_net(basis, bad)),
                ("mesh", lambda: zonotope_net(zero_rows, bad)),
                ("mesh", lambda: zonotope_net(empty, bad)),
            ]
            for name, call in calls:
                with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                    call()
        after = _grid_bytes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_nan_parameters_rejected(self):
        # a NaN eps, delta, radius, tolerance or weight fails every
        # comparison, so it would pass a `<= 0` check and reach the
        # computation; each is a ValueError naming the argument
        space = single_fiber_space(2)
        M = FiniteSet(space, [np.eye(2, dtype=complex)], 2)
        U, weights = np.ones((2, 1)), np.ones(1)
        ext = random_extension(np.random.default_rng(0))
        for bad in (np.nan, np.float64(np.nan)):
            calls = [
                ("eps", "positive", lambda: is_utob(M, bad)),
                ("r", "nonnegative", lambda: truncate_to_ball(M, bad)),
                ("eps", "positive", lambda: cp_check(M, M, bad)),
                ("tol", "positive", lambda: zonotope_report(M, M, tol=bad)),
                ("delta", "positive", lambda: egoroff_localize(U, weights, bad)),
                ("delta", "positive", lambda: egoroff_demo(build_counterexample(3), bad)),
                ("eps", "positive", lambda: theorem_cross_check(ext, eps_values=(bad,))),
                ("eps", "positive", lambda: cyclic_witness(M, [0.5, bad], 1.0)),
                ("tol", "nonnegative", lambda: StoneElement(space.base, np.ones(1)).support(bad)),
                ("weights", "strictly positive", lambda: FiniteProbabilitySpace(["a"], [bad])),
            ]
            for name, word, call in calls:
                with pytest.raises(ValueError, match=f"^{name} must be {word}$"):
                    call()
        # an infinite one is still a valid parameter
        assert is_utob(M, np.inf).verdict
        assert truncate_to_ball(M, np.inf) is M

    def test_infinite_mesh_gives_the_one_ring_grid(self):
        # an infinite mesh or eps is a valid coarse net: the grid [0, radius],
        # and zonotope_net's slack is infinite where a generator is nonzero
        # and zero where every generator is, with no inf * 0
        space = FiberSpace(PointSet.of_size(2), (2, 2))
        assert disc_grid(1.0, np.inf).tolist() == [0j, 1 + 0j]
        assert disc_grid(0.0, np.inf).tolist() == [0j]
        basis = FiniteSet(space, [np.eye(2, dtype=complex)] * 2, 2)
        net = heine_borel_net(basis, 2.0, np.inf)
        assert net.grid.tolist() == [0j, 2 + 0j] and len(net) == 4
        F = FiniteSet(space, [np.eye(2, dtype=complex), np.zeros((2, 2))], 2)
        net, slack = zonotope_net(F, np.inf)
        assert net.grid.tolist() == [0j, 1 + 0j] and len(net) == 4
        assert slack.values.tolist() == [np.inf, 0.0]
        net, slack = zonotope_net(F, 0.5)
        assert slack.values.tobytes() == (0.5 * np.sum(F.norms(), axis=0)).tobytes()

    def test_net_over_the_cap_refused_before_its_grid(self):
        # the grid has n_rings + 1 points at least, so m (n_rings + 1)^m rows
        # over the cap refuse the net before disc_grid builds the grid:
        # 2 * 20001^2 rows here, whose 9 GiB grid is never asked for
        space = single_fiber_space(2)
        basis = FiniteSet(space, [np.eye(2, dtype=complex)], 2)
        before = _grid_bytes.cache_info()
        with pytest.raises(SizeCapError, match=r"^net would need at least 2\*20001\^2 > cap 1000000;"):
            heine_borel_net(basis, 10.0, 1e-3)
        with pytest.raises(SizeCapError, match=r"at least 2\*inf\^2 > cap 1000000;"):
            heine_borel_net(basis, 1e300, 1e-300)  # a ring count past float range
        with pytest.raises(SizeCapError, match=r"at least 2\*14144\^2 > cap 100;"):
            zonotope_net(basis, 1e-4, cap=100)
        after = _grid_bytes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_cap_bound_never_refuses_a_net_within_the_cap(self):
        # a cap of exactly m * len(grid)^m builds the net and one less
        # refuses it, wherever the refusal comes from
        rng = np.random.default_rng(17)
        space = FiberSpace(PointSet.of_size(2), (3, 3))
        for _ in range(40):
            m = int(rng.integers(1, 4))
            basis = FiniteSet(space, [np.eye(m, 3, dtype=complex)] * 2, m)
            c = float(rng.uniform(0.01, 3.0))
            eps = float(c * np.exp(rng.uniform(-1.5, 2.0)))
            size = m * len(disc_grid(c, eps / np.sqrt(m))) ** m
            assert len(heine_borel_net(basis, c, eps, cap=size)) * m == size
            with pytest.raises(SizeCapError):
                heine_borel_net(basis, c, eps, cap=size - 1)
            mesh = float(np.exp(rng.uniform(-1.5, 1.0)))
            size = m * len(disc_grid(1.0, mesh)) ** m
            assert len(zonotope_net(basis, mesh, cap=size)[0]) * m == size
            with pytest.raises(SizeCapError):
                zonotope_net(basis, mesh, cap=size - 1)

    def test_check_suborthonormal_names_the_first_failing_point(self):
        # each of the three checks failing at point 0 or a later one, alone
        # or with another failure at the same or a later point: the message
        # of the per-point version, from check_suborthonormal and from
        # heine_borel_net alike
        dims = (2, 3, 2)
        space = FiberSpace(PointSet.of_size(len(dims)), dims)

        def nan(s):
            s[1, 0] = np.nan

        def skew(s):
            s[1] += 1e-6 * s[0]  # <e_1, e_0> = 1e-6

        def scaled(s):
            s[0] *= 1.001  # |e_0|^2 = 1.002

        faults = [nan, skew, scaled]
        cases = [[(f, w)] for f in faults for w in (0, 2)]
        cases += [[(f, w), (g, v)] for f in faults for g in faults for w, v in ((0, 0), (0, 1), (1, 2))]
        for case in cases:
            stacks = [np.eye(2, d, dtype=complex) for d in dims]
            for fault, w in case:
                fault(stacks[w])
            basis = FiniteSet(space, stacks, 2)
            with pytest.raises(ValueError) as want:
                per_point_check_suborthonormal(basis)
            for check in (check_suborthonormal, lambda b: heine_borel_net(b, 1.0, 0.5)):
                with pytest.raises(ValueError) as got:
                    check(basis)
                assert str(got.value) == str(want.value), [(f.__name__, w) for f, w in case]
        ok = FiniteSet(space, [np.eye(2, d, dtype=complex) for d in dims], 2)
        assert per_point_check_suborthonormal(ok) is None and check_suborthonormal(ok) is None

    def test_nets_equal_product_oracle(self):
        # grids of 81, 127 and 257 points, as the benchmark's nets use
        space = FiberSpace(PointSet.of_size(2), (2, 3))
        stacks = [np.eye(2, dtype=complex), np.eye(2, 3, dtype=complex)]
        basis = FiniteSet(space, stacks, 2)
        for eps, size in ((0.5, 81), (0.35, 127), (0.25, 257)):
            grid = disc_grid(1.0, eps / np.sqrt(2))
            assert len(grid) == size
            net = heine_borel_net(basis, 1.0, eps)
            ref = product_grid_image(basis, grid)
            assert [s.tobytes() for s in net.stacks] == [s.tobytes() for s in ref.stacks]
        rng = np.random.default_rng(14)
        for m, mesh in ((1, 0.2), (2, 0.5), (3, 1.0)):
            F = random_finite_set(rng, random_fiber_space(rng), m)
            net, _ = zonotope_net(F, mesh)
            ref = product_grid_image(F, disc_grid(1.0, mesh))
            assert [s.tobytes() for s in net.stacks] == [s.tobytes() for s in ref.stacks]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0
    def test_zonotope_net_defect_equals_dense(self):
        # generators are not orthogonal: the pruning slack covers their Gram
        # off-diagonals, and a non-finite generator keeps every row
        rng = np.random.default_rng(15)
        seen = set()
        for _ in range(60):
            space = random_fiber_space(rng)
            m = int(rng.integers(1, 4))
            stacks = [s.copy() for s in random_finite_set(rng, space, m).stacks]
            if rng.random() < 0.3:
                stacks[int(rng.integers(len(stacks)))][int(rng.integers(m))] = 0
                seen.add("vanishing row")
            if rng.random() < 0.15:
                stacks[0][0, 0] = [np.nan, np.inf][int(rng.integers(2))]
                seen.add("non-finite")
            F = FiniteSet(space, stacks, m)
            mesh = float(rng.uniform(0.4 if m < 3 else 0.6, 0.9))
            net, _ = zonotope_net(F, mesh)
            assert isinstance(net, GridNet)
            ref = product_grid_image(F, disc_grid(1.0, mesh))
            assert [s.tobytes() for s in net.stacks] == [s.tobytes() for s in ref.stacks]
            n = int(rng.integers(1, 30))
            if rng.random() < 0.5:
                M = net.subset(rng.integers(0, len(net), n))  # ties on duplicate rows
            else:
                M = random_finite_set(rng, space, n)
            rep, dense = defect(M, net), defect(M, ref)
            assert rep.value.values.tobytes() == dense.value.values.tobytes()
            assert rep.argmin.tobytes() == dense.argmin.tobytes()
        assert seen == {"vanishing row", "non-finite"}


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _structured_cases(rng, n_cases):
    """(net, M, features) on random suborthonormal bases: rank drops, rows of
    norm about 1e-8, Gram off-diagonals near the 1e-7 that
    ``check_suborthonormal`` admits, samples on and off the module, samples
    at grid midpoints (ties), exact net rows and NaN/inf samples."""
    for _ in range(n_cases):
        features = set()
        dims = tuple(int(d) for d in rng.integers(1, 5, int(rng.integers(1, 4))))
        space = FiberSpace(PointSet.of_size(len(dims)), dims)
        m = int(rng.integers(1, 4))
        stacks = []
        for d in dims:
            b = np.zeros((m, d), dtype=complex)
            r = min(m, d) - int(rng.random() < 0.4)
            if r < m:
                features.add("rank drop")
            if r > 0:
                q, _ = np.linalg.qr(_cnormal(rng, (d, r)))
                b[:r] = q.T[:r]
            if r < m and rng.random() < 0.4:
                b[r] = 1e-8 * _cnormal(rng, d) / np.sqrt(2 * d)
                features.add("tiny row")
            if m > 1 and r > 1 and rng.random() < 0.4:
                b[1] += 0.9e-7 * b[0]  # <e_1, e_0> = 0.9e-7
                features.add("gram 1e-7")
            stacks.append(b)
        basis = FiniteSet(space, stacks, m)
        net = heine_borel_net(basis, 1.0, {1: 0.25, 2: 0.5, 3: 1.0}[m])
        n = int(rng.integers(1, 40))
        kind = ["on module", "off module", "midpoint", "net row"][int(rng.integers(4))]
        features.add(kind)
        grid = disc_grid(1.0, {1: 0.25, 2: 0.5, 3: 1.0}[m] / np.sqrt(m))
        samples = []
        for w, d in enumerate(dims):
            if kind == "on module":
                lam = _cnormal(rng, (n, m))
                lam *= rng.random((n, 1)) / np.abs(lam).sum(axis=1, keepdims=True)
                samples.append(lam @ stacks[w])
            elif kind == "off module":
                samples.append(1.5 * rng.random((n, 1)) * _cnormal(rng, (n, d)))
            elif kind == "midpoint":
                i, k = rng.integers(0, len(grid), (2, n, m))
                samples.append(0.5 * (grid[i] + grid[k]) @ stacks[w])
            else:
                samples.append(net.stacks[w][rng.integers(0, len(net), n)])
        if rng.random() < 0.2:
            samples[0][0, 0] = np.nan
            samples[-1][-1, -1] = np.inf
            features.add("non-finite")
        yield net, FiniteSet(space, samples, n), features


class TestGridNet:
    def test_structured_defect_equals_dense(self):
        seen = set()
        for net, M, features in _structured_cases(np.random.default_rng(41), 80):
            assert isinstance(net, GridNet)
            dense = net.subset(range(len(net)))  # drops the factorization
            rep, ref = defect(M, net), defect(M, dense)
            assert rep.value.values.tobytes() == ref.value.values.tobytes()
            assert rep.argmin.tobytes() == ref.argmin.tobytes()
            seen |= features
        assert seen == {
            "rank drop", "tiny row", "gram 1e-7", "on module", "off module",
            "midpoint", "net row", "non-finite",
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0
    def test_kept_nearest_and_stacks_equal_the_first_version(self):
        # the mask, (mins, argmin) and rows equal those of the first version
        # kept in ``oracles`` byte for byte, on the structured cases, on
        # zonotope nets with NaN or inf generators, and on draws shaped like
        # the benchmark's net_cover jobs: dims (2, 3), the rank-2 basis
        # dropping to rank 1 at the second point, in-ball samples
        rng = np.random.default_rng(47)
        cases = [(net, M) for net, M, _ in _structured_cases(rng, 60)]
        for bad in (np.nan, np.inf, complex(1.0, -np.inf)) * 2:
            space = random_fiber_space(rng)
            stacks = [s.copy() for s in random_finite_set(rng, space, 2).stacks]
            stacks[0][0, 0] = bad
            net, _ = zonotope_net(FiniteSet(space, stacks, 2), 0.5)
            cases.append((net, random_finite_set(rng, space, 12)))
        space = FiberSpace(PointSet.of_size(2), (2, 3))
        for eps in (0.5, 0.35, 0.25) * 3:
            n = int(rng.integers(10, 81))
            basis, samples = [], []
            for rank, d in zip((2, 1), space.dims):
                q, _ = np.linalg.qr(_cnormal(rng, (d, 2)))
                b = np.zeros((2, d), dtype=complex)
                b[:rank] = q.T[:rank]
                lam = np.zeros((n, 2), dtype=complex)
                lam[:, :rank] = _cnormal(rng, (n, rank))
                lam *= rng.random((n, 1)) / np.linalg.norm(lam, axis=1, keepdims=True)
                basis.append(b)
                samples.append(lam @ b)
            net, M = heine_borel_net(FiniteSet(space, basis, 2), 1.0, eps), FiniteSet(space, samples, n)
            # as in net_cover, every sample keeps one index per coordinate
            assert all((net._kept(w, X).sum(axis=2) == 1).all() for w, X in enumerate(M.stacks))
            cases.append((net, M))
        for net, M in cases:
            assert isinstance(net, GridNet)
            for w, X in enumerate(M.stacks):
                keep, ref = net._kept(w, X), grid_net_kept(net, w, X)
                assert keep.shape == ref.shape and keep.tobytes() == ref.tobytes()
                got, want = net.nearest(w, X), grid_net_nearest(net, w, X)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                rows = flat_index_rows(net, w, np.arange(len(net)))
                assert net.stacks[w].tobytes() == rows.tobytes()

    def test_blocks_of_samples(self):
        # rows of norm 1e-80 (below _LIVE) keep their whole grid, so at the
        # second point every sample keeps the whole net and is compared with
        # every row, more pairs in all than the first version's two blocks
        space = FiberSpace(PointSet.of_size(2), (2, 1))
        basis = FiniteSet(space, [np.eye(2, dtype=complex), np.full((2, 1), 1e-80 + 0j)], 2)
        net = heine_borel_net(basis, 1.0, 0.5)
        rng = np.random.default_rng(42)
        M = FiniteSet(space, [_cnormal(rng, (100, 2)), _cnormal(rng, (100, 1))], 100)
        pairs = net._kept(1, M.stacks[1]).sum(axis=2).prod(axis=1).sum()
        assert pairs == 100 * len(net) > 2 * (1 << 18)
        rep, ref = defect(M, net), defect(M, net.subset(range(len(net))))
        assert rep.value.values.tobytes() == ref.value.values.tobytes()
        assert rep.argmin.tobytes() == ref.argmin.tobytes()

    def test_one_row_and_multi_row_samples_in_one_call(self):
        # one nearest call answers most samples from their one kept row and
        # enumerates the rest (ties at grid midpoints, a NaN sample), which
        # lie between them; at the third point a basis row of norm 1e-80
        # keeps its whole grid, so every sample there is enumerated
        rng = np.random.default_rng(48)
        space = FiberSpace(PointSet.of_size(3), (2, 3, 2))
        stacks = []
        for d in space.dims:
            q, _ = np.linalg.qr(_cnormal(rng, (d, 2)))
            stacks.append(q.T.copy())
        stacks[2][1] = 1e-80 * stacks[2][1]
        net = heine_borel_net(FiniteSet(space, stacks, 2), 1.0, 0.5)
        dense, grid = net.subset(range(len(net))), net.grid
        order = rng.permutation(25)
        samples = []
        for w, d in enumerate(space.dims):
            i, k = rng.integers(0, len(grid), (2, 8, 2))
            X = np.concatenate([
                dense.stacks[w][rng.integers(0, len(net), 8)],  # exact net rows
                0.5 * (grid[i] + grid[k]) @ stacks[w],  # midpoints
                0.5 * _cnormal(rng, (8, d)),
                np.full((1, d), np.nan),
            ])
            samples.append(X[order])
        M = FiniteSet(space, samples, 25)
        kinds = []
        for w, X in enumerate(M.stacks):
            rows = net._kept(w, X).sum(axis=2).prod(axis=1)
            kinds.append(rows > 1)
            got, want = net.nearest(w, X), grid_net_nearest(net, w, X)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        for multi in kinds[:2]:
            # multi-row samples sit between one-row samples
            assert 0 < multi.sum() < 25 and not multi[0] and not multi[-1]
        assert kinds[2].all()
        rep, ref = defect(M, net), defect(M, dense)
        assert rep.value.values.tobytes() == ref.value.values.tobytes()
        assert rep.argmin.tobytes() == ref.argmin.tobytes()

    def test_vanishing_rows_keep_one_index(self):
        # a basis row that is exactly zero at a point (+0.0 or -0.0) keeps
        # grid index 0 alone for every finite sample, at rank-drop and rank-0
        # points alike; a nonzero row of norm 1e-80 keeps its whole grid
        rng = np.random.default_rng(46)
        dims = (1, 2, 3, 4, 3, 4)
        space = FiberSpace(PointSet.of_size(len(dims)), dims)
        tiny = 1e-80 * np.eye(1, 4, 2, dtype=complex)[0]
        for m in (1, 2, 3):
            ortho, generic = [], random_finite_set(rng, space, m).stacks
            for d in dims:
                b = np.zeros((m, d), dtype=complex)
                q, _ = np.linalg.qr(_cnormal(rng, (d, min(m, d))))
                b[: min(m, d)] = q.T
                ortho.append(b)
            nets = []
            for stacks in (ortho, [s.copy() for s in generic]):
                stacks[1][m - 1] = -np.zeros(2, dtype=complex)  # -0.0 real and imaginary
                stacks[2][0] = 0.0
                stacks[4][:] = 0.0  # rank 0
                stacks[5][m - 1] = tiny
                nets.append(FiniteSet(space, stacks, m))
            heine = heine_borel_net(nets[0], 1.0, {1: 0.25, 2: 0.5, 3: 1.0}[m])
            zono, _ = zonotope_net(nets[1], {1: 0.2, 2: 0.5, 3: 0.9}[m])
            for net in (heine, zono):
                assert isinstance(net, GridNet)
                assert np.signbit(net.basis.stacks[1][m - 1].view(float)).all()
                dense = net.subset(range(len(net)))
                grid, idx = net.grid, rng.integers(0, len(net), 8)
                samples = []
                for w, d in enumerate(dims):
                    i, k = rng.integers(0, len(grid), (2, 8, m))
                    samples.append(np.concatenate([
                        dense.stacks[w][idx],  # exact net rows: ties
                        0.5 * (grid[i] + grid[k]) @ net.basis.stacks[w],  # midpoints
                        _cnormal(rng, (8, d)),
                    ]))
                samples[0][0, 0] = np.nan
                samples[3][9, -1] = np.inf
                M = FiniteSet(space, samples, 24)
                rep, ref = defect(M, net), defect(M, dense)
                assert rep.value.values.tobytes() == ref.value.values.tobytes()
                assert rep.argmin.tobytes() == ref.argmin.tobytes()
                n_dead = 0
                for w, s in enumerate(net.basis.stacks):
                    keep = net._kept(w, M.stacks[w])
                    finite = np.all(np.isfinite(M.stacks[w]), axis=1)
                    dead = ~s.any(axis=1)
                    n_dead += int(dead.sum())
                    assert (keep[finite][:, dead].sum(axis=2) == 1).all()
                    assert keep[finite][:, dead, 0].all() and keep[~finite].all()
                assert n_dead >= m + 2
                assert net._kept(5, M.stacks[5])[:, m - 1].all()  # the 1e-80 row

    def test_derived_sets_take_the_dense_path(self, monkeypatch):
        space = FiberSpace(PointSet.of_size(2), (2, 3))
        basis = FiniteSet(space, [np.eye(2, dtype=complex), np.eye(2, 3, dtype=complex)], 2)
        net = heine_borel_net(basis, 1.0, 0.5)
        M = random_finite_set(np.random.default_rng(43), space, 5)
        T = FiberwiseMap(space, space, [np.eye(2), np.eye(3)])
        derived = [
            net.subset(range(len(net))),
            Idempotent(space.base, [True, True]) * net,
            1.0 * net,
            set_image(T, net),
        ]
        expected = defect(M, net)

        def refuse(*args):
            raise AssertionError("structured path on a derived set")

        monkeypatch.setattr(GridNet, "nearest", refuse)
        for F in derived:
            assert type(F) is FiniteSet
            rep = defect(M, F)
            assert rep.value.values.tobytes() == expected.value.values.tobytes()
            assert rep.argmin.tobytes() == expected.argmin.tobytes()

    def test_rows_equal_product_rows(self):
        # the rows nearest builds from (basis, grid) and per-coordinate grid
        # indices are the product's rows byte for byte, on fibers of dims 1
        # to 4 and for one row as well
        rng = np.random.default_rng(44)
        dims = (1, 2, 3, 4)
        space = FiberSpace(PointSet.of_size(len(dims)), dims)
        for m in (1, 2, 3):
            stacks = []
            for d in dims:
                b = np.zeros((m, d), dtype=complex)
                r = min(m, d)
                q, _ = np.linalg.qr(_cnormal(rng, (d, r)))
                b[:r] = q.T
                stacks.append(b)
            eps = {1: 0.25, 2: 0.5, 3: 1.0}[m]
            heine = heine_borel_net(FiniteSet(space, stacks, m), 1.0, eps)
            zono, _ = zonotope_net(random_finite_set(rng, space, m), {1: 0.2, 2: 0.5, 3: 0.9}[m])
            for net in (heine, zono):
                ref = product_grid_image(net.basis, net.grid)
                n = len(net)
                assert n == len(ref)
                index_sets = [
                    [0], [n - 1], [0, n - 1], [n - 1, 0, 0], list(range(n)),
                    rng.integers(0, n, 1), rng.integers(0, n, 2),
                    rng.integers(0, n, 7), rng.integers(0, n, 500),
                ]
                for idx in index_sets:
                    idx = np.asarray(idx)
                    picks = np.unravel_index(idx, (len(net.grid),) * m)
                    for w in range(len(dims)):
                        got = net._rows(w, picks)
                        assert got.tobytes() == ref.stacks[w][idx].tobytes(), (m, dims[w], len(idx))

    def test_construction_builds_no_rows(self):
        # the benchmark's largest net: 257**2 rows of dims (2, 3), 5.3 MB
        space = FiberSpace(PointSet.of_size(2), (2, 3))
        basis = FiniteSet(space, [np.eye(2, dtype=complex), np.eye(2, 3, dtype=complex)], 2)
        M = random_finite_set(np.random.default_rng(45), space, 6)
        tracemalloc.start()
        try:
            net = heine_borel_net(basis, 1.0, 0.25)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rep = defect(M, net)
            probed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            stacks = net.stacks
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net) == 257**2 and len(net.grid) == 257
        assert built < 256 * 1024 and probed < 256 * 1024
        assert read > 257**2 * 5 * 16  # the rows appear on the first read
        assert net.stacks is stacks and all(a is b for a, b in zip(net.stacks, stacks))
        for s in net.stacks:
            with pytest.raises(ValueError):
                s[0] = 0.0
        ref = defect(M, net.subset(range(len(net))))
        assert rep.value.values.tobytes() == ref.value.values.tobytes()
        assert rep.argmin.tobytes() == ref.argmin.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0
    def test_repeated_calls_on_one_net_equal_the_first_version(self):
        # a Heine-Borel net keeps the Grams its check formed: every _kept and
        # nearest call on one net, at every point and in any order, equals
        # the first version, on Heine-Borel nets and on zonotope nets with
        # non-orthogonal, vanishing or non-finite generators, built through
        # zonotope_net or directly, which computes nothing and so never warns
        rng = np.random.default_rng(49)
        dims = (2, 3, 1, 2)
        space = FiberSpace(PointSet.of_size(len(dims)), dims)
        nets = []
        for m in (1, 2, 3):
            ortho = []
            for d in dims:
                b = np.zeros((m, d), dtype=complex)
                q, _ = np.linalg.qr(_cnormal(rng, (d, min(m, d))))
                b[: min(m, d)] = q.T
                ortho.append(b)
            eps = {1: 0.25, 2: 0.5, 3: 1.0}[m]
            nets.append(heine_borel_net(FiniteSet(space, ortho, m), 1.0, eps))
            generic = [s.copy() for s in random_finite_set(rng, space, m).stacks]
            generic[1][0] = 0.0
            nets.append(zonotope_net(FiniteSet(space, generic, m), {1: 0.2, 2: 0.5, 3: 0.9}[m])[0])
        generic = [s.copy() for s in random_finite_set(rng, space, 2).stacks]
        generic[3][1, 0] = np.inf
        F = FiniteSet(space, generic, 2)
        nets.append(zonotope_net(F, 0.5)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nets.append(GridNet(F, disc_grid(1.0, 0.3), 10**6))
        for net in nets:
            assert isinstance(net, GridNet)
            m, grid = len(net.basis), net.grid
            for _ in range(3):
                for w in rng.permutation(len(dims)):
                    i, k = rng.integers(0, len(grid), (2, 6, m))
                    X = np.concatenate([
                        0.5 * (grid[i] + grid[k]) @ net.basis.stacks[w],  # midpoints
                        _cnormal(rng, (6, dims[w])),
                    ])
                    keep, ref = net._kept(w, X), grid_net_kept(net, w, X)
                    assert keep.shape == ref.shape and keep.tobytes() == ref.tobytes()
                    got, want = net.nearest(w, X), grid_net_nearest(net, w, X)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_factorization_is_read_only(self):
        space = single_fiber_space(2)
        stacks = [np.eye(2, dtype=complex)]
        net = heine_borel_net(FiniteSet(space, stacks, 2), 1.0, 0.5)
        assert net.basis.stacks[0] is stacks[0]  # the caller's array, frozen
        for a in (stacks[0], net.stacks[0], net.grid):
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_disc_grid_is_a_net():
    rng = np.random.default_rng(13)
    for radius, mesh in [(1.0, 0.3), (2.0, 0.5), (0.7, 0.05)]:
        grid = disc_grid(radius, mesh)
        pts = radius * np.sqrt(rng.random(500)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 500))
        dist = np.abs(pts[:, None] - grid[None, :]).min(axis=1)
        assert dist.max() <= mesh + 1e-12


def test_disc_grid_equals_ring_loop():
    # the one-pass grid has the bytes of the ring-by-ring reference
    rng = np.random.default_rng(16)
    pairs = [(1.0, eps / np.sqrt(m)) for eps in (0.25, 0.5, 1.0) for m in (1, 2, 3)]
    pairs += [(1.0, mesh) for mesh in (0.2, 0.4, 0.6, 0.9, 2.0, 1e300)]
    pairs += [(0.0, 1.0), (1e-300, 1.0), (3.0, 0.1)]
    radii = rng.uniform(0.0, 5.0, 300)
    pairs += zip(radii, radii * np.exp(rng.uniform(-3.5, 1.0, 300)))
    for radius, mesh in pairs:
        got, ref = disc_grid(float(radius), float(mesh)), ring_loop_disc_grid(float(radius), float(mesh))
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (radius, mesh)


def test_disc_grid_ring_count_not_finite():
    # radius / (mesh / sqrt 2) overflows: a ValueError naming both, raised
    # before disc_grid's memo is read
    before = _grid_bytes.cache_info()
    for radius, mesh in ((1e300, 1e-300), (1.0, 5e-324), (np.float64(1e200), 1e-200)):
        message = f"radius {float(radius)} and mesh {float(mesh)} give a ring count that is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            disc_grid(radius, mesh)
    assert _grid_bytes.cache_info() == before
    assert len(disc_grid(0.0, 5e-324)) == 1


def test_disc_grid_memo_cannot_be_written():
    # each call returns a new read-only array over the memo's bytes: writing
    # to it, re-enabling writes on it or on a view of it all fail, and a
    # later call still gives the ring-by-ring grid
    for radius, mesh in ((1.0, 0.3), (2.0, 0.5), (0.0, 1.0)):
        ref = ring_loop_disc_grid(radius, mesh)
        grid = disc_grid(radius, mesh)
        assert isinstance(grid.base, bytes) and not grid.flags.writeable
        for a in (grid, grid.view(), grid[::2], np.asarray(grid)):
            with pytest.raises(ValueError):
                a[0] = 1.0
            with pytest.raises(ValueError):
                a.flags.writeable = True
        with pytest.raises(ValueError):
            np.copyto(grid, 0)
        again = disc_grid(radius, mesh)
        assert again is not grid and again.tobytes() == ref.tobytes()
        assert again.dtype == ref.dtype and again.shape == ref.shape


def test_disc_grid_memo_is_bounded():
    # the memo keys on (float(radius), float(mesh)) and keeps the last
    # _GRIDS grids: an int, a numpy float and a float of one value share one
    # entry, and many pairs leave at most _GRIDS entries, each grid still
    # equal to the ring-by-ring one
    assert _grid_bytes.cache_info().maxsize == _GRIDS
    disc_grid(1.0, 0.75)
    hits = _grid_bytes.cache_info().hits
    for radius, mesh in ((1, 0.75), (np.float64(1.0), np.float64(0.75)), (1.0, 0.75)):
        assert disc_grid(radius, mesh).tobytes() == ring_loop_disc_grid(1.0, 0.75).tobytes()
    assert _grid_bytes.cache_info().hits == hits + 3
    for k in range(3 * _GRIDS):
        mesh = 0.1 + k / 10
        assert disc_grid(1.5, mesh).tobytes() == ring_loop_disc_grid(1.5, mesh).tobytes()
        assert _grid_bytes.cache_info().currsize <= _GRIDS


def test_disc_grid_memo_keeps_small_grids_only():
    # a grid of more than _GRID_RINGS rings is built anew on each call and
    # never enters the memo; it is read-only too and equals the ring-by-ring
    # grid, and a grid of exactly _GRID_RINGS rings is memoized
    step = 0.5 / np.sqrt(2.0)
    small = disc_grid(_GRID_RINGS * step, 0.5)
    assert isinstance(small.base, bytes)
    before = _grid_bytes.cache_info()
    for radius, mesh in ((1.0, 0.01), (_GRID_RINGS * step * 1.01, 0.5)):
        for _ in range(2):
            grid = disc_grid(radius, mesh)
            assert not isinstance(grid.base, bytes) and not grid.flags.writeable
            assert grid.tobytes() == ring_loop_disc_grid(radius, mesh).tobytes()
    assert _grid_bytes.cache_info() == before
    assert len(small) == 3334 and len(disc_grid(1.0, 0.01)) > 60000


class TestZonotope:
    def test_single_generator_closed_form(self):
        space = single_fiber_space(2)
        e1 = np.array([1.0, 0.0], dtype=complex)
        F = FiniteSet(space, [e1.reshape(1, 2)], 1)
        x = element(space, 2.0 * e1)
        d, _ = zonotope_report(x, F, tol=1e-9, max_iter=50_000)
        assert d.shape == (1, 1) and d[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_membership(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            space = random_fiber_space(rng, max_points=3, max_dim=3)
            F = random_finite_set(rng, space, int(rng.integers(1, 4)))
            x = FiniteSet.zero(space)
            for j in range(len(F)):
                mods = rng.random(space.n_points)
                ph = np.exp(1j * rng.uniform(0, 2 * np.pi, space.n_points))
                x = x + ComplexCoefficient(space.base, mods * ph) * F.subset([j])
            d, _ = zonotope_report(x, F, tol=1e-7, max_iter=50_000)
            assert d.max() <= 1e-6

    def test_matches_grid_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(8):
            space = random_fiber_space(rng, max_points=2, max_dim=3)
            m = int(rng.integers(1, 3))
            F = random_finite_set(rng, space, m, scale=0.8)
            x = random_finite_set(rng, space, 1, scale=1.2)
            d, _ = zonotope_report(x, F, tol=1e-7, max_iter=50_000)
            oracle = grid_zonotope_oracle(x, F, mesh=0.01)
            assert np.max(np.abs(d[0] - oracle)) <= 0.02

    def test_stopped_problems_are_certified(self):
        # inside targets: the distance is 0, so a certified stop reads <= tol
        rng = np.random.default_rng(1132)
        dims = tuple(int(d) for d in rng.integers(1, 5, size=6))
        m, nt = int(rng.integers(1, 7)), int(rng.integers(8, 33))
        space = FiberSpace(PointSet.of_size(6), dims)

        def cnormal(shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

        F = FiniteSet(space, [cnormal((m, d)) for d in dims], m)
        lam = cnormal((nt, 6, m))
        lam = lam / np.maximum(np.abs(lam), 1.0)
        M = FiniteSet(space, [lam[:, w] @ s for w, s in enumerate(F.stacks)], nt)
        dist, diag = zonotope_report(M, F, tol=1e-7, max_iter=100_000)
        assert diag["stopped"] == diag["problems"] == nt * 6
        assert dist.shape == (nt, 6) and dist.max() <= 1e-7

    def test_batched_step_sizes_equal_per_fiber(self):
        # the solver reads every fiber's largest Gram eigenvalue off one
        # batched eigvalsh; its distances stay what one call per fiber gave
        # only while the two agree bit for bit, on every supported numpy
        rng = np.random.default_rng(19)
        for _ in range(100):
            n, d, m = (int(v) for v in rng.integers(1, 7, size=3))
            G = _cnormal(rng, (n, d, m))
            gram = np.einsum("wdi,wdj->wij", np.conj(G), G)
            per_fiber = np.array([np.max(np.linalg.eigvalsh(g)) for g in gram])
            assert np.linalg.eigvalsh(gram).max(axis=1).tobytes() == per_fiber.tobytes()

    def test_iteration_limit_carries_best(self):
        rng = np.random.default_rng(16)
        space = random_fiber_space(rng, max_points=2, max_dim=3)
        F = random_finite_set(rng, space, 2)
        M = random_finite_set(rng, space, 3, scale=2.0)
        with pytest.raises(IterationLimitError) as exc:
            zonotope_report(M, F, tol=1e-14, max_iter=2)
        best = exc.value.best
        assert isinstance(best, np.ndarray) and best.shape == (3, space.n_points)
        assert np.all(np.isfinite(best)) and np.all(best >= 0.0)


class TestCpCheck:
    def test_subset_always_contained(self):
        rng = np.random.default_rng(17)
        space = random_fiber_space(rng)
        F = random_finite_set(rng, space, 3)
        M = F.subset([0, 2])
        for eps in (0.01, 0.5):
            assert cp_check(M, F, eps, tol=1e-7, max_iter=50_000)

    def test_scaled_generator_escapes(self):
        space = single_fiber_space(2)
        e1 = np.array([1.0, 0.0], dtype=complex)
        F = FiniteSet(space, [e1.reshape(1, 2)], 1)
        M = FiniteSet(space, [(2.0 * e1).reshape(1, 2)], 1)
        assert not cp_check(M, F, eps=0.5, tol=1e-7, max_iter=50_000)

    def test_mixings_plus_noise(self):
        rng = np.random.default_rng(18)
        space = random_fiber_space(rng)
        F = random_finite_set(rng, space, 3)
        eps = 0.4
        rows = []
        for _ in range(4):
            pick = rng.integers(0, len(F), size=space.n_points)
            x = element(space, *(F.stacks[w][pick[w]] for w in range(space.n_points)))
            noise = random_finite_set(rng, space, 1)
            nn = noise.norm_sup().sup_norm()
            rows.append(x + (eps / 2.0 / max(nn, 1e-12)) * noise)
        M = FiniteSet.concat(rows)
        assert cp_check(M, F, eps, tol=1e-6, max_iter=50_000)


class TestCpWitness:
    def test_selections_certify(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            M = random_finite_set(rng, random_fiber_space(rng), 4)
            eps = float(rng.uniform(0.3, 1.0))
            wit = cp_witness_from_utob(M, eps)
            for i, pou in enumerate(wit.selections):
                for j, p in enumerate(pou):
                    gap = (M.subset([i]) - wit.witness.subset([j])).norm_sup()
                    assert (gap * p).le(eps, TOL)

    def test_single_fiber_nearest(self):
        space = single_fiber_space()
        M = scalars(space, 0.9)
        wit = cp_witness_from_utob(M, eps=10.0)
        assert len(wit.selections[0]) == len(wit.witness)

    def test_self_witness_kronecker(self):
        space = single_fiber_space()
        M = scalars(space, 0.0, 5.0)
        wit = cp_witness_from_utob(M, eps=0.1)
        for i in range(len(M)):
            row = [p.mask[0] for p in wit.selections[i]]
            assert sum(row) == 1  # exactly one selection per point


class TestTruncate:
    def test_unchanged_inside_ball(self):
        rng = np.random.default_rng(20)
        space = random_fiber_space(rng)
        F = random_finite_set(rng, space, 3, scale=0.1)
        assert truncate_to_ball(F, r=10.0) is F
        # a norm of exactly 2r is not cut either, nor one within 1e-9 above
        edge = scalars(single_fiber_space(), 2.0, -0.0, 1j)
        assert truncate_to_ball(edge, r=1.0) is edge
        assert truncate_to_ball(edge, r=1.0 - 2.5e-10) is edge
        assert truncate_to_ball(edge, r=0.5) is not edge

    def test_zero_radius_keeps_only_zero_fibers(self):
        space = single_fiber_space()
        out = truncate_to_ball(scalars(space, 0.0, 5.0), r=0.0)
        assert out.stacks[0].tolist() == [[0j], [0j]]
        with pytest.raises(ValueError):
            truncate_to_ball(scalars(space, 1.0), r=-1.0)

    def test_selects_entries(self):
        # a kept entry keeps its bytes, and a cut infinite one reads exactly 0
        # (a product by the mask gave 0 - 1j and nan + nanj)
        space = FiberSpace(PointSet.of_size(2), (2, 1))
        F = FiniteSet(
            space,
            [np.array([[complex(-0.0, -1.0), complex(1.0, -0.0)], [np.inf, 0.0]]),
             np.array([[complex(-0.0, -0.0)], [complex(-np.inf, 1.0)]])],
            2,
        )
        out = truncate_to_ball(F, r=1.0)
        assert out.stacks[0][0].tobytes() == F.stacks[0][0].tobytes()
        assert out.stacks[1][0].tobytes() == F.stacks[1][0].tobytes()
        for s in (out.stacks[0][1], out.stacks[1][1]):
            assert s.tobytes() == np.zeros_like(s).tobytes()
        p = Idempotent(space.base, [False, True])
        pF = p * F
        assert pF.stacks[0].tobytes() == np.zeros_like(F.stacks[0]).tobytes()
        assert pF.stacks[1].tobytes() == F.stacks[1].tobytes()

    def test_oversized_scalar_zeroed(self):
        space = single_fiber_space()
        out = truncate_to_ball(scalars(space, 5.0), r=1.0)
        assert out.norm_sup().sup_norm() == 0.0

    def test_defect_never_worse(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            space = random_fiber_space(rng)
            r = float(rng.uniform(0.3, 1.5))
            M = random_finite_set(rng, space, 3)
            cap = M.norm_sup().sup_norm()
            M = FiniteSet(space, [s * (r / max(cap, r)) for s in M.stacks], len(M))
            F = random_finite_set(rng, space, 3, scale=2.5)
            Ft = truncate_to_ball(F, r)
            assert Ft.norm_sup().le(2 * r, TOL)
            assert defect(M, Ft).value.le(defect(M, F).value, TOL)


class TestSetOps:
    def test_sum_with_zero(self):
        rng = np.random.default_rng(22)
        space = random_fiber_space(rng)
        M = random_finite_set(rng, space, 3)
        out = set_sum(M, FiniteSet.zero(space))
        for a, b in zip(out.stacks, M.stacks):
            assert np.allclose(a, b)

    def test_identity_image(self):
        rng = np.random.default_rng(23)
        space = random_fiber_space(rng)
        M = random_finite_set(rng, space, 3)
        T = FiberwiseMap(space, space, [np.eye(d) for d in space.dims])
        out = set_image(T, M)
        for a, b in zip(out.stacks, M.stacks):
            assert np.allclose(a, b)

    def test_scalar_multiplication_contracts_defect(self):
        rng = np.random.default_rng(24)
        space = random_fiber_space(rng)
        lam = rng.standard_normal(space.n_points) + 1j * rng.standard_normal(space.n_points)
        T = FiberwiseMap(
            space, space, [lam[w] * np.eye(d) for w, d in enumerate(space.dims)]
        )
        M, F = random_finite_set(rng, space, 3), random_finite_set(rng, space, 2)
        lhs = defect(set_image(T, M), set_image(T, F)).value
        rhs = StoneElement(space.base, np.abs(lam)) * defect(M, F).value
        assert lhs.le(rhs, 1e-7)

    def test_idempotent_and_scalar_act_elementwise(self):
        rng = np.random.default_rng(26)
        space = random_fiber_space(rng)
        M = random_finite_set(rng, space, 4)
        p = Idempotent(space.base, rng.random(space.n_points) < 0.5)
        for c, Mc in ((p, p * M), (2.5j, 2.5j * M)):
            assert len(Mc) == len(M)
            for i in range(len(M)):
                x, y = M.subset([i]), Mc.subset([i])
                assert all(np.array_equal(a, b) for a, b in zip((c * x).stacks, y.stacks))
        # a kept stack is M's own, a cut one is +0.0 zeros
        for keep, a, b in zip(p.mask, (p * M).stacks, M.stacks):
            assert a is b if keep else a.tobytes() == np.zeros(b.shape, complex).tobytes()
        other = Idempotent(PointSet.of_size(space.n_points + 1), [True] * (space.n_points + 1))
        with pytest.raises(DimensionMismatchError):
            other * M


class TestElementwise:
    """``+``, ``-`` and the module actions against one numpy operation per
    element and fiber."""

    def test_equal_per_element_oracle_bit_for_bit(self):
        for seed, M in enumerate(_uneven_sets()):
            rng = np.random.default_rng(3000 + seed)
            space, n = M.space, len(M)
            N = random_finite_set(rng, space, n)
            p = Idempotent(space.base, rng.random(space.n_points) < 0.5)
            lam = ComplexCoefficient(space.base, _cnormal(rng, space.n_points))
            c = [2.5j, -3, np.float64(0.5), np.int64(2), np.complex128(1 - 2j), True][seed % 6]
            cases = [
                (M + N, lambda w, i: M.stacks[w][i] + N.stacks[w][i]),
                (M - N, lambda w, i: M.stacks[w][i] - N.stacks[w][i]),
                # an idempotent selects: M's bytes where it is 1, +0 elsewhere
                (p * M, lambda w, i: M.stacks[w][i] if p.mask[w] else np.zeros_like(M.stacks[w][i])),
                (lam * M, lambda w, i: lam.values[w] * M.stacks[w][i]),
                (M * lam, lambda w, i: lam.values[w] * M.stacks[w][i]),
                (c * M, lambda w, i: c * M.stacks[w][i]),
                (M * c, lambda w, i: c * M.stacks[w][i]),
            ]
            for got, oracle in cases:
                assert type(got) is FiniteSet and len(got) == n
                for w in range(space.n_points):
                    for i in range(n):
                        ref = np.asarray(oracle(w, i), dtype=complex)
                        assert got.stacks[w][i].tobytes() == ref.tobytes()

    def test_numpy_scalars_give_sets(self):
        # numpy once iterated a set through __len__/__getitem__ and returned
        # an object array of elements
        rng = np.random.default_rng(27)
        M = random_finite_set(rng, random_fiber_space(rng), 3)
        for c in (np.int64(2), np.float64(2.0), np.complex128(2j)):
            for got in (c * M, M * c):
                assert type(got) is FiniteSet and len(got) == 3
                assert all(a.tobytes() == (c * s).tobytes() for a, s in zip(got.stacks, M.stacks))

    def test_mismatches_rejected(self):
        rng = np.random.default_rng(29)
        space = random_fiber_space(rng)
        M = random_finite_set(rng, space, 3)
        other = FiberSpace(PointSet.of_size(space.n_points), tuple(d + 1 for d in space.dims))
        for bad in (M.subset([0, 1]), random_finite_set(rng, other, 3)):
            with pytest.raises(DimensionMismatchError):
                M + bad
            with pytest.raises(DimensionMismatchError):
                bad - M
        wider = PointSet.of_size(space.n_points + 1)
        coeff = ComplexCoefficient(wider, np.ones(wider.size))
        with pytest.raises(DimensionMismatchError):
            coeff * M
        for bad in ("2", [1.0], None):
            with pytest.raises(TypeError):
                bad * M
            with pytest.raises(TypeError):
                M + bad

    def test_zero_and_concat(self):
        rng = np.random.default_rng(30)
        space = random_fiber_space(rng)
        zero = FiniteSet.zero(space)
        assert len(zero) == 1 and [s.shape for s in zero.stacks] == [(1, d) for d in space.dims]
        assert all(not s.any() for s in zero.stacks)
        A, B = random_finite_set(rng, space, 3), random_finite_set(rng, space, 2)
        both = FiniteSet.concat([A, zero, B.subset([]), B])
        assert len(both) == 6
        for s, a, b in zip(both.stacks, A.stacks, B.stacks):
            ref = np.vstack([a, np.zeros((1, a.shape[1])), b]).astype(complex)
            assert s.tobytes() == ref.tobytes()
        assert FiniteSet.concat([A]).stacks[0].tobytes() == A.stacks[0].tobytes()
        assert A.norms().shape == (3, space.n_points)
        assert A.subset([]).norms().shape == (0, space.n_points)
        assert A.norm_sup().values.tolist() == A.norms().max(axis=0).tolist()
        with pytest.raises(ValueError):
            FiniteSet.concat([])
        with pytest.raises(DimensionMismatchError):
            FiniteSet.concat([A, random_finite_set(rng, random_fiber_space(rng), 1)])


def test_zonotope_net_certifies_cp_to_utob():
    # containment in a fattened zonotope turns into a uniform witness with a
    # slack computable from the net mesh
    rng = np.random.default_rng(25)
    space = random_fiber_space(rng, max_points=3, max_dim=2)
    F = random_finite_set(rng, space, 2)
    eps = 0.3
    rows = []
    for _ in range(5):
        u = FiniteSet.zero(space)
        for j in range(len(F)):
            mods = rng.random(space.n_points)
            ph = np.exp(1j * rng.uniform(0, 2 * np.pi, space.n_points))
            u = u + ComplexCoefficient(space.base, mods * ph) * F.subset([j])
        noise = random_finite_set(rng, space, 1)
        nn = noise.norm_sup().sup_norm()
        rows.append(u + (0.9 * eps / max(nn, 1e-12)) * noise)
    M = FiniteSet.concat(rows)
    net, slack = zonotope_net(F, mesh=0.2)
    bound = StoneElement.constant(space.base, eps) + slack
    assert defect(M, net).value.le(bound, 1e-9)
