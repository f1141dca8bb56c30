import numpy as np
import pytest

from latnorm import (
    FiniteSet,
    InfeasibleTruncationError,
    build_counterexample,
    defect,
    egoroff_demo,
    verify_not_utob,
    verify_tob_bound,
)
from latnorm.seqmodel import SQRT2, TruncatedSeqSpace

TOL = 1e-9


class TestBuild:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_counterexample(1)

    def test_probe_count_n2(self):
        # pairs (k, j) with j <= k <= 2: (1,1), (2,1), (2,2)
        _, M, _ = build_counterexample(2)
        assert len(M) == 3

    def test_net_sizes(self):
        _, _, F_n = build_counterexample(5)
        nets = [F_n.subset(range(m + 1)) for m in range(1, 6)]
        assert [len(F) for F in nets] == [2, 3, 4, 5, 6]

    def test_probes_are_single_coordinate_indicators(self):
        space, M, _ = build_counterexample(4)
        norms = np.stack(
            [np.linalg.norm(s, axis=1) for s in M.stacks], axis=1
        )
        for i in range(len(M)):
            row = norms[i]
            assert np.sum(row > 0.5) == 1 and row.max() == pytest.approx(1.0)
            assert row[-1] == 0.0  # zero tail

    def test_weights(self):
        space = TruncatedSeqSpace.build(6)
        w = space.weights()
        assert w.sum() == pytest.approx(1.0)
        assert w[0] == 0.5 and w[-1] == w[-2] == 2.0**-6


class TestTobBound:
    def test_zero_on_prefix_and_root_two_beyond(self):
        n = 12
        for m in (1, 3, 7, 11):
            ok, value = verify_tob_bound(n, m)
            assert ok
            assert np.all(value.values[:m] <= TOL)
            assert np.all(value.values[m:] <= SQRT2 + TOL)

    def test_full_net_flattens_prefix(self):
        ok, value = verify_tob_bound(6, 6)
        assert ok and np.all(value.values[:6] <= TOL)

    def test_defect_monotone_in_net_index(self):
        n = 9
        prev = None
        for m in range(1, n + 1):
            _, value = verify_tob_bound(n, m)
            if prev is not None:
                assert value.le(prev, TOL)
            prev = value

    def test_sup_norm_stuck_before_full_net(self):
        n = 9
        for m in range(1, n):
            _, value = verify_tob_bound(n, m)
            assert value.sup_norm() >= SQRT2 / 2 - TOL


class TestNotUtob:
    def test_chain_net_witness_at_next_index(self):
        n = 10
        _, _, F_n = build_counterexample(n)
        for d in (1, 2, 4):
            F = F_n.subset(range(1, d + 1))  # the d constants
            i, n0 = verify_not_utob(n, F)
            assert n0 == d + 1 and 1 <= i <= n0

    def test_empty_candidate_set(self):
        i, n0 = verify_not_utob(6, None)
        assert (i, n0) == (1, 1)

    def test_witness_certified_by_recomputation(self):
        rng = np.random.default_rng(0)
        n = 8
        space, _, _ = build_counterexample(n)
        fs = space.fiber_space
        d = 3
        stacks = [
            (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
            / np.sqrt(2)
            for _ in range(fs.n_points)
        ]
        F = FiniteSet(fs, stacks, d)
        i, n0 = verify_not_utob(n, F)
        assert d < n0 <= n and 1 <= i <= n0
        e = space.basis_vector(i)
        dist = np.min(np.linalg.norm(F.stacks[n0 - 1] - e[None, :], axis=1))
        assert dist >= SQRT2 / 2 - TOL

    def test_oversized_candidate_rejected(self):
        _, _, F_n = build_counterexample(4)
        with pytest.raises(ValueError):
            verify_not_utob(4, F_n)  # five candidates on a 4-prefix


class TestEgoroffDemo:
    def test_budget_quarter(self):
        demo = egoroff_demo(build_counterexample(10), 0.25)
        assert demo.m == 2
        assert demo.kept.mask.tolist() == [True] * 2 + [False] * 9
        assert demo.removed_mass <= 0.25 + 1e-15

    def test_localized_defect_zero(self):
        for delta in (0.5, 0.25, 0.05):
            demo = egoroff_demo(build_counterexample(10), delta)
            assert demo.defect_value.sup_norm() <= TOL
            assert 2.0**-demo.m <= delta + 1e-15

    def test_prefix_grows_as_budget_shrinks(self):
        model = build_counterexample(12)
        sizes = [egoroff_demo(model, d).m for d in (0.5, 0.3, 0.1, 0.03, 0.001)]
        assert sizes == sorted(sizes)

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleTruncationError):
            egoroff_demo(build_counterexample(6), 2.0**-7)

    def test_masked_set_shares_the_kept_stacks(self):
        model = build_counterexample(8)
        demo = egoroff_demo(model, 0.1)
        for keep, a, b in zip(demo.kept.mask, demo.masked_set.stacks, model[1].stacks):
            assert a is b if keep else not a.any()

    def test_masked_set_recheck(self):
        # independent recomputation: cut probes against the cut net
        demo = egoroff_demo(build_counterexample(8), 0.1)
        value = defect(demo.masked_set, demo.witness).value
        assert value.sup_norm() <= TOL
