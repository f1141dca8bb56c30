import numpy as np
import pytest

from latnorm import (
    ConstructionError,
    CyclicWitness,
    FiberSpace,
    FiniteSet,
    Idempotent,
    PartitionOfUnity,
    PointSet,
    StoneElement,
    cyclic_witness,
    defect,
    eq_idempotent,
    greedy_order,
    mix,
    mix_membership,
    verify_cyclic,
)
from latnorm.fixtures import random_fiber_space, random_finite_set
from oracles import dense_verify_cyclic, masked_sum_mix, per_prefix_cyclic_witness, witness_parts

TOL = 1e-9


def rng_sets(seed, n_elems=3, **kw):
    rng = np.random.default_rng(seed)
    space = random_fiber_space(rng, **kw)
    return rng, space, random_finite_set(rng, space, n_elems)


def scalar_set(space, *elements):
    """Set of elements on one-dimensional fibers, each given by its values."""
    stacks = np.array(elements, dtype=complex).T[:, :, None]
    return FiniteSet(space, list(stacks), len(elements))


class TestEqIdempotent:
    def test_reflexive(self):
        _, _, M = rng_sets(0)
        assert eq_idempotent(M.subset([0]), M.subset([0])).is_one()

    def test_disjoint_supports(self):
        space = FiberSpace(PointSet.of_size(3), (1, 1, 1))
        x = scalar_set(space, [1.0, 0.0, 0.0])
        y = scalar_set(space, [0.0, 2.0, 0.0])
        eq = eq_idempotent(x, y)
        union = x.norm_sup().support() | y.norm_sup().support()
        assert eq == union.complement()

    def test_transitivity_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            space = random_fiber_space(rng)
            xs = random_finite_set(rng, space, 3)
            # plant coincidences so the idempotents are not all trivial
            stacks = [s.copy() for s in xs.stacks]
            for w in range(space.n_points):
                if rng.random() < 0.5:
                    stacks[w][1] = stacks[w][0]
                if rng.random() < 0.5:
                    stacks[w][2] = stacks[w][1]
            xs = FiniteSet(space, stacks, 3)
            x, y, z = (xs.subset([i]) for i in range(3))
            assert eq_idempotent(x, y) == eq_idempotent(y, x)
            assert (eq_idempotent(x, y) & eq_idempotent(y, z)).le(
                eq_idempotent(x, z)
            )


class TestMix:
    def test_single_part(self):
        _, space, M = rng_sets(2)
        part = PartitionOfUnity([Idempotent.one(space.base)])
        out = mix(part, M.subset([0]))
        assert (out - M.subset([0])).norm_sup().sup_norm() == 0.0

    def test_constant_family(self):
        rng, space, M = rng_sets(3)
        mask = rng.random(space.n_points) < 0.5
        p = Idempotent(space.base, mask)
        out = mix(PartitionOfUnity([p, p.complement()]), M.subset([0, 0]))
        assert (out - M.subset([0])).norm_sup().sup_norm() == 0.0

    def test_length_mismatch(self):
        _, space, M = rng_sets(4)
        part = PartitionOfUnity([Idempotent.one(space.base)])
        with pytest.raises(ValueError):
            mix(part, M.subset([0, 1]))

    def test_distance_mixes(self):
        # |z - mix| equals the mixing of the individual distances
        rng, space, M = rng_sets(5, n_elems=4)
        z = random_finite_set(rng, space, 1)
        assign = rng.integers(0, 3, size=space.n_points)
        parts = PartitionOfUnity(
            [Idempotent(space.base, assign == a) for a in range(3)]
        )
        glued = mix(parts, M.subset([0, 1, 2]))
        lhs = (z - glued).norm_sup()
        rhs = StoneElement.zeros(space.base)
        for a, p in enumerate(parts):
            rhs = rhs + (z - M.subset([a])).norm_sup() * p
        assert lhs.eq(rhs, TOL)

    def test_equals_masked_sum_oracle(self):
        # on finite data the row pick equals sum_a p_a x_a; only the sign of
        # a zero may differ, since the sum turns -0.0 into +0.0
        rng = np.random.default_rng(14)
        for _ in range(200):
            space = random_fiber_space(rng, max_points=6, max_dim=5)
            k = int(rng.integers(1, 5))
            stacks = [s.copy() for s in random_finite_set(rng, space, k).stacks]
            stacks[0][:, :1] *= rng.integers(0, 2, (k, 1))  # some signed zeros
            stacks[-1][:, -1:] *= -0.0
            family = FiniteSet(space, stacks, k)
            assign = rng.integers(0, k, size=space.n_points)
            parts = PartitionOfUnity([Idempotent(space.base, assign == a) for a in range(k)])
            got, ref = mix(parts, family), masked_sum_mix(parts, family)
            assert len(got) == 1
            for w, (a, b) in enumerate(zip(got.stacks, ref.stacks)):
                assert np.array_equal(a, b)
                assert a.tobytes() == family.stacks[w][[assign[w]]].tobytes()

    def test_inf_in_an_unselected_member_stays_out(self):
        # the masked sum gave (1, nan): inf * 0 at point 1
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        family = scalar_set(space, [5.0, 2.0], [1.0, np.inf])
        parts = PartitionOfUnity(
            [Idempotent(space.base, [False, True]), Idempotent(space.base, [True, False])]
        )
        glued = mix(parts, family)
        assert [s.tolist() for s in glued.stacks] == [[[1 + 0j]], [[2 + 0j]]]
        wit = mix_membership(glued, family)
        assert wit is not None and wit.assignment == (0, 1)
        assert [p.mask.tolist() for p in wit.partition] == [[False, True], [True, False]]


class TestMixMembership:
    def test_element_itself(self):
        _, _, M = rng_sets(6)
        wit = mix_membership(M.subset([1]), M)
        assert wit is not None and wit.assignment == (1,)

    def test_recovers_constructed_mixing(self):
        rng, space, M = rng_sets(7, n_elems=2)
        mask = rng.random(space.n_points) < 0.5
        p = Idempotent(space.base, mask)
        glued = mix(PartitionOfUnity([p, p.complement()]), M.subset([0, 1]))
        wit = mix_membership(glued, M)
        assert wit is not None
        rebuilt = mix(wit.partition, M.subset(wit.assignment))
        assert (rebuilt - glued).norm_sup().sup_norm() <= TOL

    def test_perturbation_refused(self):
        _, space, M = rng_sets(8)
        x = M.subset([0])
        x = FiniteSet(space, [x.stacks[0] + 10 * TOL] + x.stacks[1:], 1)
        assert mix_membership(x, M) is None


def test_elements_are_one_element_sets():
    _, space, M = rng_sets(15)
    x = M.subset([0])
    for bad in (M, M.subset([])):
        with pytest.raises(ValueError, match="one-element set"):
            eq_idempotent(bad, x)
        with pytest.raises(ValueError, match="one-element set"):
            eq_idempotent(x, bad)
        with pytest.raises(ValueError, match="one-element set"):
            mix_membership(bad, M)


class TestCyclic:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            space = random_fiber_space(rng, max_points=4, max_dim=3)
            M = random_finite_set(rng, space, int(rng.integers(1, 6)))
            r = M.norm_sup().sup_norm() + 0.1
            for eps, w in zip((0.5, 0.1), cyclic_witness(M, (0.5, 0.1), r)):
                assert verify_cyclic(M, eps, w)
                for q, Fn in witness_parts(w):
                    assert Fn.norm_sup().le(2 * r, TOL)

    def test_zero_defect_single_part(self):
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        M = scalar_set(space, [0.5, 0.5])
        w, = cyclic_witness(M, [0.25], r=1.0)
        assert witness_parts(w)[0][0].is_one()
        assert verify_cyclic(M, 0.25, w)

    def test_halved_eps_fails_on_slack_witness(self):
        # two nearby elements: the one-element cover works at eps but the
        # same witness cannot survive a halved tolerance
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        M = scalar_set(space, [0.0, 0.0], [0.4, 0.4])
        w, = cyclic_witness(M, [0.5], r=1.0)
        assert verify_cyclic(M, 0.5, w)
        assert len(witness_parts(w)[0][1]) == 1  # the size-1 candidate covered everything
        assert not verify_cyclic(M, 0.25, w)

    def test_empty_probe_vacuous(self):
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        empty = FiniteSet(space, [np.zeros((0, 1), complex)] * 2, 0)
        w, = cyclic_witness(FiniteSet.zero(space), [0.5], 1.0)
        assert verify_cyclic(empty, 0.5, w)

    def test_unreachable_level_raises(self):
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        M = scalar_set(space, [5.0, 5.0])
        # radius too small: truncation empties the ball, defect stays at 5
        with pytest.raises(ConstructionError):
            cyclic_witness(M, [0.1], r=0.5)

    def test_kept_entries_keep_the_input_bytes(self):
        # truncation and the parts' idempotents select entries: where a part
        # is 1 its candidate rows are M's rows, zero signs included, and
        # where it is 0 they are +0
        for M in _signed_zero_sets():
            sup = M.norm_sup().sup_norm()
            order = greedy_order(M)
            if sup == 0:
                continue
            for w in cyclic_witness(M, (0.6 * sup, 0.2 * sup), sup + TOL):
                for q, F in witness_parts(w):
                    for p, (s, m) in enumerate(zip(F.stacks, M.stacks)):
                        kept = m[list(order[: len(F)])] if q.mask[p] else np.zeros_like(s)
                        assert s.tobytes() == kept.tobytes()

    def test_localized_defect_bound(self):
        # a passing witness forces the localized defect below eps
        rng = np.random.default_rng(10)
        space = random_fiber_space(rng)
        M = random_finite_set(rng, space, 4)
        eps = 0.5
        w, = cyclic_witness(M, [eps], M.norm_sup().sup_norm() + 0.1)
        assert verify_cyclic(M, eps, w)
        for q, Fn in witness_parts(w):
            assert (defect(M, Fn).value * q).le(eps, TOL)


def test_cyclic_witness_matches_per_prefix_oracle():
    rng = np.random.default_rng(12)
    built = {True: 0, False: 0}
    for _ in range(40):
        space = random_fiber_space(rng, max_points=6, max_dim=6)
        M = random_finite_set(rng, space, int(rng.integers(1, 26)))
        sup = M.norm_sup().sup_norm()
        for truncating, r in ((False, sup + 0.1), (True, 0.3 * sup)):
            assert truncating == bool(np.any(M.norm_sup().values > 2 * r))
            for eps in (0.2 * sup, 0.6 * sup, 1.2 * sup):
                try:
                    expected = per_prefix_cyclic_witness(M, eps, r)
                except ConstructionError:
                    with pytest.raises(ConstructionError):
                        cyclic_witness(M, [eps], r)
                    continue
                got = witness_parts(cyclic_witness(M, [eps], r)[0])
                assert len(got) == len(expected)
                for (q, F), (q_ref, F_ref) in zip(got, expected):
                    assert np.array_equal(q.mask, q_ref.mask)
                    assert len(F) == len(F_ref)
                    for s, s_ref in zip(F.stacks, F_ref.stacks):
                        assert s.tobytes() == s_ref.tobytes()
                built[truncating] += 1
    assert built[True] > 0 and built[False] > 0


def _signed_zero_sets():
    """Random sets whose entries are now and then a zero of either sign in
    either component, whole rows and whole fibers included."""
    rng = np.random.default_rng(14)
    zeros = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for _ in range(30):
        space = random_fiber_space(rng, max_points=6, max_dim=6)
        M = random_finite_set(rng, space, int(rng.integers(1, 26)))
        stacks = []
        for s in M.stacks:
            s = s.copy()
            s.real[rng.random(s.shape) < 0.2] = rng.choice([0.0, -0.0])
            s.imag[rng.random(s.shape) < 0.2] = rng.choice([0.0, -0.0])
            s[rng.random(len(M)) < 0.2] = rng.choice(zeros)
            stacks.append(s if rng.random() < 0.9 else 0 * s)
        yield FiniteSet(space, stacks, len(M))


def _part_bytes(parts):
    return [(q.mask.tobytes(), [s.tobytes() for s in F.stacks]) for q, F in parts]



def test_one_chain_serves_every_eps():
    # witnesses for several eps at once equal one call per eps and the
    # per-prefix oracle, and share one chain, at radii whose ball holds M
    # and at one that cuts
    for M in _signed_zero_sets():
        sup = M.norm_sup().sup_norm()
        eps_values = [e for e in (1.2 * sup, 0.6 * sup, 0.2 * sup, 1e-6) if e > 0]
        for r in (sup + 0.1, sup + TOL, 0.45 * sup):
            singles, failed = [], []
            for eps in eps_values:
                try:
                    singles += cyclic_witness(M, [eps], r)
                except ConstructionError as exc:
                    failed.append(str(exc))
            if failed:
                with pytest.raises(ConstructionError) as exc:
                    cyclic_witness(M, eps_values, r)
                assert str(exc.value) == failed[0]
            got = cyclic_witness(M, [w.epsilon for w in singles], r)
            assert [_part_bytes(witness_parts(w)) for w in got] == [
                _part_bytes(witness_parts(w)) for w in singles
            ]
            for w in got:
                assert w.chain is got[0].chain
                assert _part_bytes(witness_parts(w)) == _part_bytes(per_prefix_cyclic_witness(M, w.epsilon, r))
    with pytest.raises(ValueError, match="positive"):
        cyclic_witness(M, [0.5, 0.0], 1.0)
    assert cyclic_witness(M, [], 1.0) == []


def test_only_a_truncating_radius_computes_prefix_defects(monkeypatch):
    import latnorm.fibered as fibered
    import latnorm.mixing as mixing

    calls, built = [], []
    real, real_init = mixing.prefix_defects, fibered.Traversal.__init__
    monkeypatch.setattr(mixing, "prefix_defects", lambda M, F: calls.append(len(F)) or real(M, F))
    monkeypatch.setattr(fibered.Traversal, "__init__", lambda t, M: built.append(len(M)) or real_init(t, M))
    rng = np.random.default_rng(15)
    space = random_fiber_space(rng, max_points=6, max_dim=6)
    M = random_finite_set(rng, space, 12)
    sup = M.norm_sup().sup_norm()
    # the ball holds M: one traversal of M serves both eps
    cyclic_witness(M, (0.6 * sup, 0.3 * sup), sup / 2 + TOL)
    assert (calls, built) == ([], [12])
    # a radius whose ball cuts an element down: the truncated set is
    # traversed once and M's defect is computed against its prefixes once
    r = 0.45 * sup
    assert np.any(M.norm_sup().values > 2 * r)
    got = cyclic_witness(M, (1.5 * sup, 1.2 * sup), r)
    assert (calls, built) == ([12], [12, 12])
    for w in got:
        assert _part_bytes(witness_parts(w)) == _part_bytes(per_prefix_cyclic_witness(M, w.epsilon, r))


def _with_stack(F, p, stack):
    """F with its stack at point p replaced."""
    return FiniteSet(F.space, [stack if w == p else s for w, s in enumerate(F.stacks)], len(F))


def _with_chain(w, p, stack):
    """w with its chain's stack at point p replaced."""
    return CyclicWitness(_with_stack(w.chain, p, stack), w.prefix, w.epsilon)


def _witness_cases():
    """(M, witness) pairs of random sets, at levels from one part of one
    row to several parts."""
    rng = np.random.default_rng(16)
    for _ in range(40):
        space = random_fiber_space(rng, max_points=6, max_dim=4)
        M = random_finite_set(rng, space, int(rng.integers(1, 16)))
        sup = M.norm_sup().sup_norm()
        for w in cyclic_witness(M, (2.5 * sup, 0.6 * sup, 0.2 * sup), sup + TOL):
            yield M, w


class TestVerifyCyclic:
    """``verify_cyclic`` against ``dense_verify_cyclic``, which computes each
    part's defect at every point before localizing it."""

    def test_valid_witnesses(self):
        for M, w in _witness_cases():
            assert verify_cyclic(M, w.epsilon, w) is dense_verify_cyclic(M, w.epsilon, witness_parts(w)) is True

    def test_row_perturbed_at_a_kept_point(self):
        # one row of a part's set moved far at one of the part's points
        rng = np.random.default_rng(17)
        outcomes = {True: 0, False: 0}
        for M, w in _witness_cases():
            far = 10 * (M.norm_sup().sup_norm() + w.epsilon) + 1
            for n in np.unique(w.prefix).tolist():
                p = int(rng.choice(np.flatnonzero(w.prefix == n)))
                s = w.chain.stacks[p].copy()
                s[int(rng.integers(n))] += far
                bad = _with_chain(w, p, s)
                got = verify_cyclic(M, w.epsilon, bad)
                assert got is dense_verify_cyclic(M, w.epsilon, witness_parts(bad))
                if n == 1:  # the one candidate is out of reach
                    assert got is False
                outcomes[got] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_nan_entries(self):
        for M, w in _witness_cases():
            p = M.space.n_points - 1
            s = M.stacks[p].copy()
            s[0, 0] = complex(np.nan, 0.0)
            M_nan = _with_stack(M, p, s)
            assert verify_cyclic(M_nan, w.epsilon, w) is dense_verify_cyclic(M_nan, w.epsilon, witness_parts(w)) is False
            bad = _with_chain(w, p, w.chain.stacks[p] * np.nan)
            assert verify_cyclic(M, w.epsilon, bad) is dense_verify_cyclic(M, w.epsilon, witness_parts(bad)) is False

    def test_no_distance_outside_a_part(self, monkeypatch):
        # exactly one distance table per point, against a prefix of the chain
        import latnorm.fibered as fibered

        seen = []
        real = fibered._pair_dist
        monkeypatch.setattr(fibered, "_pair_dist", lambda a, b: seen.append(b) or real(a, b))
        for M, w in _witness_cases():
            seen.clear()
            assert verify_cyclic(M, w.epsilon, w)
            assert len(seen) == M.space.n_points
            for t, s, n in zip(seen, w.chain.stacks, w.prefix.tolist()):
                assert t.tobytes() == s[:n].tobytes()

    def test_malformed_witness_raises(self):
        M, w = next(_witness_cases())
        n_pts, size = M.space.n_points, len(w.chain)
        for prefix in (
            np.zeros(n_pts, dtype=int),  # below 1
            np.full(n_pts, size + 1),  # beyond the chain
            np.ones(n_pts + 1, dtype=int),  # one too many
            np.ones((1, n_pts), dtype=int),  # not one per point
            np.ones(n_pts),  # not integers
            np.ones(n_pts, dtype=bool),
        ):
            with pytest.raises(ValueError, match="prefix must hold one integer"):
                verify_cyclic(M, w.epsilon, CyclicWitness(w.chain, prefix, w.epsilon))
        other = FiberSpace(M.space.base, tuple(d + 1 for d in M.space.dims))
        chain = FiniteSet(other, [np.zeros((1, d), complex) for d in other.dims], 1)
        with pytest.raises(ValueError, match="different fiber space"):
            verify_cyclic(M, w.epsilon, CyclicWitness(chain, np.ones(n_pts, dtype=int), w.epsilon))


def test_cyclic_parts_are_nonempty_and_partition_the_points():
    # one prefix of the chain per point: each point lies in exactly one part
    # q_n = {prefix == n}, and each F_n holds n >= 1 elements
    rng = np.random.default_rng(13)
    for _ in range(40):
        space = random_fiber_space(rng, max_points=6, max_dim=6)
        M = random_finite_set(rng, space, int(rng.integers(1, 26)))
        sup = M.norm_sup().sup_norm()
        for w in cyclic_witness(M, (0.2 * sup, 0.6 * sup, 1.2 * sup), sup + 0.1):
            assert w.prefix.shape == (space.n_points,) and w.prefix.dtype.kind == "i"
            assert np.all((1 <= w.prefix) & (w.prefix <= len(w.chain)))


def test_zero_element_at_radius_zero():
    # r = 0: the ball is the zero set, which holds the zero element, so
    # nothing is cut and its one-element chain covers every point at once
    zero = FiniteSet.zero(FiberSpace(PointSet.of_size(3), (1, 2, 3)))
    (w,) = cyclic_witness(zero, [0.5], 0.0)
    assert len(w.chain) == 1 and w.prefix.tolist() == [1, 1, 1]
    assert verify_cyclic(zero, 0.5, w)


def test_defect_is_mix_invariant():
    rng = np.random.default_rng(11)
    for _ in range(30):
        space = random_fiber_space(rng)
        M = random_finite_set(rng, space, 3)
        F = random_finite_set(rng, space, 2)
        base_val = defect(M, F).value
        mixes = []
        for _ in range(5):
            assign = rng.integers(0, 3, size=space.n_points)
            parts = PartitionOfUnity(
                [Idempotent(space.base, assign == a) for a in range(3)]
            )
            mixes.append(mix(parts, M))
        enlarged = FiniteSet.concat([M, *mixes])
        assert defect(enlarged, F).value.eq(base_val, TOL)
