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
    Traversal,
    cyclic_witness,
    defect,
    eq_idempotent,
    greedy_order,
    mix,
    mix_membership,
    verify_cyclic,
)
from latnorm.fixtures import random_fiber_space, random_finite_set
from oracles import masked_sum_mix, per_prefix_cyclic_witness

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
        tol = 1e-9
        x = M.subset([0])
        x = FiniteSet(space, [x.stacks[0] + 10 * tol] + x.stacks[1:], 1)
        assert mix_membership(x, M, tol) is None


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
            for eps in (0.5, 0.1):
                w = cyclic_witness(M, eps, r)
                assert verify_cyclic(M, eps, w)
                for q, Fn in w.parts:
                    assert Fn.norm_sup().le(2 * r, TOL)

    def test_zero_defect_single_part(self):
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        M = scalar_set(space, [0.5, 0.5])
        w = cyclic_witness(M, eps=0.25, r=1.0)
        assert w.parts[0][0].is_one()
        assert verify_cyclic(M, 0.25, w)

    def test_halved_eps_fails_on_slack_witness(self):
        # two nearby elements: the one-element cover works at eps but the
        # same witness cannot survive a halved tolerance
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        M = scalar_set(space, [0.0, 0.0], [0.4, 0.4])
        w = cyclic_witness(M, eps=0.5, r=1.0)
        assert verify_cyclic(M, 0.5, w)
        assert len(w.parts[0][1]) == 1  # the size-1 candidate covered everything
        assert not verify_cyclic(M, 0.25, w)

    def test_empty_probe_vacuous(self):
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        empty = FiniteSet(space, [np.zeros((0, 1), complex)] * 2, 0)
        w = cyclic_witness(FiniteSet.zero(space), 0.5, 1.0)
        assert verify_cyclic(empty, 0.5, w)

    def test_unreachable_level_raises(self):
        space = FiberSpace(PointSet.of_size(2), (1, 1))
        M = scalar_set(space, [5.0, 5.0])
        # radius too small: truncation empties the ball, defect stays at 5
        with pytest.raises(ConstructionError):
            cyclic_witness(M, eps=0.1, r=0.5)

    def test_kept_entries_keep_the_input_bytes(self):
        # truncation and the parts' idempotents select entries: where a part
        # is 1 its candidate rows are M's rows, zero signs included, and
        # where it is 0 they are +0
        for M in _signed_zero_sets():
            sup = M.norm_sup().sup_norm()
            order = greedy_order(M)
            for eps in (0.6 * sup, 0.2 * sup):
                if eps <= 0:
                    continue
                for q, F in cyclic_witness(M, eps, sup + TOL).parts:
                    for w, (s, m) in enumerate(zip(F.stacks, M.stacks)):
                        kept = m[list(order[: len(F)])] if q.mask[w] else np.zeros_like(s)
                        assert s.tobytes() == kept.tobytes()

    def test_localized_defect_bound(self):
        # a passing witness forces the localized defect below eps
        rng = np.random.default_rng(10)
        space = random_fiber_space(rng)
        M = random_finite_set(rng, space, 4)
        eps = 0.5
        w = cyclic_witness(M, eps, M.norm_sup().sup_norm() + 0.1)
        assert verify_cyclic(M, eps, w)
        for q, Fn in w.parts:
            if q.is_zero():
                continue
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
                        cyclic_witness(M, eps, r)
                    continue
                got = cyclic_witness(M, eps, r).parts
                # the witness keeps only the parts that some point uses
                expected = [(q, F) for q, F in expected if not q.is_zero()]
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


def _part_bytes(w):
    return [(q.mask.tobytes(), [s.tobytes() for s in F.stacks]) for q, F in w.parts]


def test_shared_traversal_equals_fresh_witness():
    for M in _signed_zero_sets():
        sup = M.norm_sup().sup_norm()
        shared = Traversal(M)
        for eps in (1.2 * sup, 0.6 * sup, 0.2 * sup, 1e-6):
            if eps <= 0:
                continue
            for r in (sup + 0.1, sup + TOL):
                got = cyclic_witness(M, eps, r, TOL, traversal=shared)
                assert _part_bytes(got) == _part_bytes(cyclic_witness(M, eps, r, TOL))
                expected = per_prefix_cyclic_witness(M, eps, r)
                assert _part_bytes(got) == _part_bytes(
                    CyclicWitness([(q, F) for q, F in expected if not q.is_zero()], eps)
                )
    with pytest.raises(ValueError, match="another set"):
        cyclic_witness(M, 0.5, 1.0, traversal=Traversal(M.subset(range(len(M)))))


def test_only_a_truncating_radius_computes_prefix_defects(monkeypatch):
    import latnorm.mixing as mixing

    calls = []
    real = mixing.prefix_defects
    monkeypatch.setattr(mixing, "prefix_defects", lambda M, F: calls.append(len(F)) or real(M, F))
    rng = np.random.default_rng(15)
    space = random_fiber_space(rng, max_points=6, max_dim=6)
    M = random_finite_set(rng, space, 12)
    sup = M.norm_sup().sup_norm()
    shared = Traversal(M)
    for eps in (0.6 * sup, 0.3 * sup):
        cyclic_witness(M, eps, sup / 2 + TOL, TOL, shared)  # the ball holds M
    assert calls == []
    # a radius whose ball cuts an element down: the truncated set is
    # traversed and M's defect is computed against each of its prefixes
    r = 0.45 * sup
    assert np.any(M.norm_sup().values > 2 * r)
    got = cyclic_witness(M, 1.2 * sup, r, TOL, shared)
    assert calls == [12]
    expected = [(q, F) for q, F in per_prefix_cyclic_witness(M, 1.2 * sup, r) if not q.is_zero()]
    assert _part_bytes(got) == _part_bytes(CyclicWitness(expected, 1.2 * sup))


def test_cyclic_parts_are_nonempty_and_partition_the_points():
    rng = np.random.default_rng(13)
    for _ in range(40):
        space = random_fiber_space(rng, max_points=6, max_dim=6)
        M = random_finite_set(rng, space, int(rng.integers(1, 26)))
        sup = M.norm_sup().sup_norm()
        for eps in (0.2 * sup, 0.6 * sup, 1.2 * sup):
            w = cyclic_witness(M, eps, sup + 0.1)
            masks = np.array([q.mask for q, _ in w.parts])
            assert masks.any(axis=1).all()
            assert np.array_equal(masks.sum(axis=0), np.ones(space.n_points))
            sizes = [len(F) for _, F in w.parts]
            assert sizes == sorted(set(sizes))  # one part per candidate size


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
