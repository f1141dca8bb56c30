"""Gluing module elements along partitions of unity.

The boolean-valued equality ``[[x = y]]`` (complement of the support of
|x - y|) makes every fiberwise module a set with boolean-algebra-valued
equality; a mixing glues a family of elements along a partition of unity.
An element is a one-element ``FiniteSet`` and a family is one set, so a
mixing picks, at each point, the family row whose part holds that point.
Relative cyclic compactness of a set is certified by a countable partition
(q_n) and finite sets F_n whose mixings epsilon-approximate every element
on the corresponding component; at finite scale the constructive existence
argument (greedy witness chain plus exhaustion) is executable, and every F_n
is q_n times a prefix of one greedy chain, so a witness is that chain and
one prefix length per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstructionError, DimensionMismatchError
from .stone import DEFAULT_TOL, Idempotent, PartitionOfUnity, StoneElement
from .fibered import (
    FiniteSet, Traversal, _nearest, _pair_dist, prefix_defects, truncate_to_ball,
)


def _check_element(x: FiniteSet) -> None:
    if len(x) != 1:
        raise ValueError(f"expected a one-element set, got {len(x)} elements")


def eq_idempotent(x: FiniteSet, y: FiniteSet) -> Idempotent:
    """Boolean-valued equality of two elements (one-element sets): the
    component where x and y agree within ``DEFAULT_TOL``. Each fiber
    distance is the ``_dist`` of ``mix_membership``'s ``_pair_dist``, and
    agreement is ``<= DEFAULT_TOL`` as there, so a NaN distance (``inf -
    inf``) is disagreement."""
    _check_element(x)
    _check_element(y)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN distance
        return Idempotent(x.space.base, (x - y).norms()[0] <= DEFAULT_TOL)


def mix(partition: PartitionOfUnity, family: FiniteSet) -> FiniteSet:
    """Glue the family, one element per part, along the partition: the
    one-element set that takes element a on the part p_a, a row pick per
    fiber."""
    if len(family) != len(partition):
        raise ValueError(
            f"family size {len(family)} != partition size {len(partition)}"
        )
    if partition.base != family.space.base:
        raise DimensionMismatchError("partition on a different point set")
    part = np.array([p.mask for p in partition]).argmax(axis=0)
    return FiniteSet(family.space, [s[[a]] for s, a in zip(family.stacks, part)], 1)


@dataclass
class MixWitness:
    """Certificate that an element is a mixing of a family.

    ``assignment[a]`` indexes the family member selected on part a.
    """

    partition: PartitionOfUnity
    assignment: tuple[int, ...]


def mix_membership(x: FiniteSet, M: FiniteSet) -> MixWitness | None:
    """Exhibit the element x (a one-element set) as a mixing of elements of
    M, or report that none exists.

    Fiberwise characterization: a witness exists iff at every point some
    element of M matches x within ``DEFAULT_TOL``; the lowest such index is chosen.
    """
    _check_element(x)
    if x.space != M.space:
        raise DimensionMismatchError("element and set on different fiber spaces")
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN distance
        hits = np.stack([_pair_dist(a, s)[0] for a, s in zip(x.stacks, M.stacks)]) <= DEFAULT_TOL
    if not np.all(hits.any(axis=1)):
        return None
    pick = hits.argmax(axis=1)
    used = sorted(set(pick.tolist()))
    parts = [Idempotent(x.space.base, pick == j) for j in used]
    return MixWitness(PartitionOfUnity(parts), tuple(used))


@dataclass
class CyclicWitness:
    """Partition (q_n) with finite sets F_n whose mixings approximate a set.

    ``chain`` holds the candidates in greedy order and ``prefix`` one
    integer per point: the part q_n is {prefix == n}, and F_n is q_n times
    the first n elements of ``chain``.
    """

    chain: FiniteSet
    prefix: np.ndarray
    epsilon: float


def cyclic_witness(M: FiniteSet, eps_values: Sequence[float], r: float) -> list[CyclicWitness]:
    """Constructive cyclic-compactness witnesses for a finite set, one per
    eps of ``eps_values``, in order.

    Candidates are the greedy order-boundedness witness prefixes of M after
    truncation to the ball of radius 2r, taken at every size 1..|M|; the
    exhaustion principle (first fit, ascending cardinality) assigns each
    point to the smallest candidate already eps-covering it there (within
    ``DEFAULT_TOL``), so a point's prefix is the size of its first cover.

    One truncation and one ``Traversal`` of the truncated set give the
    chain that every returned witness shares. When truncation cuts nothing
    it returns M itself, and the traversal's radii are the covers;
    otherwise M's defect against each prefix of the chain is computed once.
    Truncation selects entries, so every chain entry that it keeps has M's
    bytes.
    """
    if not all(eps > 0 for eps in eps_values):  # NaN too
        raise ValueError("eps must be positive")
    if len(M) == 0:
        raise ValueError("cyclic witness needs a nonempty set")
    truncated = truncate_to_ball(M, r)
    traversal = Traversal(truncated)
    chain = truncated.subset(traversal.order)
    radii = traversal.radii if truncated is M else prefix_defects(M, chain)
    witnesses = []
    for eps in eps_values:
        # covered[n-1] is where the size-n prefix reaches defect <= eps; the
        # covers only grow with n, so a point's first cover is its first true row
        covered = radii <= eps + DEFAULT_TOL
        if not covered[-1].all():
            raise ConstructionError(
                f"no candidate of size <= {len(M)} reaches defect <= {eps} "
                "everywhere; the set is not order-precompact at this level over "
                "the truncation ball"
            )
        witnesses.append(CyclicWitness(chain, covered.argmax(axis=0) + 1, eps))
    return witnesses


def verify_cyclic(M: FiniteSet, eps: float, w: CyclicWitness) -> bool:
    """Check a cyclic-compactness witness against every element of M.

    For each element x and each part (q_n, F_n) the fiberwise nearest
    selection z_n from F_n is a mixing of F_n, and the check is
    q_n |x - z_n| <= eps pointwise, which simultaneously bounds
    q_n inf_{y in F_n} |x - y|. One part holds each point, so each point
    takes one distance table against the first ``prefix`` chain rows there,
    and the verdict is that of ``(defect(M, F_n).value * q_n).le(eps)``
    over every part.

    Raises ``ValueError`` when the chain lives on another fiber space than
    M, or when ``prefix`` is not one integer in 1..len(chain) per point.
    """
    chain, prefix = w.chain, np.asarray(w.prefix)
    if chain.space != M.space:
        raise ValueError("witness chain on a different fiber space")
    if (
        prefix.shape != (M.space.n_points,)
        or prefix.dtype.kind not in "iu"
        or not np.all((1 <= prefix) & (prefix <= len(chain)))
    ):
        raise ValueError(f"prefix must hold one integer in 1..{len(chain)} per point")
    if len(M) == 0:
        return True
    localized = [
        np.max(_nearest(s, t[:n])[0]) for s, t, n in zip(M.stacks, chain.stacks, prefix.tolist())
    ]
    return StoneElement(M.space.base, np.array(localized)).le(eps)
