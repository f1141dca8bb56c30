"""Gluing module elements along partitions of unity.

The boolean-valued equality ``[[x = y]]`` (complement of the support of
|x - y|) makes every fiberwise module a set with boolean-algebra-valued
equality; a mixing glues a family of elements along a partition of unity.
An element is a one-element ``FiniteSet`` and a family is one set, so a
mixing picks, at each point, the family row whose part holds that point.
Relative cyclic compactness of a set is certified by a countable partition
(q_n) and finite sets F_n whose mixings epsilon-approximate every element
on the corresponding component; at finite scale the constructive existence
argument (greedy witness chain plus exhaustion) is executable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DimensionMismatchError
from .stone import DEFAULT_TOL, Idempotent, PartitionOfUnity
from .fibered import (
    FiniteSet, Traversal, _pair_dist, defect, greedy_order, prefix_defects,
    truncate_to_ball,
)


def _check_element(x: FiniteSet) -> None:
    if len(x) != 1:
        raise ValueError(f"expected a one-element set, got {len(x)} elements")


def eq_idempotent(x: FiniteSet, y: FiniteSet, tol: float = DEFAULT_TOL) -> Idempotent:
    """Boolean-valued equality of two elements (one-element sets): the
    component where x and y agree within tol."""
    _check_element(x)
    _check_element(y)
    return (x - y).norm_sup().support(tol).complement()


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


def mix_membership(
    x: FiniteSet, M: FiniteSet, tol: float = DEFAULT_TOL
) -> MixWitness | None:
    """Exhibit the element x (a one-element set) as a mixing of elements of
    M, or report that none exists.

    Fiberwise characterization: a witness exists iff at every point some
    element of M matches x within tol; the lowest such index is chosen.
    """
    _check_element(x)
    if x.space != M.space:
        raise DimensionMismatchError("element and set on different fiber spaces")
    hits = np.stack([_pair_dist(a, s)[0] for a, s in zip(x.stacks, M.stacks)]) <= tol
    if not np.all(hits.any(axis=1)):
        return None
    pick = hits.argmax(axis=1)
    used = sorted(set(pick.tolist()))
    parts = [Idempotent(x.space.base, pick == j) for j in used]
    return MixWitness(PartitionOfUnity(parts), tuple(used))


@dataclass
class CyclicWitness:
    """Partition (q_n) with finite sets F_n whose mixings approximate a set."""

    parts: list[tuple[Idempotent, FiniteSet]]
    epsilon: float


def cyclic_witness(
    M: FiniteSet,
    eps: float,
    r: float,
    tol: float = DEFAULT_TOL,
    traversal: Traversal | None = None,
) -> CyclicWitness:
    """Constructive cyclic-compactness witness for a finite set.

    Candidates are the greedy order-boundedness witness prefixes of M after
    truncation to the ball of radius 2r, taken at every size 1..|M|; the
    exhaustion principle (first fit, ascending cardinality) assigns each
    point to the smallest candidate already eps-covering it there, and the
    candidates are glued along that partition, one part per candidate size
    that some point uses.

    When truncation cuts nothing it returns M itself, and a ``Traversal`` of
    M (``traversal``, shared across eps, or a new one) gives the prefixes and
    their covers; otherwise the truncated set is traversed and M's defect
    against each prefix is computed. Truncation and the parts' idempotents
    select entries, so every kept witness entry has M's bytes.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if len(M) == 0:
        raise ValueError("cyclic witness needs a nonempty set")
    if traversal is not None and traversal.M is not M:
        raise ValueError("the traversal belongs to another set")
    truncated = truncate_to_ball(M, r, tol)
    if truncated is M:
        if traversal is None:
            traversal = Traversal(M)
        order, radii = traversal.order, traversal.radii
    else:
        order = greedy_order(truncated)
        radii = prefix_defects(M, truncated.subset(order))
    # covered[n-1] is where the size-n prefix reaches defect <= eps; the
    # covers only grow with n, so a point's first cover is its first true row
    covered = radii <= eps + tol
    if not covered[-1].all():
        raise ConstructionError(
            f"no candidate of size <= {len(M)} reaches defect <= {eps} "
            "everywhere; the set is not order-precompact at this level over "
            "the truncation ball"
        )
    first = covered.argmax(axis=0) + 1
    parts = []
    for n in np.unique(first).tolist():
        q = Idempotent(M.space.base, first == n)
        parts.append((q, q * truncated.subset(order[:n])))
    return CyclicWitness(parts, eps)


def verify_cyclic(
    M: FiniteSet, eps: float, w: CyclicWitness, tol: float = DEFAULT_TOL
) -> bool:
    """Check a cyclic-compactness witness against every element of M.

    For each element x and each part (q_n, F_n) the fiberwise nearest
    selection z_n from F_n is a mixing of F_n, and the check is
    q_n |x - z_n| <= eps pointwise, which simultaneously bounds
    q_n inf_{y in F_n} |x - y|.
    """
    if len(M) == 0:
        return True
    PartitionOfUnity([q for q, _ in w.parts])  # validates the masks
    for q, F in w.parts:
        if q.is_zero():
            continue
        if len(F) == 0:
            return False
        localized = defect(M, F).value * q
        if not localized.le(eps, tol):
            return False
    return True
