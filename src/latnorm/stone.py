"""Finite Stone algebra: real functions on a finite point set.

Everything order-theoretic in this package bottoms out here. The algebra is
represented concretely as real-valued vectors indexed by a ``PointSet``;
lattice operations are pointwise and the natural norm is the max modulus.
Idempotents are boolean masks and play the role of the Boolean algebra of
components; the exhaustion principle becomes a first-fit assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, IncompleteCoverError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class PointSet:
    """Ordered finite set of distinct point labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("PointSet needs at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("PointSet labels must be distinct")
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @staticmethod
    def of_size(n: int) -> "PointSet":
        """The points ``w0, ..., w{n-1}``."""
        return PointSet(tuple(f"w{i}" for i in range(n)))


def _check_base(a, b):
    if a.base != b.base:
        raise DimensionMismatchError(
            f"point sets differ: {a.base.labels} vs {b.base.labels}"
        )


class StoneElement:
    """Real-valued function on a finite point set, pointwise ordered."""

    __slots__ = ("base", "values")

    def __init__(self, base: PointSet, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (base.size,):
            raise DimensionMismatchError(
                f"expected {base.size} values, got shape {values.shape}"
            )
        self.base = base
        self.values = values

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(base: PointSet) -> "StoneElement":
        return StoneElement(base, np.zeros(base.size))

    @staticmethod
    def constant(base: PointSet, c: float) -> "StoneElement":
        return StoneElement(base, np.full(base.size, float(c)))

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "StoneElement") -> "StoneElement":
        _check_base(self, other)
        return StoneElement(self.base, self.values + other.values)

    def __sub__(self, other: "StoneElement") -> "StoneElement":
        _check_base(self, other)
        return StoneElement(self.base, self.values - other.values)

    def __neg__(self) -> "StoneElement":
        return StoneElement(self.base, -self.values)

    def __mul__(self, other):
        if isinstance(other, StoneElement):
            _check_base(self, other)
            return StoneElement(self.base, self.values * other.values)
        if isinstance(other, Idempotent):
            _check_base(self, other)
            return StoneElement(self.base, self.values * other.mask)
        return StoneElement(self.base, self.values * float(other))

    __rmul__ = __mul__

    def sup(self, other: "StoneElement") -> "StoneElement":
        """Pointwise join (lattice supremum)."""
        _check_base(self, other)
        return StoneElement(self.base, np.maximum(self.values, other.values))

    def inf(self, other: "StoneElement") -> "StoneElement":
        """Pointwise meet (lattice infimum)."""
        _check_base(self, other)
        return StoneElement(self.base, np.minimum(self.values, other.values))

    def abs(self) -> "StoneElement":
        return StoneElement(self.base, np.abs(self.values))

    # -- order and norm -----------------------------------------------

    def le(self, other, tol: float = DEFAULT_TOL) -> bool:
        """Pointwise ``self <= other`` within tol; other may be a scalar."""
        if isinstance(other, StoneElement):
            _check_base(self, other)
            return bool(np.all(self.values <= other.values + tol))
        return bool(np.all(self.values <= float(other) + tol))

    def eq(self, other, tol: float = DEFAULT_TOL) -> bool:
        if isinstance(other, StoneElement):
            _check_base(self, other)
            return bool(np.all(np.abs(self.values - other.values) <= tol))
        return bool(np.all(np.abs(self.values - float(other)) <= tol))

    def sup_norm(self) -> float:
        """Natural norm: maximum modulus over the point set."""
        return float(np.max(np.abs(self.values)))

    def support(self, tol: float = DEFAULT_TOL) -> "Idempotent":
        """Idempotent carried by the points where ``|self| > tol``."""
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        return Idempotent(self.base, np.abs(self.values) > tol)

    def __repr__(self):
        return f"StoneElement({np.array2string(self.values, precision=6)})"


class ComplexCoefficient:
    """Complex scalar field on a point set; acts on module elements."""

    __slots__ = ("base", "values")

    def __init__(self, base: PointSet, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (base.size,):
            raise DimensionMismatchError(
                f"expected {base.size} values, got shape {values.shape}"
            )
        self.base = base
        self.values = values

    def modulus(self) -> StoneElement:
        return StoneElement(self.base, np.abs(self.values))

    def conj(self) -> "ComplexCoefficient":
        return ComplexCoefficient(self.base, np.conj(self.values))

    def __mul__(self, other):
        if isinstance(other, ComplexCoefficient):
            _check_base(self, other)
            return ComplexCoefficient(self.base, self.values * other.values)
        if isinstance(other, (int, float, complex)):
            return ComplexCoefficient(self.base, self.values * other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"ComplexCoefficient({np.array2string(self.values, precision=6)})"


class Idempotent:
    """{0,1}-valued element of the algebra, stored as a boolean mask."""

    __slots__ = ("base", "mask")

    def __init__(self, base: PointSet, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (base.size,):
            raise DimensionMismatchError(
                f"expected {base.size} mask entries, got shape {mask.shape}"
            )
        self.base = base
        self.mask = mask

    @staticmethod
    def one(base: PointSet) -> "Idempotent":
        return Idempotent(base, np.ones(base.size, dtype=bool))

    def complement(self) -> "Idempotent":
        return Idempotent(self.base, ~self.mask)

    def __and__(self, other: "Idempotent") -> "Idempotent":
        _check_base(self, other)
        return Idempotent(self.base, self.mask & other.mask)

    def __or__(self, other: "Idempotent") -> "Idempotent":
        _check_base(self, other)
        return Idempotent(self.base, self.mask | other.mask)

    def le(self, other: "Idempotent") -> bool:
        _check_base(self, other)
        return bool(np.all(~self.mask | other.mask))

    def is_zero(self) -> bool:
        return not bool(np.any(self.mask))

    def is_one(self) -> bool:
        return bool(np.all(self.mask))

    def __eq__(self, other):
        return (
            isinstance(other, Idempotent)
            and self.base == other.base
            and bool(np.all(self.mask == other.mask))
        )

    def __hash__(self):
        return hash((self.base, self.mask.tobytes()))

    def __repr__(self):
        return f"Idempotent({self.mask.astype(int)})"


class PartitionOfUnity:
    """Pairwise disjoint idempotents summing to the unit."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Idempotent]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        base = parts[0].base
        counts = np.zeros(base.size, dtype=int)
        for p in parts:
            if p.base != base:
                raise DimensionMismatchError("partition parts on different point sets")
            counts += p.mask
        if np.any(counts != 1):
            bad = [base.labels[i] for i in np.nonzero(counts != 1)[0]]
            raise ValueError(f"masks do not partition the unit at points {bad}")
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    @property
    def base(self) -> PointSet:
        return self.parts[0].base


def exhaustion(cover: Sequence[Idempotent]) -> PartitionOfUnity:
    """Disjointify a covering family of idempotents.

    Each point is assigned to the first idempotent that covers it, scanning
    the family in list order. The result is a partition of unity with part
    i below cover i.
    """
    cover = list(cover)
    if not cover:
        raise IncompleteCoverError("empty cover")
    base = cover[0].base
    assigned = np.zeros(base.size, dtype=bool)
    masks = []
    for p in cover:
        if p.base != base:
            raise DimensionMismatchError("cover elements on different point sets")
        take = p.mask & ~assigned
        masks.append(take)
        assigned |= take
    if not np.all(assigned):
        bad = [base.labels[i] for i in np.nonzero(~assigned)[0]]
        raise IncompleteCoverError(f"cover misses points {bad}")
    return PartitionOfUnity([Idempotent(base, m) for m in masks])
