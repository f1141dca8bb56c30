"""Input document parsing and validation for the CLI.

Two document kinds: finite-set documents (a fiber space plus named sets of
module vectors) and extension documents (two weighted spaces, paired
generators, and a factor map). Validation is strict and collects every
problem with its JSON path before failing, so callers can surface all
diagnostics at once.
"""

from __future__ import annotations

import cmath
import math
from typing import Any

import numpy as np

from .errors import SchemaError
from .fibered import FiberSpace, FiniteSet
from .stone import PointSet
from .systems import Extension, FiniteProbabilitySpace, MPMap


# the largest real or imaginary part a finite-set entry may have: squared
# differences of such entries, summed over a fiber, stay far below the float
# maximum, so no distance, norm or solver step overflows
ENTRY_BOUND = 1e150


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


_ITEM_KINDS = {
    "list": (lambda v: isinstance(v, list), "a list"),
    "int": (_is_int, "an integer"),
    "number": (_is_finite, "a finite number"),
}


def _describe(v) -> str:
    """How a diagnostic names a rejected item."""
    if isinstance(v, float):
        return repr(v)  # nan, inf, 1.5
    if _is_int(v) and not _is_finite(v):
        return "an integer beyond the float range"
    return type(v).__name__


def _want_list(doc, key, path, diags, of=None):
    """``doc[key]`` when it is a list whose items are all of kind ``of``
    (a key of ``_ITEM_KINDS``); else None, with a diagnostic."""
    if not isinstance(doc, dict) or key not in doc:
        diags.append(f"{path}: missing required key '{key}'")
        return None
    val = doc[key]
    if not isinstance(val, list):
        diags.append(f"{path}.{key}: expected a list, got {type(val).__name__}")
        return None
    if of is not None:
        ok, what = _ITEM_KINDS[of]
        for i, item in enumerate(val):
            if not ok(item):
                diags.append(
                    f"{path}.{key}[{i}]: expected {what}, "
                    f"got {_describe(item)}"
                )
                return None
    return val


def _parse_scalar(v, path: str, diags: list[str]) -> complex:
    if isinstance(v, (int, float)):
        parts = (v,)
    elif (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(c, (int, float)) for c in v)
    ):
        parts = v
    else:
        diags.append(f"{path}: expected a number or [re, im] pair")
        return 0j
    try:
        z = complex(*parts)
    except OverflowError:  # an int beyond the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        diags.append(f"{path}: expected finite numbers")
        return 0j
    if max(abs(z.real), abs(z.imag)) > ENTRY_BOUND:
        diags.append(f"{path}: expected |re| and |im| at most 1e150")
        return 0j
    return z


def parse_fiber_space(doc: Any, path: str, diags: list[str]) -> FiberSpace | None:
    points = _want_list(doc, "points", path, diags)
    dims = _want_list(doc, "dims", path, diags, of="int")
    if points is None or dims is None:
        return None
    if len(points) != len(dims):
        diags.append(f"{path}: points and dims have different lengths")
        return None
    try:
        return FiberSpace(PointSet(tuple(str(p) for p in points)), tuple(dims))
    except (ValueError, TypeError) as exc:
        diags.append(f"{path}: {exc}")
        return None


def _array_stacks(elements: list, space: FiberSpace) -> list[np.ndarray] | None:
    """One ``(n, d)`` complex stack per fiber, each converted as one array,
    when every fiber of the set holds only plain numbers or only ``[re, im]``
    pairs, all within ``ENTRY_BOUND``; None when anything else occurs, so
    that the caller parses the set entry by entry. The values are bit-equal
    to ``complex(v)`` and ``complex(re, im)``."""
    n = len(elements)
    if not all(isinstance(e, list) and len(e) == space.n_points for e in elements):
        return None
    stacks = []
    for w, d in enumerate(space.dims):
        try:
            a = np.array([e[w] for e in elements])
        except (ValueError, TypeError, OverflowError):  # ragged, or huge ints
            return None
        if a.dtype.kind not in "biuf":
            return None
        if a.shape == (n, d):
            s = a.astype(complex)
        elif a.shape == (n, d, 2):
            s = a.astype(float).view(complex).reshape(n, d)
        else:
            return None
        if not (np.abs(s.view(float)) <= ENTRY_BOUND).all():  # NaN fails too
            return None
        stacks.append(s)
    return stacks


def _scalar_stacks(
    elements: list, space: FiberSpace, path: str, diags: list[str]
) -> list[np.ndarray]:
    """The stacks of one set, parsed entry by entry with a diagnostic per
    malformed element, fiber or entry."""
    stacks = [np.zeros((len(elements), d), dtype=complex) for d in space.dims]
    for i, elem in enumerate(elements):
        if not isinstance(elem, list) or len(elem) != space.n_points:
            diags.append(
                f"{path}[{i}]: expected one fiber per point "
                f"({space.n_points} fibers)"
            )
            continue
        for w, fib in enumerate(elem):
            if not isinstance(fib, list) or len(fib) != space.dims[w]:
                diags.append(f"{path}[{i}][{w}]: expected {space.dims[w]} entries")
                continue
            for k, v in enumerate(fib):
                stacks[w][i, k] = _parse_scalar(v, f"{path}[{i}][{w}][{k}]", diags)
    return stacks


def parse_finite_set_doc(doc: Any) -> tuple[FiberSpace, dict[str, FiniteSet]]:
    """Parse ``{"space": {...}, "sets": {name: [elements]}}``."""
    diags: list[str] = []
    if not isinstance(doc, dict):
        raise SchemaError(["$: document must be a JSON object"])
    if "space" not in doc:
        diags.append("$: missing required key 'space'")
    space = None
    if "space" in doc:
        space = parse_fiber_space(doc["space"], "$.space", diags)
    sets_doc = doc.get("sets")
    if not isinstance(sets_doc, dict):
        diags.append("$.sets: expected an object of named sets")
        raise SchemaError(diags)
    if space is None:
        raise SchemaError(diags)

    out = {}
    for name, elements in sets_doc.items():
        path = f"$.sets.{name}"
        if not isinstance(elements, list):
            diags.append(f"{path}: expected a list of elements")
            continue
        stacks = _array_stacks(elements, space)
        if stacks is None:
            stacks = _scalar_stacks(elements, space, path, diags)
        out[name] = FiniteSet(space, stacks, len(elements))
    if diags:
        raise SchemaError(diags)
    return space, out


def _parse_space(doc: Any, path: str, diags: list[str]) -> FiniteProbabilitySpace | None:
    points = _want_list(doc, "points", path, diags)
    weights = _want_list(doc, "weights", path, diags, of="number")
    if points is None or weights is None:
        return None
    try:
        return FiniteProbabilitySpace([str(p) for p in points], weights)
    except ValueError as exc:
        diags.append(f"{path}: {exc}")
        return None


def _parse_generators(doc, key, size, path, diags) -> list[MPMap] | None:
    gens_doc = _want_list(doc, key, path, diags, of="list")
    if gens_doc is None:
        return None
    gens = []
    for i, arr in enumerate(gens_doc):
        gpath = f"{path}.{key}[{i}]"
        if size is not None and len(arr) != size:
            diags.append(f"{gpath}: expected {size} entries, got {len(arr)}")
            return None
        if not all(_is_int(v) for v in arr):
            diags.append(f"{gpath}: permutation entries must be integers")
            return None
        if not all(0 <= v < len(arr) for v in arr):
            diags.append(f"{gpath}: entries must lie in 0..{len(arr) - 1}")
            return None
        try:
            gens.append(MPMap(arr))
        except ValueError as exc:
            diags.append(f"{gpath}: {exc}")
            return None
    return gens


def parse_extension_doc(doc: Any, cap: int = 10**5) -> Extension:
    """Parse ``{"space", "generators", "factor": {"base_space", "map",
    "base_generators"}}`` into an (structurally valid) extension."""
    diags: list[str] = []
    if not isinstance(doc, dict):
        raise SchemaError(["$: document must be a JSON object"])
    top = _parse_space(doc.get("space"), "$.space", diags) if "space" in doc else None
    if top is None and "space" not in doc:
        diags.append("$: missing required key 'space'")
    factor_doc = doc.get("factor")
    if not isinstance(factor_doc, dict):
        diags.append("$.factor: expected an object")
        raise SchemaError(diags)
    base = (
        _parse_space(factor_doc.get("base_space"), "$.factor.base_space", diags)
        if "base_space" in factor_doc
        else None
    )
    if base is None and "base_space" not in factor_doc:
        diags.append("$.factor: missing required key 'base_space'")

    gens = _parse_generators(
        doc, "generators", top.size if top else None, "$", diags
    )
    base_gens = _parse_generators(
        factor_doc,
        "base_generators",
        base.size if base else None,
        "$.factor",
        diags,
    )
    fmap = _want_list(factor_doc, "map", "$.factor", diags, of="int")
    if diags or top is None or base is None or gens is None or base_gens is None:
        raise SchemaError(diags or ["$: malformed extension document"])
    if len(fmap) != top.size:
        diags.append(
            f"$.factor.map: expected {top.size} entries, got {len(fmap)}"
        )
    elif any(not (0 <= y < base.size) for y in fmap):
        diags.append("$.factor.map: image index out of range")
    if len(gens) != len(base_gens):
        diags.append(
            "$.generators / $.factor.base_generators: generator lists must "
            "be paired (same length)"
        )
    if diags:
        raise SchemaError(diags)
    return Extension(top, gens, base, base_gens, fmap, cap=cap)
