"""Span recorder for the traced run.

Layers are timed from outside: ``Recorder.install`` rebinds every ``latnorm.*``
module attribute that holds a traced function (modules import these names
with ``from .fibered import defect``, so each importing module holds its own
reference), and wraps ``RelModule.encode`` on its class. Calls inside the
package then pass through the wrappers; no source file changes.

Counters are computed from arguments and return values only. The recorder
never reads lazy attributes such as ``Extension.action``: doing so would
enumerate the group on the benchmark's behalf.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


def _count_defect(c, a, out):
    M, F = a["M"], a["F"]
    c["pairs"] += len(M) * len(F) * M.space.n_points
    c["entries"] += len(M) * len(F) * sum(M.space.dims)


def _count_is_utob(c, a, out):
    c["witness_size"] += len(out.witness)


def _count_net(c, a, out):
    c["net_size"] += len(out)


def _count_cyclic(c, a, out):
    c["candidates"] += len(a["M"])


def _count_orbit(c, a, out):
    c["orbit_size"] += len(out)


def _count_group(c, a, out):
    c["group_order"] += len(out)


# (module, function, counter). Private helpers such as _pair_dist and _emit
# are left alone: their names are expected to change, while these public
# entry points stay.
TRACED = [
    ("fibered", "defect", _count_defect),
    ("fibered", "is_utob", _count_is_utob),
    ("fibered", "greedy_order", None),
    ("fibered", "heine_borel_net", _count_net),
    ("mixing", "cyclic_witness", _count_cyclic),
    ("mixing", "verify_cyclic", None),
    ("relative", "defect_chain", None),
    ("relative", "orbit_functions", _count_orbit),
    ("relative", "kronecker_subspace", None),
    ("relative", "theorem_cross_check", None),
    ("systems", "enumerate_group", _count_group),
    ("seqmodel", "build_counterexample", None),
    ("serialize", "parse_finite_set_doc", None),
    ("serialize", "parse_extension_doc", None),
    ("cli", "main", None),
]
TRACED_METHODS = [("systems", "RelModule", "encode")]


class Recorder:
    """Spans (name, start, end, parent span, job id) kept in memory, plus
    per-function counters and the count of calls that returned."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        sig = inspect.signature(fn) if counter else None
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
            c = counts[name]
            c["returned"] += 1
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                counter(c, bound.arguments, out)
            return out

        return traced

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items()) if k == "latnorm" or k.startswith("latnorm.")]
        for modname, attr, counter in TRACED:
            orig = getattr(sys.modules[f"latnorm.{modname}"], attr)
            wrapper = self.wrap(f"{modname}.{attr}", orig, counter)
            for mod in mods:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._saved.append((mod, key, orig))
                    setattr(mod, key, wrapper)
        for modname, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"latnorm.{modname}"], cls_name)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(f"{modname}.{cls_name}.{attr}", orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - child[i] for i, (_, t0, t1, _, _) in enumerate(self.spans)]

    def summary(self, cycles: int) -> dict[str, dict[str, float]]:
        """Per function: calls, self and total seconds and counters, summed
        and divided by the number of traced cycles."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, t0, t1, parent, _), s in zip(self.spans, self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += s
            row["total_s"] += t1 - t0
        for name, c in self.counts.items():
            out[name].update(c)
        return {
            name: {k: v / cycles for k, v in row.items()} for name, row in out.items()
        }
