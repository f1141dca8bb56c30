"""Command-line front end.

Subcommands: ``analyze`` (extension documents), ``tob`` / ``zonotope`` /
``cyclic`` (finite-set documents), ``counterexample`` (the built-in
sequence model), and ``selftest`` (the named invariant suite). This module
is the one place that knows the report format: each command builds its
JSON payload, its text and its CSV rendering from the plain result objects
of the library and hands the renderings to ``_emit``. Reports
embed the tool version and the effective configuration; exit codes are
0 ok, 1 suite or verdict failure (or no cyclic witness), 2 schema violation
(an unreadable input included) or invalid option value (an unwritable
``--out`` or a closed stdout included), 3 cap exceeded, 4 solver iteration
limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    CapExceededError,
    ConstructionError,
    InfeasibleTruncationError,
    IterationLimitError,
    OutputError,
    SchemaError,
    SizeCapError,
)
from .fibered import (
    DefectReport,
    Traversal,
    defect,
    is_utob,
    prefix_defects,
    zonotope_report,
)
from .mixing import cyclic_witness, verify_cyclic
from .relative import theorem_cross_check
from .seqmodel import build_counterexample, egoroff_demo
from .serialize import parse_extension_doc, parse_finite_set_doc
from .stone import DEFAULT_TOL
from .systems import cond_expectation, validate_extension

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_SOLVER = 4


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError([f"{path}: file not found"])
    except OSError as exc:  # a directory, no permission
        raise SchemaError([f"{path}: cannot read: {exc.strerror}"])
    except json.JSONDecodeError as exc:
        raise SchemaError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"])
    except ValueError as exc:  # not UTF-8, an integer literal too long
        raise SchemaError([f"{path}: {exc}"])
    except RecursionError:
        raise SchemaError([f"{path}: nested too deeply"])


def _print(text: str) -> None:
    """Print to stdout; a closed stdout raises ``OutputError``."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # as Python's signal docs advise: point stdout at devnull, so
        # that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise OutputError("cannot write the report: stdout is closed")


def _emit(args, report: dict, text: str, csv: str | None = None) -> None:
    """Write the report in the chosen format: the JSON payload, or one of
    the plain-text and CSV renderings that the command built beside it."""
    if args.format == "json":
        payload = {
            "tool": "latnorm",
            "version": __version__,
            "command": args.command,
            "config": {
                k: v
                for k, v in vars(args).items()
                if k not in ("command", "func") and v is not None
            },
            **report,
        }
        # no indent: only then does the json module use its C encoder
        text = json.dumps(payload, default=str)
    elif args.format == "csv":
        # a parser offers only the renderings its command produces
        text = csv
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise OutputError(f"argument --out: cannot write {out!r}: {exc.strerror}")
    else:
        _print(text)


def _defect_json(rep: DefectReport) -> dict:
    return {
        "points": list(rep.value.base.labels),
        "value": rep.value.values.tolist(),
        "witness_size": len(rep.witness),
        "argmin": rep.argmin.tolist(),
    }


def cmd_analyze(args) -> int:
    doc = _load_json(args.input)
    ext = parse_extension_doc(doc, cap=args.cap)
    validation = validate_extension(ext)
    if not validation.valid:
        for v in validation.violations:
            print(f"invalid extension: {v}", file=sys.stderr)
        return EXIT_SCHEMA
    # column x is the conditional expectation of the indicator of x
    table = np.real(cond_expectation(np.eye(ext.upstairs.size), ext)).T
    cross = theorem_cross_check(
        ext, eps_values=tuple(args.eps), delta_values=tuple(args.delta)
    )
    # written field by field: dataclasses.asdict deep-copies, which costs
    # a tenth of a small extension's analysis
    report = {
        "validation": {"valid": validation.valid, "violations": validation.violations},
        "cond_expectation": table.tolist(),
        "ap_verdicts": cross.ap_verdicts,
        "kronecker_dim": cross.kronecker_dim,
        "discrete_spectrum": cross.corollary["discrete_spectrum"],
        "cross_check": {
            "n_points": cross.n_points,
            "kronecker_dim": cross.kronecker_dim,
            "ap_dim": cross.ap_dim,
            "tob_dim": cross.tob_dim,
            "subspace_distances": cross.distances,
            "inclusion_residuals": cross.inclusion_residuals,
            "ap_verdicts": cross.ap_verdicts,
            "ap_witness_sizes": cross.ap_witness_sizes,
            "egoroff_thresholds": {str(k): v for k, v in cross.egoroff_thresholds.items()},
            "corollary": cross.corollary,
            "weakly_mixing_dim": cross.weakly_mixing_dim,
            "note": cross.note,
        },
    }
    text = "\n".join(
        [
            f"extension valid: {validation.valid}",
            f"kronecker dimension: {cross.kronecker_dim} / {ext.upstairs.size}",
            f"discrete spectrum: {report['discrete_spectrum']}",
            f"subspace distances: {cross.distances}",
            f"corollary verdicts: {cross.corollary}",
            cross.note,
        ]
    )
    # one row per basis function: its verdict and witness size per eps
    rows = ["basis_index,verdict," + ",".join(f"witness_size_eps_{e}" for e in args.eps)]
    rows += [
        f"{i},{ok}," + ",".join(str(s) for s in sizes)
        for i, (ok, sizes) in enumerate(zip(cross.ap_verdicts, cross.ap_witness_sizes))
    ]
    csv = "\n".join(rows)
    _emit(args, report, text, csv)
    return EXIT_OK


def _load_sets(path: str, probe: bool = True) -> dict:
    """The sets of the finite-set document at path; with ``probe``, a
    nonempty probe set M must be one of them."""
    _, sets = parse_finite_set_doc(_load_json(path))
    if probe and len(sets.get("M", ())) == 0:
        raise SchemaError(["$.sets.M: a nonempty probe set M is required"])
    return sets


def cmd_tob(args) -> int:
    sets = _load_sets(args.input)
    M = sets["M"]
    F = sets.get("F")
    if args.format == "csv" and (F is None or len(F) == 0):
        raise SchemaError(
            ["$.sets.F: --format csv renders the defect table against F; F is missing or empty"]
        )
    report: dict = {}
    lines = [f"|M| = {len(M)}"]
    csv = None
    if F is not None and len(F):
        rep = defect(M, F)
        report["defect"] = _defect_json(rep)
        lines.append(f"defect vs F: {report['defect']['value']}")
        rows = ["point,defect"] + [
            f"{label},{v!r}" for label, v in zip(report["defect"]["points"], report["defect"]["value"])
        ]
        csv = "\n".join(rows)
    # one traversal and one recheck per distinct witness serve every eps
    traversal = Traversal(M)
    utob = {}
    for eps in args.eps:
        r = is_utob(M, eps, traversal=traversal)
        utob[str(eps)] = {
            "verdict": r.verdict,
            "epsilon": r.epsilon,
            "witness_size": len(r.witness),
            "defect": _defect_json(r.report),
        }
    report["utob"] = utob
    lines += [
        f"eps={e}: verdict={v['verdict']} witness={v['witness_size']}" for e, v in utob.items()
    ]
    _emit(args, report, "\n".join(lines), csv)
    return EXIT_OK


def cmd_zonotope(args) -> int:
    sets = _load_sets(args.input, probe=False)
    if "M" not in sets or "F" not in sets:
        raise SchemaError(["$.sets: zonotope analysis needs both M and F"])
    M, F = sets["M"], sets["F"]
    if len(M) == 0 or len(F) == 0:
        raise SchemaError(["$.sets: M and F must be nonempty"])
    dist, diag = zonotope_report(M, F, tol=args.solver_tol, max_iter=args.max_iter)
    tol = args.solver_tol
    # the verdict of ``cp_check``
    verdicts = {str(eps): bool(np.all(dist <= eps + tol + tol)) for eps in args.eps}
    report = {"distances": dist.tolist(), "cp_verdicts": verdicts, "solver": diag}
    text = "\n".join(
        [f"element {i}: {d}" for i, d in enumerate(report["distances"])]
        + [f"cp at eps={e}: {v}" for e, v in verdicts.items()]
    )
    _emit(args, report, text)
    return EXIT_OK


def cmd_cyclic(args) -> int:
    M = _load_sets(args.input)["M"]
    r = args.radius if args.radius is not None else M.norm_sup().sup_norm() + DEFAULT_TOL
    witnesses = cyclic_witness(M, args.eps, r)
    # every witness shares one chain: each fiber of it is rendered once, up
    # to the longest prefix at that point, and a point outside a part
    # repeats one row of "0j", the str of a +0 entry. The payload holds
    # only strings
    longest = np.max([w.prefix for w in witnesses], axis=0).tolist()
    chain = [
        [list(map(str, row)) for row in s[:n].tolist()]
        for s, n in zip(witnesses[0].chain.stacks, longest)
    ]
    zero = [["0j"] * d for d in M.space.dims]
    results = {}
    for w in witnesses:
        parts = []
        for n in np.unique(w.prefix).tolist():
            mask = (w.prefix == n).tolist()
            fibers = [chain[p][:n] if m else [zero[p]] * n for p, m in enumerate(mask)]
            parts.append({
                "mask": list(map(int, mask)), "set_size": n,
                "set": [list(e) for e in zip(*fibers)],
            })
        ok = verify_cyclic(M, w.epsilon, w)
        results[str(w.epsilon)] = {"verified": ok, "witness": {"epsilon": w.epsilon, "parts": parts}}
    report = {"radius": r, "results": results}
    text = "\n".join(f"eps={e}: verified={v['verified']}" for e, v in results.items())
    _emit(args, report, text)
    return EXIT_OK if all(v["verified"] for v in results.values()) else EXIT_SUITE


def cmd_counterexample(args) -> int:
    n = args.n
    model = build_counterexample(n)
    _, M, F_n = model
    # F_m is the first m + 1 elements of F_n, so column m - 1 is row m
    table = prefix_defects(M, F_n)[1:].T
    labels = [str(k) for k in range(1, n + 1)] + ["tail"]
    lines = ["coordinate," + ",".join(f"net_{m}" for m in range(1, n + 1))]
    for w, lab in enumerate(labels):
        lines.append(lab + "," + ",".join(f"{float(v)!r}" for v in table[w]))
    csv = "\n".join(lines)
    report = {
        "n": n,
        "set_size": len(M),
        "defect_table": table.tolist(),
        "coordinates": labels,
    }
    if args.delta:
        demos = {}
        for delta in args.delta:
            demo = egoroff_demo(model, delta)
            kept = demo.kept.mask
            demos[str(delta)] = {
                "m": demo.m,
                "kept": kept.astype(int).tolist(),
                "removed_mass": demo.removed_mass,
                "witness_size": len(demo.witness),
                "max_defect_on_kept": float(np.max(demo.defect_value.values[kept]))
                if np.any(kept)
                else 0.0,
            }
        report["egoroff"] = demos
    _emit(args, report, csv, csv)
    return EXIT_OK


def cmd_selftest(args) -> int:
    # imported here: the suite and its fixtures are needed by this command only
    from . import checks

    fixture = None
    if args.fixture:
        doc = _load_json(args.fixture)
        fixture = parse_extension_doc(doc, cap=args.cap)
    results = checks.run_all(seed=args.seed, fixture=fixture)
    failed = [r for r in results if not r.passed]
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail and not r.passed else ""
        lines.append(f"{status} {r.name} ({r.seconds:.3f} s){detail}")
    total = sum(r.seconds for r in results)
    lines.append(f"{len(results) - len(failed)}/{len(results)} invariants hold ({total:.3f} s)")
    _print("\n".join(lines))
    return EXIT_OK if not failed else EXIT_SUITE


def _checked(convert, ok, what):
    """argparse ``type``: ``convert`` the text, then reject it unless ``ok``."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "positive and finite")


def _int_at_least(low):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _add_common(p, *, csv=True):
    formats = ("json", "csv", "text") if csv else ("json", "text")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", help="write the report to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latnorm",
        description="Order-precompactness defects, zonotope distances, "
        "mixings, and compact-extension analysis on finite models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate and analyze an extension")
    p.add_argument("input", help="extension JSON document")
    p.add_argument("--eps", type=_POSITIVE, action="append", default=None)
    p.add_argument(
        "--delta", type=_POSITIVE, action="append", default=None,
        help="mass budgets for the localization criterion",
    )
    p.add_argument(
        "--cap", type=_int_at_least(1), default=10**5,
        help="largest orbit size allowed (exit 3 beyond it)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tob", help="defect table and order-boundedness witnesses")
    p.add_argument("input", help="finite-set JSON document")
    p.add_argument("--eps", type=_POSITIVE, action="append", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_tob)

    p = sub.add_parser("zonotope", help="zonotope distances and containment")
    p.add_argument("input", help="finite-set JSON document with M and F")
    p.add_argument("--eps", type=_POSITIVE, action="append", default=None)
    p.add_argument("--solver-tol", type=_POSITIVE, default=1e-7)
    p.add_argument("--max-iter", type=_int_at_least(1), default=10_000)
    _add_common(p, csv=False)
    p.set_defaults(func=cmd_zonotope)

    p = sub.add_parser("cyclic", help="cyclic-compactness witness and check")
    p.add_argument("input", help="finite-set JSON document with M")
    p.add_argument("--eps", type=_POSITIVE, action="append", default=None)
    p.add_argument("--radius", type=_POSITIVE, default=None)
    _add_common(p, csv=False)
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser(
        "counterexample", help="defect table of the truncated sequence model"
    )
    p.add_argument("--n", type=_int_at_least(2), required=True, help="prefix length")
    p.add_argument(
        "--delta", type=_POSITIVE, action="append", default=None,
        help="also run the mass-budget localization at this delta",
    )
    _add_common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("selftest", help="run the named invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixture", help="extension JSON to include in the suite")
    p.add_argument("--cap", type=_int_at_least(1), default=10**5)
    p.set_defaults(func=cmd_selftest)
    return parser


# list-valued defaults, filled in after parsing: with ``action="append"`` an
# argparse default would be extended by the given values, not replaced
_DEFAULTS = {
    "analyze": {"eps": [0.5, 0.25], "delta": [0.25, 0.1]},
    "tob": {"eps": [0.5, 0.1]},
    "zonotope": {"eps": [0.5]},
    "cyclic": {"eps": [0.5, 0.1]},
}


def main(argv=None) -> int:
    try:
        # a bad option value exits 2 with argparse's message, --help exits 0
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    for name, value in _DEFAULTS.get(args.command, {}).items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    try:
        return args.func(args)
    except SchemaError as exc:
        for d in exc.diagnostics:
            print(f"schema: {d}", file=sys.stderr)
        return EXIT_SCHEMA
    except OutputError as exc:
        print(f"latnorm {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InfeasibleTruncationError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ConstructionError as exc:
        print(f"cyclic: {exc}", file=sys.stderr)
        return EXIT_SUITE
    except (CapExceededError, SizeCapError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except IterationLimitError as exc:
        print(f"solver: {exc}", file=sys.stderr)
        if exc.best is not None:
            print(f"best values found: {exc.best.tolist()}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
