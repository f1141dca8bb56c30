"""Command-line front end.

Subcommands: ``analyze`` (extension documents), ``tob`` / ``zonotope`` /
``cyclic`` (finite-set documents), ``counterexample`` (the built-in
sequence model), and ``selftest`` (the named invariant suite). Reports
embed the tool version and the effective configuration; exit codes are
0 ok, 1 suite or verdict failure (or no cyclic witness), 2 schema violation
or invalid option value, 3 cap exceeded, 4 solver iteration limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, checks
from .errors import (
    CapExceededError,
    ConstructionError,
    InfeasibleTruncationError,
    IterationLimitError,
    SchemaError,
    SizeCapError,
)
from .fibered import (
    Traversal,
    Zonotope,
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
    except json.JSONDecodeError as exc:
        raise SchemaError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"])


def _emit(report: dict, args) -> None:
    # the plain-text and CSV renderings are alternatives to the JSON
    # payload, never part of it
    csv_text = report.pop("_csv", None)
    plain_text = report.pop("_text", None)
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
    if args.format == "csv" and csv_text:
        text = csv_text
    elif args.format == "text" and plain_text:
        text = plain_text
    else:
        # no indent: only then does the json module use its C encoder
        text = json.dumps(payload, default=str)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_analyze(args) -> int:
    doc = _load_json(args.input)
    ext = parse_extension_doc(doc, cap=args.cap)
    # the analysis encodes through RelModule, which admits only extensions
    # valid at the default tolerance, so a larger --tol cannot loosen this
    validation = validate_extension(ext, min(args.tol, DEFAULT_TOL))
    if not validation.valid:
        for v in validation.violations:
            print(f"invalid extension: {v}", file=sys.stderr)
        return EXIT_SCHEMA
    n_x, n_y = ext.upstairs.size, ext.downstairs.size
    table = np.zeros((n_y, n_x))
    for x in range(n_x):
        e = np.zeros(n_x)
        e[x] = 1.0
        table[:, x] = np.real(cond_expectation(e, ext))
    cross = theorem_cross_check(
        ext, eps_values=tuple(args.eps), delta_values=tuple(args.delta)
    )
    report = {
        "validation": validation.to_json_dict(),
        "cond_expectation": table.tolist(),
        "ap_verdicts": cross.ap_verdicts,
        "kronecker_dim": cross.kronecker_dim,
        "discrete_spectrum": cross.corollary["discrete_spectrum"],
        "cross_check": cross.to_json_dict(),
    }
    report["_csv"] = cross.ap_witness_csv(args.eps)
    report["_text"] = "\n".join(
        [
            f"extension valid: {validation.valid}",
            f"kronecker dimension: {cross.kronecker_dim} / {n_x}",
            f"discrete spectrum: {report['discrete_spectrum']}",
            f"subspace distances: {cross.distances}",
            f"corollary verdicts: {cross.corollary}",
            cross.note,
        ]
    )
    _emit(report, args)
    return EXIT_OK


def cmd_tob(args) -> int:
    doc = _load_json(args.input)
    _, sets = parse_finite_set_doc(doc)
    if "M" not in sets or len(sets["M"]) == 0:
        raise SchemaError(["$.sets.M: a nonempty probe set M is required"])
    M = sets["M"]
    F = sets.get("F")
    report: dict = {}
    if F is not None and len(F):
        rep = defect(M, F)
        report["defect"] = rep.to_json_dict()
        report["_csv"] = rep.to_csv()
    # one traversal and one recheck per distinct witness serve every eps
    traversal = Traversal(M)
    utob = {}
    for eps in args.eps:
        r = is_utob(M, eps, args.tol, traversal=traversal)
        utob[str(eps)] = r.to_json_dict()
    report["utob"] = utob
    report["_text"] = "\n".join(
        [f"|M| = {len(M)}"]
        + (
            [f"defect vs F: {report['defect']['value']}"]
            if "defect" in report
            else []
        )
        + [
            f"eps={e}: verdict={v['verdict']} witness={v['witness_size']}"
            for e, v in utob.items()
        ]
    )
    _emit(report, args)
    return EXIT_OK


def cmd_zonotope(args) -> int:
    doc = _load_json(args.input)
    _, sets = parse_finite_set_doc(doc)
    if "M" not in sets or "F" not in sets:
        raise SchemaError(["$.sets: zonotope analysis needs both M and F"])
    M, F = sets["M"], sets["F"]
    if len(M) == 0 or len(F) == 0:
        raise SchemaError(["$.sets: M and F must be nonempty"])
    dists, diag = zonotope_report(
        M, Zonotope(F), tol=args.solver_tol, max_iter=args.max_iter
    )
    verdicts = {
        str(eps): all(d.le(eps + args.solver_tol, args.solver_tol) for d in dists)
        for eps in args.eps
    }
    report = {
        "distances": [d.values.tolist() for d in dists],
        "cp_verdicts": verdicts,
        "solver": diag,
    }
    report["_text"] = "\n".join(
        [f"element {i}: {d.values.tolist()}" for i, d in enumerate(dists)]
        + [f"cp at eps={e}: {v}" for e, v in verdicts.items()]
    )
    _emit(report, args)
    return EXIT_OK


def cmd_cyclic(args) -> int:
    doc = _load_json(args.input)
    _, sets = parse_finite_set_doc(doc)
    if "M" not in sets or len(sets["M"]) == 0:
        raise SchemaError(["$.sets.M: a nonempty probe set M is required"])
    M = sets["M"]
    r = args.radius if args.radius is not None else M.norm_sup().sup_norm() + args.tol
    results = {}
    ok_all = True
    for eps in args.eps:
        w = cyclic_witness(M, eps, r, args.tol)
        ok = verify_cyclic(M, eps, w, args.tol)
        ok_all = ok_all and ok
        results[str(eps)] = {"verified": ok, "witness": w.to_json_dict()}
    report = {"radius": r, "results": results}
    report["_text"] = "\n".join(
        f"eps={e}: verified={v['verified']}" for e, v in results.items()
    )
    _emit(report, args)
    return EXIT_OK if ok_all else EXIT_SUITE


def cmd_counterexample(args) -> int:
    n = args.n
    _, M, nets = build_counterexample(n)
    # F_m is the first m + 1 elements of F_n, so column m - 1 is row m
    table = prefix_defects(M, nets[-1])[1:].T
    labels = [str(k) for k in range(1, n + 1)] + ["tail"]
    lines = ["coordinate," + ",".join(f"net_{m}" for m in range(1, n + 1))]
    for w, lab in enumerate(labels):
        lines.append(lab + "," + ",".join(f"{float(v)!r}" for v in table[w]))
    csv_text = "\n".join(lines)
    report = {
        "n": n,
        "set_size": len(M),
        "defect_table": table.tolist(),
        "coordinates": labels,
        "_csv": csv_text,
        "_text": csv_text,
    }
    if args.delta:
        demos = {}
        for delta in args.delta:
            demo = egoroff_demo(n, delta, args.tol)
            demos[str(delta)] = demo.to_json_dict()
        report["egoroff"] = demos
    _emit(report, args)
    return EXIT_OK


def cmd_selftest(args) -> int:
    fixture = None
    if args.fixture:
        doc = _load_json(args.fixture)
        fixture = parse_extension_doc(doc, cap=args.cap)
    results = checks.run_all(seed=args.seed, fixture=fixture)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail and not r.passed else ""
        print(f"{status} {r.name}{detail}")
    print(f"{len(results) - len(failed)}/{len(results)} invariants hold")
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
_NONNEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0, "nonnegative and finite")


def _int_at_least(low):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _add_common(p, *, tol=True):
    if tol:
        p.add_argument("--tol", type=_NONNEGATIVE, default=1e-9, help="comparison tolerance")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
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
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_zonotope)

    p = sub.add_parser("cyclic", help="cyclic-compactness witness and check")
    p.add_argument("input", help="finite-set JSON document with M")
    p.add_argument("--eps", type=_POSITIVE, action="append", default=None)
    p.add_argument("--radius", type=_POSITIVE, default=None)
    _add_common(p)
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
            best = [b.values.tolist() for b in exc.best]
            print(f"best values found: {best}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
