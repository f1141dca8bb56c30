import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from latnorm.checks import CheckResult
from latnorm.cli import build_parser, main
from latnorm.fixtures import (
    random_fiber_space,
    random_finite_set,
    rotation_extension,
    symmetric_extension,
)
from latnorm.serialize import parse_extension_doc, parse_finite_set_doc
from latnorm.errors import SchemaError
from latnorm.fibered import FiniteSet, defect
from latnorm.seqmodel import build_counterexample
from documents import extension_to_json, finite_set_to_json
from oracles import (
    dense_verify_cyclic,
    per_part_cyclic_report,
    per_prefix_cyclic_witness,
    per_scalar_sets,
)
from report_keys import check_keys


@pytest.fixture
def ext_doc(tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(extension_to_json(rotation_extension(4, 2))))
    return str(path)


@pytest.fixture
def sets_doc(tmp_path):
    rng = np.random.default_rng(0)
    space = random_fiber_space(rng, 3, 2)
    M = finite_set_to_json(random_finite_set(rng, space, 3))
    F = finite_set_to_json(random_finite_set(rng, space, 2))
    doc = {"space": M["space"], "sets": {"M": M["elements"], "F": F["elements"]}}
    path = tmp_path / "sets.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSerialization:
    def test_extension_round_trip(self):
        ext = rotation_extension(6, 3)
        doc = extension_to_json(ext)
        back = parse_extension_doc(doc)
        assert back.upstairs.labels == ext.upstairs.labels
        assert np.array_equal(back.factor, ext.factor)

    def test_finite_set_round_trip(self):
        rng = np.random.default_rng(1)
        space = random_fiber_space(rng)
        M = random_finite_set(rng, space, 3)
        doc = finite_set_to_json(M)
        _, sets = parse_finite_set_doc(
            {"space": doc["space"], "sets": {"M": doc["elements"]}}
        )
        for a, b in zip(sets["M"].stacks, M.stacks):
            assert np.allclose(a, b)

    def test_diagnostics_carry_paths(self):
        with pytest.raises(SchemaError) as exc:
            parse_finite_set_doc({"space": {"points": ["a"], "dims": [2]}, "sets": {"M": [[[1.0]]]}})
        assert any("$.sets.M[0]" in d for d in exc.value.diagnostics)

    def test_malformed_weights_diagnosed(self):
        doc = extension_to_json(rotation_extension(4, 2))
        doc["space"]["weights"] = [0.5, 0.5, 0.5, 0.5]
        with pytest.raises(SchemaError) as exc:
            parse_extension_doc(doc)
        assert any("$.space" in d for d in exc.value.diagnostics)


class TestCommands:
    def test_analyze_ok(self, ext_doc, capsys):
        assert main(["analyze", ext_doc]) == 0
        out = _report(capsys.readouterr().out)
        assert out["kronecker_dim"] == 4
        assert out["discrete_spectrum"] is True
        assert out["version"]

    def test_analyze_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = extension_to_json(rotation_extension(4, 2))
        doc["factor"]["map"] = [0, 0]
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_analyze_invalid_extension_exits_2(self, tmp_path, capsys):
        doc = extension_to_json(rotation_extension(4, 2))
        doc["factor"]["base_generators"] = [[0, 1]]  # breaks intertwining
        path = tmp_path / "noninter.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
        assert "intertwine" in capsys.readouterr().err

    def test_analyze_takes_no_tol(self, tmp_path, capsys):
        # validation compares at 1e-9, the tolerance the module encoding
        # needs: weights 2e-6 apart are not preserved, and no option loosens it
        doc = {
            "space": {"points": ["x0", "x1"], "weights": [0.500001, 0.499999]},
            "generators": [[1, 0]],
            "factor": {
                "base_space": {"points": ["y0"], "weights": [1.0]},
                "map": [0, 0],
                "base_generators": [[0]],
            },
        }
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "invalid extension: upstairs generator 0 does not preserve the measure"
        ]
        assert main(["analyze", str(path), "--tol", "1e-3"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol" in err and "Traceback" not in err

    def test_tob_defect_and_witness(self, sets_doc, capsys):
        assert main(["tob", sets_doc, "--eps", "0.5"]) == 0
        out = _report(capsys.readouterr().out)
        assert out["utob"]["0.5"]["verdict"] is True
        assert "defect" in out

    def test_tob_defect_report_and_csv(self, tmp_path, capsys):
        doc = {"space": {"points": ["a"], "dims": [1]}, "sets": {"M": [[[1.0]], [[2.0]]], "F": [[[0.0]]]}}
        path = _write(tmp_path, "doc.json", json.dumps(doc))
        assert main(["tob", path, "--eps", "0.5"]) == 0
        out = _report(capsys.readouterr().out)
        assert out["defect"] == {"points": ["a"], "value": [2.0], "witness_size": 1, "argmin": [[0], [0]]}
        target = tmp_path / "defect.csv"
        assert main(["tob", path, "--format", "csv", "--out", str(target)]) == 0
        assert target.read_text() == "point,defect\na,2.0\n"

    def test_tob_self_fixture_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        space = random_fiber_space(rng, 2, 2)
        M = finite_set_to_json(random_finite_set(rng, space, 2))
        doc = {"space": M["space"], "sets": {"M": M["elements"], "F": M["elements"]}}
        path = tmp_path / "mm.json"
        path.write_text(json.dumps(doc))
        assert main(["tob", str(path)]) == 0
        out = _report(capsys.readouterr().out)
        assert max(out["defect"]["value"]) == 0.0

    def test_zonotope(self, sets_doc, capsys):
        assert main(["zonotope", sets_doc, "--eps", "5.0"]) == 0
        out = _report(capsys.readouterr().out)
        assert out["cp_verdicts"]["5.0"] is True

    def test_cyclic(self, sets_doc, capsys):
        assert main(["cyclic", sets_doc, "--eps", "0.5"]) == 0
        out = _report(capsys.readouterr().out)
        assert out["results"]["0.5"]["verified"] is True

    def test_cyclic_zero_element_verifies_at_default_radius(self, tmp_path, capsys):
        # the default radius is sup_norm + 1e-9: 1e-9 for the zero element
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"space": {"points": ["a"], "dims": [1]}, "sets": {"M": [[[0.0]]]}})
        )
        assert main(["cyclic", str(path)]) == 0
        captured = capsys.readouterr()
        out = _report(captured.out)
        assert out["radius"] == 1e-9 and captured.err == ""
        assert all(r["verified"] is True for r in out["results"].values())

    def test_analyze_config_holds_the_effective_delta(self, ext_doc, capsys):
        assert main(["analyze", ext_doc]) == 0
        out = _report(capsys.readouterr().out)
        assert out["config"]["delta"] == [0.25, 0.1]
        thresholds = out["cross_check"]["egoroff_thresholds"]
        assert [str(d) for d in out["config"]["delta"]] == list(thresholds)

    def test_counterexample_csv(self, capsys):
        assert main(["counterexample", "--n", "8", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("coordinate,net_1")
        assert len(lines) == 10  # 8 coordinates + tail + header
        last_net = [float(row.split(",")[-1]) for row in lines[1:]]
        assert max(last_net) <= np.sqrt(2) + 1e-9

    def test_counterexample_with_delta(self, capsys):
        assert main(["counterexample", "--n", "8", "--delta", "0.25"]) == 0
        out = _report(capsys.readouterr().out)
        assert out["egoroff"]["0.25"]["m"] == 2

    def test_missing_file(self, capsys):
        assert main(["tob", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("argv", [["tob"], ["selftest", "--fixture"]])
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda p: p.mkdir(), "cannot read: Is a directory"),
            (lambda p: p.write_bytes(b"\xff\xfe{}"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (lambda p: p.write_text("[" * 100_000 + "]" * 100_000), "nested too deeply"),
        ],
        ids=["directory", "utf16-bom", "deep"],
    )
    def test_unreadable_input_exits_2(self, tmp_path, argv, make, message, capsys):
        path = tmp_path / "doc.json"
        make(path)
        assert main(argv + [str(path)]) == 2
        assert capsys.readouterr().err == f"schema: {path}: {message}\n"

    def test_overlong_integer_literal_exits_2(self, tmp_path, capsys):
        # beyond Python's digit limit for int() where it has one, beyond the
        # float range everywhere
        path = _write(tmp_path, "doc.json", _sets_text("9" * 5000))
        assert main(["tob", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("schema: ")

    @pytest.mark.parametrize("target", ["missing/o.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_exits_2(self, sets_doc, tmp_path, target, capsys):
        out = str(tmp_path / target)
        assert main(["tob", sets_doc, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"latnorm tob: error: argument --out: cannot write {out!r}: ")
        assert err.count("\n") == 1

    def test_closed_stdout_exits_2(self, tmp_path, monkeypatch, capsys):
        with open(tmp_path / "stdout", "wb") as fh:
            monkeypatch.setattr("sys.stdout", ClosedPipe(fh))
            assert main(["counterexample", "--n", "40", "--format", "csv"]) == 2
            # the descriptor now writes to devnull, so the flush at exit is silent
            fh.write(b"dropped")
            fh.flush()
        assert (tmp_path / "stdout").read_bytes() == b""
        assert capsys.readouterr().err == (
            "latnorm counterexample: error: cannot write the report: stdout is closed\n"
        )

    def test_selftest_closed_stdout_exits_2(self, tmp_path, monkeypatch, capsys):
        results = [CheckResult("a.holds", True), CheckResult("b.broken", False, "why")]
        monkeypatch.setattr("latnorm.checks.run_all", lambda seed, fixture: results)
        with open(tmp_path / "stdout", "wb") as fh:
            with monkeypatch.context() as m:
                m.setattr("sys.stdout", ClosedPipe(fh))
                assert main(["selftest"]) == 2
            fh.write(b"dropped")
            fh.flush()
        assert (tmp_path / "stdout").read_bytes() == b""
        assert capsys.readouterr().err == (
            "latnorm selftest: error: cannot write the report: stdout is closed\n"
        )
        # with stdout open, the failing suite prints and exits 1
        assert main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS a.holds (0.000 s)",
            "FAIL b.broken (0.000 s)  (why)",
            "1/2 invariants hold (0.000 s)",
        ]

    @pytest.mark.parametrize("command", ["cyclic", "zonotope"])
    def test_csv_not_offered_without_a_csv_rendering(self, command, sets_doc, capsys):
        assert main([command, sets_doc, "--format", "csv"]) == 2
        assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err

    def test_tob_csv_without_F_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "doc.json", _sets_text("1.0"))
        assert main(["tob", path, "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema: $.sets.F: ") and err.count("\n") == 1
        assert main(["tob", path, "--format", "text"]) == 0

    def test_bad_eps_rejected(self, sets_doc):
        assert main(["tob", sets_doc, "--eps", "-1"]) == 2

    @pytest.mark.parametrize("flag", ["--eps", "--delta", "--radius"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, ext_doc, sets_doc, flag, value, capsys):
        command = ["cyclic", sets_doc] if flag == "--radius" else ["analyze", ext_doc]
        assert main(command + [f"{flag}={value}"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_cap_below_one_rejected(self, ext_doc):
        assert main(["analyze", ext_doc, "--cap", "0"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["counterexample", "--n", "1"], "argument --n: '1' is not an integer >= 2"),
            (["cyclic", "{sets}", "--radius", "-1"], "argument --radius: '-1' is not positive"),
            (["cyclic", "{sets}", "--radius", "nan"], "argument --radius: 'nan' is not positive"),
            (["zonotope", "{sets}", "--solver-tol", "0"], "argument --solver-tol: '0' is not positive"),
            (["zonotope", "{sets}", "--max-iter", "0"], "argument --max-iter: '0' is not an integer >= 1"),
            (["zonotope", "{sets}", "--tol", "1e-9"], "unrecognized arguments: --tol"),
            (["selftest", "--tol", "1e-9"], "unrecognized arguments: --tol"),
            (["cyclic", "{sets}", "--eps", "0.5", "--radius=-1"], "argument --radius: '-1' is not positive"),
            (["cyclic", "{sets}", "--radius", "0"], "argument --radius: '0' is not positive"),
            (["cyclic", "{sets}", "--radius", "1e999"], "argument --radius: '1e999' is not positive"),
            (["counterexample", "--n", "4", "--tol", "1e-9"], "unrecognized arguments: --tol"),
            (["tob", "{sets}", "--tol", "1e-3"], "unrecognized arguments: --tol"),
            (["cyclic", "{sets}", "--tol", "0"], "unrecognized arguments: --tol"),
        ],
    )
    def test_bad_option_values_exit_2(self, ext_doc, sets_doc, argv, message, capsys):
        argv = [a.format(ext=ext_doc, sets=sets_doc) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "counterexample" in capsys.readouterr().out

    def test_budget_below_tail_mass_exits_2(self, capsys):
        assert main(["counterexample", "--n", "4", "--delta", "0.001"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("counterexample: budget 0.001 is below the tail mass")
        assert "Traceback" not in err

    def test_unreachable_cyclic_radius_exits_1(self, sets_doc, capsys):
        assert main(["cyclic", sets_doc, "--radius", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cyclic: no candidate of size <= 3 reaches defect")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_counterexample_table_equals_defect_per_net(self, capsys):
        for n in range(2, 17):
            assert main(["counterexample", "--n", str(n)]) == 0
            table = _report(capsys.readouterr().out)["defect_table"]
            _, M, F_n = build_counterexample(n)
            nets = [F_n.subset(range(m + 1)) for m in range(1, n + 1)]
            expected = np.stack([defect(M, F).value.values for F in nets], axis=1)
            assert table == expected.tolist()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{ext}"],
            ["tob", "{sets}"],
            ["zonotope", "{sets}", "--eps", "5.0"],
            ["cyclic", "{sets}"],
            ["counterexample", "--n", "6", "--delta", "0.25"],
        ],
    )
    def test_json_reports_hold_no_internal_keys(self, ext_doc, sets_doc, tmp_path, argv):
        target = tmp_path / "report.json"
        argv = [a.format(ext=ext_doc, sets=sets_doc) for a in argv]
        assert main(argv + ["--out", str(target)]) == 0

        def keys(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k
                    yield from keys(v)
            elif isinstance(node, list):
                for v in node:
                    yield from keys(v)

        leaked = [k for k in keys(_report(target.read_text())) if k.startswith("_")]
        assert leaked == []

    def test_analyze_validates_once(self, ext_doc, monkeypatch, capsys):
        import latnorm.cli as cli
        import latnorm.systems as systems

        calls = []
        real = systems.validate_extension

        def counted(ext):
            calls.append(ext)
            return real(ext)

        monkeypatch.setattr(cli, "validate_extension", counted)
        monkeypatch.setattr(systems, "validate_extension", counted)
        assert main(["analyze", ext_doc]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_group_cap_exit_code(self, ext_doc, capsys):
        assert main(["analyze", ext_doc, "--cap", "2"]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_symmetric_nine_points(self, tmp_path, capsys):
        # |S_9| = 362880 exceeds the default cap; the orbits have 9 elements
        path = tmp_path / "s9.json"
        path.write_text(json.dumps(extension_to_json(symmetric_extension(9, 1))))
        assert main(["analyze", str(path)]) == 0
        out = _report(capsys.readouterr().out)
        assert out["discrete_spectrum"] is True and out["kronecker_dim"] == 9
        assert main(["analyze", str(path), "--cap", "9"]) == 0
        _report(capsys.readouterr().out)
        assert main(["analyze", str(path), "--cap", "8"]) == 3
        assert "orbit exceeds cap 8" in capsys.readouterr().err

    def test_solver_limit_exit_code(self, sets_doc, capsys):
        code = main(
            ["zonotope", sets_doc, "--solver-tol", "1e-14", "--max-iter", "1"]
        )
        assert code == 4
        assert "best values found" in capsys.readouterr().err

    def test_analyze_csv_ap_table(self, ext_doc, capsys):
        assert main(["analyze", ext_doc, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("basis_index,verdict")
        assert len(out.strip().splitlines()) == 5  # header + 4 basis functions

    def test_analyze_identity_extension(self, tmp_path, capsys):
        from latnorm.fixtures import identity_extension

        path = tmp_path / "ident.json"
        path.write_text(json.dumps(extension_to_json(identity_extension(4))))
        assert main(["analyze", str(path)]) == 0
        out = _report(capsys.readouterr().out)
        assert out["discrete_spectrum"] is True
        assert all(
            v == 0.0 for v in out["cross_check"]["subspace_distances"].values()
        )

    def test_analyze_tiny_fiber_weight(self, tmp_path, capsys):
        # a valid extension whose second fiber weighs 2e-21: every finite
        # extension has discrete spectrum, whatever its fibers weigh
        doc = {
            "space": {"points": ["x0", "x1", "x2", "x3"], "weights": [0.5, 0.5, 1e-21, 1e-21]},
            "generators": [[1, 0, 3, 2]],
            "factor": {
                "base_space": {"points": ["y0", "y1"], "weights": [1.0, 2e-21]},
                "map": [0, 0, 1, 1],
                "base_generators": [[0, 1]],
            },
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 0
        out = _report(capsys.readouterr().out)
        assert out["kronecker_dim"] == 4 and out["discrete_spectrum"] is True
        corollary = out["cross_check"]["corollary"]
        assert corollary["ap_dense"] is True and corollary["tob_dense"] is True

    def test_analyze_tiny_point_weight(self, tmp_path, capsys):
        # a point holding 1e-20 of its fiber's weight still generates its
        # line: the rank cut is relative to the largest singular value
        doc = {
            "space": {"points": ["x0", "x1"], "weights": [1.0, 1e-20]},
            "generators": [[0, 1]],
            "factor": {
                "base_space": {"points": ["y0"], "weights": [1.0]},
                "map": [0, 0],
                "base_generators": [[0]],
            },
        }
        path = tmp_path / "tiny_point.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 0
        out = _report(capsys.readouterr().out)
        assert out["kronecker_dim"] == 2 and out["discrete_spectrum"] is True
        assert all(v == 0.0 for v in out["cross_check"]["subspace_distances"].values())

    def test_deterministic_reports(self, sets_doc, capsys):
        assert main(["tob", sets_doc, "--eps", "0.5"]) == 0
        first = capsys.readouterr().out
        _report(first)
        assert main(["tob", sets_doc, "--eps", "0.5"]) == 0
        assert capsys.readouterr().out == first
        assert main(["counterexample", "--n", "6", "--format", "csv"]) == 0
        table1 = capsys.readouterr().out
        assert main(["counterexample", "--n", "6", "--format", "csv"]) == 0
        assert capsys.readouterr().out == table1

    def test_consecutive_calls_do_not_share_values(self, ext_doc, sets_doc, capsys):
        def config(argv):
            assert main(argv) == 0
            return _report(capsys.readouterr().out)["config"]

        first = config(["tob", sets_doc, "--eps", "0.3", "--eps", "0.7"])
        assert first["eps"] == [0.3, 0.7]
        analyze = config(["analyze", ext_doc, "--eps", "0.4", "--delta", "0.2"])
        assert analyze["eps"] == [0.4] and analyze["delta"] == [0.2]
        cyclic = config(["cyclic", sets_doc])
        assert cyclic["eps"] == [0.5, 0.1]
        assert "delta" not in cyclic and "cap" not in cyclic
        assert config(["tob", sets_doc]) == {**first, "eps": [0.5, 0.1]}
        assert config(["tob", sets_doc, "--eps", "0.3", "--eps", "0.7"]) == first
        assert build_parser() is build_parser()

    def test_out_file(self, ext_doc, tmp_path):
        target = tmp_path / "report.json"
        assert main(["analyze", ext_doc, "--out", str(target)]) == 0
        assert _report(target.read_text())["discrete_spectrum"] is True


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "invariants hold" in out
        *checks, total = out.splitlines()
        seconds = [float(re.fullmatch(r"PASS \S+ \((\d+\.\d{3}) s\)", c)[1]) for c in checks]
        hold = re.fullmatch(r"(\d+)/\1 invariants hold \((\d+\.\d{3}) s\)", total)
        assert int(hold[1]) == len(checks)
        assert abs(float(hold[2]) - sum(seconds)) <= 1e-3 * len(checks)

    def test_broken_fixture_fails_named(self, tmp_path, capsys):
        doc = extension_to_json(rotation_extension(4, 2))
        doc["factor"]["base_space"]["weights"] = [0.6, 0.4]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["selftest", "--fixture", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL fixture.extension-valid" in out


class ClosedPipe:
    """A stdout whose reader has gone: every write raises."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fh.fileno()


def _report(text):
    """An exit-0 JSON report, checked against its command's declared keys."""
    report = json.loads(text)
    check_keys(report)
    return report


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _sets_text(entry):
    """A one-point, one-dimensional finite-set document whose only entry is
    the JSON text ``entry``."""
    return '{"space": {"points": ["a"], "dims": [1]}, "sets": {"M": [[[%s]]]}}' % entry


class TestDocumentNumbers:
    @pytest.mark.parametrize("command", ["tob", "cyclic", "zonotope"])
    @pytest.mark.parametrize(
        "entry", ["NaN", "Infinity", "-Infinity", "[1e400, 0]", "[0, NaN]", str(10**400)]
    )
    def test_non_finite_entries_exit_2(self, tmp_path, command, entry, capsys):
        path = _write(tmp_path, "doc.json", _sets_text(entry))
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err == "schema: $.sets.M[0][0][0]: expected finite numbers\n"

    @pytest.mark.parametrize("command", ["tob", "cyclic", "zonotope"])
    @pytest.mark.parametrize(
        "entry",
        ["1e151", "-1e308", "[0, 1e200]", "[-1e160, 1]", pytest.param(str(10**151), id="10**151")],
    )
    def test_entries_above_the_bound_exit_2(self, tmp_path, command, entry, capsys):
        path = _write(tmp_path, "doc.json", _sets_text(entry))
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err == "schema: $.sets.M[0][0][0]: expected |re| and |im| at most 1e150\n"

    @pytest.mark.parametrize(
        "entry", ["1e150", "-1e150", "[1e150, -1e150]", pytest.param(str(10**150), id="10**150")]
    )
    def test_entries_at_the_bound_accepted(self, tmp_path, entry, capsys):
        path = _write(tmp_path, "doc.json", _sets_text(entry))
        assert main(["cyclic", path]) == 0
        report = _report(capsys.readouterr().out)
        assert math.isfinite(report["radius"])

    @pytest.mark.parametrize(
        "command, sets, paths",
        [
            # a traceback from the solver's linear algebra before the bound
            ("zonotope", {"M": [[[0]]], "F": [[[1]], [[1e300]], [[[1e308, 1e308]]]]},
             ["$.sets.F[1][0][0]", "$.sets.F[2][0][0]"]),
            # 10,000 iterations and a NaN best value before the bound
            ("zonotope", {"M": [[[0]]], "F": [[[1e308]]]}, ["$.sets.F[0][0][0]"]),
            # exit 0 with a radius of Infinity before the bound
            ("cyclic", {"M": [[[1e308, 1e308]], [[-1e308, 0]]]},
             ["$.sets.M[0][0][0]", "$.sets.M[0][0][1]", "$.sets.M[1][0][0]"]),
        ],
    )
    def test_near_float_maximum_reproductions(self, tmp_path, command, sets, paths, capsys):
        dims = [len(sets["M"][0][0])]
        doc = {"space": {"points": ["a"], "dims": dims}, "sets": sets}
        assert main([command, _write(tmp_path, "doc.json", json.dumps(doc))]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"schema: {p}: expected |re| and |im| at most 1e150" for p in paths]

    @pytest.mark.parametrize(
        "dims, message",
        [
            ([1.5], "expected an integer, got 1.5"),
            ([True], "expected an integer, got bool"),
            (["1"], "expected an integer, got str"),
        ],
    )
    def test_dims_take_integers_only(self, tmp_path, dims, message, capsys):
        doc = {"space": {"points": ["a"], "dims": dims}, "sets": {"M": [[[1.0]]]}}
        path = _write(tmp_path, "doc.json", json.dumps(doc))
        assert main(["tob", path]) == 2
        assert capsys.readouterr().err == f"schema: $.space.dims[0]: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["space"]["weights"].__setitem__(0, math.nan),
             "$.space.weights[0]: expected a finite number, got nan"),
            (lambda d: d["space"]["weights"].__setitem__(1, 10**400),
             "$.space.weights[1]: expected a finite number, got an integer beyond the float range"),
            (lambda d: d["generators"].__setitem__(0, 5),
             "$.generators[0]: expected a list, got int"),
            (lambda d: d["space"]["weights"].__setitem__(2, "0.25"),
             "$.space.weights[2]: expected a finite number, got str"),
            (lambda d: d["generators"][0].__setitem__(3, 10**30),
             "$.generators[0]: entries must lie in 0..3"),
            (lambda d: d["generators"][0].__setitem__(0, True),
             "$.generators[0]: permutation entries must be integers"),
            (lambda d: d["factor"]["base_generators"][0].__setitem__(0, False),
             "$.factor.base_generators[0]: permutation entries must be integers"),
            (lambda d: d["factor"]["map"].__setitem__(1, True),
             "$.factor.map[1]: expected an integer, got bool"),
        ],
    )
    def test_extension_fields_checked(self, tmp_path, edit, message, capsys):
        doc = extension_to_json(rotation_extension(4, 2))
        edit(doc)
        path = _write(tmp_path, "ext.json", json.dumps(doc))
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err == f"schema: {message}\n"


def _random_entry(rng, kind, huge):
    """One document entry: a number (float, int, bool or -0.0) or a pair.
    Ints reach past int64; with ``huge``, past uint64 too."""
    big = [2**53 + 1, 2**63 - 1, -(2**63), 2**63 + 1] + [10**30] * huge

    def number():
        pick = rng.integers(6)
        if pick == 0:
            return bool(rng.integers(2))
        if pick == 1:
            return int(rng.integers(-50, 50))
        if pick == 2:
            return -0.0
        if pick == 3:
            return big[int(rng.integers(len(big)))]
        return float(rng.standard_normal() * 10.0 ** rng.integers(-5, 5))

    if kind == "mixed":
        kind = "number" if rng.integers(2) else "pair"
    return number() if kind == "number" else [number(), number()]


def _random_sets(rng, dims, uniform):
    """Named sets on the given dims. With ``uniform``, every entry of one
    fiber across a set is of one kind (all numbers or all pairs) and every
    int converts to a float array; otherwise the kinds vary from entry to
    entry in some fibers, and some ints do not fit in 64 bits."""
    sets = {}
    for name in ("M", "F", "G")[: rng.integers(1, 4)]:
        n = int(rng.integers(0, 7))
        kinds = [
            "mixed" if not uniform and rng.integers(2) else str(rng.choice(["number", "pair"]))
            for _ in dims
        ]
        sets[name] = [
            [[_random_entry(rng, kinds[w], not uniform) for _ in range(d)] for w, d in enumerate(dims)]
            for _ in range(n)
        ]
    return sets


_BAD_ENTRIES = [math.nan, math.inf, -math.inf, 10**400, [1e308, math.inf], "1", None,
                [1], [1, 2, 3], [1, "2"], {"re": 1}, [[1, 2]], 1e151, [0, -10**200]]


def _corrupt(rng, sets):
    """Break one random place of a set: the whole set, an element, a fiber
    or an entry (a place broken before is broken again as a whole)."""
    name = str(rng.choice(list(sets)))
    elements = sets[name]
    pick = int(rng.integers(4))
    if pick == 0 or not isinstance(elements, list) or not elements:
        sets[name] = [{"not": "a list"}, 7][int(rng.integers(2))]
        return
    i = int(rng.integers(len(elements)))
    elem = elements[i]
    if pick == 1 or not isinstance(elem, list) or not elem:
        elements[i] = [[], "element"][int(rng.integers(2))]
        return
    w = int(rng.integers(len(elem)))
    if pick == 2 or not isinstance(elem[w], list) or not elem[w]:
        elem[w] = [elem[w] + [0.0] if isinstance(elem[w], list) else [], 3.0][int(rng.integers(2))]
        return
    k = int(rng.integers(len(elem[w])))
    elem[w][k] = _BAD_ENTRIES[int(rng.integers(len(_BAD_ENTRIES)))]


class TestArrayParsing:
    def _check(self, doc, dims, monkeypatch=None):
        stacks, diags = per_scalar_sets(doc["sets"], dims)
        if diags:
            with pytest.raises(SchemaError) as exc:
                parse_finite_set_doc(doc)
            assert exc.value.diagnostics == diags
            return
        _, sets = parse_finite_set_doc(doc)
        assert list(sets) == list(stacks)
        for name, ref in stacks.items():
            assert [s.tobytes() for s in sets[name].stacks] == [s.tobytes() for s in ref]

    def test_equals_per_scalar_oracle(self, monkeypatch):
        import latnorm.serialize as serialize

        rng = np.random.default_rng(60)
        for _ in range(300):
            dims = [int(d) for d in rng.integers(1, 5, size=rng.integers(1, 5))]
            doc = {
                "space": {"points": [f"w{i}" for i in range(len(dims))], "dims": dims},
                "sets": _random_sets(rng, dims, uniform=True),
            }
            # uniform fibers of finite numbers never reach the per-scalar loop
            with monkeypatch.context() as m:
                m.setattr(serialize, "_parse_scalar", None)
                self._check(doc, dims)
            doc["sets"] = _random_sets(rng, dims, uniform=False)
            self._check(doc, dims)

    def test_malformed_documents_give_the_oracle_diagnostics(self):
        rng = np.random.default_rng(61)
        failed = 0
        for _ in range(300):
            dims = [int(d) for d in rng.integers(1, 4, size=rng.integers(1, 4))]
            sets = _random_sets(rng, dims, uniform=bool(rng.integers(2)))
            for _ in range(rng.integers(1, 4)):
                _corrupt(rng, sets)
            doc = {"space": {"points": [f"w{i}" for i in range(len(dims))], "dims": dims}, "sets": sets}
            failed += bool(per_scalar_sets(sets, dims)[1])
            self._check(doc, dims)
        assert failed >= 250


# a document whose defects are exact: one real dimension per point, dyadic
# entries, so each distance is the absolute difference of two entries
CSV_SETS = {
    "space": {"points": ["a", "b"], "dims": [1, 1]},
    "sets": {
        "M": [[[1.0], [0.5]], [[-0.5], [0.25]], [[0.25], [-1]]],
        "F": [[[1.0], [0.5]], [[0], [0]]],
    },
}
CSV_BYTES = {
    "tob": "point,defect\na,0.5\nb,1.0\n",
    "analyze": (
        "basis_index,verdict,witness_size_eps_0.5,witness_size_eps_0.25\n"
        + "".join(f"{i},True,4,4\n" for i in range(4))
    ),
    "counterexample": "coordinate,net_1,net_2\n1,0.0,0.0\n2,1.0,0.0\ntail,0.0,0.0\n",
}


class TestCsvBytes:
    """Each CSV report ends in one newline, on stdout and in an ``--out``
    file alike."""

    @pytest.mark.parametrize("command", sorted(CSV_BYTES))
    def test_stdout_and_out_file(self, command, ext_doc, tmp_path, capsys):
        argv = {
            "tob": ["tob", _write(tmp_path, "sets.json", json.dumps(CSV_SETS))],
            "analyze": ["analyze", ext_doc],
            "counterexample": ["counterexample", "--n", "2"],
        }[command] + ["--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == CSV_BYTES[command]
        target = tmp_path / "report.csv"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == CSV_BYTES[command].encode()


class TestCompactReports:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{ext}"],
            ["tob", "{sets}"],
            ["zonotope", "{sets}", "--eps", "5.0"],
            ["cyclic", "{sets}"],
            ["counterexample", "--n", "6", "--delta", "0.25"],
        ],
    )
    def test_one_line_with_the_indented_value(self, ext_doc, sets_doc, argv, monkeypatch, capsys):
        payloads = []
        real = json.dumps

        def recording(obj, **kwargs):
            payloads.append(obj)
            return real(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", recording)
        assert main([a.format(ext=ext_doc, sets=sets_doc) for a in argv]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        indented = real(payloads[-1], indent=2, default=str)
        assert _report(out) == json.loads(indented)


class TestSharedTobTraversal:
    def test_one_traversal_and_one_recheck_per_witness(self, tmp_path, monkeypatch, capsys):
        import latnorm.fibered as fibered

        rng = np.random.default_rng(62)
        space = random_fiber_space(rng, 3, 3)
        M = finite_set_to_json(random_finite_set(rng, space, 30))
        path = _write(tmp_path, "m.json", json.dumps({"space": M["space"], "sets": {"M": M["elements"]}}))
        built, defects = [], []
        real_init, real_defect = fibered.Traversal.__init__, fibered.defect
        monkeypatch.setattr(fibered.Traversal, "__init__", lambda t, M: built.append(len(M)) or real_init(t, M))
        monkeypatch.setattr(fibered, "defect", lambda M, F: defects.append(len(F)) or real_defect(M, F))
        eps_values = ["0.5", "4.0", "0.5", "1.5", "0.9"]
        argv = ["tob", path] + [a for e in eps_values for a in ("--eps", e)]
        assert main(argv) == 0
        sizes = [v["witness_size"] for v in _report(capsys.readouterr().out)["utob"].values()]
        assert len(set(sizes)) >= 3 and 1 < max(sizes) < 30
        assert built == [30]  # one traversal for every eps
        assert sorted(defects) == sorted(set(sizes))



# the CI document: element 2 has norm sqrt(2) at b, so a ball of radius 1.2
# cuts it there
CI_SETS = {
    "space": {"points": ["a", "b"], "dims": [1, 2]},
    "sets": {"M": [[[1.0], [0.5, [0, 1]]], [[-0.5], [0, 0.25]], [[0.25], [[1, -1], 0]]]},
}


class TestCyclicReport:
    def test_bytes_equal_the_per_part_rendering(self, tmp_path, capsys):
        rng = np.random.default_rng(63)
        seen = {"reports": 0, "cut": 0, "zero fibers": 0, "part counts": 0}
        for trial in range(60):
            space = random_fiber_space(rng, 5, 4)
            M = random_finite_set(rng, space, int(rng.integers(1, 16)))
            stacks = []
            for s in M.stacks:
                s = s.copy()
                s.real[rng.random(s.shape) < 0.2] = rng.choice([0.0, -0.0])
                s.imag[rng.random(s.shape) < 0.2] = rng.choice([0.0, -0.0])
                s[rng.random(len(M)) < 0.2] = rng.choice([0.0, complex(-0.0, -0.0)])
                stacks.append(s)
            M = FiniteSet(space, stacks, len(M))
            doc = finite_set_to_json(M)
            path = _write(tmp_path, "m.json", json.dumps({"space": doc["space"], "sets": {"M": doc["elements"]}}))
            sup = M.norm_sup().sup_norm()
            # a truncating radius: levels that its ball's candidates can reach
            levels = [1.2, 1.0, 0.9] if trial % 2 else [1.5, 0.6, 0.3, 0.15]
            eps_values = [float(e) * sup for e in rng.choice(levels, int(rng.integers(1, 4)), replace=False)]
            argv = ["cyclic", path] + [a for e in eps_values for a in ("--eps", repr(e))]
            if trial % 2:
                argv += ["--radius", repr(0.45 * sup)]
            rc = main(argv)
            captured = capsys.readouterr()
            if rc == 1 and captured.err.startswith("cyclic: "):
                continue  # no truncated candidate covers at some eps
            assert rc in (0, 1)
            report = json.loads(captured.out)
            results = report.pop("results")
            M = parse_finite_set_doc(json.loads(Path(path).read_text()))[1]["M"]
            witnesses = [(eps, per_prefix_cyclic_witness(M, eps, report["radius"])) for eps in eps_values]
            verdicts = [dense_verify_cyclic(M, eps, parts) for eps, parts in witnesses]
            assert captured.out == per_part_cyclic_report(report, witnesses, verdicts) + "\n"
            assert len(results) == len(eps_values)
            seen["reports"] += 1
            seen["cut"] += bool(np.any(M.norms() > 2 * report["radius"] + 1e-9))
            seen["zero fibers"] += any(not q.mask.all() for _, parts in witnesses for q, _ in parts)
            seen["part counts"] += len({len(parts) for _, parts in witnesses}) > 1
        assert min(seen.values()) > 0, seen

    def test_one_chain_per_command(self, tmp_path, monkeypatch, capsys):
        import latnorm.fibered as fibered
        import latnorm.mixing as mixing

        path = _write(tmp_path, "sets.json", json.dumps(CI_SETS))
        built, prefixes = [], []
        real_init, real_prefix = fibered.Traversal.__init__, mixing.prefix_defects
        monkeypatch.setattr(fibered.Traversal, "__init__", lambda t, M: built.append(len(M)) or real_init(t, M))
        monkeypatch.setattr(mixing, "prefix_defects", lambda M, F: prefixes.append(len(F)) or real_prefix(M, F))
        # the ball of radius 10 holds M: one traversal for every eps
        assert main(["cyclic", path, "--radius", "5", "--eps", "0.5", "--eps", "0.25", "--eps", "0.1"]) == 0
        assert (built, prefixes) == ([3], [])
        built.clear()
        # a truncating radius: one traversal of the truncated set, one table
        # of M's prefix defects, for both eps
        assert main(["cyclic", path, "--radius", "0.6", "--eps", "2", "--eps", "1.5"]) == 0
        assert (built, prefixes) == ([3], [3])
        results = _report(capsys.readouterr().out.splitlines()[-1])["results"]
        assert all(r["verified"] is True for r in results.values())


def _run_limited(tmp_path, body, limit=1536 * 2**20):
    """Run body in a child process that imports numpy and latnorm and then
    limits its address space to limit bytes."""
    script = (
        "import resource, sys\n"
        "import numpy as np\n"
        "import latnorm, latnorm.cli\n"
        "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        f"limit = {limit} if hard == resource.RLIM_INFINITY else min({limit}, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n" + body
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no RLIMIT_AS here")
class TestTraversalTable:
    """|M| = 20,000 over one point of dim 1 asks for a 3.2 GB traversal
    table. Under a 1.5 GB address-space limit, set in a child process once
    numpy and latnorm are imported, the allocation fails and the traversal
    raises ``SizeCapError``; commands exit 3 with one line on stderr."""

    N = 20_000

    def _names_the_size(self, text):
        return f"|M| = {self.N}" in text and "P = 1 " in text and str(8 * self.N**2) in text

    def test_library_raises_size_cap_error(self, tmp_path):
        proc = _run_limited(
            tmp_path,
            "space = latnorm.FiberSpace(latnorm.PointSet(['a']), (1,))\n"
            f"stack = np.arange({self.N}, dtype=complex)[:, None]\n"
            f"M = latnorm.FiniteSet(space, [stack], {self.N})\n"
            "try:\n"
            "    latnorm.Traversal(M)\n"
            "except latnorm.SizeCapError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(0)\n"
            "sys.exit('no SizeCapError')\n",
        )
        assert proc.returncode == 0, proc.stderr
        assert self._names_the_size(proc.stdout), proc.stdout

    def test_tob_exits_3_with_one_line(self, tmp_path):
        doc = {
            "space": {"points": ["a"], "dims": [1]},
            "sets": {"M": [[[i / self.N]] for i in range(self.N)]},
        }
        (tmp_path / "big.json").write_text(json.dumps(doc))
        proc = _run_limited(tmp_path, "sys.exit(latnorm.cli.main(['tob', 'big.json']))\n")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cap exceeded: "), proc.stderr
        assert self._names_the_size(lines[0])


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no RLIMIT_AS here")
def test_net_over_the_cap_is_refused_before_its_grid(tmp_path):
    """``heine_borel_net(basis, 10.0, 1e-3)`` on a rank-2 basis needs a disc
    grid of 20,000 rings, 9 GiB, and 2 * 20001^2 rows at least, over the
    default cap of 10^6. Under a 1.5 GB address-space limit it raises
    ``SizeCapError`` before the grid is built: no ``MemoryError``, no kill."""
    proc = _run_limited(
        tmp_path,
        "space = latnorm.FiberSpace(latnorm.PointSet(['a']), (2,))\n"
        "basis = latnorm.FiniteSet(space, [np.eye(2, dtype=complex)], 2)\n"
        "try:\n"
        "    latnorm.heine_borel_net(basis, 10.0, 1e-3)\n"
        "except latnorm.SizeCapError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit('no SizeCapError')\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("net would need at least 2*20001^2 > cap 1000000;"), proc.stdout


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no RLIMIT_AS here")
def test_rotation_over_itself_at_1000_points(tmp_path):
    """The rotation on 1,000 points over itself, under a 1.5 GB address-space
    limit: ``kronecker_subspace`` traverses nothing and finds all 1,000
    dimensions, and ``analyze`` on its document exits 0, or exits 3 with one
    ``cap exceeded:`` line, where its (1000, 1000, 1000) traversal table
    cannot be allocated. It is never killed and prints no traceback."""
    n = 1000
    ext = rotation_extension(n, n)
    (tmp_path / "ext.json").write_text(json.dumps(extension_to_json(ext)))
    proc = _run_limited(
        tmp_path,
        "from latnorm.fixtures import rotation_extension\n"
        f"print(latnorm.kronecker_subspace(rotation_extension({n}, {n})).dim)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{n}\n"
    proc = _run_limited(tmp_path, "sys.exit(latnorm.cli.main(['analyze', 'ext.json']))\n")
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 3:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cap exceeded: "), proc.stderr


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no RLIMIT_AS here")
def test_counterexample_too_large_exits_3_with_one_line(tmp_path):
    """``--n 100000`` asks for 8.0e20 bytes: refused at once, under a 1.5 GB
    address-space limit too, as ``SizeCapError`` naming n and the bytes."""
    n = 100_000
    proc = _run_limited(tmp_path, f"sys.exit(latnorm.cli.main(['counterexample', '--n', '{n}']))\n")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cap exceeded: "), proc.stderr
    size = n * (n + 1) // 2
    assert f"n = {n} " in lines[0] and str(16 * (n + 1) * size * n) in lines[0]


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no RLIMIT_AS here")
def test_counterexample_delta_writes_no_copy_of_the_model(tmp_path):
    """Under a 3 GB address-space limit, the peak RSS that ``--n 100 --delta
    0.05`` adds stays a fraction of the model's 816 MB, which a dense copy
    ``kept * M`` of the cut set would add whole; then the cut set's bytes
    equal that copy's at small n."""
    n = 100
    model_bytes = 16 * (n + 1) * (n * (n + 1) // 2) * n
    proc = _run_limited(
        tmp_path,
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"argv = ['counterexample', '--n', '{n}', '--delta', '0.05', '--out', 'out.json']\n"
        "assert latnorm.cli.main(argv) == 0\n"
        "print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))\n"
        "for n in (5, 9, 24):\n"
        "    model = latnorm.build_counterexample(n)\n"
        "    for delta in (0.5, 0.05, 2.0**-n):\n"
        "        demo = latnorm.egoroff_demo(model, delta)\n"
        "        dense = demo.kept * model[1]\n"
        "        got = [s.tobytes() for s in demo.masked_set.stacks]\n"
        "        assert got == [s.tobytes() for s in dense.stacks], (n, delta)\n",
        limit=3 << 30,
    )
    assert proc.returncode == 0, proc.stderr
    added = int(proc.stdout)
    assert added < model_bytes / 4, (added, model_bytes)
