import json

import numpy as np
import pytest

from latnorm.cli import build_parser, main
from latnorm.fixtures import (
    random_fiber_space,
    random_finite_set,
    rotation_extension,
    symmetric_extension,
)
from latnorm.serialize import (
    extension_to_json,
    finite_set_to_json,
    parse_extension_doc,
    parse_finite_set_doc,
)
from latnorm.errors import SchemaError
from latnorm.fibered import defect
from latnorm.seqmodel import build_counterexample


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
        out = json.loads(capsys.readouterr().out)
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

    def test_tob_defect_and_witness(self, sets_doc, capsys):
        assert main(["tob", sets_doc, "--eps", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["utob"]["0.5"]["verdict"] is True
        assert "defect" in out

    def test_tob_self_fixture_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        space = random_fiber_space(rng, 2, 2)
        M = finite_set_to_json(random_finite_set(rng, space, 2))
        doc = {"space": M["space"], "sets": {"M": M["elements"], "F": M["elements"]}}
        path = tmp_path / "mm.json"
        path.write_text(json.dumps(doc))
        assert main(["tob", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert max(out["defect"]["value"]) == 0.0

    def test_zonotope(self, sets_doc, capsys):
        assert main(["zonotope", sets_doc, "--eps", "5.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cp_verdicts"]["5.0"] is True

    def test_cyclic(self, sets_doc, capsys):
        assert main(["cyclic", sets_doc, "--eps", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["0.5"]["verified"] is True

    def test_counterexample_csv(self, capsys):
        assert main(["counterexample", "--n", "8", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("coordinate,net_1")
        assert len(lines) == 10  # 8 coordinates + tail + header
        last_net = [float(row.split(",")[-1]) for row in lines[1:]]
        assert max(last_net) <= np.sqrt(2) + 1e-9

    def test_counterexample_with_delta(self, capsys):
        assert main(["counterexample", "--n", "8", "--delta", "0.25"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["egoroff"]["0.25"]["m"] == 2

    def test_missing_file(self, capsys):
        assert main(["tob", "/nonexistent/x.json"]) == 2

    def test_bad_eps_rejected(self, sets_doc):
        assert main(["tob", sets_doc, "--eps", "-1"]) == 2

    @pytest.mark.parametrize("flag", ["--eps", "--delta", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, ext_doc, flag, value, capsys):
        assert main(["analyze", ext_doc, f"{flag}={value}"]) == 2
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
        ],
    )
    def test_bad_option_values_exit_2(self, sets_doc, argv, message, capsys):
        argv = [a.format(sets=sets_doc) for a in argv]
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
            table = json.loads(capsys.readouterr().out)["defect_table"]
            _, M, nets = build_counterexample(n)
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

        leaked = [k for k in keys(json.loads(target.read_text())) if k.startswith("_")]
        assert leaked == []

    def test_group_cap_exit_code(self, ext_doc, capsys):
        assert main(["analyze", ext_doc, "--cap", "2"]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_symmetric_nine_points(self, tmp_path, capsys):
        # |S_9| = 362880 exceeds the default cap; the orbits have 9 elements
        path = tmp_path / "s9.json"
        path.write_text(json.dumps(extension_to_json(symmetric_extension(9, 1))))
        assert main(["analyze", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["discrete_spectrum"] is True and out["kronecker_dim"] == 9
        assert main(["analyze", str(path), "--cap", "9"]) == 0
        capsys.readouterr()
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
        out = json.loads(capsys.readouterr().out)
        assert out["discrete_spectrum"] is True
        assert all(
            v == 0.0 for v in out["cross_check"]["subspace_distances"].values()
        )

    def test_deterministic_reports(self, sets_doc, capsys):
        assert main(["tob", sets_doc, "--eps", "0.5"]) == 0
        first = capsys.readouterr().out
        assert main(["tob", sets_doc, "--eps", "0.5"]) == 0
        assert capsys.readouterr().out == first
        assert main(["counterexample", "--n", "6", "--format", "csv"]) == 0
        table1 = capsys.readouterr().out
        assert main(["counterexample", "--n", "6", "--format", "csv"]) == 0
        assert capsys.readouterr().out == table1

    def test_consecutive_calls_do_not_share_values(self, ext_doc, sets_doc, capsys):
        def config(argv):
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)["config"]

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
        assert json.loads(target.read_text())["discrete_spectrum"] is True


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "invariants hold" in out

    def test_broken_fixture_fails_named(self, tmp_path, capsys):
        doc = extension_to_json(rotation_extension(4, 2))
        doc["factor"]["base_space"]["weights"] = [0.6, 0.4]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["selftest", "--fixture", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL fixture.extension-valid" in out
