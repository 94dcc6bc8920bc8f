import json
import os
import random
import shutil
from fractions import Fraction

import pytest

from tropcount import catalog
from tropcount.cli import main
from tropcount.curve import MarkedPoint, TropicalCurve
from tropcount.curvefile import save_curve
from tropcount.plot import render_svg
from tropcount.realize import is_realizable
from tropcount.selftest import tuned_exact_curve

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    save_curve(catalog.theta(), str(path), catalog.theta_marks())
    return str(path)


@pytest.fixture
def theta_exact_file(tmp_path):
    rng = random.Random(53)
    curve = tuned_exact_curve(rng, catalog.theta(), Fraction(0))
    path = tmp_path / "theta_exact.json"
    save_curve(curve, str(path), catalog.theta_marks())
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_validate_good_curve(theta_file, capsys):
    code, report, err = run_json(capsys, ["validate", theta_file])
    assert code == 0
    assert err == ""
    assert report["command"] == "validate"
    assert report["valid"] is True
    assert report["problems"] == []


def test_validate_reports_problems(tmp_path, capsys):
    curve = catalog.theta()
    broken = TropicalCurve(curve.lattice, curve.vertices, curve.edges[:2])
    path = tmp_path / "broken.json"
    save_curve(broken, str(path))
    code, report, _ = run_json(capsys, ["validate", str(path)])
    assert code == 2
    assert report["valid"] is False
    assert report["problems"]


def test_parse_errors_exit_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_reports_invariants(theta_file, capsys):
    code, report, _ = run_json(capsys, ["analyze", theta_file])
    assert code == 0
    assert report["genus"] == 2
    assert report["delta"] == 1
    assert report["mode"] == "formal"
    assert report["vertex_weights"] == {"u": 1, "v": 1}
    assert report["rank_kernel"] == 2
    assert report["rank_cokernel"] == 1
    assert report["dual_flag_dimension"] == 1
    assert report["edge_weight_product"] == 1
    assert report["marked_points"] == [{"edge": "e1", "t": "1/3"},
                                       {"edge": "e2", "t": "1/2"}]


def test_realizable_formal(theta_file, capsys):
    code, report, _ = run_json(capsys, ["realizable", theta_file])
    assert code == 0
    expected = is_realizable(catalog.theta())
    assert report["verdict"] == expected.verdict_text
    assert report["sigma_agreement"] is True
    assert report["sigma_cocycle"] == str(expected.sigma)
    assert report["target"] == str(expected.target)


def test_realizable_exact(theta_exact_file, capsys):
    code, report, _ = run_json(capsys, ["realizable", theta_exact_file])
    assert code == 0
    assert report["mode"] == "exact"
    assert report["verdict"] == "realizable"
    assert report["warnings"] == []


def test_count_exact(theta_exact_file, capsys):
    code, report, _ = run_json(capsys, ["count", theta_exact_file])
    assert code == 0
    assert report["kernel_order"] == 1
    assert report["invariant_factors"] == [1] * 8
    assert report["edge_weight_product"] == 1
    assert report["total"] == 1
    assert report["verdict"] == "realizable"


def test_count_unrealizable_exits_4(theta_file, capsys):
    assert main(["count", theta_file]) == 4
    assert "error:" in capsys.readouterr().err


def test_count_wrong_mark_number_exits_5(tmp_path, capsys):
    path = tmp_path / "one_mark.json"
    rng = random.Random(59)
    curve = tuned_exact_curve(rng, catalog.theta(), Fraction(0))
    save_curve(curve, str(path), [MarkedPoint("e1", Fraction(1, 3))])
    assert main(["count", str(path)]) == 5
    assert "error:" in capsys.readouterr().err


def test_count_unknown_mark_edge_exits_5(tmp_path, capsys):
    path = tmp_path / "nope.json"
    rng = random.Random(59)
    curve = tuned_exact_curve(rng, catalog.theta(), Fraction(0))
    save_curve(curve, str(path), [MarkedPoint("nope", Fraction(1, 3)),
                                  MarkedPoint("e2", Fraction(1, 2))])
    assert main(["count", str(path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'nope'" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _numeric_doc(value: float) -> dict:
    with open(os.path.join(GOLDEN, "theta_exact.json"),
              encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["multipliers"] = {key: {"re": value, "im": 0.0}
                          for key in doc["multipliers"]}
    return doc


def _check_doc(value) -> dict:
    # flag keys of the theta system: tail and head of e1, e2, e3
    flags = {f"{v}|{e}": "1" for e in ("e1", "e2", "e3") for v in "uv"}
    flags["u|e1"] = value
    return {"flags": flags}


def _assert_one_error_line(code: int, capsys) -> None:
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["realizable", "count", "prelog"])
@pytest.mark.parametrize("doc", [
    _numeric_doc(float("nan")),
    _numeric_doc(float("inf")),
    _numeric_doc(1e308),
    {**_numeric_doc(0.5), "vertices": 5},
], ids=["nan", "inf", "1e308", "vertices-int"])
def test_hostile_curve_exits_1(doc, command, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _assert_one_error_line(main([command, str(path)]), capsys)


@pytest.mark.parametrize("value", [
    "abc", "0", {"modulus": "0"}, {"modulus": "0", "turns": "0"},
    {"re": float("nan")}, {"turns": "x/0"},
], ids=["abc", "zero", "no-turns", "zero-modulus", "nan", "bad-element"])
def test_hostile_check_value_exits_1(value, tmp_path, capsys):
    shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    check = tmp_path / "check.json"
    check.write_text(json.dumps(_check_doc(value)), encoding="utf-8")
    code = main(["prelog", str(tmp_path / "theta_exact.json"),
                 "--check", str(check)])
    _assert_one_error_line(code, capsys)


@pytest.mark.parametrize("command", ["count", "prelog"])
@pytest.mark.parametrize("name", ["theta", "theta2", "triple"])
def test_json_output_matches_golden(name, command, tmp_path, monkeypatch,
                                    capsys):
    # The prelog assignment and generators are read off the SNF transforms
    # U and V, and count prints the invariant factors, so any change to
    # snf's choice of pivots shows here byte for byte.
    source = os.path.join(GOLDEN, f"{name}_exact.json")
    shutil.copy(source, tmp_path / f"{name}_exact.json")
    monkeypatch.chdir(tmp_path)
    assert main([command, f"{name}_exact.json", "--json"]) == 0
    with open(os.path.join(GOLDEN, f"{name}_exact.{command}.out"),
              encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


def test_mode_env_and_flag_precedence(theta_file, capsys, monkeypatch):
    monkeypatch.setenv("TROPCOUNT_MODE", "exact")
    # exact comparison on a purely formal curve cannot be carried out
    assert main(["count", theta_file]) == 5
    capsys.readouterr()
    monkeypatch.setenv("TROPCOUNT_MODE", "bogus")
    assert main(["realizable", theta_file]) == 5
    assert "TROPCOUNT_MODE" in capsys.readouterr().err
    # an explicit flag wins over the environment
    assert main(["realizable", theta_file, "--mode", "formal"]) == 0
    capsys.readouterr()
    monkeypatch.delenv("TROPCOUNT_MODE")


def test_prelog_solve_formal(theta_file, capsys):
    code, report, _ = run_json(capsys, ["prelog", theta_file])
    assert code == 4
    assert report["feasible"] == "no"
    assert report["witnesses"]
    assert all(w["holds"] == "no" for w in report["witnesses"])


def test_prelog_solve_exact(theta_exact_file, capsys):
    code, report, _ = run_json(capsys, ["prelog", theta_exact_file])
    assert code == 0
    assert report["feasible"] == "yes"
    assert report["verification"] == "pass"
    assert sorted(report["assignment"]) == [
        "u|e1", "u|e2", "u|e3", "v|e1", "v|e2", "v|e3"]
    assert all(isinstance(v, dict) for v in report["assignment"].values())
    assert len(report["kernel_free_generators"]) == 2
    assert report["kernel_torsion_generators"] == []


def test_prelog_check_round_trip(theta_exact_file, tmp_path, capsys):
    code, report, _ = run_json(capsys, ["prelog", theta_exact_file])
    assert code == 0
    check = tmp_path / "check.json"
    check.write_text(json.dumps({"flags": report["assignment"]}),
                     encoding="utf-8")
    code, verdict, _ = run_json(
        capsys, ["prelog", theta_exact_file, "--check", str(check)])
    assert code == 0
    assert verdict["result"] == "pass"
    assert verdict["failing_rows"] == []
    assert verdict["rows_checked"] == 5

    doc = json.loads(check.read_text(encoding="utf-8"))
    value = doc["flags"]["u|e2"]
    turns = Fraction(value.get("turns", "0")) + Fraction(1, 10)
    value["turns"] = str(turns)
    check.write_text(json.dumps(doc), encoding="utf-8")
    code, verdict, _ = run_json(
        capsys, ["prelog", theta_exact_file, "--check", str(check)])
    assert code == 4
    assert verdict["result"] == "fail"
    assert sorted(r["row"] for r in verdict["failing_rows"]) == \
        ["edge e2", "vertex u"]


def test_prelog_check_missing_flag(theta_exact_file, tmp_path, capsys):
    check = tmp_path / "partial.json"
    check.write_text(json.dumps({"flags": {"u|e1": "1"}}), encoding="utf-8")
    assert main(["prelog", theta_exact_file, "--check", str(check)]) == 1
    assert "missing flag" in capsys.readouterr().err


def test_plot_stdout_and_file(theta_file, tmp_path, capsys):
    assert main(["plot", theta_file]) == 0
    out = capsys.readouterr().out
    assert out == render_svg(catalog.theta())
    target = tmp_path / "theta.svg"
    assert main(["plot", theta_file, "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out


def test_selftest_command(capsys):
    assert main(["selftest", "--cases", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].endswith("suites passed")
    suite_lines = out[:-1]
    assert len(suite_lines) == 9
    assert all(line.startswith("PASS ") for line in suite_lines)
