import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import tropcount
from tropcount import catalog, cli
from tropcount.cli import _json_text, _read_argv, build_parser, main
from tropcount.curve import MarkedPoint, TropicalCurve
from tropcount.curvefile import save_curve
from tropcount.errors import (ConstraintError, DegeneracyError, InfeasibleError,
                              ParseError, TropcountError, ValidationError)
from tropcount.plot import render_svg
from tropcount.realize import is_realizable
from tropcount.selftest import tuned_exact_curve
from tropcount.valuegroup import DEFAULT_TOLERANCE

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


def _golden_doc(**e1_fields) -> dict:
    """The golden theta_exact.json with fields of edge e1 replaced; a value
    of None deletes the field."""
    with open(os.path.join(GOLDEN, "theta_exact.json"),
              encoding="utf-8") as handle:
        doc = json.load(handle)
    e1 = next(e for e in doc["edges"] if e["id"] == "e1")
    for key, value in e1_fields.items():
        if value is None:
            del e1[key]
        else:
            e1[key] = value
    return doc


def _run_timed(argv, tmp_path, doc=None, text=None):
    """Run the CLI in a child process (so that a hang is cut off) and
    return (exit code, stderr, seconds)."""
    path = tmp_path / "curve.json"
    path.write_text(text if text is not None else json.dumps(doc),
                    encoding="utf-8")
    src = os.path.dirname(os.path.dirname(tropcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tropcount.cli", *argv, str(path)],
        env=env, capture_output=True, text=True, timeout=HOSTILE_SECONDS)
    return proc.returncode, proc.stderr, time.perf_counter() - start


#: wall-time bound of one hostile-input run; each used to take minutes
HOSTILE_SECONDS = 10


def _modulus_doc(modulus: str) -> dict:
    doc = _golden_doc()
    doc["multipliers"]["alpha11"]["modulus"] = modulus
    return doc


@pytest.mark.parametrize("doc,text", [
    (_golden_doc(length="1e100000000"), None),
    (_modulus_doc(str(1048583 * 1048589)), None),
    (_modulus_doc(str(2 ** 89 - 1)), None),
    (None, json.dumps(_golden_doc()).replace(
        '"weight_vector": [1, 0]', '"weight_vector": [1' + "0" * 5000
        + ', 0]', 1)),
], ids=["length-1e100000000", "modulus-two-large-primes",
        "modulus-unprovable-prime", "json-int-5001-digits"])
def test_hostile_input_refused_in_bounded_time(doc, text, tmp_path):
    code, err, seconds = _run_timed(["realizable"], tmp_path, doc, text)
    assert (code, err.count("\n")) == (1, 1), err
    assert err.startswith("error: ") and "Traceback" not in err
    assert seconds < HOSTILE_SECONDS


@pytest.mark.parametrize("command", ["realizable", "count"])
@pytest.mark.parametrize("doc", [
    _modulus_doc("1000000000000000003"),
    _golden_doc(length="1000000", shift=None),
], ids=["modulus-large-prime", "edge-length-1000000"])
def test_hostile_input_answered_in_bounded_time(doc, command, tmp_path):
    # a prime modulus is proven prime instead of trial-divided; a long
    # edge's wall crossings are counted, not walked one by one
    code, err, seconds = _run_timed([command], tmp_path, doc)
    assert code in (0, 4)
    assert "Traceback" not in err and err.count("\n") <= 1
    assert seconds < HOSTILE_SECONDS


_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command", ["validate", "count", "prelog"])
def test_deeply_nested_curve_file_exits_1(command, tmp_path):
    code, err, seconds = _run_timed([command], tmp_path, text=_DEEP)
    assert (code, err.count("\n")) == (1, 1), err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "nested too deeply" in err
    assert seconds < HOSTILE_SECONDS


def test_deeply_nested_check_file_exits_1(tmp_path):
    curve = shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    code, err, seconds = _run_timed(["prelog", curve, "--check"], tmp_path,
                                    text=_DEEP)
    assert (code, err.count("\n")) == (1, 1), err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "nested too deeply" in err
    assert seconds < HOSTILE_SECONDS


def test_curve_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "curve.json"
    with open(os.path.join(GOLDEN, "theta_exact.json"),
              encoding="utf-8") as handle:
        path.write_bytes(handle.read().encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    for command in ("validate", "count", "prelog"):
        code = main([command, str(path)])
        _assert_one_error_line(code, capsys)


def test_plot_of_very_long_edge_refused_in_bounded_time(tmp_path):
    # a million-unit edge would be drawn as about a million polylines
    code, err, seconds = _run_timed(
        ["plot"], tmp_path, _golden_doc(length="1000000", shift=None))
    assert (code, err.count("\n")) == (5, 1), err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "edge e1" in err and "999999 walls" in err
    assert seconds < HOSTILE_SECONDS


def test_exit_codes_live_on_the_error_classes():
    assert [cls.exit_code for cls in (
        TropcountError, ParseError, ValidationError, DegeneracyError,
        InfeasibleError, ConstraintError)] == [1, 1, 2, 3, 4, 5]


def test_mark_outside_edge_exits_2(tmp_path, capsys):
    # t must lie in (0, 1); a mark outside makes the subdivided curve
    # invalid, which is exit code 2 (invalid curve), not 5
    doc = _golden_doc()
    doc["marked_points"][0]["t"] = "3/2"
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["count", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outside (0, 1)" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["count", "prelog", "realizable",
                                     "analyze"])
@pytest.mark.parametrize("name", ["theta", "theta2", "triple"])
def test_json_output_matches_golden(name, command, tmp_path, monkeypatch,
                                    capsys):
    # The prelog assignment and generators are read off the SNF transforms
    # U and V, and count prints the invariant factors, so any change to
    # snf's choice of pivots shows here byte for byte; realizable prints
    # both sigmas and analyze the ranks and the dual flag dimension.
    source = os.path.join(GOLDEN, f"{name}_exact.json")
    shutil.copy(source, tmp_path / f"{name}_exact.json")
    monkeypatch.chdir(tmp_path)
    assert main([command, f"{name}_exact.json", "--json"]) == 0
    with open(os.path.join(GOLDEN, f"{name}_exact.{command}.out"),
              encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "human"])
@pytest.mark.parametrize("name,code", [
    ("theta_cover9_exact", 0), ("triple_cover9_exact", 0),
    ("triple_cover9_formal", 4),
])
def test_prelog_of_genus_9_covers_matches_golden(name, code, as_json,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    # exact covers: feasible, with an assignment and kernel generators;
    # the formal cover: infeasible, with its witness
    shutil.copy(os.path.join(GOLDEN, f"{name}.json"), tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["prelog", f"{name}.json"] + (["--json"] if as_json else [])
    assert main(argv) == code
    suffix = "prelog.out" if as_json else "prelog.human.out"
    with open(os.path.join(GOLDEN, f"{name}.{suffix}"),
              encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


class _Code(int):
    """An int subclass, which json.dumps writes with int.__repr__."""

    def __repr__(self):
        return "not this"


_LEAVES = [
    "", "plain", 'quote " and \\ backslash', "tab\t nl\n cr\r nul\x00",
    "\x1f\x7f", "caf\u00e9", "\u2028\u2029", "\U0001f600", "\ud800",
    0, 1, -1, 2 ** 64, -(3 ** 80), True, False, None, _Code(5),
    0.0, -0.0, 0.1, 1e300, -2.5e-300, float("nan"), float("inf"),
    float("-inf"),
]
_KEYS = ["k", "", "a b", 'q"k', "\\", "\u00fc", "\U0001f600", "\n"]
_ODD_KEYS = [7, -2 ** 70, 1.5, True, None]


def _random_report(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return rng.choice(_LEAVES)
    size = rng.choice((0, 1, 2, 3, 5, 8))
    if roll < 0.65:
        return [_random_report(rng, depth + 1) for _ in range(size)]
    keys = _KEYS + _ODD_KEYS if rng.random() < 0.2 else _KEYS
    out = {}
    for i in range(size):
        key = rng.choice(keys)
        if type(key) is str and rng.random() < 0.5:
            key += str(i)
        out[key] = _random_report(rng, depth + 1)
    return out


def test_json_writer_equals_json_dumps_indent_2():
    rng = random.Random(41)
    seen = set()
    for _ in range(3000):
        report = _random_report(rng)
        seen.add(type(report))
        assert _json_text(report) == json.dumps(report, indent=2)
        assert _json_text({"report": report, "n": [report, 3]}) == \
            json.dumps({"report": report, "n": [report, 3]}, indent=2)
    assert {dict, list} <= seen
    # flat maps of leaves, the shape of kernel generators and weights
    flat = {f"v_{i}|e_{i}": rng.randrange(-3, 4) for i in range(500)}
    assert _json_text([flat, {}, []]) == json.dumps([flat, {}, []], indent=2)
    # keys that are not strings go to json.dumps, nested or not
    odd = {1: "a", "b": {2.5: [None], None: True}}
    assert _json_text(odd) == json.dumps(odd, indent=2)
    assert _json_text([[odd]]) == json.dumps([[odd]], indent=2)
    with pytest.raises(TypeError):
        _json_text({"x": object()})


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


@pytest.mark.parametrize("command", ["realizable", "count", "prelog"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0", "1e308"])
def test_tolerance_not_finite_and_positive_exits_1(tol, command, capsys):
    # 1e308 is finite, but its undecided band 100 * tol is not
    path = os.path.join(GOLDEN, "theta_exact.json")
    forms = [[f"--tol={tol}"]]  # the argparse path
    if not tol.startswith("-"):
        forms.append(["--tol", tol])  # the command-table path
    for form in forms:
        code = main([command, path, "--mode", "numeric", *form, "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: --tol {float(tol)!r}: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_cases_below_1_exits_1(cases, capsys):
    code = main(["selftest", f"--cases={cases}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: --cases {cases} is below 1\n"


# --------------------------------------------------------------------------
# the command table against argparse
# --------------------------------------------------------------------------


def _reference_add_common(parser, mode: bool = True) -> None:
    parser.add_argument("file", help="curve file (JSON)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    if mode:
        parser.add_argument("--mode", choices=["exact", "formal", "numeric"],
                            help="equality mode override")
        parser.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                            help="numeric tolerance (default 1e-9)")


def _reference_parser() -> argparse.ArgumentParser:
    """The parser as written out by hand before the command table
    replaced it, kept as its reference."""
    parser = argparse.ArgumentParser(
        prog="tropcount",
        description="Realizability and counting for tropical curves on a "
                    "two-dimensional torus quotient.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check curve well-formedness")
    _reference_add_common(p, mode=False)
    p.set_defaults(func=cli.cmd_validate)

    p = sub.add_parser("analyze", help="combinatorial invariants and ranks")
    _reference_add_common(p, mode=False)
    p.set_defaults(func=cli.cmd_analyze)

    p = sub.add_parser("realizable", help="decide realizability")
    _reference_add_common(p)
    p.set_defaults(func=cli.cmd_realizable)

    p = sub.add_parser("count", help="count algebraic curves through the "
                                     "marked points")
    _reference_add_common(p)
    p.set_defaults(func=cli.cmd_count)

    p = sub.add_parser("prelog", help="solve the multiplicative gluing "
                                      "system")
    _reference_add_common(p)
    p.add_argument("--check", metavar="FILE",
                   help="verify a flag assignment instead of solving")
    p.set_defaults(func=cli.cmd_prelog)

    p = sub.add_parser("plot", help="render the curve as SVG")
    p.add_argument("file", help="curve file (JSON)")
    p.add_argument("--out", metavar="FILE", default="",
                   help="output path (default: stdout)")
    p.set_defaults(func=cli.cmd_plot)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None,
                   help="cases per suite (default: per-suite minimum)")
    p.set_defaults(func=cli.cmd_selftest)

    return parser


def _subcommands(parser) -> dict:
    return parser._subparsers._group_actions[0].choices


def test_help_text_matches_reference():
    got, want = build_parser(), _reference_parser()
    assert got.format_help() == want.format_help()
    assert list(_subcommands(got)) == list(_subcommands(want))
    for name, sub in _subcommands(want).items():
        assert _subcommands(got)[name].format_help() == sub.format_help()


@pytest.mark.parametrize("argv", [
    [], ["count"], ["bogus", "f.json"], ["count", "f.json", "--mode", "bogus"],
    ["count", "f.json", "--tol", "x"], ["count", "f.json", "g.json"],
    ["count", "f.json", "--mode"], ["-h"], ["count", "-h"],
], ids=["no-command", "missing-file", "unknown-command", "mode-bogus",
        "tol-x", "extra-positional", "mode-without-value", "help",
        "count-help"])
def test_usage_errors_and_help_are_argparse_own(argv, capsys):
    with pytest.raises(SystemExit) as want:
        _reference_parser().parse_args(argv)
    want_output = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert (got.value.code, capsys.readouterr()) == \
        (want.value.code, want_output)


def test_abbreviated_option_still_accepted(theta_exact_file, capsys):
    assert main(["count", theta_exact_file, "--json"]) == 0
    full = capsys.readouterr()
    assert main(["count", theta_exact_file, "--js"]) == 0
    assert capsys.readouterr() == full


def _plain(namespace) -> dict:
    # NaN is not equal to itself
    return {key: repr(value) if isinstance(value, float) else value
            for key, value in vars(namespace).items()}


def _assert_read_like_argparse(argv, parser) -> None:
    read = _read_argv(argv)
    assert read is not None, argv
    assert _plain(read) == _plain(parser.parse_args(argv)), argv


def test_reader_agrees_with_argparse_on_random_argvs():
    commands = [*cli.COMMANDS, "bogus"]
    values = ["exact", "bogus", "1e-3", "-1", "nan", "1_0", " 2 ", "3", "-3"]
    vocabulary = [
        *commands,
        "f.json", "", "-", "a b.json", "--",
        "--json", "--mode", "--tol", "--check", "--out", "--seed", "--cases",
        "--js", "--mo", "-h", "--help", "--tol=1e-3",
        *values,
    ]
    parser = build_parser()
    rng = random.Random(61)
    read = set()
    for _ in range(6000):
        length = rng.randint(0, 6)
        argv = [rng.choice(commands)] if length and rng.random() < 0.9 else []
        # half of the picks are the command's own options with a value, so
        # that long command lines are read too, not only refused
        own = [name for name, _ in
               cli.COMMANDS.get(argv[0] if argv else "", ("", "", ()))[2]
               if name.startswith("-")]
        while len(argv) < length:
            if own and rng.random() < 0.5:
                argv += [rng.choice(own), rng.choice(values)]
            else:
                argv.append(rng.choice(vocabulary))
        argv = argv[:length]
        if _read_argv(argv) is None:
            continue
        read.add(tuple(argv))
        try:
            _assert_read_like_argparse(argv, parser)
        except SystemExit:
            pytest.fail(f"{argv!r} was read, but argparse refuses it")
    assert len(read) > 200
    assert {argv[0] for argv in read} == set(cli.COMMANDS)


def test_reader_reads_every_benchmark_and_readme_command_line():
    # the job shapes of tropbench/workloads.py, then the README's
    argvs = [[command, "f.json", "--json"]
             for command in ("validate", "analyze", "realizable", "count",
                             "prelog")]
    argvs += [["prelog", "f.json", "--check", "a.json", "--json"],
              ["plot", "f.json"]]
    argvs += [[command, "f.json"]
              for command in ("validate", "analyze", "realizable", "count",
                              "prelog")]
    argvs += [["prelog", "f.json", "--check", "a.json"],
              ["plot", "f.json", "--out", "f.svg"],
              ["selftest"], ["selftest", "--seed", "3", "--cases", "6"],
              ["count", "f.json", "--mode", "numeric", "--tol", "1e-6"]]
    parser = build_parser()
    for argv in argvs:
        _assert_read_like_argparse(argv, parser)
