import argparse
import cmath
import gc
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import tropcount
from tropcount import catalog, cli
from tropcount.cli import (_human_lines, _json_text, _read_argv, _write_json,
                           build_parser, main)
from tropcount.curve import (Edge, MarkedPoint, PeriodLattice, TropicalCurve,
                             Vertex)
from tropcount.curvefile import dumps_curve, save_curve
from tropcount.errors import (ECHO_LIMIT, ConstraintError, DegeneracyError,
                              InfeasibleError, ParseError, TropcountError,
                              ValidationError)
from tropcount.plot import render_svg
from tropcount.realize import is_realizable
from tropcount.selftest import tuned_exact_curve
from tropcount.valuegroup import DEFAULT_TOLERANCE, MulValue

from equivalence_cases import covers

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
    # a curve with no vertices is read, and then refused
    path.write_text(json.dumps({
        "lattice": {"lambda1": [1, 0], "lambda2": [0, 1]},
        "vertices": [], "edges": []}), encoding="utf-8")
    code, report, err = run_json(capsys, ["validate", str(path)])
    assert (code, err) == (2, "")
    assert report["valid"] is False
    assert report["problems"] == ["curve has no vertices"]


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
    {"re": float("nan")}, {"turns": "x/0"}, {"primes": []},
    {"modulus": "1", "turns": "1/2", "primes": {"7": "1"}},
    {"re": 1.0, "symbols": {"x": "1"}},
    {"modulus": "1", "turns": "0", "im": 0.0},
], ids=["abc", "zero", "no-turns", "zero-modulus", "nan", "bad-element",
        "prime-list", "polar-and-primes", "numeric-and-symbols",
        "polar-and-numeric"])
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


def _complex_doc(alpha12) -> dict:
    """The golden theta_exact.json with its multipliers as complex
    numbers, alpha12 replaced by alpha12(its value)."""
    doc = _golden_doc()
    for key, entry in doc["multipliers"].items():
        z = float(Fraction(entry["modulus"])) * cmath.exp(
            2j * math.pi * float(Fraction(entry["turns"])))
        if key == "alpha12":
            z = alpha12(z)
        doc["multipliers"][key] = {"re": z.real, "im": z.imag}
    return doc


_MARGIN = ("|value - 1| = 1.000e-08 inside the undecided band "
           "(1.0e-09, 1.0e-07]")


@pytest.mark.parametrize("command, code, lines, err", [
    ("realizable", 0, [
        "verdict: undecided",
        f"certificate: {_MARGIN}",
        "warnings: [numeric comparison inside the undecided margin; refine "
        "the tolerance or use exact multipliers]"], ""),
    ("count", 5, [],
     f"error: realizability undecided at this tolerance: {_MARGIN}\n"),
    ("prelog", 0, ["feasible: undecided", "    holds: undecided",
                   "verification: undecided"], ""),
])
def test_numeric_comparison_inside_the_margin_is_undecided(
        command, code, lines, err, tmp_path, capsys):
    # the realizable theta_exact curve with alpha12 off by a factor 1 + 1e-8
    path = tmp_path / "curve.json"
    doc = _complex_doc(lambda z: z * (1 + 1e-8))
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(path)]) == code
    out, got_err = capsys.readouterr()
    assert got_err == err
    assert all(line in out.splitlines() for line in lines)
    assert bool(out) == bool(lines)


@pytest.mark.parametrize("command", ["realizable", "count", "prelog"])
def test_zero_multiplier_exits_5(command, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(_complex_doc(lambda z: 0j)), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main([command, str(path)]) == 5
    assert capsys.readouterr() == (
        "", "error: symbol alpha12 must be a nonzero complex number\n")


def _changed_doc(change) -> dict:
    doc = _golden_doc()
    change(doc)
    return doc


@pytest.mark.parametrize("doc, message", [
    pytest.param(_changed_doc(lambda d: d.update(multipliers=[])),
                 "multipliers: expected an object", id="multipliers-list"),
    pytest.param(_changed_doc(lambda d: d["multipliers"].update(
        alpha99={"formal": True})),
                 "multipliers: unknown keys ['alpha99']", id="alpha99"),
    pytest.param(_changed_doc(lambda d: d["multipliers"].update(alpha11=3)),
                 "multipliers.alpha11: expected an object", id="entry-3"),
    pytest.param(_changed_doc(lambda d: d["multipliers"].update(alpha11={})),
                 "multipliers.alpha11: need formal, modulus/turns, or re/im",
                 id="entry-empty"),
    pytest.param(_changed_doc(lambda d: [
        entry.update(formal=False) for entry in d["multipliers"].values()]),
                 "multipliers.alpha11: mixes the keys of two forms "
                 "(formal, modulus, turns)", id="polar-and-formal"),
    pytest.param(_changed_doc(lambda d: d["multipliers"]["alpha12"].update(
        re=0.5)),
                 "multipliers.alpha12: mixes the keys of two forms "
                 "(modulus, re, turns)", id="polar-and-numeric"),
    pytest.param(_changed_doc(lambda d: d.update(multipliers={
        key: {"formal": False} for key in d["multipliers"]})),
                 "multipliers.alpha11: formal must be true",
                 id="formal-false"),
    pytest.param(_changed_doc(lambda d: d.update(multipliers={
        key: {"formal": 1} for key in d["multipliers"]})),
                 "multipliers.alpha11: formal must be true", id="formal-1"),
    pytest.param(_changed_doc(lambda d: d["vertices"][0].update(id=5)),
                 "vertices[0].id: expected a string", id="vertex-id"),
    pytest.param(_golden_doc(id=5),
                 "edges[0]: id/tail/head must be strings", id="edge-id"),
    pytest.param(_changed_doc(lambda d: d["marked_points"][0].update(edge=5)),
                 "marked_points[0].edge: expected a string", id="mark-edge"),
    pytest.param(_golden_doc(tail="w", shift=None),
                 "edges[0]: cannot derive shift, unknown vertex 'w'",
                 id="shift-unknown-tail"),
])
def test_malformed_curve_file_exits_1(doc, message, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _renamed_doc(old: str, new: str) -> dict:
    """The golden theta_exact.json with vertex old renamed new."""
    doc = _golden_doc()
    for v in doc["vertices"]:
        v["id"] = new if v["id"] == old else v["id"]
    for e in doc["edges"]:
        for end in ("tail", "head"):
            e[end] = new if e[end] == old else e[end]
    return doc


@pytest.mark.parametrize("argv", [["analyze"], ["prelog"], ["plot"],
                                  ["prelog", "--json"]], ids=" ".join)
def test_lone_surrogate_in_an_id_is_refused_at_parse_time(argv, tmp_path):
    # it used to reach the writer, which died with a traceback part way
    # through the report (or plot, before writing anything)
    proc, _ = _run_child(argv, tmp_path, _renamed_doc("u", "u\ud800"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: vertices[0].id: not valid Unicode text\n")


@pytest.mark.parametrize("argv", [
    ["validate"], ["validate", "--json"], ["analyze"], ["realizable"],
    ["count", "--json"], ["prelog"], ["plot"]], ids=" ".join)
def test_degenerate_lattice_reads_alike_with_shifts_omitted(
        argv, tmp_path, monkeypatch, capsys):
    # deriving the omitted shifts used to stop at the degenerate lattice
    # with its own message, before validate could report it
    doc = _golden_doc()
    doc["lattice"]["lambda2"] = [-2, 2]
    monkeypatch.chdir(tmp_path)
    runs = []
    for shift in (True, False):
        for e in doc["edges"]:
            if shift:
                e["shift"] = [0, 0]
            else:
                e.pop("shift")
        (tmp_path / "curve.json").write_text(json.dumps(doc),
                                             encoding="utf-8")
        runs.append((main(argv + ["curve.json"]), capsys.readouterr()))
    assert runs[0] == runs[1]
    if argv[0] == "validate":
        assert runs[0][0] == 2
        assert "period lattice is degenerate (determinant 0)" in \
            runs[0][1].out
    else:
        assert runs[0] == (2, ("", "error: period lattice is degenerate "
                               "(determinant 0)\n"))


def _run_timed(argv, tmp_path, doc=None, text=None):
    """Run the CLI in a child process (so that a hang is cut off) and
    return (exit code, stderr, seconds)."""
    proc, seconds = _run_child(argv, tmp_path, doc, text)
    return proc.returncode, proc.stderr, seconds


def _run_child(argv, tmp_path, doc=None, text=None):
    """Run the CLI in a child process on a curve file written from doc or
    text, and return (the completed process, seconds)."""
    path = tmp_path / "curve.json"
    path.write_text(text if text is not None else json.dumps(doc),
                    encoding="utf-8")
    src = os.path.dirname(os.path.dirname(tropcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tropcount.cli", *argv, str(path)],
        env=env, capture_output=True, text=True, timeout=HOSTILE_SECONDS)
    return proc, time.perf_counter() - start


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


def _distinct_denominator_cycle(n: int = 1600) -> str:
    """The text of a cycle of n vertices wrapping the first period once,
    vertex k at (k/n + 1/(7 d_k), 0) with each d_k an odd 200-digit
    number: about 2 MB, and the lcm of its denominators has n * 200
    digits."""
    rng = random.Random(1)
    odd = [rng.randrange(10 ** 199, 10 ** 200) | 1 for _ in range(n)]
    xs = [Fraction(k, n) + Fraction(1, 7 * d) for k, d in enumerate(odd)]
    vertices = tuple(Vertex(f"c{k}", (x, 0)) for k, x in enumerate(xs))
    edges = tuple(
        Edge(f"s{k}", f"c{k}", f"c{(k + 1) % n}", (1, 0),
             xs[(k + 1) % n] + (k == n - 1) - xs[k],
             (-1, 0) if k == n - 1 else (0, 0))
        for k in range(n))
    curve = TropicalCurve(PeriodLattice((1, 0), (0, 1)), vertices, edges)
    return dumps_curve(curve)


@pytest.mark.parametrize("command", ["realizable", "plot"])
def test_distinct_denominators_answered_in_bounded_time(command, tmp_path):
    # each lattice point sits over its own denominator, not over the
    # lcm of all of them
    code, err, seconds = _run_timed([command], tmp_path,
                                    text=_distinct_denominator_cycle())
    assert (code, err) == (0, "")
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


def _lattice_text(value_text: str) -> str:
    """The golden curve file with lattice.lambda1 written as value_text
    (json.dumps would recurse once per level of a deep list)."""
    doc = _golden_doc()
    doc["lattice"]["lambda1"] = "LAMBDA1"
    return json.dumps(doc).replace('"LAMBDA1"', value_text, 1)


def _vertex_pos_text(value: str) -> str:
    doc = _golden_doc()
    doc["vertices"][0]["pos"][0] = value
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["validate", "count"])
@pytest.mark.parametrize("text", [
    _lattice_text(json.dumps([0] * 200000)),
    _lattice_text("[" * 970 + "]" * 970),
    _vertex_pos_text("1" * 100000),
    _vertex_pos_text("x" * 100000),
    json.dumps({**_golden_doc(), "multipliers": {
        key: {"re": 10 ** 400, "im": 0}
        for key in ("alpha11", "alpha12", "alpha21", "alpha22")}}),
], ids=["pair-of-200000-zeros", "list-970-deep", "rational-100000-digits",
        "rational-100000-letters", "numeric-re-401-digits"])
def test_huge_input_value_gives_a_short_error_line(text, command, tmp_path):
    # the offending value was echoed whole (a 600 KB line for the zeros),
    # and an integer re beyond the double range was a traceback
    code, err, seconds = _run_timed([command], tmp_path, text=text)
    assert (code, err.count("\n")) == (1, 1), err[:300]
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.encode()) < 300, err
    assert seconds < HOSTILE_SECONDS


def _long_cycle_text() -> str:
    """The genus-1 wrapping cycle with edge s2 wound 10**3000 more times
    around the first period: valid, with a formal sigma whose exponent
    has 3,001 digits."""
    n = 10 ** 3000
    cycle = catalog.wrapping_cycle(2)
    s1, s2 = cycle.edges
    curve = cycle.replace(edges=(s1, s2.replace(
        length=Fraction(2 * n + 1, 2), shift=(-1 - n, 0))))
    return dumps_curve(curve, [MarkedPoint("s1", Fraction(1, 2))])


def _unshifted_doc(position: str) -> dict:
    """The golden curve with every shift left out and vertex v at
    (position, 0)."""
    doc = _golden_doc()
    for edge in doc["edges"]:
        del edge["shift"]
    doc["vertices"][1]["pos"][0] = position
    return doc


_UNFACTORED = str((2 ** 521 - 1) * (2 ** 607 - 1))
_FORMAL_THETA = {key: value for key, value in _golden_doc().items()
                 if key != "multipliers"}
_THETA_CHECK = {"flags": {**_check_doc({"re": 1, "im": 0})["flags"],
                          "v|e1": {"symbols": {"s" * 5000: "1"}}}}


@pytest.mark.parametrize("argv, curve, check, code", [
    (["prelog", "--mode", "exact"], _long_cycle_text(), None, 5),
    (["count"], _long_cycle_text(), None, 4),
    (["count"], json.dumps({**_golden_doc(), "marked_points": [
        {"edge": "e1", "t": str(10 ** 3000)}, {"edge": "e2", "t": "1/2"}]}),
     None, 2),
    (["count"], json.dumps(_modulus_doc(_UNFACTORED)), None, 1),
    (["validate"], json.dumps(_unshifted_doc("1/" + "7" * 3000)), None, 1),
    (["prelog"], json.dumps(_FORMAL_THETA), _THETA_CHECK, 5),
    (["prelog"], json.dumps(_golden_doc()), _check_doc(_UNFACTORED), 1),
], ids=["exact-value-left", "formal-certificate", "mark-parameter",
        "unfactored-modulus", "derived-shift", "symbol-name",
        "unfactored-check-value"])
def test_huge_computed_value_gives_a_short_error_line(argv, curve, check,
                                                       code, tmp_path):
    # each quoted a value computed from the input whole, in a line of
    # 0.5 to 12 KB
    if check is not None:
        path = tmp_path / "theta.json"
        path.write_text(curve, encoding="utf-8")
        argv, curve = [*argv, str(path), "--check"], json.dumps(check)
    code_seen, err, seconds = _run_timed(argv, tmp_path, text=curve)
    assert (code_seen, err.count("\n")) == (code, 1), err[:300]
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.encode()) < 300, err
    assert seconds < HOSTILE_SECONDS


def test_huge_check_value_gives_a_short_error_line(tmp_path, capsys):
    shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    check = tmp_path / "check.json"
    check.write_text(json.dumps(_check_doc([0] * 200000)), encoding="utf-8")
    code = main(["prelog", str(tmp_path / "theta_exact.json"),
                 "--check", str(check)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: assignment value [0, 0, ")
    assert err.count("\n") == 1 and len(err.encode()) < 300


def _long_integer_doc() -> dict:
    """The golden theta curve with weight vectors (a, 0), (0, b) and
    (-a, -b), a = 10**2200 and b = a + 3: valid, but its vertex weight
    has 4,401 digits, past the interpreter's limit on int-to-str."""
    a = 10 ** 2200
    b = a + 3
    doc = _golden_doc(weight_vector=[a, 0], length=f"1/{a}")
    edges = {e["id"]: e for e in doc["edges"]}
    edges["e2"].update(weight_vector=[0, b], length=f"1/{b}")
    # length * w = v - u - g1 * lambda1 - g2 * lambda2 closes e3
    g2 = (2 * a + 4) // 3
    edges["e3"].update(weight_vector=[-a, -b], length="1",
                       shift=[1 + a - g2, g2])
    return doc


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("command",
                         ["analyze", "realizable", "count", "prelog"])
def test_integer_too_long_to_write_exits_5(command, form, tmp_path):
    # refused before the first write, so stdout holds no partial report
    doc = _long_integer_doc()
    assert _run_timed(["validate"], tmp_path, doc)[:2] == (0, "")
    proc, seconds = _run_child([command, *form], tmp_path, doc)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        5, "", "error: cannot write a value with an integer of over "
               f"{sys.get_int_max_str_digits()} digits\n")
    assert seconds < HOSTILE_SECONDS


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("kind", ["free", "torsion"])
def test_generator_integer_too_long_to_write_exits_5(kind, form, tmp_path,
                                                     monkeypatch, capsys):
    # the kernel generators are built as they are written, from entries
    # checked and formatted before the first write, so a free entry or a
    # torsion root past the limit leaves stdout empty too
    from tropcount import prelog

    solve = prelog.solve_monomial

    def solve_with_a_long_entry(*args, **kwargs):
        solution = solve(*args, **kwargs)
        if kind == "free":
            free = [dict(generator) for generator in solution.kernel_free]
            free[0][0] = 10 ** 4400
            return solution.replace(kernel_free=free)
        root = MulValue.phase_turns(Fraction(1, 10 ** 4400))
        return solution.replace(kernel_torsion=[{0: root}])

    monkeypatch.setattr(prelog, "solve_monomial", solve_with_a_long_entry)
    curve = shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    assert main(["prelog", curve, *form]) == 5
    assert capsys.readouterr() == (
        "", "error: cannot write a value with an integer of over "
            f"{sys.get_int_max_str_digits()} digits\n")


def _shared_key_doc() -> dict:
    """The golden theta curve with vertex v renamed u|x and edges e1, e2
    renamed x|e1, e1: flags (u, x|e1) and (u|x, e1) both key "u|x|e1"."""
    doc = _golden_doc()
    doc["vertices"][1]["id"] = "u|x"
    names = {"e1": "x|e1", "e2": "e1"}
    for edge in doc["edges"]:
        edge["id"] = names.get(edge["id"], edge["id"])
        edge["head"] = "u|x"  # every edge runs from u to v
    for mark in doc["marked_points"]:
        mark["edge"] = names[mark["edge"]]
    return doc


@pytest.mark.parametrize("form", [[], ["--json"], ["--check"]],
                         ids=["human", "json", "check"])
def test_prelog_refuses_two_flags_with_one_key(form, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(_shared_key_doc()), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    if form == ["--check"]:
        check = tmp_path / "check.json"
        keys = ["u|x|e1", "u|x|x|e1", "u|e1", "u|e3", "u|x|e3"]
        check.write_text(json.dumps({"flags": dict.fromkeys(keys, "1")}),
                         encoding="utf-8")
        form = ["--check", str(check)]
    capsys.readouterr()
    assert main(["prelog", str(path), *form]) == 5
    assert capsys.readouterr() == (
        "", "error: two flags share the report key 'u|x|e1'\n")


@pytest.mark.parametrize("fields", [
    {"weight_vector": [10 ** 400, 1]},
    {"length": "-" + "7" * 4000},
    {"weight_vector": [10 ** 4200, 0], "length": "1" + "0" * 4200 + "/3"},
], ids=["weight-401-digits", "length-4001-digits", "defect-past-str-limit"])
def test_validation_problems_clip_computed_values(fields, tmp_path, capsys):
    # balancing sums, lift defects and lengths were quoted whole (a
    # 1,335-character error line for the weight, 8,086 for the length),
    # and a lift defect past the interpreter's integer-to-string limit
    # was a ValueError traceback
    path = str(tmp_path / "curve.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_golden_doc(**fields), handle)
    assert main(["validate", path, "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["problems"]
    for text in report["problems"] + report["warnings"]:
        assert len(text) <= 3 * ECHO_LIMIT, text
    for command in ("analyze", "count"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for text in err[len("error: "):-1].split("; "):
            assert len(text) <= 3 * ECHO_LIMIT, text


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


_NOT_RIGID = ("error: marked points do not rigidify the curve (evaluation "
              "map has nontrivial kernel)\n")


@pytest.mark.parametrize("marks, code, err", [
    # the same point twice is an invalid mark set, found before rigidity
    ([("e1", "1/3"), ("e1", "1/3")], 2,
     "error: duplicate marked points on edge e1\n"),
    # so is a t outside (0, 1), also on a set that would not be rigid
    ([("e1", "1/3"), ("e1", "3/2")], 2,
     "error: marked point t=3/2 outside (0, 1)\n"),
    ([("zz", "1/3"), ("e2", "1/2")], 5,
     "error: marked point on unknown edge 'zz'\n"),
    # an unknown edge is refused before any t is looked at
    ([("e1", "3/2"), ("zz", "1/3")], 5,
     "error: marked point on unknown edge 'zz'\n"),
    # two distinct points on one edge pin only one direction
    ([("e1", "1/3"), ("e1", "2/3")], 5, _NOT_RIGID),
], ids=["duplicate", "outside-not-rigid", "unknown-edge",
        "unknown-edge-before-t", "not-rigid"])
def test_count_mark_errors_in_order(marks, code, err, tmp_path, capsys):
    doc = _golden_doc()
    doc["marked_points"] = [{"edge": e, "t": t} for e, t in marks]
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["count", str(path)]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command,as_json", [
    pytest.param(command, as_json, id=command + ("" if as_json else "-human"))
    for command in ("count", "prelog", "realizable", "analyze", "validate")
    for as_json in (True, False)])
@pytest.mark.parametrize("name", ["theta", "theta2", "triple"])
def test_json_output_matches_golden(name, command, as_json, tmp_path,
                                    monkeypatch, capsys):
    # The prelog assignment and generators are read off the SNF transforms
    # U and V, and count prints the invariant factors, so any change to
    # snf's choice of pivots shows here byte for byte; realizable prints
    # both sigmas and analyze the ranks and the dual flag dimension.  The
    # human goldens pin the same reports through the other writer.
    source = os.path.join(GOLDEN, f"{name}_exact.json")
    shutil.copy(source, tmp_path / f"{name}_exact.json")
    monkeypatch.chdir(tmp_path)
    argv = [command, f"{name}_exact.json"] + (["--json"] if as_json else [])
    assert main(argv) == 0
    suffix = "out" if as_json else "human.out"
    with open(os.path.join(GOLDEN, f"{name}_exact.{command}.{suffix}"),
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


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "human"])
@pytest.mark.parametrize("name,command", [
    ("theta_cover9_exact", "realizable"), ("theta_cover9_exact", "count"),
    ("triple_cover9_exact", "realizable"), ("triple_cover9_exact", "count"),
    ("triple_cover9_formal", "realizable"),
])
def test_sigma_and_count_of_genus_9_covers_match_golden(
        name, command, as_json, tmp_path, monkeypatch, capsys):
    # the formal cover's sigma is a monomial with symbol exponents other
    # than 1, and the exact covers' counts print 50 invariant factors
    shutil.copy(os.path.join(GOLDEN, f"{name}.json"), tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = [command, f"{name}.json"] + (["--json"] if as_json else [])
    assert main(argv) == 0
    suffix = "out" if as_json else "human.out"
    with open(os.path.join(GOLDEN, f"{name}.{command}.{suffix}"),
              encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


#: the leaves a report holds: str, int, bool and None
_LEAVES = [
    "", "plain", 'quote " and \\ backslash', "tab\t nl\n cr\r nul\x00",
    "\x1f\x7f", "caf\u00e9", "\u2028\u2029", "\U0001f600", "\ud800",
    0, 1, -1, 2 ** 64, -(3 ** 80), True, False, None,
]
_KEYS = ["k", "", "a b", 'q"k', "\\", "\u00fc", "\U0001f600", "\n"]


def _random_report(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return rng.choice(_LEAVES)
    size = rng.choice((0, 1, 2, 3, 5, 8))
    if roll < 0.65:
        return [_random_report(rng, depth + 1) for _ in range(size)]
    out = {}
    for i in range(size):
        key = rng.choice(_KEYS)
        if rng.random() < 0.5:
            key += str(i)
        out[key] = _random_report(rng, depth + 1)
    return out


def _streamed(obj) -> list[str]:
    """The pieces _write_json writes obj in, through a recording write."""
    pieces = []
    _write_json(obj, pieces.append)
    return pieces


def test_json_writer_equals_json_dumps_indent_2():
    # the writer formats a value whole (_json_text) or streams it
    # (_write_json); both give json.dumps's text
    rng = random.Random(41)
    seen = set()
    for _ in range(3000):
        report = _random_report(rng)
        seen.add(type(report))
        for obj in (report, {"report": report, "n": [report, 3]}):
            text = json.dumps(obj, indent=2)
            assert _json_text(obj) == text
            assert "".join(_streamed(obj)) == text
    assert {dict, list} <= seen
    # flat maps of leaves, the shape of kernel generators and weights
    flat = {f"v_{i}|e_{i}": rng.randrange(-3, 4) for i in range(500)}
    text = json.dumps([flat, {}, []], indent=2)
    assert _json_text([flat, {}, []]) == "".join(_streamed([flat, {}, []])) \
        == text
    # a generator stands for a list, empty or not, as prelog's generators do
    lazy = {"maps": (m for m in (flat, {"a": 1})), "none": (m for m in ())}
    assert "".join(_streamed(lazy)) == json.dumps(
        {"maps": [flat, {"a": 1}], "none": []}, indent=2)
    # a float, an int subclass or a key that is not a string is no part
    # of a report: both writers refuse it, nested or not
    class Code(int):
        pass

    for odd in ({"x": 2.5}, [Code(5)], {1: "a"}, {"b": {None: True}},
                {"x": object()}):
        for obj in (odd, [[odd]]):
            with pytest.raises(TypeError):
                _json_text(obj)
            with pytest.raises(TypeError):
                _streamed(obj)


def test_human_writer_reads_a_generator_as_a_list():
    # a piece per item, and for a list of maps the "key:" line and then
    # a piece per map; a generator gives the list's text as it comes
    maps = [{"a": 1, "b": {"c": 2}}, {}, {"d": [3, 4]}]
    report = {"n": 1, "m": {"x": "y"}, "leaves": [1, "z"], "none": [],
              "maps": maps}
    pieces = list(_human_lines(report))
    assert pieces == [
        "n: 1\n", "m:\n  x: y\n", "leaves: [1, z]\n", "none: []\n",
        "maps:\n", "  - a: 1\n    b:\n      c: 2\n", "  - d: [3, 4]\n"]
    lazy = dict(report, maps=(m for m in maps), none=(m for m in ()))
    assert list(_human_lines(lazy)) == pieces
    # a generator is read once, without looking ahead
    seen = []

    def tracked():
        for m in maps:
            seen.append(m)
            yield m

    lines = _human_lines({"maps": tracked()})
    assert next(lines) == "maps:\n" and len(seen) == 1
    assert next(lines) == pieces[5] and len(seen) == 1


def test_human_writer_keeps_a_listed_key_whole():
    # the first line of a listed map loses its indent, not the key's own
    # leading space
    maps = [{" a": 1, " b": {" c": 2}}]
    assert list(_human_lines({"maps": maps})) == [
        "maps:\n", "  -  a: 1\n     b:\n       c: 2\n"]


def test_human_prelog_keeps_flag_keys_whole(tmp_path, monkeypatch, capsys):
    # vertex u renamed " u": each flag key keeps its space in the
    # assignment and on every line of the kernel generator maps
    doc = _golden_doc()
    doc["vertices"][0]["id"] = " u"
    for edge in doc["edges"]:
        edge["tail"] = " u"
    (tmp_path / "theta_exact.json").write_text(json.dumps(doc),
                                               encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["prelog", "theta_exact.json"]) == 0
    with open(os.path.join(GOLDEN, "theta_exact.prelog.human.out"),
              encoding="utf-8") as handle:
        golden = handle.read()
    assert capsys.readouterr().out == golden.replace(
        "  u: 1", "   u: 1").replace("u|", " u|")


def _save_theta_cover(directory) -> str:
    """The theta k=24 cover, whose prelog --json report is over 64 KiB,
    saved in directory; returns its file name."""
    curve, marks = covers.cover_instance("theta", 24, random.Random(1))
    save_curve(curve, os.path.join(directory, "cover.json"), marks)
    return "cover.json"


@pytest.mark.parametrize("form", [["--json"], []], ids=["json", "human"])
def test_json_report_is_written_as_it_is_formatted(form, tmp_path,
                                                    monkeypatch, capsys):
    # the whole text of the report went out in one write, in either form
    monkeypatch.chdir(tmp_path)
    argv = ["prelog", _save_theta_cover(tmp_path), *form]
    pieces = []
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", SimpleNamespace(write=pieces.append))
        assert main(argv) == 0
    text = "".join(pieces)
    assert len(text) > 65536
    assert max(map(len, pieces)) <= len(text) // 10
    assert main(argv) == 0
    assert capsys.readouterr().out == text


#: the program, as the bench and the README run it
_PROGRAM = (sys.executable, "-m", "tropcount.cli")

#: runs the program as `python -m tropcount.cli` does, with an atexit
#: hook that writes one more line to stdout
_PROGRAM_WITH_ATEXIT_HOOK = (
    sys.executable, "-c",
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: sys.stdout.write('atexit hook ran\\n'))\n"
    "runpy.run_module('tropcount.cli', run_name='__main__')\n")


def _child(command, cwd, stdout=subprocess.PIPE, unbuffered=False):
    """Run command in cwd with the package on the path, its standard
    streams buffered (Python's default) or not; stdout and stderr are
    bytes."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tropcount.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(command, cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60, env=env)


def test_program_runs_atexit_hooks_and_keeps_output_and_codes(
        theta_file, tmp_path, monkeypatch, capsys):
    # run() ends with os._exit: the atexit hooks still run, after
    # main()'s output, that output arrives whole, and main()'s code is
    # the exit status
    shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    proc = _child([*_PROGRAM_WITH_ATEXIT_HOOK, "count", "theta_exact.json",
                   "--json"], tmp_path)
    with open(os.path.join(GOLDEN, "theta_exact.count.out"), "rb") as handle:
        golden = handle.read()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, golden + b"atexit hook ran\n", b"")

    outside = _golden_doc()
    outside["marked_points"][0]["t"] = "3/2"
    too_few = _golden_doc()
    del too_few["marked_points"][0]
    (tmp_path / "outside.json").write_text(json.dumps(outside))
    (tmp_path / "too_few.json").write_text(json.dumps(too_few))
    for code, path in ((2, "outside.json"), (4, theta_file),
                       (5, "too_few.json")):
        proc = _child([*_PROGRAM, "count", path], tmp_path)
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert proc.stderr.startswith(b"error: ")
        assert proc.stderr.count(b"\n") == 1

    # a report larger than a 64 KiB pipe buffer arrives complete
    _save_theta_cover(tmp_path)
    proc = _child([*_PROGRAM, "prelog", "cover.json", "--json"], tmp_path)
    assert len(proc.stdout) > 65536
    monkeypatch.chdir(tmp_path)
    assert main(["prelog", "cover.json", "--json"]) == 0
    assert (proc.returncode, proc.stdout.decode()) == (
        0, capsys.readouterr().out)


@pytest.mark.parametrize("argv, target, unbuffered", [
    pytest.param(argv, target, unbuffered, id=f"{prefix}{target}-{kind}")
    for prefix, argv in (("", ["count", "theta_exact.json", "--json"]),
                         ("prelog-cover-", ["prelog", "cover.json", "--json"]))
    for target in ("closed", "broken-pipe", "dev-full")
    for unbuffered, kind in ((False, "buffered"), (True, "unbuffered"))])
def test_failed_write_to_stdout_exits_1_without_traceback(argv, target,
                                                          unbuffered,
                                                          tmp_path):
    # each was a traceback: stdout closed (sys.stdout is None), a pipe
    # with no reader (BrokenPipeError) and a full device (ENOSPC); a
    # buffered stream fails at run()'s final flush, an unbuffered one at
    # the write inside main(); the cover's report (over 64 KiB) fails a
    # buffered write in the middle of the report too
    shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    _save_theta_cover(tmp_path)
    _assert_failed_write(argv, target, unbuffered, tmp_path)


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["closed", "broken-pipe", "dev-full"])
@pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]],
                         ids=["help", "count-help"])
def test_failed_help_write_exits_1_without_traceback(argv, target,
                                                     unbuffered, tmp_path):
    # help to a full device exited 120 with "Exception ignored" when
    # buffered and 0 with the text lost when not; to a closed stdout, 0
    _assert_failed_write(argv, target, unbuffered, tmp_path)


def _assert_failed_write(argv, target, unbuffered, tmp_path):
    """The program on argv in tmp_path, its stdout closed, a pipe without
    a reader or /dev/full, exits 1 with one error line."""
    argv = [*_PROGRAM, *argv]
    if target == "closed":
        proc = _child(["sh", "-c", 'exec "$@" >&-', "sh", *argv], tmp_path,
                      unbuffered=unbuffered)
    elif target == "broken-pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _child(argv, tmp_path, stdout=write, unbuffered=unbuffered)
        finally:
            os.close(write)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            proc = _child(argv, tmp_path, stdout=full, unbuffered=unbuffered)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert err.startswith("error: cannot write output: [Errno ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_huge_identifier_gives_short_lines(tmp_path):
    # a 100 000-character vertex or edge id was quoted whole: a
    # 100 042-byte error line (exit 2) and a 100 123-byte validate report
    huge = "v" * 100000
    unknown_tail = _golden_doc(tail=huge)
    unknown_mark = _golden_doc()
    unknown_mark["marked_points"][0]["edge"] = huge
    (tmp_path / "tail.json").write_text(json.dumps(unknown_tail))
    (tmp_path / "mark.json").write_text(json.dumps(unknown_mark))
    for command, path, code in (("count", "tail.json", 2),
                                ("validate", "tail.json", 2),
                                ("count", "mark.json", 5)):
        proc = _child([*_PROGRAM, command, path], tmp_path)
        assert proc.returncode == code, proc.stderr[:300]
        output = proc.stdout + proc.stderr
        assert b" characters)" in output
        assert max(map(len, output.splitlines())) < 200


def test_program_keeps_argparse_help_and_usage_errors(tmp_path, capsys):
    # help exits 0 on stdout and a usage error 2 on stderr, in argparse's
    # words, through the program as through the parser
    for argv in (["--help"], ["count", "--help"], ["count"],
                 ["count", "f.json", "--mode", "bogus"]):
        with pytest.raises(SystemExit) as want:
            _reference_parser().parse_args(argv)
        want_output = capsys.readouterr()
        proc = _child([*_PROGRAM, *argv], tmp_path)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) \
            == (want.value.code, want_output.out, want_output.err), argv


def test_invalid_curve_error_quotes_five_problems(tmp_path, capsys):
    # every problem was joined into the error line: the golden theta file
    # plus 20 000 edges with unknown tails gave a 957 786-byte line
    doc = _golden_doc()
    e1 = next(e for e in doc["edges"] if e["id"] == "e1")
    doc["edges"] += [{**e1, "id": f"x{i}", "tail": f"w{i}"}
                     for i in range(20000)]
    (tmp_path / "many.json").write_text(json.dumps(doc))
    few = _golden_doc(tail="w")
    (tmp_path / "few.json").write_text(json.dumps(few))
    for name, shown in (("many.json", 5), ("few.json", None)):
        path = str(tmp_path / name)
        code, report, _ = run_json(capsys, ["validate", path])
        problems = report["problems"]
        assert code == 2 and problems
        assert main(["count", path]) == 2
        err = capsys.readouterr().err
        if shown is None:
            # at most five: quoted as they were, all of them
            assert len(problems) <= 5
            assert err == f"error: {'; '.join(problems)}\n"
        else:
            assert len(problems) >= 20000
            assert err == (f"error: {'; '.join(problems[:shown])}; ... and "
                           f"{len(problems) - shown} more\n")
            assert len(err.encode()) < 1024


def test_main_leaves_the_collector_as_it_is(theta_exact_file, capsys):
    before = gc.get_freeze_count()
    assert main(["count", theta_exact_file]) == 0
    assert main(["validate", theta_exact_file, "--json"]) == 0
    assert gc.get_freeze_count() == before


def test_installed_script_runs_the_program():
    # a plain text read: tomllib is not in Python 3.10
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "pyproject.toml")
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    scripts = lines[lines.index("[project.scripts]") + 1:]
    scripts = scripts[:scripts.index("")]
    assert scripts == ['tropcount = "tropcount.cli:run"']


def test_mode_env_and_flag_precedence(theta_file, capsys, monkeypatch):
    monkeypatch.setenv("TROPCOUNT_MODE", "exact")
    # exact comparison on a purely formal curve cannot be carried out, and
    # every command that compares says so in the same words
    for command in ("realizable", "count", "prelog"):
        assert main([command, theta_file]) == 5
        assert capsys.readouterr().err == (
            "error: exact comparison needs polar values for all symbols; "
            "left: alpha12^1 * alpha21^-1 * alpha22^1\n")
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


def test_prelog_writes_sparse_torsion_generators_densely(
        theta_exact_file, monkeypatch, capsys):
    # No curve at hand has an invariant factor >= 2, so the solver is
    # wrapped to add torsion: each free generator over 3, stored as
    # sparse as the solver stores it.  Both writers fill the flags it
    # leaves out with the identity, as a dense rendering does.
    from tropcount import prelog

    solve = prelog.solve_monomial
    torsion = []

    def with_torsion(*args, **kwargs):
        solution = solve(*args, **kwargs)
        torsion[:] = [{j: MulValue.phase_turns(Fraction(x, 3))
                       for j, x in gen.items()}
                      for gen in solution.kernel_free]
        return prelog.MonomialSolution(
            solution.feasible, solution.assignment, solution.witnesses,
            solution.kernel_free, torsion, solution.invariant_factors)

    monkeypatch.setattr(prelog, "solve_monomial", with_torsion)
    code, report, _ = run_json(capsys, ["prelog", theta_exact_file])
    assert code == 0
    keys = list(report["assignment"])
    assert len(torsion) == 2 and all(len(gen) < len(keys) for gen in torsion)
    dense = [[(key, str(gen.get(j, MulValue.identity())))
              for j, key in enumerate(keys)] for gen in torsion]
    assert [list(gen.items())
            for gen in report["kernel_torsion_generators"]] == dense
    lines = ["kernel_torsion_generators:"]
    for items in dense:
        lines += [f"    {key}: {value}" for key, value in items]
        lines[-len(items)] = "  - " + lines[-len(items)].lstrip()
    assert main(["prelog", theta_exact_file]) == 0
    assert capsys.readouterr().out.endswith("\n".join(lines) + "\n")


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


def _check_solved(tmp_path, capsys, changes: dict) -> int:
    """prelog --check on the golden theta_exact.json with its own solved
    assignment, the flags in changes changed; returns the exit code."""
    curve = shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    code, report, _ = run_json(capsys, ["prelog", curve])
    assert code == 0
    flags = report["assignment"]
    for key, change in changes.items():
        flags[key] = change(flags[key])
    check = tmp_path / "check.json"
    check.write_text(json.dumps({"flags": flags}), encoding="utf-8")
    return main(["prelog", curve, "--check", str(check)])


def _with_prime(p: str, exponent: str):
    return lambda value: {**value, "primes": {**value.get("primes", {}),
                                              p: exponent}}


def test_prelog_check_refuses_huge_turns_exponent_at_once(tmp_path, capsys):
    # the exponent used to be expanded to 10**3000000 before any check
    start = time.perf_counter()
    code = _check_solved(tmp_path, capsys,
                         {"u|e1": lambda _: {"turns": "1e3000000"}})
    assert time.perf_counter() - start < 1
    _assert_one_error_line(code, capsys)


def test_prelog_check_refuses_prime_zero(tmp_path, capsys):
    # with a numeric flag, log(0) used to end in a traceback
    code = _check_solved(tmp_path, capsys, {
        "u|e1": _with_prime("0", "1"),
        "v|e1": lambda _: {"re": 1.0, "im": 0.0}})
    _assert_one_error_line(code, capsys)


def test_prelog_check_quotes_a_prime_keys_factoring_refusal_whole(
        tmp_path, capsys):
    # the refusal was clipped at 80 characters, while it is never shorter
    # than 122: its reason was cut; now only the number in it is clipped
    check = str(tmp_path / "check.json")
    reason = ("no prime factor up to 1048576, and it is not a provable "
              "prime below 3317044064679887385961981")
    # 1099532599387 = 1048583 * 1048589, two primes past the trial bound
    big = str(1099532599387 ** 7)
    for key, quoted in (("1099532599387", "1099532599387"),
                        (big, f"{big[:80]}... ({len(big)} characters)")):
        code = _check_solved(tmp_path, capsys,
                             {"u|e1": _with_prime(key, "1")})
        assert code == 1
        assert capsys.readouterr() == ("", (
            f"error: {check}: u|e1.primes.{quoted}: cannot factor "
            f"{quoted}: {reason}\n"))


def test_prelog_check_symbol_never_binds_to_a_complex_flag(tmp_path,
                                                          capsys):
    # v|e1's re/im value is check1 in the table of numeric values; a
    # symbol of that name in the file stays unbound like any other
    results = []
    for symbol in ("zz", "check1"):
        code = _check_solved(tmp_path, capsys, {
            "u|e1": lambda _: {"symbols": {symbol: "1"}},
            "v|e1": lambda _: {"re": -1.0, "im": 0.0}})
        results.append((code, capsys.readouterr().err))
    assert results == [
        (5, f"error: no numeric value supplied for symbol {symbol}\n")
        for symbol in ("zz", "check1")]


@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
def test_prelog_check_refuses_a_lone_surrogate_in_a_symbol(as_json,
                                                          tmp_path):
    # the human writer used to die with a traceback part way through the
    # report, and --json exited 4 with the name escaped
    flags = {f"{v}|{e}": "1" for v in ("u", "v") for e in ("e1", "e2", "e3")}
    flags["u|e1"] = {"symbols": {"a\ud800": "1"}}
    check = tmp_path / "check.json"
    check.write_text(json.dumps({"flags": flags}), encoding="utf-8")
    argv = ["prelog", "--check", str(check)] + (["--json"] if as_json else [])
    proc, _ = _run_child(argv, tmp_path,
                         json.loads(dumps_curve(catalog.theta())))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: {check}: u|e1.symbols: not valid Unicode text\n")


def test_prelog_check_refuses_complex_zero(tmp_path, capsys):
    code = _check_solved(tmp_path, capsys,
                         {"u|e1": lambda _: {"re": 0.0, "im": 0.0}})
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'check.json'}: u|e1: zero is not invertible\n")


def test_prelog_check_refuses_rational_zero(tmp_path, capsys):
    code = _check_solved(tmp_path, capsys, {"u|e1": lambda _: "0"})
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'check.json'}: u|e1: zero is not invertible\n")


def test_prelog_check_without_flags_exits_1(tmp_path, capsys):
    curve = shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    check = tmp_path / "check.json"
    check.write_text(json.dumps({"assignment": {}}), encoding="utf-8")
    assert main(["prelog", curve, "--check", str(check)]) == 1
    assert capsys.readouterr() == (
        "", f'error: {check}: expected an object with a "flags" map\n')


def test_prelog_check_reads_prime_one_as_the_identity(tmp_path, capsys):
    code = _check_solved(tmp_path, capsys, {"u|e1": _with_prime("1", "1")})
    assert code == 0
    assert "result: pass" in capsys.readouterr().out


def test_plot_stdout_and_file(theta_file, tmp_path, capsys):
    assert main(["plot", theta_file]) == 0
    out = capsys.readouterr().out
    assert out == render_svg(catalog.theta())
    target = tmp_path / "theta.svg"
    assert main(["plot", theta_file, "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out


def test_plot_and_save_into_a_missing_directory_exit_1(theta_file, tmp_path,
                                                     capsys):
    target = tmp_path / "missing" / "x.svg"
    assert main(["plot", theta_file, "--out", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1
    with pytest.raises(ParseError, match="^cannot write "):
        save_curve(catalog.theta(), str(tmp_path / "missing" / "x.json"))


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
