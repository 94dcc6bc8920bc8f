import json
import random
import re
from fractions import Fraction

import pytest

from tropcount import catalog, curvefile
from tropcount.curvefile import (MAX_DECIMAL_EXPONENT, curve_from_dict,
                                 curve_to_dict, dumps_curve, format_rational,
                                 load_curve, loads_curve, parse_complex,
                                 parse_rational, save_curve)
from tropcount.errors import ParseError
from tropcount.selftest import generated_curves
from tropcount.valuegroup import EqualityMode, MulValue


THETA_DOC = {
    "lattice": {"lambda1": [1, -1], "lambda2": [1, 2]},
    "vertices": [{"id": "u", "pos": ["0", "0"]},
                 {"id": "v", "pos": ["1", "0"]}],
    "edges": [
        {"id": "e1", "tail": "u", "head": "v",
         "weight_vector": [1, 0], "length": "1"},
        {"id": "e2", "tail": "u", "head": "v",
         "weight_vector": [0, 1], "length": "1", "shift": [1, 0]},
        {"id": "e3", "tail": "u", "head": "v",
         "weight_vector": [-1, -1], "length": "1", "shift": [1, 1]},
    ],
    "marked_points": [{"edge": "e1", "t": "1/3"},
                      {"edge": "e2", "t": "1/2"}],
}


def test_parse_rational():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(7) == Fraction(7)
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(ParseError):
        parse_rational(0.5)
    with pytest.raises(ParseError):
        parse_rational(True)
    with pytest.raises(ParseError):
        parse_rational("abc")


def _parse_rational_reference(value, what: str = "value") -> Fraction:
    """parse_rational before its int() path, kept as its reference."""
    if isinstance(value, bool):
        raise ParseError(f"{what}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            exponent = re.search(r"[eE]([-+]?[0-9_]+)", value)
            if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
                raise ParseError(
                    f"{what}: decimal exponent outside "
                    f"[-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{what}: bad rational {value!r}: {exc}") from exc
    raise ParseError(
        f"{what}: expected a rational string, got {type(value).__name__} "
        f"(floats are not accepted; write \"1/3\")")


def _parsed(parse, value):
    try:
        result = parse(value, "x")
    except ParseError as exc:
        return "refused", str(exc)
    return type(result), result


@pytest.mark.parametrize("value", [
    "007", "-0", "+3", " 3 ", "\t-12\n", "\u0663", "\u00b2", "1_000",
    "1__000", "_1", "", "-", "3.0", "1e3", "1/3", " -4/6 ", "1/0", "0x10",
    "5" * 5000, "-" + "5" * 4300, "5" * 4301, "\x1c3", "\u00a07", "3 4",
    12, -7, True, 0.5, None,
], ids=repr)
def test_parse_rational_returns_or_refuses_as_before(value):
    # int() takes the integer strings; every other string, and every
    # refusal with its message, is still Fraction's
    got = _parsed(parse_rational, value)
    assert got == _parsed(_parse_rational_reference, value)
    if got[0] != "refused":
        assert got[0] is Fraction


def test_parse_rational_leaves_underscores_to_fraction(monkeypatch):
    # Fraction reads "1_000" only from Python 3.11 on, int() on every
    # version; with a Fraction that refuses underscores, as 3.10's does,
    # the string must still be refused
    class NoUnderscores(Fraction):
        def __new__(cls, value=0, denominator=None):
            if isinstance(value, str) and "_" in value:
                raise ValueError(f"Invalid literal for Fraction: {value!r}")
            return Fraction(value, denominator)

    monkeypatch.setattr(curvefile, "Fraction", NoUnderscores)
    assert parse_rational("1000") == 1000
    with pytest.raises(ParseError, match="bad rational '1_000'"):
        parse_rational("1_000")


def test_parse_rational_bounds_decimal_exponents():
    assert parse_rational("1e3") == 1000
    assert parse_rational("25E-1") == Fraction(5, 2)
    assert parse_rational("1e1000") == 10 ** 1000
    assert parse_rational("-1.5e-1_000") == Fraction(-3, 2 * 10 ** 1000)
    for text in ("1e1001", "1e-1001", "2.5E+100000000", "1e" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_rational(text)


def test_parse_theta_document():
    curve, marks = curve_from_dict(THETA_DOC)
    assert curve.lattice.mode is EqualityMode.FORMAL
    assert len(curve.vertices) == 2
    assert len(curve.edges) == 3
    assert curve.edge("e2").shift == (1, 0)
    assert [(m.edge, m.t) for m in marks] == [("e1", Fraction(1, 3)),
                                              ("e2", Fraction(1, 2))]
    # matches the built-in catalog entry
    built = catalog.theta()
    assert curve.lattice.period1 == built.lattice.period1
    assert {e.id for e in curve.edges} == {e.id for e in built.edges}


def test_missing_shift_is_derived():
    doc = json.loads(json.dumps(THETA_DOC))
    # e1's displacement is exactly length * direction, so shift (0, 0)
    assert "shift" not in doc["edges"][0]
    curve, _ = curve_from_dict(doc)
    assert curve.edge("e1").shift == (0, 0)
    # a displacement that needs a nonzero shift is also recovered
    del doc["edges"][1]["shift"]
    curve, _ = curve_from_dict(doc)
    assert curve.edge("e2").shift == (1, 0)


def test_non_integral_shift_rejected():
    doc = json.loads(json.dumps(THETA_DOC))
    doc["vertices"][1]["pos"] = ["1/2", "0"]
    doc["edges"][0].pop("shift", None)
    with pytest.raises(ParseError):
        curve_from_dict(doc)


def test_multiplier_modes():
    doc = json.loads(json.dumps(THETA_DOC))
    doc["multipliers"] = {k: {"formal": True}
                          for k in ("alpha11", "alpha12",
                                    "alpha21", "alpha22")}
    curve, _ = curve_from_dict(doc)
    assert curve.lattice.mode is EqualityMode.FORMAL

    doc["multipliers"] = {k: {"modulus": "2", "turns": "1/3"}
                          for k in ("alpha11", "alpha12",
                                    "alpha21", "alpha22")}
    curve, _ = curve_from_dict(doc)
    assert curve.lattice.mode is EqualityMode.EXACT
    assert curve.lattice.multipliers["alpha11"] == MulValue.polar(
        Fraction(2), Fraction(1, 3))

    doc["multipliers"] = {k: {"re": 0.5, "im": -0.25}
                          for k in ("alpha11", "alpha12",
                                    "alpha21", "alpha22")}
    curve, _ = curve_from_dict(doc)
    assert curve.lattice.mode is EqualityMode.NUMERIC
    assert curve.lattice.numeric_values["alpha12"] == 0.5 - 0.25j


def test_numeric_values_must_be_finite_and_in_range():
    assert parse_complex(1e150, -1e-150) == complex(1e150, -1e-150)
    assert parse_complex(0, 0.0) == 0  # refused later, at evaluation
    for re, im in ((float("nan"), 0.0), (0.5, float("inf")), (1e151, 0.0),
                   (1e-151, 0.0), (True, 0.0), ("1", 0.0)):
        with pytest.raises(ParseError):
            parse_complex(re, im)


def test_mixed_multiplier_forms_rejected():
    doc = json.loads(json.dumps(THETA_DOC))
    doc["multipliers"] = {
        "alpha11": {"formal": True},
        "alpha12": {"modulus": "2", "turns": "0"},
        "alpha21": {"formal": True},
        "alpha22": {"formal": True},
    }
    with pytest.raises(ParseError):
        curve_from_dict(doc)


def test_parse_errors():
    with pytest.raises(ParseError):
        loads_curve("not json {")
    with pytest.raises(ParseError):
        curve_from_dict([])
    doc = json.loads(json.dumps(THETA_DOC))
    del doc["lattice"]
    with pytest.raises(ParseError):
        curve_from_dict(doc)
    doc = json.loads(json.dumps(THETA_DOC))
    doc["edges"][0]["length"] = 0.25
    with pytest.raises(ParseError):
        curve_from_dict(doc)


def test_round_trip_exact(tmp_path):
    rng = random.Random(17)
    count = 0
    for name, curve, marks in generated_curves(rng, 20, keep_marks=True):
        try:
            text = dumps_curve(curve, marks)
        except ParseError:
            # a lattice transform turns formal/numeric multipliers into
            # composite expressions the format cannot carry; the writer
            # must refuse those instead of flattening them
            assert any(v != MulValue.symbol(k)
                       for k, v in curve.lattice.multipliers.items())
            continue
        again, marks2 = loads_curve(text)
        assert dumps_curve(again, marks2) == text
        assert again.lattice.mode is curve.lattice.mode
        assert again.lattice.multipliers == curve.lattice.multipliers
        assert [(v.id, v.position) for v in again.vertices] == \
            [(v.id, v.position) for v in curve.vertices]
        assert [(e.id, e.weight_vector, e.length, e.shift)
                for e in again.edges] == \
            [(e.id, e.weight_vector, e.length, e.shift)
             for e in curve.edges]
        assert [(m.edge, m.t) for m in marks2] == \
            [(m.edge, m.t) for m in marks]
        count += 1
    assert count >= 8
    path = tmp_path / "curve.json"
    save_curve(catalog.theta(), str(path), catalog.theta_marks())
    curve, marks = load_curve(str(path))
    assert len(marks) == 2
    assert curve.genus == 2


def test_serialized_document_has_no_floats():
    doc = curve_to_dict(catalog.theta(), catalog.theta_marks())
    text = json.dumps(doc)

    def walk(node):
        if isinstance(node, float):
            raise AssertionError(f"float leaked into document: {node}")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        if isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(text))


def test_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "curve.json"
    path.write_bytes(json.dumps(THETA_DOC).encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    with pytest.raises(ParseError, match="not valid JSON: 'utf-8' codec"):
        load_curve(str(path))


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        loads_curve("[" * 100000 + "]" * 100000)
