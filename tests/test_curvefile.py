import fractions
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import tropcount
from tropcount import catalog, curvefile
from equivalence_cases import covers
from tropcount.curvefile import (MAX_DECIMAL_EXPONENT, _decode_json,
                                 curve_from_dict, curve_to_dict, dumps_curve,
                                 load_curve, loads_curve, parse_complex,
                                 parse_rational, read_json, save_curve)
from tropcount.errors import ECHO_LIMIT, ParseError, clip, format_rational
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
    # a lowest-terms (numerator, denominator) pair of ints
    assert parse_rational("1/3") == (1, 3)
    assert parse_rational("-2") == (-2, 1)
    assert parse_rational(7) == (7, 1)
    assert parse_rational("-6/8") == (-3, 4)
    assert format_rational(1, 3) == "1/3"
    assert format_rational(2, 1) == "2"
    with pytest.raises(ParseError):
        parse_rational(0.5)
    with pytest.raises(ParseError):
        parse_rational(True)
    with pytest.raises(ParseError):
        parse_rational("abc")


def _parse_rational_reference(value, what: str = "value"):
    """parse_rational before its int() path, kept as its reference, with
    the Fraction it read given as (numerator, denominator); its messages
    quote the value through clip, as parse_rational's do."""
    if isinstance(value, bool):
        raise ParseError(f"{what}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        try:
            exponent = re.search(r"[eE]([-+]?[0-9_]+)", value)
            if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
                raise ParseError(
                    f"{what}: decimal exponent outside "
                    f"[-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]")
            q = Fraction(value)
            return q.numerator, q.denominator
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{what}: bad rational {clip(repr(value))}: "
                             f"{clip(str(exc), ECHO_LIMIT + 40)}") from exc
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
    # the int() paths for "n" and "n/d", and the strings next to them that
    # only Fraction reads or refuses
    0, False, "0", " 7 ", "3/4", "-6/8", "6/-8", "0/0", "3/", "/4", "3 /4",
    "3/ 4", "3/+4", "+3/4 ", "3/4/5", "1/2_0", "0.5", "1e-3", "1e1001",
    "\u0661\u0662", "7" * 4400, "7/" + "3" * 4400,
], ids=repr)
def test_parse_rational_returns_or_refuses_as_before(value):
    # int() takes the integer strings and "n/d"; every other string, and
    # every refusal with its message, is still Fraction's
    got = _parsed(parse_rational, value)
    assert got == _parsed(_parse_rational_reference, value)
    if got[0] != "refused":
        assert got[0] is tuple
        assert all(type(x) is int for x in got[1])


def test_parse_rational_leaves_underscores_to_fraction(monkeypatch):
    # Fraction reads "1_000" only from Python 3.11 on, int() on every
    # version; with a Fraction that refuses underscores, as 3.10's does,
    # the string must still be refused
    class NoUnderscores(Fraction):
        def __new__(cls, value=0, denominator=None):
            if isinstance(value, str) and "_" in value:
                raise ValueError(f"Invalid literal for Fraction: {value!r}")
            return Fraction(value, denominator)

    monkeypatch.setattr(fractions, "Fraction", NoUnderscores)
    assert parse_rational("1000") == (1000, 1)
    with pytest.raises(ParseError, match="bad rational '1_000'"):
        parse_rational("1_000")


@pytest.mark.parametrize("value,whole", [
    ([1] * 26, True), ([1] * 27, False), ("1" * 78, True), ("1" * 79, False),
], ids=["list-78", "list-81", "str-80", "str-81"])
def test_parse_errors_quote_a_value_whole_up_to_the_limit(value, whole):
    # the repr is whole up to ECHO_LIMIT characters, as before, and cut
    # beyond it
    for parse, text in ((curvefile._int_pair, "a pair of integers"),
                        (curvefile._rational_pair, "a pair")):
        with pytest.raises(ParseError) as caught:
            parse(value, "x")
        assert str(caught.value) == f"x: expected {text}, got " + (
            repr(value) if whole else
            repr(value)[:ECHO_LIMIT] + f"... ({len(repr(value))} characters)")


@pytest.mark.parametrize("value,whole", [
    ("1" * 76 + "/0", True), ("1" * 77 + "/0", False),
    ("x" * 78, True), ("x" * 79, False),
])
def test_bad_rational_quotes_the_value_whole_up_to_the_limit(value, whole):
    with pytest.raises(ParseError) as caught:
        parse_rational(value, "x")
    quoted = repr(value) if whole else (
        repr(value)[:ECHO_LIMIT] + f"... ({len(repr(value))} characters)")
    assert str(caught.value).startswith(f"x: bad rational {quoted}: ")
    assert len(str(caught.value)) < 300


def test_huge_integer_numeric_value_is_refused():
    for re, im in ((10 ** 400, 0), (0.5, -10 ** 400)):
        with pytest.raises(ParseError, match="must be finite") as caught:
            parse_complex(re, im)
        assert len(str(caught.value)) < 300


def test_parse_rational_bounds_decimal_exponents():
    assert parse_rational("1e3") == (1000, 1)
    assert parse_rational("25E-1") == (5, 2)
    assert parse_rational("1e1000") == (10 ** 1000, 1)
    assert parse_rational("-1.5e-1_000") == (-3, 2 * 10 ** 1000)
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


@pytest.mark.parametrize("change,what", [
    (lambda d: d["vertices"][0].update(id="u\ud800"), "vertices[0].id"),
    (lambda d: d["edges"][1].update(id="e\udfff2"), "edges[1].id"),
    (lambda d: d["edges"][2].update(tail="\udc80"), "edges[2].tail"),
    (lambda d: d["edges"][0].update(head="v\ud83d"), "edges[0].head"),
    (lambda d: d["marked_points"][1].update(edge="\ud800e2"),
     "marked_points[1].edge"),
])
def test_ids_with_a_lone_surrogate_are_refused(change, what):
    # no output stream can encode a lone surrogate, so every id, end and
    # marked edge is refused where it is read
    doc = json.loads(json.dumps(THETA_DOC))
    change(doc)
    with pytest.raises(ParseError) as caught:
        loads_curve(json.dumps(doc))
    assert str(caught.value) == f"{what}: not valid Unicode text"
    # a surrogate pair written as two escapes is one character, and valid
    text = json.dumps(THETA_DOC).replace('"u"', '"\\ud83d\\ude00"')
    curve, _ = loads_curve(text)
    assert curve.vertices[0].id == "\U0001f600"


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


def test_round_trip_numeric():
    theta = catalog.theta()
    values = {"alpha11": 0.5 - 0.25j, "alpha12": -1.5 + 1e-3j,
              "alpha21": 2.0 + 0j, "alpha22": -0.125 - 4.75j}
    curve = theta.replace(lattice=theta.lattice.replace(
        mode=EqualityMode.NUMERIC, numeric_values=values))
    marks = catalog.theta_marks()
    again, marks2 = loads_curve(dumps_curve(curve, marks))
    assert again == curve
    assert again.lattice.numeric_values == values
    assert marks2 == marks


@pytest.mark.parametrize("value, refusal", [
    (MulValue.rational(2) ** Fraction(1, 2), "has a non-rational modulus"),
    (MulValue.symbol("alpha11"), "is not a concrete value"),
])
def test_exact_writer_refuses_a_value_without_a_rational_modulus(value,
                                                                 refusal):
    theta = catalog.theta()
    lattice = theta.lattice.replace(mode=EqualityMode.EXACT, multipliers={
        key: value if key == "alpha11" else MulValue.rational(1)
        for key in theta.lattice.multipliers})
    with pytest.raises(ParseError, match=refusal):
        dumps_curve(theta.replace(lattice=lattice))


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


# --------------------------------------------------------------------------
# the decoder: json's C scanner, with json.loads wording every refusal
# --------------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _typed(value):
    """value with the type of every node and the order of every map's
    keys made part of it (NaN compares by its repr)."""
    if isinstance(value, dict):
        return ("dict", [(k, _typed(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_typed(v) for v in value])
    return (type(value).__name__, repr(value))


def _valid_documents():
    texts = {}
    for name in sorted(os.listdir(GOLDEN)):
        if name.endswith(".json"):
            with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
                texts[name] = f.read()
    for base in sorted(covers.BASES):
        for k in (1, 9, 64):
            texts[f"{base}-cover{k}"] = dumps_curve(
                *covers.cover_instance(base, k, None))
    return texts


_VALID_DOCUMENTS = _valid_documents()


@pytest.mark.parametrize("text", list(_VALID_DOCUMENTS.values()),
                         ids=list(_VALID_DOCUMENTS))
def test_decoder_gives_the_value_json_loads_gives(text, tmp_path):
    expected = _typed(json.loads(text))
    assert _typed(_decode_json(text, "")) == expected
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert _typed(read_json(str(path), "doc")) == expected


@pytest.mark.parametrize("text", [
    '{"a": [1, -2.5e-3, true, false, null]} \t\n\r ',
    ' \n["\\ud800", "x\\udfffy", "\\u00e9"]',
    '[NaN, Infinity, -Infinity, 1e400, -1e400, -0.0]',
    '{"a": 1, "b": 2, "a": {"c": 3, "c": [4]}}',
], ids=["trailing-whitespace", "lone-surrogate", "constants", "duplicates"])
def test_decoder_accepts_what_json_loads_accepts(text):
    assert _typed(_decode_json(text, "")) == _typed(json.loads(text))


def test_decoder_keeps_the_last_of_duplicate_keys():
    assert _decode_json('{"a": 1, "b": 2, "a": 3}', "") == {"a": 3, "b": 2}


def _json_loads_refusal(text) -> str:
    """The ParseError text of a document json.loads refuses, as the
    decoder that called json.loads on every document worded it."""
    try:
        json.loads(text)
    except ValueError as exc:
        return f"not valid JSON: {exc}"
    except RecursionError:
        return "not valid JSON: nested too deeply"
    raise AssertionError("json.loads accepts the document")


@pytest.mark.parametrize("text", [
    "", " \t\n\r ", "\ufeff{}", '{"a": 1} x', "{} {}", "{,}", "[1,]",
    '{"a" 1}', '["a\x01b"]', "1" * 5000, "[" * 100000,
], ids=["empty", "whitespace", "bom", "trailing-data", "two-values",
        "comma-object", "comma-list", "missing-colon", "control-character",
        "integer-5000-digits", "deep"])
def test_decoder_refuses_with_the_json_loads_message(text, tmp_path):
    message = _json_loads_refusal(text)
    with pytest.raises(ParseError) as refused:
        loads_curve(text)
    assert str(refused.value) == message
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    # a file is read with universal newlines, so "\r" comes back as "\n"
    message = _json_loads_refusal(path.read_text(encoding="utf-8"))
    with pytest.raises(ParseError) as refused:
        read_json(str(path), "doc.json")
    assert str(refused.value) == f"doc.json: {message}"


def test_decoder_loads_json_only_to_word_a_refusal():
    # a document with whitespace around it is read without the json
    # package; before Python 3.12 the scanner finds JSONDecodeError only
    # in a loaded json.decoder, and raises SystemError without one
    text = '{"a" 1}'
    code = ("import sys\n"
            "from tropcount.curvefile import _decode_json, loads_curve\n"
            "from tropcount.errors import ParseError\n"
            "assert _decode_json(' \\n{\"a\": [1]}\\r\\t', '') == "
            "{'a': [1]}\n"
            "assert 'json' not in sys.modules\n"
            "try:\n"
            f"    loads_curve({text!r})\n"
            "except ParseError as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(tropcount.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == _json_loads_refusal(text) + "\n"


def test_read_json_of_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(json.dumps(THETA_DOC).replace("u", "\u00e9").encode(
        "latin-1"))
    with open(path, encoding="utf-8") as handle:
        with pytest.raises(UnicodeDecodeError) as undecoded:
            json.load(handle)
    with pytest.raises(ParseError) as refused:
        read_json(str(path), "doc.json")
    assert str(refused.value) == \
        f"doc.json: not valid JSON: {undecoded.value}"
