"""JSON curve files.

Schema (all rationals are strings like "1/3" or "2"; plain JSON integers
are also accepted):

    {
      "lattice": {"lambda1": [1, -1], "lambda2": [1, 2]},
      "multipliers": {
        "alpha11": {"formal": true},          # or
        "alpha12": {"modulus": "3/2", "turns": "1/4"},   # or
        "alpha21": {"re": 0.5, "im": -0.25},
        ...
      },
      "vertices": [{"id": "u", "pos": ["0", "0"]}, ...],
      "edges": [{"id": "e1", "tail": "u", "head": "v",
                 "weight_vector": [1, 0], "length": "1/3",
                 "shift": [0, 0]}, ...],
      "marked_points": [{"edge": "e1", "t": "1/3"}]
    }

All four multipliers must use the same form; the form selects the default
equality mode (formal, exact polar, numeric); an entry with keys of two
forms, or a "formal" other than true, is refused.  A missing "multipliers" key
means formal.  A missing edge "shift" is derived from the vertex positions
through the lift relation and must come out integral ((0, 0) over a
degenerate lattice, which validation refuses).  Ids, edge ends and marked
edges must be valid Unicode text: a lone surrogate is refused.

Floats are rejected everywhere except the numeric multiplier form.
Rationals are read into lowest-terms (numerator, denominator) pairs of
ints (parse_rational), which is the form the curve model holds them in.

Documents are decoded by the C scanner json.loads runs (_json), so that
reading a well-formed file does not load the json package; json is
loaded to word the refusal of a malformed document, in json.loads's own
message, and to write a curve file (dumps_curve).  This needs CPython,
3.10 or newer, where _json is always built.
"""

import math
from _json import make_scanner
from types import SimpleNamespace

from .curve import (ALPHA_KEYS, Edge, MarkedPoint, PeriodLattice, Ratio,
                    TropicalCurve, Vertex)
from .errors import (ECHO_LIMIT, ParseError, clip, clip_rational,
                     format_rational)
from .valuegroup import EqualityMode, MulValue, as_ratio, mv_prod


#: largest decimal exponent accepted in a rational string such as "1e-5";
#: Fraction would otherwise build 10**exponent, whatever its size
MAX_DECIMAL_EXPONENT = 1000

#: the exponent of a decimal string, compiled (by re's cache) only when a
#: string goes to Fraction
_EXPONENT = r"[eE]([-+]?[0-9_]+)"


def parse_rational(value, what: str = "value") -> Ratio:
    """The rational a JSON int or string holds, as its lowest-terms
    (numerator, denominator) pair, with the value and the refusal
    fractions.Fraction gives that string.

    A JSON int, an integer string and "n/d" (d a nonzero run of digits,
    nothing between the digits and the slash) are read with int(); any
    other string goes to Fraction, loaded there, which reads it or words
    its refusal.
    """
    if isinstance(value, bool):
        raise ParseError(f"{what}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        try:
            if value.isascii() and "_" not in value:
                # a string int() refuses goes on to Fraction, which gives
                # the refusal.  Underscores are left to Fraction, which
                # accepts them only from Python 3.11 on, while int()
                # always does; Fraction takes no space or sign around
                # the slash, while int() would.
                num, slash, den = value.partition("/")
                try:
                    n = int(num)
                    if not slash:
                        return n, 1
                    if num[-1].isdigit() and den[:1].isdigit():
                        d = int(den)
                        if d:
                            g = math.gcd(n, d)
                            return n // g, d // g
                except ValueError:
                    pass
            import re

            exponent = re.search(_EXPONENT, value)
            if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
                raise ParseError(
                    f"{what}: decimal exponent outside "
                    f"[-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]")
            from fractions import Fraction

            q = Fraction(value)
            return q.numerator, q.denominator
        except (ValueError, ZeroDivisionError) as exc:
            # the reason may quote the value (or its exponent) once more,
            # after at most 40 characters of its own
            raise ParseError(
                f"{what}: bad rational {clip(repr(value))}: "
                f"{clip(str(exc), ECHO_LIMIT + 40)}") from exc
    raise ParseError(
        f"{what}: expected a rational string, got {type(value).__name__} "
        f"(floats are not accepted; write \"1/3\")")


#: numeric values must keep their square inside the normal double range,
#: so that evaluating powers of them does not overflow at the first step
NUMERIC_MODULUS_RANGE = (1e-150, 1e150)


def parse_complex(re, im, what: str = "value") -> complex:
    """A complex number from two finite JSON numbers.

    NaN and infinity are refused, and so is a nonzero modulus outside
    NUMERIC_MODULUS_RANGE.  Zero passes; evaluation refuses it.
    """
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in (re, im)):
        raise ParseError(f"{what}: re/im must be numbers")
    try:
        z = complex(re, im)
    except OverflowError:  # an integer beyond the double range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"{what}: re/im must be finite, got "
                         f"{clip(repr(re))}, {clip(repr(im))}")
    lo, hi = NUMERIC_MODULUS_RANGE
    if z and not lo <= abs(z) <= hi:
        raise ParseError(
            f"{what}: modulus {abs(z):.3e} is outside [{lo:.0e}, {hi:.0e}]")
    return z


def parse_polar(entry, what: str = "value") -> MulValue:
    """modulus * e^(2 pi i turns) from an object with two rationals."""
    modulus = parse_rational(_require(entry, "modulus", what),
                             f"{what}.modulus")
    turns = parse_rational(_require(entry, "turns", what), f"{what}.turns")
    if modulus[0] <= 0:
        raise ParseError(f"{what}: modulus must be positive")
    try:
        return MulValue.polar(modulus, turns)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def parse_group_element(entry, what: str = "value") -> MulValue:
    """A group element from the object MulValue.to_dict writes.

    Its optional keys are "symbols" ({name: rational}), "primes"
    ({integer: rational}) and "turns" (a rational), every rational as in
    parse_rational.  A prime key may be any positive integer: 1 and
    composite numbers stand for their prime factors.  A symbol name with a
    lone surrogate is refused, as a curve file id is.
    """
    parts = []
    for key in ("symbols", "primes"):
        table = entry.get(key, {})
        if not isinstance(table, dict):
            raise ParseError(f"{what}.{key}: expected an object")
        for name, raw in table.items():
            if key == "symbols":
                _check_text(name, f"{what}.symbols")
            exponent = parse_rational(raw, f"{what}.{key}.{clip(name)}")
            if key == "symbols":
                parts.append(MulValue.symbol(name, exponent))
                continue
            try:
                prime = int(name)
            except ValueError as exc:
                raise ParseError(
                    f"{what}.primes.{clip(name)}: {clip(str(exc))}") from exc
            try:
                parts.append(MulValue.scalar(prime, exponent))
            except ValueError as exc:  # <= 0, or unfactored
                # the factoring refusal clips the number it quotes
                raise ParseError(
                    f"{what}.primes.{clip(name)}: {exc}") from exc
    turns = parse_rational(entry.get("turns", 0), f"{what}.turns")
    parts.append(MulValue.phase_turns(turns))
    return mv_prod((x, 1) for x in parts)


def _int_pair(value, what: str) -> tuple[int, int]:
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in value)):
        raise ParseError(
            f"{what}: expected a pair of integers, got {clip(repr(value))}")
    return value[0], value[1]


def _rational_pair(value, what: str) -> tuple[Ratio, Ratio]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{what}: expected a pair, got {clip(repr(value))}")
    return (parse_rational(value[0], what),
            parse_rational(value[1], what))


def _require(mapping, key, what):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"{what}: missing required key {key!r}")
    return mapping[key]


def _check_text(text: str, what: str) -> None:
    """Refuse a string with a lone surrogate, which no output encodes."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(f"{what}: not valid Unicode text") from None


def _optional_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ParseError(
            f"{key}: expected a list, got {type(value).__name__}")
    return value


def check_one_form(entry: dict, forms, what: str) -> None:
    """Refuse keys of two of forms (sets of keys); keys of none pass."""
    held = entry.keys() & set().union(*forms)
    if not any(held <= form for form in forms):
        raise ParseError(
            f"{what}: mixes the keys of two forms ({', '.join(sorted(held))})")


def _parse_multipliers(doc) -> tuple[EqualityMode, dict, dict]:
    """Returns (mode, multipliers, numeric_values) for PeriodLattice."""
    table = doc.get("multipliers")
    if table is None:
        return EqualityMode.FORMAL, {}, {}
    if not isinstance(table, dict):
        raise ParseError("multipliers: expected an object")
    unknown = set(table) - set(ALPHA_KEYS)
    if unknown:
        raise ParseError(
            f"multipliers: unknown keys {clip(repr(sorted(unknown)))}")
    forms = set()
    for key in ALPHA_KEYS:
        entry = _require(table, key, "multipliers")
        if not isinstance(entry, dict):
            raise ParseError(f"multipliers.{key}: expected an object")
        check_one_form(entry, ({"formal"}, {"modulus", "turns"}, {"re", "im"}),
                       f"multipliers.{key}")
        if "formal" in entry:
            if entry["formal"] is not True:
                raise ParseError(f"multipliers.{key}: formal must be true")
            forms.add("formal")
        elif "modulus" in entry:
            forms.add("polar")
        elif "re" in entry:
            forms.add("numeric")
        else:
            raise ParseError(
                f"multipliers.{key}: need formal, modulus/turns, or re/im")
    if len(forms) != 1:
        raise ParseError(
            "multipliers: all four entries must use the same form "
            f"(found {sorted(forms)})")
    form = forms.pop()
    if form == "formal":
        return EqualityMode.FORMAL, {}, {}
    if form == "polar":
        values = {key: parse_polar(table[key], f"multipliers.{key}")
                  for key in ALPHA_KEYS}
        return EqualityMode.EXACT, values, {}
    numeric = {}
    for key in ALPHA_KEYS:
        entry = table[key]
        re = _require(entry, "re", f"multipliers.{key}")
        im = _require(entry, "im", f"multipliers.{key}")
        numeric[key] = parse_complex(re, im, f"multipliers.{key}")
    return EqualityMode.NUMERIC, {}, numeric


def curve_from_dict(doc) -> tuple[TropicalCurve, list[MarkedPoint]]:
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    lattice_doc = _require(doc, "lattice", "document")
    lambda1 = _int_pair(_require(lattice_doc, "lambda1", "lattice"),
                        "lattice.lambda1")
    lambda2 = _int_pair(_require(lattice_doc, "lambda2", "lattice"),
                        "lattice.lambda2")
    mode, multipliers, numeric = _parse_multipliers(doc)
    lattice = PeriodLattice(lambda1, lambda2, mode=mode,
                            multipliers=multipliers, numeric_values=numeric)

    vertices = []
    for i, vdoc in enumerate(_optional_list(doc, "vertices")):
        vid = _require(vdoc, "id", f"vertices[{i}]")
        if not isinstance(vid, str):
            raise ParseError(f"vertices[{i}].id: expected a string")
        _check_text(vid, f"vertices[{i}].id")
        pos = _rational_pair(_require(vdoc, "pos", f"vertices[{i}]"),
                             f"vertices[{i}].pos")
        vertices.append(Vertex(vid, pos))
    positions = {v.id: v._position for v in vertices}

    edges = []
    for i, edoc in enumerate(_optional_list(doc, "edges")):
        what = f"edges[{i}]"
        eid = _require(edoc, "id", what)
        tail = _require(edoc, "tail", what)
        head = _require(edoc, "head", what)
        if not all(isinstance(x, str) for x in (eid, tail, head)):
            raise ParseError(f"{what}: id/tail/head must be strings")
        for key, text in (("id", eid), ("tail", tail), ("head", head)):
            _check_text(text, f"{what}.{key}")
        wvec = _int_pair(_require(edoc, "weight_vector", what),
                         f"{what}.weight_vector")
        length = parse_rational(_require(edoc, "length", what),
                                f"{what}.length")
        if "shift" in edoc:
            shift = _int_pair(edoc["shift"], f"{what}.shift")
        else:
            shift = _derive_shift(lattice, positions, tail, head, wvec,
                                  length, what)
        edges.append(Edge(eid, tail, head, wvec, length, shift))

    marks = []
    for i, mdoc in enumerate(_optional_list(doc, "marked_points")):
        what = f"marked_points[{i}]"
        edge = _require(mdoc, "edge", what)
        if not isinstance(edge, str):
            raise ParseError(f"{what}.edge: expected a string")
        _check_text(edge, f"{what}.edge")
        t = parse_rational(_require(mdoc, "t", what), f"{what}.t")
        marks.append(MarkedPoint(edge, t))

    return TropicalCurve(lattice, vertices, edges), marks


def _derive_shift(lattice, positions, tail, head, wvec, length, what):
    """Solve the lift relation for the deck shift; it must be integral.
    Over a degenerate lattice the shift is (0, 0): validation refuses the
    lattice and never reads a shift."""
    if tail not in positions or head not in positions:
        raise ParseError(
            f"{what}: cannot derive shift, unknown vertex "
            f"{clip(repr(tail if tail not in positions else head))}")
    if lattice.det == 0:
        return 0, 0
    x, y, q = lattice.lift_gap(positions[tail], positions[head], length,
                               wvec, (0, 0))
    a, b = lattice.lattice_numerators(x, y)
    n = q * abs(lattice.det)
    if a % n or b % n:
        raise ParseError(
            f"{what}: derived shift "
            f"{clip_rational(as_ratio((a, n)), as_ratio((b, n)))} is not "
            "integral; the vertex positions do not satisfy the lift relation")
    return a // n, b // n


def curve_to_dict(
    curve: TropicalCurve, marks: list[MarkedPoint] | None = None
) -> dict:
    lattice = curve.lattice
    doc: dict = {
        "lattice": {
            "lambda1": list(lattice.period1),
            "lambda2": list(lattice.period2),
        }
    }
    if lattice.mode == EqualityMode.EXACT:
        doc["multipliers"] = {
            key: {
                "modulus": format_rational(*_polar_modulus(value)),
                "turns": format_rational(*value.phase_ratio),
            }
            for key, value in lattice.multipliers.items()
        }
    else:
        # In formal and numeric modes the file format can only express
        # multipliers that are the plain symbols alpha11..alpha22; a curve
        # that went through a lattice transform carries composite symbol
        # expressions and must be refused rather than silently flattened.
        for key, value in lattice.multipliers.items():
            if value != MulValue.symbol(key):
                raise ParseError(
                    f"multiplier {key} = {value} is not representable in "
                    f"the curve file format (only plain symbols are, in "
                    f"{lattice.mode.value} mode)")
        if lattice.mode == EqualityMode.NUMERIC:
            doc["multipliers"] = {
                key: {"re": z.real, "im": z.imag}
                for key, z in lattice.numeric_values.items()
            }
    doc["vertices"] = [
        {"id": v.id, "pos": [format_rational(*v._position[0]),
                             format_rational(*v._position[1])]}
        for v in curve.vertices
    ]
    doc["edges"] = [
        {"id": e.id, "tail": e.tail, "head": e.head,
         "weight_vector": list(e.weight_vector),
         "length": format_rational(*e._length),
         "shift": list(e.shift)}
        for e in curve.edges
    ]
    if marks:
        doc["marked_points"] = [
            {"edge": m.edge, "t": format_rational(*m._t)} for m in marks
        ]
    return doc


def _polar_modulus(value: MulValue) -> Ratio:
    """The modulus of a symbol-free value with integer prime exponents,
    as (numerator, denominator)."""
    num = den = 1
    for kind, prime, n, d in value.terms:
        if kind == 1:
            if d != 1:
                raise ParseError(
                    f"multiplier {value} has a non-rational modulus")
            if n > 0:
                num *= prime ** n
            else:
                den *= prime ** -n
    if value.has_symbols:
        raise ParseError(f"multiplier {value} is not a concrete value")
    return num, den


#: the C scanner json.loads runs, over the context json.loads gives it
#: (strict, no hooks, float and int, the NaN and Infinity constants)
_scan_json = make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None,
    parse_float=float, parse_int=int,
    parse_constant={"NaN": math.nan, "Infinity": math.inf,
                    "-Infinity": -math.inf}.__getitem__))

#: the whitespace JSON allows around a value
_JSON_SPACE = " \t\n\r"


def _decode_json(source, what: str):
    """The JSON document in the text source (a str or a text file), as
    json.loads gives it.

    The document is read by json.loads's own C scanner, with JSON
    whitespace skipped on either side of the value, so that a well-formed
    one does not load the json package.  A document the scanner does not
    accept whole (an error, data after the value, a leading BOM) goes to
    json.loads, whose exception words the ParseError; one nested deeper
    than the scanner recurses is refused as "nested too deeply".
    """
    prefix = f"{what}: " if what else ""
    try:
        text = source if isinstance(source, str) else source.read()
        try:
            value, end = _scan_json(
                text, len(text) - len(text.lstrip(_JSON_SPACE)))
            if end == len(text.rstrip(_JSON_SPACE)):
                return value
        except (StopIteration, ValueError, SystemError):
            # before 3.12 the scanner finds JSONDecodeError only in an
            # already loaded json.decoder; failing that it raises
            # SystemError ("returned NULL without setting an exception")
            pass
        import json
        return json.loads(text)
    except ValueError as exc:  # not UTF-8, JSONDecodeError, over-long integer
        raise ParseError(f"{prefix}not valid JSON: {exc}") from exc
    except RecursionError as exc:  # nested deeper than the decoder recurses
        raise ParseError(f"{prefix}not valid JSON: nested too deeply") from exc


def read_json(path: str, what: str = ""):
    """The JSON document in the UTF-8 file at path.

    A file that cannot be opened or read gives ParseError "cannot read
    PATH: ..."; one that is not UTF-8, not JSON, or nested deeper than
    the decoder recurses gives "WHAT: not valid JSON: ..." (without the
    "WHAT: " when what is empty).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _decode_json(handle, what)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def loads_curve(text: str) -> tuple[TropicalCurve, list[MarkedPoint]]:
    return curve_from_dict(_decode_json(text, ""))


def load_curve(path: str) -> tuple[TropicalCurve, list[MarkedPoint]]:
    return curve_from_dict(read_json(path))


def dumps_curve(
    curve: TropicalCurve, marks: list[MarkedPoint] | None = None
) -> str:
    import json

    return json.dumps(curve_to_dict(curve, marks), indent=2) + "\n"


def save_curve(
    curve: TropicalCurve, path: str,
    marks: list[MarkedPoint] | None = None,
) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_curve(curve, marks))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
