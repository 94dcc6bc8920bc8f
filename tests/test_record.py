import importlib
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
from fractions import Fraction
from functools import cached_property

import pytest

import tropcount
from tropcount.curve import Edge, MarkedPoint, PeriodLattice, Vertex
from tropcount.curvefile import load_curve
from tropcount.errors import ValidationError
from tropcount.prelog import prelog_exists
from tropcount.record import Record
from tropcount.selftest import SuiteResult
from tropcount.valuegroup import MulValue


class Pair(Record):
    """Normalizes its first field, defaults its second."""

    left: Fraction
    right: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "left", Fraction(self.left))

    @cached_property
    def doubled(self):
        return 2 * self.left


class Other(Record):
    left: Fraction
    right: tuple = ()


class Single(Record):
    only: int


def test_construction_defaults_and_normalization():
    assert Pair(1).right == ()
    assert Pair("1/2", (3,)).left == Fraction(1, 2)
    assert Pair(right=(3,), left=2) == Pair(2, (3,))
    assert type(Pair(2, ()).left) is Fraction  # __post_init__ on the fast path
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, (), 3)
    with pytest.raises(TypeError):
        Pair(1, left=2)
    with pytest.raises(TypeError):
        Pair(1, middle=2)


def test_equality_and_hash():
    assert Pair(1) == Pair(Fraction(1), ())
    assert Pair(1) != Pair(2)
    assert Pair(1) != Other(Fraction(1))  # other class: NotImplemented
    assert Pair(1).__eq__(Other(Fraction(1))) is NotImplemented
    assert hash(Pair(1, (2,))) == hash(Pair(1, (2,)))
    assert len({Pair(1), Pair(1), Pair(2)}) == 2
    assert Single(1) == Single(1) != Single(2)
    assert hash(Single(1)) == hash((1,))
    assert hash(Pair(1, (2,))) == hash((Fraction(1), (2,)))
    with pytest.raises(TypeError):
        hash(Pair(1, [2]))
    with pytest.raises(TypeError):
        hash(PeriodLattice((1, 0), (0, 1)))


def test_repr_matches_dataclass_style():
    assert repr(Pair(1, (2,))) == "Pair(left=Fraction(1, 1), right=(2,))"
    assert repr(Single(3)) == "Single(only=3)"
    assert Single(3).replace(only=4) == Single(4)
    assert repr(MulValue.symbol("x", Fraction(-1, 2))) == (
        "MulValue(terms=((0, 'x', -1, 2),))")


def test_frozen():
    p = Pair(1)
    with pytest.raises(AttributeError):
        p.left = 2
    with pytest.raises(AttributeError):
        p.extra = 2
    with pytest.raises(AttributeError):
        del p.left
    with pytest.raises(AttributeError):
        SuiteResult("s", 1, []).checks = 2
    assert p.left == 1


def test_cached_values_stay_out_of_equality_hash_and_repr():
    p, q = Pair(3), Pair(3)
    assert p.doubled == 6
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)


def test_replace_runs_post_init_and_keeps_the_original():
    e = Edge("e", "u", "v", (2, 0), 1)
    f = e.replace(weight_vector=[0, 3], length="1/2")
    assert (f.weight_vector, f.length, f.weight) == ((0, 3), Fraction(1, 2), 3)
    assert (e.weight_vector, e.weight) == ((2, 0), 2)
    assert f.replace() == f
    with pytest.raises(TypeError):
        e.replace(colour="red")
    # an integral vector of other numbers becomes ints; any other refused
    g = e.replace(weight_vector=(Fraction(2), 1))
    assert g.weight_vector == (2, 1) and type(g.weight_vector[0]) is int
    with pytest.raises(ValidationError):
        e.replace(weight_vector=(Fraction(1, 2), 0))


@pytest.mark.parametrize("cls,inputs,shown", [
    (Vertex, [("a", (1, 0)), ("a", (Fraction(1), Fraction(0))),
              ("a", ("1", "0")), ("a", ((2, 2), (0, -5)))],
     "Vertex(id='a', position=(Fraction(1, 1), Fraction(0, 1)))"),
    (Vertex, [("a", (Fraction(-2, 3), 5)), ("a", ("-2/3", " 5 ")),
              ("a", ((4, -6), (5, 1)))],
     "Vertex(id='a', position=(Fraction(-2, 3), Fraction(5, 1)))"),
    (Edge, [("e", "u", "v", (1, 0), 2), ("e", "u", "v", (1, 0), Fraction(2)),
            ("e", "u", "v", (1, 0), "2"), ("e", "u", "v", (1, 0), (6, 3))],
     "Edge(id='e', tail='u', head='v', weight_vector=(1, 0), "
     "length=Fraction(2, 1), shift=(0, 0))"),
    (Edge, [("e", "u", "v", (1, 0), Fraction(2, 3)),
            ("e", "u", "v", (1, 0), "2/3"),
            ("e", "u", "v", (1, 0), (-4, -6))],
     "Edge(id='e', tail='u', head='v', weight_vector=(1, 0), "
     "length=Fraction(2, 3), shift=(0, 0))"),
    (MarkedPoint, [("e", Fraction(1, 3)), ("e", "1/3"), ("e", (3, 9))],
     "MarkedPoint(edge='e', t=Fraction(1, 3))"),
], ids=["vertex-int", "vertex-fraction", "edge-int", "edge-fraction",
        "mark"])
def test_rational_views_keep_equality_hash_and_repr(cls, inputs, shown):
    # the records hold their rationals as (numerator, denominator) pairs
    # of ints, whatever the form given: int, Fraction, string or pair
    records = [cls(*args) for args in inputs]
    first = records[0]
    for record in records:
        assert record == first and hash(record) == hash(first)
        assert repr(record) == shown
        assert record.replace() == first
    # the views read Fractions, built on first read; reading one leaves
    # equality and hashing alone
    fresh = cls(*inputs[0])
    view, other = {Vertex: ("position", (7, 7)), Edge: ("length", 7),
                   MarkedPoint: ("t", Fraction(1, 7))}[cls]
    value = getattr(fresh, view)
    assert all(type(x) is Fraction for x in
               (value if type(value) is tuple else (value,)))
    assert fresh == first and hash(fresh) == hash(first)
    assert getattr(fresh, view) is value
    assert fresh != first.replace(**{view: other})
    with pytest.raises(AttributeError):
        setattr(fresh, view, 1)


def test_mutable_defaults_are_per_instance():
    a, b = PeriodLattice((1, 0), (0, 1)), PeriodLattice((1, 0), (0, 1))
    assert a.numeric_values is not b.numeric_values
    assert a.multipliers is not b.multipliers
    shared = {"alpha11": 2j}
    assert PeriodLattice((1, 0), (0, 1),
                         numeric_values=shared).numeric_values is not shared


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_fields_are_the_own_annotations_in_order():
    for module in pkgutil.iter_modules(tropcount.__path__):
        importlib.import_module(f"tropcount.{module.name}")
    records = [cls for cls in _subclasses(Record)
               if cls.__module__.startswith("tropcount.")]
    assert len(records) >= 16
    for cls in records:
        base = cls.__mro__[1]
        assert cls._fields == base._fields + tuple(cls.__annotations__), cls

    class Bare(Single):
        """Adds no annotation, so no field."""

    assert Bare._fields == ("only",) and Bare._defaults == {}
    assert Bare(4) == Bare(only=4) != Bare(5)


#: layer modules that a command leaves unloaded when it does not use them
_ALGEBRA = ("tropcount.exactmath", "tropcount.moduli", "tropcount.prelog",
            "tropcount.realize")


#: what the rationals of Python's standard library load: the curve model
#: holds its rationals as integer pairs, and no command loads these
_NUMBERS = ("decimal", "fractions", "numbers")


def _numeric_copy(path: str, out) -> None:
    """The curve file at path with each exact multiplier written as its
    complex value, re and im, as the bench's numeric inputs are."""
    doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    for key, entry in doc["multipliers"].items():
        modulus = float(Fraction(entry["modulus"]))
        angle = 2 * math.pi * Fraction(entry["turns"])
        doc["multipliers"][key] = {"re": modulus * math.cos(angle),
                                   "im": modulus * math.sin(angle)}
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _check_copy(path: str, out, solved: bool) -> None:
    """A --check file for the curve at path: its solved assignment in the
    form prelog --json writes, or "2/3" at every flag."""
    curve, _ = load_curve(path)
    flags = [f"{vertex}|{edge}" for e in curve.edges
             for vertex, edge in ((e.tail, e.id), (e.head, e.id))]
    if solved:
        values = [x.to_dict() for x in prelog_exists(curve)[1].assignment]
    else:
        values = ["2/3"] * len(flags)
    out.write_text(json.dumps({"flags": dict(zip(flags, values))}),
                   encoding="utf-8")


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    # -S keeps site (and any .pth imports) out of the measurement.  A bare
    # `import tropcount` loads no submodule, and tropcount.cli loads
    # neither cmath, which only numeric evaluation uses, nor typing
    # (annotations are evaluated, and name only builtin types and the
    # package's own), nor __future__, nor the json package (curve files
    # are read by its C scanner, _json), nor fractions with decimal and
    # numbers; validate and plot load no algebra layer; a well-formed
    # exact count loads neither prelog nor argparse (with its gettext and
    # locale) nor the selftest module nor cmath nor typing nor __future__
    # nor json.  Then every command but selftest, on an exact, a formal
    # and a numeric file, --check included, loads no fractions, decimal
    # or numbers.
    src = os.path.dirname(os.path.dirname(tropcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    golden = os.path.join(golden_dir, "theta_exact.json")
    formal = os.path.join(golden_dir, "triple_cover9_formal.json")
    numeric = tmp_path / "theta_numeric.json"
    _numeric_copy(golden, numeric)
    files = []
    for path, solved in ((golden, True), (formal, False),
                         (str(numeric), True)):
        check = tmp_path / f"check{len(files)}.json"
        _check_copy(path, check, solved)
        files.append((path, str(check)))
    code = ("import contextlib, io, sys, tropcount\n"
            "def loaded(names):\n"
            "    print(sorted(set(names) & set(sys.modules)), "
            "file=sys.stderr)\n"
            "loaded(m for m in sys.modules if m.startswith('tropcount.'))\n"
            "import tropcount.cli\n"
            "loaded({'__future__', 'cmath', 'dataclasses', 'inspect', "
            f"'json', 'json.decoder', 'json.encoder', 'typing', "
            f"*{_NUMBERS!r}}})\n"
            "for command in ('validate', 'plot'):\n"
            f"    tropcount.cli.main([command, {golden!r}])\n"
            f"loaded({_ALGEBRA!r})\n"
            f"code = tropcount.cli.main(['count', {golden!r}, '--json'])\n"
            "print(code, file=sys.stderr)\n"
            "loaded({'__future__', 'argparse', 'cmath', 'gettext', 'json', "
            "'json.decoder', 'json.encoder', 'locale', 'tropcount.prelog', "
            "'tropcount.selftest', 'typing'})\n"
            "codes = []\n"
            f"for path, check in {files!r}:\n"
            "    for argv in (['plot', path], *(\n"
            "            [command, path, *args] for args in ([], ['--json'])\n"
            "            for command in ('validate', 'analyze', 'realizable',\n"
            "                            'count', 'prelog'))):\n"
            "        with contextlib.redirect_stderr(io.StringIO()):\n"
            "            codes.append(tropcount.cli.main(argv))\n"
            "    for args in ([], ['--json']):\n"
            "        codes.append(tropcount.cli.main(\n"
            "            ['prelog', path, '--check', check, *args]))\n"
            "    print(codes, file=sys.stderr)\n"
            "    codes = []\n"
            f"loaded({_NUMBERS!r})\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    # plot (which takes no --json), then the five reports in human and
    # --json form, then --check in both; the formal file is not
    # realizable (count and prelog exit 4), and "2/3" fails its rows
    ran = "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
    unrealizable = "[0, 0, 0, 0, 4, 4, 0, 0, 0, 4, 4, 4, 4]\n"
    assert proc.stderr == ("[]\n[]\n[]\n0\n[]\n" + ran + unrealizable + ran
                           + "[]\n")
