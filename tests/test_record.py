import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property

import pytest

import tropcount
from tropcount.curve import Edge, PeriodLattice
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


def test_mutable_defaults_are_per_instance():
    a, b = PeriodLattice((1, 0), (0, 1)), PeriodLattice((1, 0), (0, 1))
    assert a.numeric_values is not b.numeric_values
    assert a.multipliers is not b.multipliers
    shared = {"alpha11": 2j}
    assert PeriodLattice((1, 0), (0, 1),
                         numeric_values=shared).numeric_values is not shared


#: layer modules that a command leaves unloaded when it does not use them
_ALGEBRA = ("tropcount.exactmath", "tropcount.moduli", "tropcount.prelog",
            "tropcount.realize")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site (and any .pth imports) out of the measurement.  A bare
    # `import tropcount` loads no submodule, and tropcount.cli loads
    # neither cmath, which only numeric evaluation uses, nor typing
    # (annotations are never evaluated), nor the json package (curve
    # files are read by its C scanner, _json); validate and plot
    # load no algebra layer; a well-formed exact count loads neither
    # prelog nor argparse (with its gettext and locale) nor the selftest
    # module nor cmath nor typing nor json.
    src = os.path.dirname(os.path.dirname(tropcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "theta_exact.json")
    code = ("import sys, tropcount\n"
            "def loaded(names):\n"
            "    print(sorted(set(names) & set(sys.modules)), "
            "file=sys.stderr)\n"
            "loaded(m for m in sys.modules if m.startswith('tropcount.'))\n"
            "import tropcount.cli\n"
            "loaded({'cmath', 'dataclasses', 'inspect', 'json', "
            "'json.decoder', 'json.encoder', 'typing'})\n"
            "for command in ('validate', 'plot'):\n"
            f"    tropcount.cli.main([command, {golden!r}])\n"
            f"loaded({_ALGEBRA!r})\n"
            f"code = tropcount.cli.main(['count', {golden!r}, '--json'])\n"
            "print(code, file=sys.stderr)\n"
            "loaded({'argparse', 'cmath', 'gettext', 'json', 'json.decoder', "
            "'json.encoder', 'locale', 'tropcount.prelog', "
            "'tropcount.selftest', 'typing'})\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stderr == "[]\n[]\n[]\n0\n[]\n"
