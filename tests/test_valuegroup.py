import random
from fractions import Fraction

import pytest

from tropcount.errors import ConstraintError
from tropcount.valuegroup import (EqualityMode, MulValue, mv_eval_numeric,
                                  mv_inv, mv_is_one, mv_mul, mv_pow, mv_prod,
                                  mv_root, mv_substitute)


def test_constructors_and_identity():
    assert str(MulValue.rational(1)) == "1"
    assert MulValue.rational(1).to_dict() == {}
    assert str(MulValue.minus_one()) == "turn(1/2)"
    assert str(MulValue.phase_turns(Fraction(1, 3))) == "turn(1/3)"
    assert str(MulValue.symbol("alpha11")) == "alpha11^1"


def test_rational_factorization():
    v = MulValue.rational(Fraction(-6, 4))
    # -3/2 = (-1) * 2^-1 * 3
    assert v.to_dict() == {"primes": {"2": "-1", "3": "1"},
                           "turns": "1/2"}
    assert mv_is_one(mv_mul(v, MulValue.rational(Fraction(-2, 3))))[0]


def test_rational_rejects_zero():
    with pytest.raises(ValueError):
        MulValue.rational(0)


def test_group_laws():
    rng = random.Random(2)
    values = [MulValue.rational(Fraction(3, 7)),
              MulValue.polar(Fraction(5, 2), Fraction(1, 6)),
              MulValue.symbol("a"),
              mv_mul(MulValue.symbol("b", -2), MulValue.minus_one())]
    for _ in range(30):
        x = rng.choice(values)
        y = rng.choice(values)
        z = rng.choice(values)
        assert mv_mul(mv_mul(x, y), z) == mv_mul(x, mv_mul(y, z))
        assert mv_mul(x, y) == mv_mul(y, x)
        assert mv_is_one(mv_mul(x, mv_inv(x)))[0]


def test_pow_laws():
    x = MulValue.polar(Fraction(2), Fraction(1, 3))
    assert mv_pow(x, 0) == MulValue.rational(1)
    assert mv_pow(x, 3) == mv_mul(x, mv_mul(x, x))
    assert mv_pow(mv_pow(x, 2), 3) == mv_pow(x, 6)
    assert mv_pow(x, -1) == mv_inv(x)
    # fractional powers take the principal branch of the phase
    half = mv_pow(x, Fraction(1, 2))
    assert mv_mul(half, half) == x


def test_root_is_principal():
    assert mv_root(MulValue.rational(4), 2) == MulValue.rational(2)
    v = mv_root(MulValue.minus_one(), 2)
    assert v == MulValue.phase_turns(Fraction(1, 4))
    assert mv_mul(v, v) == MulValue.minus_one()


def test_phase_normalized_to_unit_interval():
    v = MulValue.phase_turns(Fraction(7, 3))
    assert v == MulValue.phase_turns(Fraction(1, 3))
    assert mv_pow(MulValue.minus_one(), 2) == MulValue.rational(1)


def test_substitute_and_numeric_eval():
    expr = mv_mul(MulValue.symbol("a", 2), MulValue.symbol("b", -1))
    subbed = mv_substitute(expr, {"a": MulValue.rational(3),
                                  "b": MulValue.rational(9)})
    assert mv_is_one(subbed)[0]
    val = mv_eval_numeric(MulValue.polar(Fraction(1), Fraction(1, 4)))
    assert abs(val - 1j) < 1e-12
    val = mv_eval_numeric(MulValue.symbol("c"), {"c": -2.0})
    assert abs(val + 2.0) < 1e-12


def test_is_one_modes():
    sym = MulValue.symbol("alpha11")
    ok, cert = mv_is_one(sym, EqualityMode.FORMAL)
    assert ok is False
    assert "formal" in cert
    ok, _ = mv_is_one(MulValue.rational(1), EqualityMode.FORMAL)
    assert ok is True
    # exact mode resolves symbols through the value table
    ok, _ = mv_is_one(sym, EqualityMode.EXACT,
                      values={"alpha11": MulValue.rational(1)})
    assert ok is True
    ok, _ = mv_is_one(sym, EqualityMode.EXACT,
                      values={"alpha11": MulValue.rational(2)})
    assert ok is False


def test_is_one_numeric_margins():
    sym = MulValue.symbol("x")
    ok, _ = mv_is_one(sym, EqualityMode.NUMERIC, numeric_values={"x": 1.0})
    assert ok is True
    ok, _ = mv_is_one(sym, EqualityMode.NUMERIC,
                      numeric_values={"x": 1.0 + 1e-12}, tolerance=1e-9)
    assert ok is True
    # between tol and 100*tol the verdict is undecided
    ok, cert = mv_is_one(sym, EqualityMode.NUMERIC,
                         numeric_values={"x": 1.0 + 5e-8}, tolerance=1e-9)
    assert ok is None
    ok, _ = mv_is_one(sym, EqualityMode.NUMERIC,
                      numeric_values={"x": 2.0}, tolerance=1e-9)
    assert ok is False
    # an evaluation that overflows or meets NaN decides nothing
    for value, power in ((1e150, 3), (1e-150, -3), (float("nan"), 1)):
        ok, cert = mv_is_one(MulValue.symbol("x", power),
                             EqualityMode.NUMERIC,
                             numeric_values={"x": value})
        assert ok is None and "not finite" in cert


def test_exact_mode_requires_resolvable_symbols():
    sym = MulValue.symbol("mystery")
    with pytest.raises(ConstraintError):
        mv_is_one(sym, EqualityMode.EXACT)


def test_serialization_round_trip():
    rng = random.Random(9)
    for _ in range(25):
        v = MulValue.rational(1)
        if rng.random() < 0.7:
            v = mv_mul(v, MulValue.symbol(rng.choice("abc"),
                                          rng.randrange(-3, 4)))
        if rng.random() < 0.7:
            num = rng.randrange(1, 30)
            den = rng.randrange(1, 30)
            v = mv_mul(v, MulValue.rational(Fraction(num, den)))
        if rng.random() < 0.7:
            v = mv_mul(v, MulValue.phase_turns(
                Fraction(rng.randrange(8), 8)))
        assert MulValue.from_dict(v.to_dict()) == v


def _random_value(rng: random.Random) -> MulValue:
    v = MulValue.symbol(rng.choice("abc"), Fraction(rng.randrange(-6, 7), 2))
    v = mv_mul(v, MulValue.rational(Fraction(rng.randrange(-20, 21) or 1,
                                             rng.randrange(1, 20))))
    return mv_mul(v, MulValue.phase_turns(Fraction(rng.randrange(12), 12)))


def test_prod_equals_chained_mul_and_pow():
    rng = random.Random(17)
    for _ in range(200):
        pairs = [(_random_value(rng), rng.randrange(-4, 5))
                 for _ in range(rng.randrange(0, 6))]
        chained = MulValue.identity()
        for value, exponent in pairs:
            if exponent:
                chained = chained * mv_pow(value, exponent)
        product = mv_prod(pairs)
        assert product == chained
        assert repr(product) == repr(chained)
