import json
import os
import random
from fractions import Fraction

import pytest

from tropcount.cli import main
from tropcount.curvefile import parse_group_element
from tropcount.errors import ConstraintError
from tropcount.valuegroup import (TRIAL_DIVISION_BOUND, EqualityMode, MulValue,
                                  _factorize, _is_prime, mv_eval_numeric,
                                  mv_inv, mv_is_one, mv_mul, mv_pow, mv_prod,
                                  mv_root)


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


def _factorize_reference(n):
    """Trial division up to the square root: the unbounded version
    _factorize replaced, kept as its reference."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    rng = random.Random(83)
    big = 1000000000000000003  # prime
    cases = [1, 2, 3, 4, 97, 2 ** 40, 3 ** 5 * 7 ** 3, 1048583, 1048573 ** 2]
    cases += [rng.randrange(1, 10 ** 12) for _ in range(60)]
    cases += [rng.randrange(1, 10 ** 4) * 1048583 for _ in range(10)]
    for n in cases:
        assert _factorize(n) == _factorize_reference(n), n
    assert _factorize(12 * big) == {2: 2, 3: 1, big: 1}
    assert _factorize(big) == {big: 1}


def test_factorize_refuses_what_it_cannot_prove():
    # two prime factors beyond the trial bound, a square of one, and a
    # prime past the deterministic Miller-Rabin range
    assert TRIAL_DIVISION_BOUND < 1048583
    for n in (1048583 * 1048589, 1000000000000000003 ** 2,
              2 ** 89 - 1):
        with pytest.raises(ValueError):
            _factorize(n)


#: psi_12 = 399165290221 * 798330580441, a strong pseudoprime to every
#: prime base from 2 to 37; only the thirteenth base, 41, rejects it
PSI_12 = 318665857834031151167461


def test_miller_rabin_needs_its_last_base(tmp_path, capsys):
    assert PSI_12 == 399165290221 * 798330580441
    assert not _is_prime(PSI_12)
    with pytest.raises(ValueError):
        _factorize(PSI_12)
    # a multiplier with that modulus is refused when the file is read
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "theta_exact.json")
    with open(golden, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["multipliers"]["alpha11"]["modulus"] = str(PSI_12)
    path = tmp_path / "psi12.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_miller_rabin_squares_up_to_minus_one():
    # 2^41 + 65 is prime and n - 1 = 2^6 * m with m odd, so some base
    # reaches n - 1 only after squaring
    n = 2 ** 41 + 65
    assert (n - 1) % 2 ** 6 == 0 and (n - 1) // 2 ** 6 % 2 == 1
    assert n > TRIAL_DIVISION_BOUND ** 2
    assert _is_prime(n)
    assert MulValue.scalar(n).primes == ((n, Fraction(1)),)


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


def test_numeric_eval():
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
        assert parse_group_element(v.to_dict()) == v


def _random_value(rng: random.Random) -> MulValue:
    v = MulValue.symbol(rng.choice("abc"), Fraction(rng.randrange(-6, 7), 2))
    v = mv_mul(v, MulValue.rational(Fraction(rng.randrange(-20, 21) or 1,
                                             rng.randrange(1, 20))))
    return mv_mul(v, MulValue.phase_turns(Fraction(rng.randrange(12), 12)))


def _random_exponent(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randrange(-4, 5)
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))


def test_prod_equals_chained_mul_and_pow():
    # integer and Fraction exponents, mixed in one product
    rng = random.Random(17)
    for _ in range(400):
        pairs = [(_random_value(rng), _random_exponent(rng))
                 for _ in range(rng.randrange(0, 6))]
        chained = MulValue.identity()
        for value, exponent in pairs:
            if exponent:
                chained = chained * mv_pow(value, exponent)
        product = mv_prod(pairs)
        assert product == chained
        assert repr(product) == repr(chained)


def test_prod_phases_wrap_and_terms_cancel():
    third = MulValue.phase_turns(Fraction(2, 3))
    half = MulValue.phase_turns(Fraction(1, 2))
    # 2/3 * 2 + 1/2 * 3 = 17/6 turns, stored as 5/6
    product = mv_prod([(third, 2), (half, 3)])
    assert product.phase == Fraction(5, 6)
    assert product == third * third * half * half * half
    # a term and its inverse cancel to the identity, with the identity's
    # exact representation
    rng = random.Random(19)
    for _ in range(50):
        value = _random_value(rng)
        e = _random_exponent(rng) or 1
        for pairs in ([(value, e), (value, -e)],
                      [(value, e), (mv_pow(value, e), -1)],
                      [(value, 2), (mv_inv(value), 1), (value, -1)]):
            product = mv_prod(pairs)
            assert product.is_identity
            assert repr(product) == repr(MulValue.identity())
    # exponents with different denominators on one symbol sum exactly
    x = MulValue.symbol("x", Fraction(1, 2))
    y = MulValue.symbol("x", Fraction(1, 3))
    assert mv_prod([(x, 1), (y, 1)]).symbols == (("x", Fraction(5, 6)),)
    assert mv_prod([(x, 2), (y, -3)]).is_identity


def _mixed_value(rng: random.Random) -> MulValue:
    """A value whose symbol, prime and phase exponents have unrelated
    denominators, so that one product meets many per component."""
    def q():
        return Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 4, 5, 6,
                                                            7, 12, 35)))
    symbols = {name: q() for name in rng.sample("abcd", rng.randrange(4))}
    primes = {p: q() for p in rng.sample((2, 3, 5, 7, 101), rng.randrange(4))}
    return MulValue._make(symbols, primes, q())


def test_prod_with_mixed_denominators_equals_chained_mul_and_pow():
    rng = random.Random(23)
    for _ in range(300):
        pairs = [(_mixed_value(rng), _random_exponent(rng))
                 for _ in range(rng.randrange(0, 8))]
        chained = MulValue.identity()
        for value, exponent in pairs:
            chained = mv_mul(chained, mv_pow(value, exponent))
        product = mv_prod(pairs)
        assert product == chained
        assert repr(product) == repr(chained)
        assert product.to_dict() == chained.to_dict()
        assert all(type(x) is Fraction for _, x in
                   product.symbols + product.primes + ((0, product.phase),))


def test_term_cache_is_not_part_of_the_value():
    rng = random.Random(29)
    for _ in range(50):
        value = _mixed_value(rng)
        twin = MulValue(value.symbols, value.primes, value.phase)
        before = (repr(value), hash(value), value.to_dict(), str(value))
        terms = value._terms
        assert (repr(value), hash(value), value.to_dict(),
                str(value)) == before
        assert "_terms" not in repr(value)
        # the twin has no cache yet and is still equal, with one hash
        assert "_terms" not in vars(twin)
        assert value == twin and hash(value) == hash(twin)
        assert twin._terms == terms
        assert value.replace(phase=value.phase) == value
        # the terms are the exponents as integers
        rebuilt = {}
        for kind, key, d, n in terms:
            rebuilt[(kind, key)] = Fraction(n, d)
        assert rebuilt == {
            **{(0, k): v for k, v in value.symbols},
            **{(1, p): v for p, v in value.primes},
            **({(2, None): value.phase} if value.phase else {})}
