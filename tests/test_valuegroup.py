import json
import math
import os
import random
from fractions import Fraction

import pytest

from tropcount.cli import main
from tropcount.curvefile import parse_group_element
from tropcount.errors import ConstraintError
from tropcount.valuegroup import (TRIAL_DIVISION_BOUND, EqualityMode, MulValue,
                                  _factorize, _is_prime, mv_eval_numeric,
                                  mv_is_one, mv_pow, mv_prod, mv_root)


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
    assert mv_is_one(v * MulValue.rational(Fraction(-2, 3)))[0]


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
        with pytest.raises(ValueError, match=f"cannot factor {n}: "):
            _factorize(n)
    # a number past the quotation limit is clipped in the message
    big = (2 ** 521 - 1) * (2 ** 607 - 1)
    with pytest.raises(ValueError, match=r"\.\.\. \(340 characters\): "):
        _factorize(big)


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
              MulValue.symbol("b", -2) * MulValue.minus_one()]
    for _ in range(30):
        x = rng.choice(values)
        y = rng.choice(values)
        z = rng.choice(values)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert mv_is_one(x * x ** -1)[0]
        assert x * y / y == x


def test_pow_laws():
    x = MulValue.polar(Fraction(2), Fraction(1, 3))
    assert mv_pow(x, 0) == MulValue.rational(1)
    assert mv_pow(x, 3) == x * (x * x)
    assert mv_pow(mv_pow(x, 2), 3) == mv_pow(x, 6)
    assert mv_pow(x, -1) == MulValue.identity() / x
    # fractional powers take the principal branch of the phase
    half = mv_pow(x, Fraction(1, 2))
    assert half * half == x


def test_root_is_principal():
    assert mv_root(MulValue.rational(4), 2) == MulValue.rational(2)
    v = mv_root(MulValue.minus_one(), 2)
    assert v == MulValue.phase_turns(Fraction(1, 4))
    assert v * v == MulValue.minus_one()
    with pytest.raises(ValueError):
        mv_root(v, 0)


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
    with pytest.raises(ValueError, match="unknown mode"):
        mv_is_one(sym, "formal")


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
            v = v * MulValue.symbol(rng.choice("abc"), rng.randrange(-3, 4))
        if rng.random() < 0.7:
            num = rng.randrange(1, 30)
            den = rng.randrange(1, 30)
            v = v * MulValue.rational(Fraction(num, den))
        if rng.random() < 0.7:
            v = v * MulValue.phase_turns(Fraction(rng.randrange(8), 8))
        assert parse_group_element(v.to_dict()) == v


def _random_value(rng: random.Random) -> MulValue:
    v = MulValue.symbol(rng.choice("abc"), Fraction(rng.randrange(-6, 7), 2))
    v = v * MulValue.rational(Fraction(rng.randrange(-20, 21) or 1,
                                       rng.randrange(1, 20)))
    return v * MulValue.phase_turns(Fraction(rng.randrange(12), 12))


def _random_exponent(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randrange(-4, 5)
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))


# The reference below builds the canonical terms with dicts and Fractions,
# one product or power at a time, and never calls mv_prod: it is the
# independent oracle for mv_prod and for everything that goes through it.


def _ref_make(symbols, primes, phase):
    terms = []
    for kind, table in ((0, symbols), (1, primes), (2, {None: phase % 1})):
        for key, v in sorted(table.items()):
            if v:
                v = Fraction(v)
                terms.append((kind, key, v.numerator, v.denominator))
    return MulValue(tuple(terms))


def _assert_same(value, reference):
    """One value, compared through every form a reader sees."""
    assert value == reference
    assert repr(value) == repr(reference)
    assert str(value) == str(reference)
    assert value.to_dict() == reference.to_dict()
    assert (value.symbols, value.primes, value.phase) == (
        reference.symbols, reference.primes, reference.phase)


def _ref_mul(a, b):
    symbols, primes = dict(a.symbols), dict(a.primes)
    for k, v in b.symbols:
        symbols[k] = symbols.get(k, Fraction(0)) + v
    for p, v in b.primes:
        primes[p] = primes.get(p, Fraction(0)) + v
    return _ref_make(symbols, primes, a.phase + b.phase)


def _ref_pow(a, exponent):
    q = Fraction(exponent)
    return _ref_make({k: v * q for k, v in a.symbols},
                     {p: v * q for p, v in a.primes}, a.phase * q)


def _ref_chained(pairs):
    acc = MulValue.identity()
    for value, exponent in pairs:
        acc = _ref_mul(acc, _ref_pow(value, exponent))
    return acc


def test_prod_equals_chained_mul_and_pow():
    # integer and Fraction exponents, mixed in one product
    rng = random.Random(17)
    for _ in range(400):
        pairs = [(_random_value(rng), _random_exponent(rng))
                 for _ in range(rng.randrange(0, 6))]
        _assert_same(mv_prod(pairs), _ref_chained(pairs))


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
                      [(value, 2), (value ** -1, 1), (value, -1)]):
            product = mv_prod(pairs)
            assert product.is_identity
            _assert_same(product, MulValue.identity())
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
    return _ref_make(symbols, primes, q())


def test_prod_with_mixed_denominators_equals_chained_mul_and_pow():
    rng = random.Random(23)
    for _ in range(300):
        pairs = [(_mixed_value(rng), _random_exponent(rng))
                 for _ in range(rng.randrange(0, 8))]
        product = mv_prod(pairs)
        _assert_same(product, _ref_chained(pairs))
        _assert_canonical(product)


def _assert_canonical(v):
    """Sorted by (kind, key), each kind and key once, every exponent a
    nonzero n/d in lowest terms with d > 0, the phase in (0, 1), and the
    views reading the same exponents as Fractions."""
    keys = [(kind, key) for kind, key, _, _ in v.terms]
    assert len(set(keys)) == len(keys) and keys == sorted(keys), v
    for kind, key, n, d in v.terms:
        assert type(n) is int and type(d) is int, v
        assert n != 0 and d > 0 and math.gcd(n, d) == 1, v
        assert type(key) is (str, int, type(None))[kind], v
        if kind == 2:
            assert 0 < n < d, v
    assert v.symbols == tuple((key, Fraction(n, d))
                              for kind, key, n, d in v.terms if kind == 0)
    assert v.primes == tuple((key, Fraction(n, d))
                             for kind, key, n, d in v.terms if kind == 1)
    phase = [Fraction(n, d) for kind, _, n, d in v.terms if kind == 2]
    assert v.phase == (phase[0] if phase else 0), v
    assert all(type(x) is Fraction
               for _, x in v.symbols + v.primes + ((0, v.phase),)), v
    assert v.is_identity == (v.terms == ())
    assert v.has_symbols == bool(v.symbols)


def test_terms_are_the_value():
    # terms is the one field: a value rebuilt from its terms is equal,
    # hashes alike and reads the same, and no other state is kept
    assert MulValue._fields == ("terms",)
    rng = random.Random(29)
    for _ in range(50):
        value = _mixed_value(rng) * _random_value(rng)
        _assert_canonical(value)
        twin = MulValue(value.terms)
        _assert_same(twin, value)
        assert hash(twin) == hash(value)
        assert value.replace(terms=value.terms) == value
        assert vars(value) == {"terms": value.terms}


def test_every_constructor_and_operation_is_canonical():
    # the constructors build canonical values directly and every product,
    # quotient, power and root normalizes through mv_prod; both must give
    # what the dict-and-Fraction reference gives, representation included
    rng = random.Random(31)

    def exponent():
        return rng.choice((0, rng.randrange(-5, 6), Fraction(
            rng.randrange(-9, 10), rng.randrange(1, 7))))

    def turns():
        # negative and multi-turn phases
        return Fraction(rng.randrange(-40, 41), rng.randrange(1, 13))

    def positive():
        # 1, and primes on both sides of a fraction
        return rng.choice((1, Fraction(rng.randrange(1, 300),
                                       rng.randrange(1, 300))))

    for _ in range(300):
        name, e, t, q = rng.choice("abc"), exponent(), turns(), positive()
        sign = rng.choice((1, -1))
        primes = {p: k * Fraction(e) for p, k in
                  _factorize_reference(Fraction(q).numerator).items()}
        primes.update({p: -k * Fraction(e) for p, k in
                       _factorize_reference(Fraction(q).denominator).items()})
        made = {
            "identity": (MulValue.identity(), _ref_make({}, {}, Fraction(0))),
            "symbol": (MulValue.symbol(name, e),
                       _ref_make({name: Fraction(e)}, {}, Fraction(0))),
            "scalar": (MulValue.scalar(q, e),
                       _ref_make({}, primes, Fraction(0))),
            "scalar(1)": (MulValue.scalar(1), MulValue.identity()),
            "phase_turns": (MulValue.phase_turns(t), _ref_make({}, {}, t)),
            "rational": (MulValue.rational(sign * q),
                         _ref_mul(MulValue.scalar(q),
                                  _ref_make({}, {}, Fraction(1 - sign, 4)))),
            "polar": (MulValue.polar(q, t),
                      _ref_mul(MulValue.scalar(q), _ref_make({}, {}, t))),
        }
        x, y = _mixed_value(rng), _random_value(rng)
        f, k = exponent(), rng.randrange(1, 7)
        pairs = [(x, exponent()), (y, exponent()), (made["polar"][0], f)]
        made.update({
            "*": (x * y, _ref_mul(x, y)),
            "/": (x / y, _ref_mul(x, _ref_pow(y, -1))),
            "**": (x ** f, _ref_pow(x, f)),
            "mv_pow": (mv_pow(y, f), _ref_pow(y, f)),
            "mv_root": (mv_root(x, k), _ref_pow(x, Fraction(1, k))),
            "mv_prod": (mv_prod(pairs), _ref_chained(pairs)),
        })
        for label, (value, reference) in made.items():
            _assert_canonical(value)
            _assert_same(value, reference)
    # the edge cases by name
    assert repr(MulValue.symbol("a", 0)) == repr(MulValue.identity())
    assert repr(MulValue.scalar(Fraction(6, 5), 0)) == repr(
        MulValue.identity())
    assert MulValue.scalar(Fraction(12, 35)).primes == (
        (2, 2), (3, 1), (5, -1), (7, -1))
    assert MulValue.phase_turns(Fraction(-7, 3)).phase == Fraction(2, 3)
    assert MulValue.phase_turns(-2).phase == 0
