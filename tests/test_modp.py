"""snf's invariant factors against ranks modulo small primes, at real size.

For a prime p, the invariant factors of an integer matrix that p divides
number rank_Q - rank_Fp: the unimodular transforms stay invertible
modulo p, so the rank of the matrix modulo p is the number of nonzero
factors p does not divide (Newman, Integral Matrices, 1972).  The rank
modulo p comes from a sparse echelon written here, which shares no code
with exactmath, so this check reaches the covers of genus 513 that the
brute-force kernel oracle cannot.
"""

import random

import pytest

from equivalence_cases import covers
from tropcount import moduli
from tropcount.exactmath import rank_rational, snf
from tropcount.prelog import assemble_system

PRIMES = (2, 3, 5, 7)


def _rank_mod(rows, p):
    """Rank modulo p of integer rows {column: int}: each row is reduced
    by the monic basis rows at its leading column until it is zero or
    leads at a new column, where it joins the basis."""
    basis = {}
    for row in rows:
        rest = {j: x % p for j, x in row.items() if x % p}
        while rest:
            lead = min(rest)
            if lead not in basis:
                scale = pow(rest[lead], p - 2, p)
                basis[lead] = {j: x * scale % p for j, x in rest.items()}
                break
            factor = rest[lead]
            for j, x in basis[lead].items():
                y = (rest.get(j, 0) - factor * x) % p
                if y:
                    rest[j] = y
                else:
                    del rest[j]
    return len(basis)


def _assert_profile(rows, d):
    """d holds the invariant factors of rows: for each p in PRIMES, the
    nonzero factors p divides number rank_Q - rank_Fp.  Returns how many
    factors 3 divides."""
    nonzero = [x for x in d if x]
    rank = rank_rational(rows)
    assert len(nonzero) == rank
    for p in PRIMES:
        assert sum(1 for x in nonzero if x % p == 0) == \
            rank - _rank_mod(rows, p), p
    return sum(1 for x in nonzero if x % 3 == 0)


@pytest.mark.parametrize("k", [16, 64, 128, 512])
@pytest.mark.parametrize("base", sorted(covers.BASES))
def test_cover_factors_match_ranks_mod_p(base, k, monkeypatch):
    curve, marks = covers.cover_instance(base, k, None)
    calls = []

    def spy(rows, width):
        result = snf(rows, width)
        calls.append((rows, result[1]))
        return result

    # count's reduced F, as kernel_order_gcstar hands it to snf
    monkeypatch.setattr(moduli, "snf", spy)
    moduli.kernel_order_gcstar(curve, marks)
    (rows, d), = calls
    threes = _assert_profile(rows, d)
    # the triple base leaves factors of 3 on every cover; the thetas none
    assert (threes > 0) == (base == "triple")
    # prelog's exponent matrix
    system = assemble_system(curve)
    _assert_profile(system.exponents,
                    snf(system.exponents, len(system.flags))[1])


def test_random_factors_match_ranks_mod_p():
    # scaled matrices repeat a factor > 1, the case in which snf skips
    # the divisibility sweep for a pivot equal to a known divisor
    rng = random.Random(61)
    repeated = 0
    for _ in range(200):
        nrows, ncols = rng.randrange(1, 12), rng.randrange(1, 12)
        scale = rng.choice((1, 1, 2, 3, 6))
        density = rng.choice((0.2, 0.4, 0.7))
        rows = [{j: scale * x for j in range(ncols)
                 if rng.random() < density and (x := rng.randrange(-6, 7))}
                for _ in range(nrows)]
        d = snf(rows, ncols)[1]
        _assert_profile(rows, d)
        repeated += any(x > 1 and x == y for x, y in zip(d, d[1:]))
    assert repeated >= 20
