import random
from fractions import Fraction

import pytest

from tropcount import catalog
from equivalence_cases import cases, chi_reference
from tropcount.curve import canonical_offset, crossings, relift, transform
from tropcount.errors import ConstraintError, DegeneracyError
from tropcount.realize import (chi_product, is_realizable, parity_exponent,
                               realizability_target, sigma_cocycle,
                               sigma_geometric)
from tropcount.selftest import (random_relift_moves, random_unimodular,
                                tuned_exact_curve, with_multipliers)
from tropcount.valuegroup import EqualityMode, MulValue, mv_pow


def test_theta_sigma_formal_value():
    sigma = sigma_cocycle(catalog.theta())
    expected = (MulValue.symbol("alpha12")
                * (MulValue.symbol("alpha21", -1)
                   * MulValue.symbol("alpha22")))
    assert sigma == expected


def test_cycle_sigma_is_first_wrap_character():
    # a cycle wrapping the first period once crosses the B1 wall once;
    # that pins the orientation of the whole construction
    sigma = sigma_cocycle(catalog.wrapping_cycle())
    assert sigma == MulValue.symbol("alpha12")


def test_doubling_weights_does_not_change_sigma():
    assert sigma_cocycle(catalog.theta_double()) == \
        sigma_cocycle(catalog.theta())


def test_parity_and_target():
    for make in (catalog.theta, catalog.theta_double, catalog.wrapping_cycle,
                 catalog.triple_vertex):
        curve = make()
        assert parity_exponent(curve) == 0
        assert realizability_target(curve) == MulValue.rational(1)


def test_two_routes_agree_on_catalog():
    for make in (catalog.theta, catalog.theta_double, catalog.wrapping_cycle,
                 catalog.triple_vertex):
        curve = make()
        assert sigma_geometric(curve) == sigma_cocycle(curve)


def test_geometric_rejects_degenerate_offset():
    curve = catalog.theta()
    # both vertices lie on walls of the cell with offset (1/2, 1/4)
    with pytest.raises(DegeneracyError):
        sigma_geometric(curve, (Fraction(1, 2), Fraction(1, 4)))
    # the automatic offset retries until a generic one is found
    assert sigma_geometric(curve) == sigma_cocycle(curve)
    offset = canonical_offset(curve)
    assert sigma_geometric(curve, offset) == sigma_cocycle(curve)


def test_sigma_invariance_under_relift_and_transform():
    rng = random.Random(19)
    curve = catalog.triple_vertex()
    sigma = sigma_cocycle(curve)
    for _ in range(8):
        moved = relift(curve, random_relift_moves(rng, curve))
        assert sigma_cocycle(moved) == sigma
        assert sigma_geometric(moved) == sigma
        plus = transform(curve, random_unimodular(rng, 1))
        assert sigma_cocycle(plus) == sigma
        minus = transform(curve, random_unimodular(rng, -1))
        assert sigma_cocycle(minus) == sigma ** -1


def test_formal_verdict_is_sound_not_complete():
    report = is_realizable(catalog.theta())
    assert report.mode is EqualityMode.FORMAL
    assert report.verdict is False
    assert "formal" in report.certificate
    # sigma-free curves are decided positively even in formal mode
    lat_free = catalog.wrapping_cycle(2)
    # cycle sigma = alpha12, so formal says no; a tuned exact assignment
    # with alpha12 = 1 says yes: formal False is sound but not complete
    tuned = tuned_exact_curve(random.Random(1), lat_free, Fraction(0))
    assert tuned is not None
    assert is_realizable(tuned).verdict is True


def test_exact_verdicts_follow_tuned_offsets():
    rng = random.Random(23)
    curve = catalog.theta()
    yes = tuned_exact_curve(rng, curve, Fraction(0))
    assert is_realizable(yes).verdict is True
    no = tuned_exact_curve(rng, curve, Fraction(1, 2))
    assert is_realizable(no).verdict is False
    third = tuned_exact_curve(rng, curve, Fraction(1, 3))
    assert is_realizable(third).verdict is False


def test_numeric_verdicts_and_undecided():
    # theta sigma = alpha12 / alpha21 * alpha22
    curve = with_multipliers(
        catalog.theta(), EqualityMode.NUMERIC,
        numeric_values={"alpha11": 0.5, "alpha12": 2.0,
                 "alpha21": 2.0, "alpha22": 1.0})
    report = is_realizable(curve)
    assert report.verdict is True
    curve = with_multipliers(
        catalog.theta(), EqualityMode.NUMERIC,
        numeric_values={"alpha11": 0.5, "alpha12": 2.0,
                 "alpha21": 2.0, "alpha22": 3.0})
    assert is_realizable(curve).verdict is False
    # residual inside the undecided margin
    curve = with_multipliers(
        catalog.theta(), EqualityMode.NUMERIC,
        numeric_values={"alpha11": 0.5, "alpha12": 2.0,
                 "alpha21": 2.0, "alpha22": 1.0 + 5e-8})
    report = is_realizable(curve, tolerance=1e-9)
    assert report.verdict is None
    assert "undecided" in report.verdict_text


def test_exact_mode_on_formal_curve_raises():
    with pytest.raises(ConstraintError):
        is_realizable(catalog.theta(), EqualityMode.EXACT)


# --------------------------------------------------------------------------
# one product per character monomial, against the chained powers
# --------------------------------------------------------------------------


def _sigma_cocycle_reference(curve):
    out = MulValue.identity()
    for e in curve.edges:
        g1, g2 = e.shift
        if g1:
            out = out * mv_pow(chi_reference(curve, 1, e.weight_vector),
                               -g1)
        if g2:
            out = out * mv_pow(chi_reference(curve, 2, e.weight_vector),
                               -g2)
    return out


def _sigma_geometric_reference(curve):
    out = MulValue.identity()
    for c in crossings(curve, canonical_offset(curve)):
        family = 1 if c.side == "B1" else 2
        out = out * mv_pow(chi_reference(curve, family, c.outward_vector),
                           abs(c.signed_count))
    return out


def _parity_reference(curve):
    total = Fraction(0)
    for v in curve.vertices:
        if curve.valence(v.id) == 3:
            total += Fraction(curve.vertex_weight(v.id), curve.delta)
    assert total.denominator == 1
    return int(total) % 2


def test_sigma_matches_chained_characters():
    for name, curve, _ in cases(seed=29):
        for new, old in ((sigma_cocycle(curve),
                          _sigma_cocycle_reference(curve)),
                         (sigma_geometric(curve),
                          _sigma_geometric_reference(curve))):
            assert new == old, name
            assert repr(new) == repr(old), name
        assert parity_exponent(curve) == _parity_reference(curve), name


def test_chi_product_of_one_term_is_the_character():
    rng = random.Random(31)
    for name, curve, _ in cases(seed=37, generated=10):
        for _ in range(3):
            family = rng.choice((1, 2))
            vector = (rng.randrange(-5, 6), rng.randrange(-5, 6))
            power = rng.randrange(-4, 5)
            for reduce in (True, False):
                d = curve.delta if reduce else 1
                old = mv_pow(chi_reference(curve, family, vector, reduce),
                             power)
                new = chi_product(curve, [(family, vector, power)], d)
                assert (new, repr(new)) == (old, repr(old)), name
    with pytest.raises(ValueError, match="wall family"):
        chi_product(catalog.theta(), [(3, (1, 0), 1)], 1)

