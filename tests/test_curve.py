import math
import random
from fractions import Fraction

import pytest

from tropcount import catalog
from tropcount.curve import (Edge, MarkedPoint, PeriodLattice, TropicalCurve,
                             Vertex, canonical_offset, crossings, ensure_valid,
                             offset_sequence, relift, subdivide, transform,
                             validate)
import tropcount.curve
from tropcount.errors import DegeneracyError, ValidationError
from tropcount.moduli import count_curves
from tropcount.selftest import (generated_curves, random_relift_moves,
                                random_unimodular, tuned_exact_curve)


def test_theta_invariants():
    curve = catalog.theta()
    assert validate(curve).ok
    assert curve.genus == 2
    assert curve.delta == 1
    assert curve.vertex_weight("u") == 1
    assert curve.vertex_weight("v") == 1
    assert curve.valence("u") == 3
    assert {e.weight for e in curve.edges} == {1}


def test_theta_double_invariants():
    curve = catalog.theta_double()
    assert validate(curve).ok
    assert curve.genus == 2
    assert curve.delta == 2
    assert curve.vertex_weight("u") == 4
    assert {e.weight for e in curve.edges} == {2}


def test_wrapping_cycle_invariants():
    curve = catalog.wrapping_cycle(3)
    assert validate(curve).ok
    assert curve.genus == 1
    assert all(curve.valence(v.id) == 2 for v in curve.vertices)
    assert all(curve.vertex_weight(v.id) == 1 for v in curve.vertices)


def test_triple_vertex_invariants():
    curve = catalog.triple_vertex()
    assert validate(curve).ok
    assert curve.genus == 2
    assert curve.vertex_weight("u") == 3
    assert curve.vertex_weight("v") == 3
    assert curve.vertex_gcd("u") == 1


def test_lattice_coordinate_round_trip():
    lat = PeriodLattice((1, -1), (1, 2))
    for point in [(0, 0), (1, 0), (Fraction(1, 2), Fraction(3, 7))]:
        coords = lat.to_lattice_coords(point)
        back = lat.from_lattice_coords(coords)
        assert back == (Fraction(point[0]), Fraction(point[1]))
    assert lat.det == 3


def test_degenerate_lattice_rejected():
    lat = PeriodLattice((1, 2), (2, 4))
    with pytest.raises(ValidationError):
        lat.to_lattice_coords((1, 1))
    curve = TropicalCurve(lat, (Vertex("a", (0, 0)), Vertex("b", (1, 0))),
                          (Edge("e", "a", "b", (1, 0), 1),
                           Edge("f", "b", "a", (1, 0), 1, (-1, 0))))
    report = validate(curve)
    assert not report.ok
    assert any("degenerate" in p for p in report.problems)


def test_validation_catches_structural_problems():
    lat = PeriodLattice((1, 0), (0, 1))
    # unknown endpoint
    curve = TropicalCurve(lat, (Vertex("a", (0, 0)),),
                          (Edge("e", "a", "zz", (1, 0), 1),))
    assert any("unknown vertex" in p for p in validate(curve).problems)
    # loop edge
    curve = TropicalCurve(lat, (Vertex("a", (0, 0)), Vertex("b", (0, 1))),
                          (Edge("e", "a", "a", (1, 0), 1, (-1, 0)),
                           Edge("f", "a", "b", (0, 1), 1),
                           Edge("g", "b", "a", (0, 1), 1, (0, -1))))
    assert any("loop" in p for p in validate(curve).problems)
    # disconnected
    curve = TropicalCurve(
        lat,
        (Vertex("a", (0, 0)), Vertex("b", (Fraction(1, 2), 0)),
         Vertex("c", (0, Fraction(1, 4))), Vertex("d", (0, Fraction(3, 4)))),
        (Edge("e", "a", "b", (1, 0), Fraction(1, 2)),
         Edge("f", "b", "a", (1, 0), Fraction(1, 2), (-1, 0)),
         Edge("g", "c", "d", (0, 1), Fraction(1, 2)),
         Edge("h", "d", "c", (0, 1), Fraction(1, 2), (0, -1))))
    assert any("not connected" in p for p in validate(curve).problems)


def test_validation_catches_balancing_and_lift():
    lat = PeriodLattice((1, 0), (0, 1))
    # 2-valent vertex whose weight vectors do not cancel
    curve = TropicalCurve(
        lat,
        (Vertex("a", (0, 0)), Vertex("b", (Fraction(1, 2), 0))),
        (Edge("e", "a", "b", (1, 0), Fraction(1, 2)),
         Edge("f", "b", "a", (2, 0), Fraction(1, 4), (-1, 0))))
    problems = validate(curve).problems
    assert any("do not cancel" in p or "balancing" in p for p in problems)
    # broken lift relation: shift does not match the displacement
    curve = TropicalCurve(
        lat,
        (Vertex("a", (0, 0)), Vertex("b", (Fraction(1, 2), 0))),
        (Edge("e", "a", "b", (1, 0), Fraction(1, 2)),
         Edge("f", "b", "a", (1, 0), Fraction(1, 2), (5, 0))))
    problems = validate(curve).problems
    assert any("lift relation" in p for p in problems)


def test_ensure_valid_raises():
    lat = PeriodLattice((1, 0), (0, 1))
    curve = TropicalCurve(lat, (Vertex("a", (0, 0)),), ())
    with pytest.raises(ValidationError):
        ensure_valid(curve)


def test_indexed_lookups_match_linear_scans():
    lat = PeriodLattice((1, 0), (0, 1))
    # duplicated ids resolve to the first occurrence, as a scan would
    dup = TropicalCurve(lat, (Vertex("a", (0, 0)), Vertex("a", (1, 1))),
                        (Edge("e", "a", "a", (1, 0), 1),
                         Edge("e", "a", "a", (0, 1), 1)))
    curves = [dup] + [c for _, c, _ in generated_curves(random.Random(5), 12)]
    for curve in curves:
        for v in curve.vertices:
            flags = [e for e in curve.edges for end in (e.tail, e.head)
                     if end == v.id]
            assert list(curve.incident_edges_flags(v.id)) == flags
            assert curve.valence(v.id) == len(flags)
            assert curve.vertex(v.id) == next(
                w for w in curve.vertices if w.id == v.id)
        for e in curve.edges:
            assert curve.edge(e.id) == next(
                f for f in curve.edges if f.id == e.id)
            assert e.weight == math.gcd(*e.weight_vector)
        assert curve.valence("nowhere") == 0
        assert curve.incident_edges_flags("nowhere") == ()
    with pytest.raises(KeyError):
        dup.vertex("b")
    with pytest.raises(KeyError):
        dup.edge("f")


def test_validation_runs_once_per_curve(monkeypatch):
    calls = []
    validate_once = tropcount.curve.validate
    monkeypatch.setattr(tropcount.curve, "validate",
                        lambda curve: calls.append(curve) or
                        validate_once(curve))
    curve = tuned_exact_curve(random.Random(3), catalog.theta(), Fraction(0))
    assert count_curves(curve, catalog.theta_marks()).total == 1
    ensure_valid(curve)
    assert len(calls) == 1
    bad = TropicalCurve(PeriodLattice((1, 0), (0, 1)),
                        (Vertex("a", (0, 0)),), ())
    for _ in range(2):
        with pytest.raises(ValidationError):
            ensure_valid(bad)
    assert len(calls) == 2


def test_subdivide_structure():
    curve = catalog.theta()
    marks = catalog.theta_marks()
    out, new_ids = subdivide(curve, marks)
    assert validate(out).ok
    assert len(new_ids) == 2
    assert sorted(new_ids) == ["e1@1", "e2@1"]
    assert len(out.vertices) == 4
    assert len(out.edges) == 5
    # children keep the direction, split the length, and genus is unchanged
    child = out.edge("e1#1")
    assert child.weight_vector == (1, 0)
    assert child.length == Fraction(1, 3)
    assert out.genus == curve.genus
    assert out.delta == curve.delta
    # subdivision leaves vertex weights of the old vertices alone
    assert out.vertex_weight("u") == 1
    # new vertices are 2-valent with unit weight
    for vid in new_ids:
        assert out.valence(vid) == 2
        assert out.vertex_weight(vid) == 1


def test_subdivide_multiple_points_one_edge():
    curve = catalog.theta()
    points = [MarkedPoint("e1", Fraction(1, 4)),
              MarkedPoint("e1", Fraction(1, 2))]
    out, new_ids = subdivide(curve, points)
    assert validate(out).ok
    assert len(out.edges) == 5
    assert out.edge("e1#1").length == Fraction(1, 4)
    assert out.edge("e1#2").length == Fraction(1, 4)
    assert out.edge("e1#3").length == Fraction(1, 2)


def test_subdivide_rejects_endpoint_parameter():
    curve = catalog.theta()
    with pytest.raises(ValidationError):
        subdivide(curve, [MarkedPoint("e1", Fraction(0))])
    with pytest.raises(ValidationError):
        subdivide(curve, [MarkedPoint("e1", Fraction(1))])
    with pytest.raises(ValidationError):
        subdivide(curve, [MarkedPoint("e1", Fraction(1, 2)),
                          MarkedPoint("e1", Fraction(1, 2))])


def test_relift_preserves_validity_and_projection():
    rng = random.Random(3)
    curve = catalog.theta()
    for _ in range(10):
        moves = random_relift_moves(rng, curve)
        out = relift(curve, moves)
        assert validate(out).ok
        lat = curve.lattice
        for v in curve.vertices:
            w = out.vertex(v.id)
            diff = (Fraction(w.position[0]) - Fraction(v.position[0]),
                    Fraction(w.position[1]) - Fraction(v.position[1]))
            coords = lat.to_lattice_coords(diff)
            assert coords[0].denominator == 1
            assert coords[1].denominator == 1


def test_transform_by_unimodular_matrix():
    rng = random.Random(7)
    curve = catalog.theta()
    for _ in range(10):
        a = random_unimodular(rng, rng.choice([1, -1]))
        out = transform(curve, a)
        assert validate(out).ok
        assert out.genus == curve.genus
        assert out.delta == curve.delta
        for v in curve.vertices:
            assert out.vertex_weight(v.id) == curve.vertex_weight(v.id)
        for e in curve.edges:
            assert out.edge(e.id).weight == e.weight


def test_transform_rejects_non_unimodular():
    curve = catalog.theta()
    with pytest.raises(ValidationError):
        transform(curve, [[2, 0], [0, 1]])


def canonicalize_lifts(curve, offset):
    """Relift every vertex into the cell offset + [0,1)^2."""
    moves = {}
    for v in curve.vertices:
        s1, s2 = curve.lattice.to_lattice_coords(v.position)
        k1 = math.floor(s1 - offset[0])
        k2 = math.floor(s2 - offset[1])
        if (k1, k2) != (0, 0):
            moves[v.id] = (-k1, -k2)
    return relift(curve, moves)


def test_crossing_net_counts_match_deck_shifts():
    # With all lifts inside the offset cell, the net signed crossing count
    # of an edge with each wall family is minus its deck shift; this pins
    # the orientation convention of the crossing scan.
    for make in (catalog.theta, catalog.theta_double,
                 catalog.triple_vertex, catalog.wrapping_cycle):
        curve = make()
        offset = canonical_offset(curve)
        canon = canonicalize_lifts(curve, offset)
        found = crossings(canon, offset)
        net = {}
        for c in found:
            assert c.edge in {e.id for e in canon.edges}
            assert c.side in ("B1", "B2")
            key = (c.edge, c.side)
            net[key] = net.get(key, 0) + c.signed_count
        for e in canon.edges:
            assert net.get((e.id, "B1"), 0) == -e.shift[0]
            assert net.get((e.id, "B2"), 0) == -e.shift[1]


def test_offset_sequence_is_deterministic_and_generic():
    first = list(offset_sequence(10))
    second = list(offset_sequence(10))
    assert first == second
    assert len(first) == 10
    assert len(set(first)) == 10


def _crossings_reference(curve, offset):
    """crossings with its per-wall corner loop: the version the closed-form
    congruence test replaced, kept as its reference."""
    lat = curve.lattice
    o1, o2 = Fraction(offset[0]), Fraction(offset[1])
    scoords = {}
    for v in curve.vertices:
        s1, s2 = lat.to_lattice_coords(v.position)
        if (s1 - o1).denominator == 1:
            raise DegeneracyError(
                f"vertex {v.id} lies on a B1 wall for offset ({o1}, {o2})")
        if (s2 - o2).denominator == 1:
            raise DegeneracyError(
                f"vertex {v.id} lies on a B2 wall for offset ({o1}, {o2})")
        scoords[v.id] = (s1, s2)
    out = []
    for e in curve.edges:
        start = scoords[e.tail]
        disp = lat.to_lattice_coords(
            (e.length * e.weight_vector[0], e.length * e.weight_vector[1]))
        end = (start[0] + disp[0], start[1] + disp[1])
        for axis, side in ((0, "B1"), (1, "B2")):
            lo = (start[axis] - (o1, o2)[axis])
            hi = (end[axis] - (o1, o2)[axis])
            net = math.floor(hi) - math.floor(lo)
            if net == 0:
                continue
            first = math.floor(min(lo, hi)) + 1
            for k in range(abs(net)):
                wall = first + k
                t = (wall - lo) / (hi - lo)
                other = start[1 - axis] + t * (end[1 - axis] - start[1 - axis])
                if (other - (o1, o2)[1 - axis]).denominator == 1:
                    raise DegeneracyError(
                        f"edge {e.id} crosses a cell corner for offset "
                        f"({o1}, {o2})")
            sign = 1 if net > 0 else -1
            out.append(tropcount.curve.Crossing(
                edge=e.id, side=side, signed_count=net,
                outward_vector=(sign * e.weight_vector[0],
                                sign * e.weight_vector[1])))
    return out


def _lengthen(curve, rng):
    """The curve with one edge made longer by a multiple that keeps the
    derived deck shift integral, so that it crosses many walls."""
    e = rng.choice(curve.edges)
    lat = curve.lattice
    extra = rng.randrange(1, 12) * abs(lat.det) * e.length.denominator
    g1, g2 = lat.to_lattice_coords(
        (extra * e.length * e.weight_vector[0],
         extra * e.length * e.weight_vector[1]))
    longer = e.replace(length=(1 + extra) * e.length,
                       shift=(e.shift[0] - int(g1), e.shift[1] - int(g2)))
    edges = tuple(longer if x.id == e.id else x for x in curve.edges)
    return TropicalCurve(lat, curve.vertices, edges)


def _outcome(fn, curve, offset):
    try:
        return fn(curve, offset)
    except DegeneracyError as exc:
        return str(exc)


def test_crossings_match_per_wall_reference():
    # Offsets with small denominators put vertices on walls and walls
    # through cell corners; the closed-form corner test must raise for
    # exactly the offsets (and with the message) the wall loop did.
    rng = random.Random(67)
    offsets = [(Fraction(a, q), Fraction(b, r))
               for q in (2, 3, 4, 6) for r in (2, 3, 5)
               for a in range(1, q) for b in range(1, r)]
    offsets += list(offset_sequence(8))
    curves = [curve for _, curve, _ in generated_curves(rng, 20)]
    curves += [_lengthen(curve, rng) for curve in curves]
    corners = clean = 0
    for curve in curves:
        assert validate(curve).ok
        for offset in offsets:
            want = _outcome(_crossings_reference, curve, offset)
            assert _outcome(crossings, curve, offset) == want, offset
            if isinstance(want, list):
                clean += 1
            elif "corner" in want:
                corners += 1
    assert corners >= 50 and clean >= 50



def _lift_defect_reference(curve, e):
    """lift_defect in Fraction arithmetic: the version the integer one
    replaced, kept as its reference."""
    tail = curve.vertex(e.tail).position
    head = curve.vertex(e.head).position
    lat = curve.lattice
    dx = head[0] - tail[0] - e.length * e.weight_vector[0] \
        - e.shift[0] * lat.period1[0] - e.shift[1] * lat.period2[0]
    dy = head[1] - tail[1] - e.length * e.weight_vector[1] \
        - e.shift[0] * lat.period1[1] - e.shift[1] * lat.period2[1]
    return (dx, dy)


def _integral_within_reference(c, r, n):
    den = math.lcm(c.denominator, r.denominator)
    cc = c.numerator * (den // c.denominator)
    rr = r.numerator * (den // r.denominator)
    g = math.gcd(rr, den)
    if cc % g:
        return False
    m = den // g
    k = 0 if m == 1 else -cc // g * pow(rr // g, -1, m) % m
    return k < n


def _fraction_crossings_reference(curve, offset):
    """crossings on Fraction lattice coordinates: the version the integer
    one replaced, kept as its reference."""
    lat = curve.lattice
    o1, o2 = Fraction(offset[0]), Fraction(offset[1])
    scoords = {}
    for v in curve.vertices:
        s1, s2 = lat.to_lattice_coords(v.position)
        if (s1 - o1).denominator == 1:
            raise DegeneracyError(
                f"vertex {v.id} lies on a B1 wall for offset ({o1}, {o2})")
        if (s2 - o2).denominator == 1:
            raise DegeneracyError(
                f"vertex {v.id} lies on a B2 wall for offset ({o1}, {o2})")
        scoords[v.id] = (s1, s2)
    out = []
    for e in curve.edges:
        start = scoords[e.tail]
        disp = lat.to_lattice_coords((e.length * e.weight_vector[0],
                                      e.length * e.weight_vector[1]))
        for axis, side in ((0, "B1"), (1, "B2")):
            lo = start[axis] - (o1, o2)[axis]
            hi = lo + disp[axis]
            net = math.floor(hi) - math.floor(lo)
            if net == 0:
                continue
            first = math.floor(min(lo, hi)) + 1
            r = disp[1 - axis] / disp[axis]
            c = start[1 - axis] - (o1, o2)[1 - axis] + (first - lo) * r
            if _integral_within_reference(c, r, abs(net)):
                raise DegeneracyError(
                    f"edge {e.id} crosses a cell corner for offset "
                    f"({o1}, {o2})")
            sign = 1 if net > 0 else -1
            out.append(tropcount.curve.Crossing(
                edge=e.id, side=side, signed_count=net,
                outward_vector=(sign * e.weight_vector[0],
                                sign * e.weight_vector[1])))
    return out


def _rational(rng, dens=(1, 1, 1, 2, 3, 4, 6, 7)):
    return Fraction(rng.randrange(-40, 41), rng.choice(dens))


def _moved_curves(rng, curve):
    """The curve translated by a rational vector (still valid), and with
    random positions, lengths and steep weight vectors (lift relation
    broken), integral or not."""
    t = (_rational(rng), _rational(rng))
    moved = TropicalCurve(curve.lattice, tuple(
        Vertex(v.id, (v.position[0] + t[0], v.position[1] + t[1]))
        for v in curve.vertices), curve.edges)
    out = [curve, moved]
    for dens in ((1,), (1, 2, 3, 5, 12)):
        vertices = tuple(Vertex(v.id, (_rational(rng, dens),
                                       _rational(rng, dens)))
                         for v in curve.vertices)
        edges = tuple(e.replace(length=abs(_rational(rng, dens)) + 1,
                                weight_vector=(rng.randrange(-9, 10),
                                               rng.choice((-7, -5, 3, 8))))
                      for e in curve.edges)
        out.append(TropicalCurve(curve.lattice, vertices, edges))
    return out


def test_integer_lift_defect_and_crossings_match_fraction_versions():
    rng = random.Random(71)
    bases = [curve for _, curve, _ in generated_curves(rng, 12)]
    bases += [catalog.theta_double(), catalog.triple_vertex(),
              catalog.wrapping_cycle(3, 2)]
    # long edges cross many walls, some of them through corners
    bases += [_lengthen(curve, rng) for curve in bases]
    offsets = [(Fraction(a, q), Fraction(b, r))
               for q in (2, 3) for r in (2, 5)
               for a in range(1, q) for b in range(1, r)]
    offsets += list(offset_sequence(6))
    kinds = {"integral": 0, "fractional": 0, "defect": 0, "crossed": 0,
             "corner": 0}
    for base in bases:
        for curve in _moved_curves(rng, base):
            for e in curve.edges:
                got = curve.lift_defect(e)
                want = _lift_defect_reference(curve, e)
                assert got == want and repr(got) == repr(want)
                terms = (*curve.vertex(e.tail).position,
                         *curve.vertex(e.head).position, e.length)
                kinds["integral" if all(x.denominator == 1 for x in terms)
                      else "fractional"] += 1
                kinds["defect"] += want != (0, 0)
            for offset in offsets:
                want = _outcome(_fraction_crossings_reference, curve, offset)
                assert _outcome(crossings, curve, offset) == want, offset
                kinds["crossed"] += isinstance(want, list) and bool(want)
                kinds["corner"] += "corner" in want
    # one steep edge walking backwards across several walls, on a grid of
    # tails and lengths: some corners sit at walls after the first
    lattice = PeriodLattice((2, 1), (1, 3))
    for x in range(-21, 1, 3):
        for y in range(-21, 1, 3):
            tail = Vertex("u", (Fraction(x, 7), Fraction(y, 7)))
            for n in range(1, 16):
                edge = Edge("e", "u", "u", (-2, 3), Fraction(n, 3))
                curve = TropicalCurve(lattice, (tail,), (edge,))
                for offset in ((Fraction(1, 2), Fraction(1, 3)),
                               (Fraction(1, 2), Fraction(2, 3)),
                               (Fraction(1, 5), Fraction(2, 5))):
                    want = _outcome(_fraction_crossings_reference, curve,
                                    offset)
                    assert _outcome(crossings, curve, offset) == want
                    kinds["corner"] += "corner" in want
    assert min(kinds.values()) >= 50, kinds
