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
