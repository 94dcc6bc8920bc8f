import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from tropcount import catalog
from tropcount.curve import Edge, PeriodLattice, TropicalCurve, Vertex, validate
from tropcount import plot
from tropcount.errors import ConstraintError, ValidationError
from tropcount.plot import render_svg

SVG = "{http://www.w3.org/2000/svg}"


def off_axis_cycle() -> TropicalCurve:
    """Two-segment cycle whose second edge crosses the s1 = 1 wall
    strictly inside the edge, so the rendering must cut it."""
    lat = PeriodLattice((1, 0), (0, 1))
    vertices = (
        Vertex("s0", (Fraction(1, 4), Fraction(0))),
        Vertex("s1", (Fraction(3, 4), Fraction(0))),
    )
    edges = (
        Edge("c1", "s0", "s1", (1, 0), Fraction(1, 2), (0, 0)),
        Edge("c2", "s1", "s0", (1, 0), Fraction(1, 2), (-1, 0)),
    )
    return TropicalCurve(lat, vertices, edges)


def groups(root, cls):
    return [g for g in root.iter(f"{SVG}g") if g.get("class") == cls]


def test_svg_parses_with_expected_structure():
    svg = render_svg(catalog.theta())
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG}svg"
    assert root.get("version") == "1.1"
    assert root.get("viewBox")
    assert len(groups(root, "edge")) == 3
    assert len(groups(root, "vertex")) == 2
    assert {g.get("id") for g in groups(root, "edge")} == \
        {"edge-e1", "edge-e2", "edge-e3"}
    assert {g.get("id") for g in groups(root, "vertex")} == \
        {"vertex-u", "vertex-v"}
    # one dashed cell outline
    polygons = list(root.iter(f"{SVG}polygon"))
    assert len(polygons) == 1
    assert polygons[0].get("class") == "cell"
    # theta edges stay inside one cell: one polyline per edge
    assert len(list(root.iter(f"{SVG}polyline"))) == 3
    # labels: one per edge plus one per vertex
    assert len(list(root.iter(f"{SVG}text"))) == 5


def test_edge_labels_include_weights():
    svg = render_svg(catalog.theta_double())
    root = ET.fromstring(svg)
    labels = {t.text for t in root.iter(f"{SVG}text")
              if t.get("class") == "weight"}
    assert labels == {"e1 w=2", "e2 w=2", "e3 w=2"}


def test_wrapped_edge_is_cut_at_the_wall():
    curve = off_axis_cycle()
    assert validate(curve).ok
    root = ET.fromstring(render_svg(curve))
    by_edge = {g.get("id"): list(g.iter(f"{SVG}polyline"))
               for g in groups(root, "edge")}
    assert len(by_edge["edge-c1"]) == 1
    assert len(by_edge["edge-c2"]) == 2
    # the cut pieces land back inside the cell
    for line in by_edge["edge-c2"]:
        for pair in line.get("points").split():
            x, y = map(float, pair.split(","))
            assert -1e-6 <= x <= 120.0 + 1e-6
            assert -1e-6 <= y <= 120.0 + 1e-6


def test_all_pieces_connect_to_their_endpoints():
    # for an uncut edge the polyline runs vertex to vertex
    root = ET.fromstring(render_svg(catalog.theta()))
    circles = {g.get("id"): g.find(f"{SVG}circle")
               for g in groups(root, "vertex")}
    u = (float(circles["vertex-u"].get("cx")),
         float(circles["vertex-u"].get("cy")))
    line = groups(root, "edge")[0].find(f"{SVG}polyline")
    first = line.get("points").split()[0]
    x, y = map(float, first.split(","))
    assert abs(x - u[0]) < 1e-6 and abs(y - u[1]) < 1e-6


def test_rendering_is_byte_deterministic():
    a = render_svg(catalog.triple_vertex())
    b = render_svg(catalog.triple_vertex())
    assert a == b
    assert isinstance(a, str)
    assert a.startswith("<svg ")
    assert a.endswith("</svg>\n")
    assert "-0.0000" not in a


def test_rendering_rejects_invalid_curves():
    curve = catalog.theta()
    broken = TropicalCurve(curve.lattice, curve.vertices, curve.edges[:2])
    with pytest.raises(ValidationError):
        render_svg(broken)


def test_drawing_over_the_piece_limit_is_refused(monkeypatch):
    # the wall count bounds the pieces from above, so a limit below the
    # number of polylines drawn must refuse, naming the longest edge
    curve = off_axis_cycle()
    svg = render_svg(curve)
    drawn = len(list(ET.fromstring(svg).iter(f"{SVG}polyline")))
    assert drawn == 3
    monkeypatch.setattr(plot, "MAX_PIECES", drawn - 1)
    with pytest.raises(ConstraintError, match="edge c2 alone crosses 1 walls"):
        render_svg(curve)
    monkeypatch.setattr(plot, "MAX_PIECES", drawn)
    assert render_svg(curve) == svg
