import json
import math
import os
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from tropcount import catalog
from tropcount.curve import Edge, PeriodLattice, TropicalCurve, Vertex, validate
from tropcount import plot
from tropcount.cli import main
from tropcount.curvefile import curve_from_dict
from tropcount.errors import ConstraintError, ValidationError, clip
from tropcount.plot import render_svg

SVG = "{http://www.w3.org/2000/svg}"
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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


def test_ids_with_markup_characters_are_escaped():
    # ids reach attributes and text; unescaped, & < > " break the document
    theta = catalog.theta()
    eid, vid = 'e<1>&"x"', "u&v"
    curve = theta.replace(
        vertices=tuple(v.replace(id=vid) if v.id == "u" else v
                       for v in theta.vertices),
        edges=tuple(e.replace(id=eid if e.id == "e1" else e.id,
                              tail=vid if e.tail == "u" else e.tail)
                    for e in theta.edges))
    assert validate(curve).ok
    root = ET.fromstring(render_svg(curve))
    edges = {g.get("id"): g for g in groups(root, "edge")}
    assert set(edges) == {f"edge-{eid}", "edge-e2", "edge-e3"}
    assert edges[f"edge-{eid}"].find(f"{SVG}text").text == f"{eid} w=1"
    vertices = {g.get("id"): g for g in groups(root, "vertex")}
    assert set(vertices) == {f"vertex-{vid}", "vertex-v"}
    assert vertices[f"vertex-{vid}"].find(f"{SVG}text").text == vid


#: the curve files whose drawings are pinned byte for byte: the three
#: catalog curves, two genus-9 covers, and a curve whose edges cross
#: several walls of both families from a vertex off the lattice points
PINNED = ("theta_exact", "theta2_exact", "triple_exact",
          "theta_cover9_exact", "triple_cover9_exact", "theta_walls")


@pytest.mark.parametrize("name", PINNED)
def test_plot_matches_golden(name, capsys):
    path = os.path.join(GOLDEN, f"{name}.json")
    assert main(["plot", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(os.path.join(GOLDEN, f"{name}.plot.svg"),
              encoding="utf-8") as handle:
        assert captured.out == handle.read()


# -- the Fraction geometry the integer cuts replaced --------------------------


def _walls_crossed_reference(start, disp):
    return sum(abs(math.floor(start[axis] + disp[axis])
                   - math.floor(start[axis])) for axis in (0, 1))


def _edge_pieces_reference(start, disp):
    cuts = {Fraction(0), Fraction(1)}
    for axis in (0, 1):
        d = disp[axis]
        if d == 0:
            continue
        lo, hi = sorted((start[axis], start[axis] + d))
        k = math.floor(lo) + 1
        while k < hi:
            t = (Fraction(k) - start[axis]) / d
            if 0 < t < 1:
                cuts.add(t)
            k += 1
    ordered = sorted(cuts)
    pieces = []
    for t0, t1 in zip(ordered, ordered[1:]):
        mid = (t0 + t1) / 2
        cell = (math.floor(start[0] + mid * disp[0]),
                math.floor(start[1] + mid * disp[1]))
        pieces.append(tuple(
            (start[0] + t * disp[0] - cell[0],
             start[1] + t * disp[1] - cell[1]) for t in (t0, t1)))
    return pieces


def _random_segment(rng):
    """(start, disp, n): a start on a wall, a zero or a negative
    displacement component each come up often."""
    n = rng.randint(1, 60)
    start = [rng.randint(-3 * n, 3 * n) for _ in range(2)]
    disp = [rng.randint(-4 * n, 4 * n) for _ in range(2)]
    if rng.random() < 0.3:
        start[rng.randrange(2)] = n * rng.randint(-3, 3)
    if rng.random() < 0.3:
        disp[rng.randrange(2)] = 0
    if disp == [0, 0]:
        disp[rng.randrange(2)] = rng.choice((-1, 1)) * rng.randint(1, 4 * n)
    return tuple(start), tuple(disp), n


def test_integer_cuts_match_the_fraction_geometry():
    rng = random.Random(20)
    kinds = set()
    for _ in range(2500):
        start, disp, n = _random_segment(rng)
        kinds.update(("wall" for a in start if a % n == 0),
                     ("zero" for d in disp if d == 0),
                     ("negative" for d in disp if d < 0))
        kinds.add(n)
        exact = (tuple(Fraction(a, n) for a in start),
                 tuple(Fraction(d, n) for d in disp))
        assert plot._walls_crossed(start, disp, n) == \
            _walls_crossed_reference(*exact)
        pieces, den = plot._edge_pieces(start, disp, n)
        assert [tuple((Fraction(x, den), Fraction(y, den)) for x, y in piece)
                for piece in pieces] == _edge_pieces_reference(*exact)
    assert {"wall", "zero", "negative", 1, 60} <= kinds


# -- ids that SVG cannot hold -----------------------------------------------


def _theta_doc_with_ids(vertex="u", edge="e1") -> dict:
    """The golden theta_exact.json with vertex u and edge e1 renamed."""
    with open(os.path.join(GOLDEN, "theta_exact.json"),
              encoding="utf-8") as handle:
        doc = json.load(handle)
    for v in doc["vertices"]:
        v["id"] = vertex if v["id"] == "u" else v["id"]
    for e in doc["edges"]:
        e["id"] = edge if e["id"] == "e1" else e["id"]
        for end in ("tail", "head"):
            e[end] = vertex if e[end] == "u" else e[end]
    return doc


@pytest.mark.parametrize("vertex,edge,bad", [
    ("u\u0001", "e1", "u\u0001"),
    ("u", "e\x0b1", "e\x0b1"),
    ("u", "e\ufffe", "e\ufffe"),
    ("\x1f" * 100, "e1", "\x1f" * 100),
], ids=["vertex-soh", "edge-vt", "edge-fffe", "long-vertex"])
def test_plot_refuses_ids_that_xml_cannot_hold(vertex, edge, bad, tmp_path,
                                              capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(_theta_doc_with_ids(vertex, edge)),
                    encoding="utf-8")
    out = tmp_path / "curve.svg"
    for argv in (["plot", str(path)], ["plot", str(path), "--out", str(out)]):
        assert main(argv) == 5
        assert capsys.readouterr() == ("", (
            f"error: plot cannot write id {clip(repr(bad))}: it holds a "
            "character that XML does not allow\n"))
    assert not out.exists()


def _xml_char(c: int) -> bool:
    """XML 1.0's Char production, as the specification writes it."""
    return (c in (0x9, 0xA, 0xD) or 0x20 <= c <= 0xD7FF
            or 0xE000 <= c <= 0xFFFD or 0x10000 <= c <= 0x10FFFF)


def test_refused_characters_are_those_outside_xml_char():
    # plot lists the characters Char leaves out instead of negating Char;
    # compare the two at every range boundary, one either side, and on a
    # stride through all seventeen planes
    bounds = (0x0, 0x9, 0xA, 0xD, 0x20, 0xD7FF, 0xE000, 0xFFFD, 0x10000,
              0x10FFFF)
    points = {b + d for b in bounds for d in (-1, 0, 1)}
    points |= set(range(0, 0x110000, 251))
    for c in sorted(c for c in points if 0 <= c <= 0x10FFFF):
        assert (plot._NOT_XML.search(chr(c)) is None) == _xml_char(c), hex(c)


def test_ids_of_xml_characters_are_drawn():
    # tab, DEL, the last BMP character XML allows and one past the BMP
    vertex, edge = "u\tv\x7f", "e\ufffd\U0001f600"
    doc = _theta_doc_with_ids(vertex, edge)
    curve = curve_from_dict(doc)[0]
    root = ET.fromstring(render_svg(curve))
    assert {g.get("id") for g in groups(root, "vertex")} == \
        {f"vertex-{vertex}".replace("\t", " "), "vertex-v"}
    assert f"edge-{edge}" in {g.get("id") for g in groups(root, "edge")}
