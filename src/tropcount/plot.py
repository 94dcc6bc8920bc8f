"""Deterministic SVG rendering of a curve inside one fundamental cell.

The cell is the parallelogram spanned by the two periods.  Every edge
segment is cut at the points where it crosses a wall (an integer value of
either lattice coordinate) and each piece is translated back into the
cell, so wrapped edges re-enter on the opposite side.  The segments are
the integer ones crossings walks (TropicalCurve._lattice_points), and
the cuts and pieces are worked out on their numerators; a coordinate
becomes a float only when it is drawn.  Output is SVG 1.1, byte-identical
for identical input.  The walls each edge crosses are counted in closed
form first, and a drawing of more than MAX_PIECES pieces is refused, so
a very long edge cannot make the output huge; so is an id with a
character that XML does not allow, which no escape could write.
"""

import math
import re

from .curve import TropicalCurve, Vec2, ensure_valid
from .errors import ConstraintError, clip

_SCALE = 120.0
_PAD = 30.0

#: most pieces a drawing may cut its edges into; a longer drawing is
#: refused, since each piece is one polyline in the output
MAX_PIECES = 100_000

#: the characters an id may not carry into SVG text or a quoted attribute
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                         '"': "&quot;"})

#: a character outside XML 1.0's Char production, which no escape writes;
#: the class lists those characters, so that it compiles in a tenth of the
#: time of the negated class of Char, which reaches U+10FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _point(lattice, x: int, y: int, den: int) -> tuple[float, float]:
    # the point with lattice coordinates (x, y) / den; int / int is
    # correctly rounded, as float(Fraction) is
    l1, l2 = lattice.period1, lattice.period2
    px = (x * l1[0] + y * l2[0]) / den
    py = (x * l1[1] + y * l2[1]) / den
    # SVG y axis points down; flip so the plot is in standard orientation.
    return px * _SCALE, -py * _SCALE


def _walls_crossed(start: Vec2, disp: Vec2, n: int) -> int:
    """Walls the segment from start / n to (start + disp) / n crosses,
    counted per axis as the difference of the floors of its end points
    (at least the number of cuts)."""
    return sum(abs((a + d) // n - a // n) for a, d in zip(start, disp))


def _edge_pieces(start: Vec2, disp: Vec2, n: int):
    """Pieces of the segment from start / n to (start + disp) / n
    translated into the unit cell, in lattice coordinates, and their
    denominator n * m: the cuts are at parameters u / m with u integral,
    m the lcm of the nonzero displacement numerators."""
    m = math.lcm(*(d for d in disp if d))
    cuts = {0, m}
    for a, d in zip(start, disp):
        if d:
            lo, hi = sorted((a, a + d))
            cuts.update((k * n - a) * m // d
                        for k in range(lo // n + 1, (hi - 1) // n + 1))
    ordered = sorted(cuts)
    den = n * m
    s1, s2 = start[0] * m, start[1] * m
    d1, d2 = disp
    pieces = []
    for u0, u1 in zip(ordered, ordered[1:]):
        # the cell of the piece's midpoint, over 2 * den
        c1 = (2 * s1 + (u0 + u1) * d1) // (2 * den) * den
        c2 = (2 * s2 + (u0 + u1) * d2) // (2 * den) * den
        pieces.append(((s1 + u0 * d1 - c1, s2 + u0 * d2 - c2),
                       (s1 + u1 * d1 - c1, s2 + u1 * d2 - c2)))
    return pieces, den


def render_svg(curve: TropicalCurve) -> str:
    """The SVG document of the curve.

    Raises ConstraintError before drawing anything when an id holds a
    character XML does not allow, or when the edges would be cut into
    more than MAX_PIECES pieces.
    """
    ensure_valid(curve)
    for item in (*curve.vertices, *curve.edges):
        if _NOT_XML.search(item.id):
            raise ConstraintError(
                f"plot cannot write id {clip(repr(item.id))}: it holds a "
                "character that XML does not allow")
    lattice = curve.lattice
    coords, segments = curve._lattice_points
    walls = [_walls_crossed(*seg) for seg in segments]
    bound = len(walls) + sum(walls)
    if bound > MAX_PIECES:
        most, eid = max(zip(walls, (e.id for e in curve.edges)),
                        key=lambda pair: pair[0])
        raise ConstraintError(
            f"plot would cut the edges into up to {bound} pieces, over "
            f"the limit of {MAX_PIECES}; edge {clip(eid)} alone crosses "
            f"{most} walls")

    corners = [_point(lattice, a, b, 1)
               for a, b in ((0, 0), (1, 0), (1, 1), (0, 1))]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]

    body: list[str] = []
    cell_points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
    body.append(
        f'<polygon class="cell" points="{cell_points}" fill="none" '
        'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>')

    for e, segment in zip(curve.edges, segments):
        eid = e.id.translate(_ESCAPE)
        group = [f'<g class="edge" id="edge-{eid}">']
        pieces, den = _edge_pieces(*segment)
        for a, b in pieces:
            pa = _point(lattice, *a, den)
            pb = _point(lattice, *b, den)
            xs += [pa[0], pb[0]]
            ys += [pa[1], pb[1]]
            group.append(
                f'<polyline points="{_fmt(pa[0])},{_fmt(pa[1])} '
                f'{_fmt(pb[0])},{_fmt(pb[1])}" fill="none" '
                'stroke="#222222" stroke-width="2"/>')
        mid_a, mid_b = pieces[0]
        label = _point(lattice, mid_a[0] + mid_b[0], mid_a[1] + mid_b[1],
                       2 * den)
        group.append(
            f'<text class="weight" x="{_fmt(label[0] + 4)}" '
            f'y="{_fmt(label[1] - 4)}" font-size="11" '
            f'fill="#555555">{eid} w={e.weight}</text>')
        group.append("</g>")
        body.append("".join(group))

    for vid, (a, b), n in coords:
        # the lift's lattice coordinates, less their integer parts
        px, py = _point(lattice, a % n, b % n, n)
        vid = vid.translate(_ESCAPE)
        xs.append(px)
        ys.append(py)
        body.append(
            f'<g class="vertex" id="vertex-{vid}">'
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
            'fill="#AA2222"/>'
            f'<text x="{_fmt(px + 6)}" y="{_fmt(py + 12)}" font-size="12" '
            f'fill="#AA2222">{vid}</text></g>')

    min_x, max_x = min(xs) - _PAD, max(xs) + _PAD
    min_y, max_y = min(ys) - _PAD, max(ys) + _PAD
    view = (f"{_fmt(min_x)} {_fmt(min_y)} "
            f"{_fmt(max_x - min_x)} {_fmt(max_y - min_y)}")
    head = ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{view}">')
    return head + "\n" + "\n".join(body) + "\n</svg>\n"
