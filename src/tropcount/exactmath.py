"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision Python ints and
`fractions.Fraction`; no floats are ever introduced.  The module provides the
small toolkit the rest of the package leans on:

* extended gcd with Bezout certificate,
* Smith normal form with both unimodular transforms, computed on sparse
  rows and columns, with U kept as a log of row operations,
* one sparse, fraction-free row echelon routine behind rational rank and
  rational nullspace,
* exact determinant (Bareiss).

Rows in, rows out.  A matrix goes in as Rows, one
{column: int} dict per row (graph incidences: a few nonzeros each), and
its width where it matters.  A row holds no zero: a stored zero can be
taken for a pivot and breaks both eliminations, so builders sum their
terms with row_sum, which drops zeros.  snf returns the invariant
factors as a list, V as its columns, one {row: int} dict each, no zero
stored either, and U as a log; to_rows turns a dense matrix into rows
for the oracles and tests.

The Smith form is one elimination, snf.  It logs each row operation
(a swap, a negation, row i -= q * row t) as a triple of ints instead of
applying it to U, so U is the product of the logged operations:
log_apply replays the log on a vector (U*b) and log_row backward on a
unit vector (a row of U), each at the cost of the log, not of U's fill.
A caller that needs only the invariant factors pays for neither.  The
elimination finds the rows holding a column through a column -> rows
occupancy and the pivot through cached row minima, instead of reading
every remaining row at each step, and skips the divisibility sweep for
a pivot equal to one that passed it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf


IntMatrix = list[list[int]]
Rows = list[dict[int, int]]
#: row operations (i, t, q), see snf
RowLog = list[tuple[int, int, int]]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g.

    >>> ext_gcd(240, 46)
    (2, -9, 47)
    >>> ext_gcd(0, 0)
    (0, 1, 0)
    >>> g, x, y = ext_gcd(-15, 6)
    >>> g, -15 * x + 6 * y
    (3, 3)
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _round_div(x: int, p: int) -> int:
    """Integer quotient of x/p rounded to the nearest integer (p > 0).

    The remainder x - p * _round_div(x, p) has absolute value at most p/2.

    >>> [_round_div(x, 4) for x in (-6, -5, -2, 2, 5, 6)]
    [-1, -1, 0, 1, 1, 2]
    """
    return (x + p // 2) // p


def row_sum(terms) -> dict[int, int]:
    """The row summing (column, value) terms, zeros dropped.

    >>> row_sum([(0, 1), (3, 0), (2, -1), (0, -1), (2, 5)])
    {2: 4}
    """
    row: dict[int, int] = {}
    for j, x in terms:
        row[j] = row.get(j, 0) + x
    return {j: x for j, x in row.items() if x}


def to_rows(a: IntMatrix) -> Rows:
    """The rows of a dense matrix.

    >>> to_rows([[0, 2, 0], [-1, 0, 3]])
    [{1: 2}, {0: -1, 2: 3}]
    """
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a:
        return []
    inner = len(a[0])
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k in range(inner):
            v = row[k]
            if v:
                brow = b[k]
                for j in range(cols):
                    acc[j] += v * brow[j]
        out.append(acc)
    return out


def det_int(a: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss).

    >>> det_int([[1, 2], [3, 4]])
    -2
    >>> det_int([])
    1
    """
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _echelon(rows: Rows) -> dict[int, dict[int, int]]:
    """Sparse fraction-free row echelon form: {pivot column: pivot row}.

    Each row is reduced at its leading column by integer
    cross-multiplication with the pivot row there, and divided by its
    content after every step, so it stays small and primitive.  The rows
    are read, never changed; a pivot row may be one of them.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                break
            g = gcd(row[c], p[c])
            mr, mp = p[c] // g, row[c] // g
            row = {j: y for j in row.keys() | p.keys()
                   if (y := row.get(j, 0) * mr - p.get(j, 0) * mp)}
            g = gcd(*row.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
    return pivots


def rank_rational(rows: Rows) -> int:
    """Rank over the rationals of integer rows, by exact elimination.

    >>> rank_rational([{0: 1, 1: 2}, {0: 2, 1: 4}])
    1
    >>> rank_rational([{1: 3}, {}, {0: -1, 1: 3}])
    2
    >>> rank_rational([])
    0
    """
    return len(_echelon(rows))


def nullspace_rational(rows: Rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace over the rationals of integer rows.

    Returns a list of vectors (each of length ncols).  Each free column
    in turn is set to 1 and the other free columns to 0, and the pivot
    unknowns follow by back-substitution on the echelon form; this is the
    basis read off the unique reduced echelon form.

    >>> nullspace_rational([{0: 1, 1: 2}], 2)
    [[Fraction(-2, 1), Fraction(1, 1)]]
    """
    pivots = _echelon(rows)
    order = sorted(pivots, reverse=True)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc in order:
            row = pivots[pc]
            acc = sum(x * vec[j] for j, x in row.items() if j != pc)
            vec[pc] = Fraction(-acc) / row[pc]
        basis.append(vec)
    return basis


def _sub(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst -= q * src, keeping only nonzeros."""
    for j, y in src.items():
        x = dst.get(j, 0) - q * y
        if x:
            dst[j] = x
        else:
            del dst[j]


def snf(a: Rows, ncols: int) -> tuple[RowLog, list[int], Rows]:
    """Smith normal form with transforms of the integer rows a (width ncols).

    Returns (log, d, V) with U*A*V = S, the matrix of A's shape with d on
    its diagonal and zeros elsewhere, for the unimodular U the log stands
    for.  d lists the invariant factors d_1 | d_2 | ..., min(len(a),
    ncols) of them, nonnegative with zeros trailing.  V comes as its
    columns, one {row: nonzero int} dict each.  U is never built: the log
    holds the row operations that make it, in the order they were made,
    each a triple of ints (i, t, q):

    * q == 0: swap rows i and t (i != t);
    * otherwise: row i -= q * row t.  A negation of row t is logged as
      (t, t, 2), row t minus twice itself.

    U is the product of these operations, the last one leftmost: replay
    the log forward on a vector b to get U*b (log_apply), or backward on
    e_i to get row i of U (log_row).  The log costs one entry per
    operation where U fills in: on the gluing system of a genus-257 cover
    (1280 x 1536), 1959 operations, 1279 of them subtractions, make a U
    with 298,673 nonzeros.

    >>> log, d, V = snf([{0: 2}, {1: 3}], 2)
    >>> d
    [1, 6]
    >>> log
    [(0, 1, -1), (0, 0, 2), (1, 0, 3)]
    >>> V
    [{1: 1, 0: -2}, {0: -3, 1: 2}]
    >>> [log_row(log, i, 2) for i in range(2)]
    [[-1, -1], [3, 4]]

    Pivoting picks the nonzero entry of minimal absolute value in the
    working submatrix, which keeps intermediate growth small on the
    matrices this package sees.  The work is sparse: S (a copy of a) as
    rows {column: nonzero int}, V as columns {row: nonzero int}, so a row
    or column operation costs the nonzeros it touches.  The rows of S are
    keyed by column label, the column's index in A, and two lists map
    labels to positions and back; swapping two columns of S swaps two
    entries of each list, and swapping two columns of V swaps two
    references.  At step t, rows and columns before t are finished
    (diagonal), so

    * rows t and below hold nonzeros only in columns t and up;
    * the column phase runs once column t is zero below the pivot, so
      subtracting q times column t from column j changes only s[t][j] in
      S (and column j of V).

    Neither the pivot search nor the column phase reads every row.  An
    occupancy, column label -> the set of rows holding it, gives the
    rows to clear below a pivot.  Each row's minimum absolute value is
    cached and refreshed when the row changes, so the pivot row is the
    first of the minimal cached values from t on.  Once a pivot p has
    passed the divisibility sweep, every entry below it is a multiple of
    p, and row and column operations keep it so: a later pivot equal to
    p skips the sweep.

    Ties are broken by the first row, then the first column, in index
    order, so the operation sequence and the transforms are those of the
    dense elimination.  At the end row t of S holds d_t alone, under the
    label of column t (nothing at all once d_t is 0), and d is read
    from there; nothing is densified.
    """
    nrows = len(a)
    s = [dict(row) for row in a]
    v = [{j: 1} for j in range(ncols)]
    pos = list(range(ncols))  # column label -> position
    label = list(range(ncols))  # position -> column label
    occ = [set() for _ in range(ncols)]  # column label -> rows holding it
    for i, row in enumerate(s):
        for j in row:
            occ[j].add(i)
    rowmin = [min(map(abs, row.values()), default=inf) for row in s]
    log: RowLog = []
    known = 1  # a divisor of every entry of rows t and below
    t = 0

    def swap_rows(i, j):
        if i != j:
            si, sj = s[i], s[j]
            for c in si.keys() - sj.keys():
                occ[c].remove(i)
                occ[c].add(j)
            for c in sj.keys() - si.keys():
                occ[c].remove(j)
                occ[c].add(i)
            s[i], s[j] = sj, si
            rowmin[i], rowmin[j] = rowmin[j], rowmin[i]
            log.append((i, j, 0))

    def sub_row(i, k, q):
        # row i -= q * row k of S, keeping only nonzeros
        dst = s[i]
        for j, y in s[k].items():
            x = dst.get(j)
            if x is None:
                dst[j] = -q * y
                occ[j].add(i)
            elif x := x - q * y:
                dst[j] = x
            else:
                del dst[j]
                occ[j].remove(i)
        rowmin[i] = min(map(abs, dst.values()), default=inf)
        log.append((i, k, q))

    def swap_cols(i, j):
        if i != j:
            li, lj = label[i], label[j]
            label[i], label[j] = lj, li
            pos[li], pos[lj] = j, i
            v[i], v[j] = v[j], v[i]

    while t < min(nrows, ncols):
        # The first row holding a minimal-absolute-value nonzero entry of
        # s[t:, t:], and its first such column.
        best = min(rowmin[t:])
        if best == inf:
            break
        pivot = rowmin.index(best, t)
        swap_rows(t, pivot)
        row = s[t]
        swap_cols(t, min(pos[j] for j, x in row.items() if abs(x) == best))
        # Clear row and column t by gcd descent.  Quotients round to the
        # nearest integer so every remainder is at most half the pivot, and
        # the smallest remainder is promoted to pivot before retrying; both
        # measures keep intermediate entries from ballooning.
        while True:
            lt = label[t]
            st = s[t]
            if st[lt] < 0:
                s[t] = st = {j: -x for j, x in st.items()}
                log.append((t, t, 2))
            p = st[lt]
            col = sorted(i for i in occ[lt] if i != t)
            if col:
                for i in col:
                    q = _round_div(s[i][lt], p)
                    if q:
                        sub_row(i, t, q)
                rest = [i for i in col if lt in s[i]]
                if rest:
                    swap_rows(t, min(rest, key=lambda i: abs(s[i][lt])))
                continue
            # the other nonzeros of row t, in position order
            row_ = sorted((pos[j], j) for j in st if j != lt)
            if row_:
                for k, j in row_:
                    q = _round_div(st[j], p)
                    if q:
                        # column t of S is p e_t here
                        x = st[j] - q * p
                        if x:
                            st[j] = x
                        else:
                            del st[j]
                            occ[j].remove(t)
                        _sub(v[k], v[t], q)
                rowmin[t] = min(map(abs, st.values()))
                rest = [k for k, j in row_ if j in st]
                if rest:
                    swap_cols(t, min(rest, key=lambda k: abs(st[label[k]])))
                continue
            break
        # Enforce divisibility d_t | every remaining entry (always true for
        # d_t = 1, and for a d_t that already passed): fold the first
        # offending row in and redo the pivot step.
        p = s[t][label[t]]
        bad = None if p == known else next(
            (i for i in range(t + 1, nrows)
             if any(x % p for x in s[i].values())), None)
        if bad is None:
            known = p
            t += 1
        else:
            sub_row(t, bad, -1)
    d = [s[i].get(label[i], 0) for i in range(min(nrows, ncols))]
    return log, d, v


def log_apply(log: RowLog, b: list, sub) -> list:
    """U*b for the U of a row operation log (see snf): the log
    replayed forward on a copy of b, where sub(x, y, q) is x - q*y in
    b's group, one call per subtraction.

    >>> log, _, _ = snf([{0: 2}, {1: 3}], 2)
    >>> log_apply(log, [1, 0], lambda x, y, q: x - q * y)
    [-1, 3]
    """
    c = list(b)
    for i, t, q in log:
        if q:
            c[i] = sub(c[i], c[t], q)
        else:
            c[i], c[t] = c[t], c[i]
    return c


def log_row(log: RowLog, i: int, nrows: int) -> list[int]:
    """Row i of the U of a row operation log (see snf), as a list of
    nrows ints: e_i replayed backward, each (j, t, q) as
    y[t] -= q * y[j].

    >>> log, _, _ = snf([{0: 2}, {1: 3}], 2)
    >>> log_row(log, 1, 2)
    [3, 4]
    """
    y = [0] * nrows
    y[i] = 1
    for j, t, q in reversed(log):
        if q:
            y[t] -= q * y[j]
        else:
            y[j], y[t] = y[t], y[j]
    return y


def snf_diagonal(a: IntMatrix) -> list[int]:
    """The invariant factors d_1 | d_2 | ... (nonnegative, zeros trailing)
    of a dense matrix."""
    return snf(to_rows(a), len(a[0]) if a else 0)[1]
