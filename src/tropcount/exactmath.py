"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision Python ints and
`fractions.Fraction`; no floats are ever introduced.  The module provides the
small toolkit the rest of the package leans on:

* extended gcd with Bezout certificate,
* Smith normal form with both unimodular transforms, computed on sparse
  rows and columns,
* one sparse, fraction-free row echelon routine behind rational rank and
  rational nullspace (rows scaled to integers, kept as {column: int}),
* exact determinant (Bareiss).

Matrices passed in and returned are plain lists of lists of ints (or
Fractions for the rational helpers); rows are the outer index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


IntMatrix = list[list[int]]


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


def mat_copy(a: IntMatrix) -> IntMatrix:
    return [row[:] for row in a]


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def mat_shape(a: IntMatrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


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
    m = mat_copy(a)
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


def _echelon(a) -> dict[int, dict[int, int]]:
    """Sparse fraction-free row echelon form: {pivot column: pivot row}.

    Rows are kept as {column: nonzero int}; a row holding a non-integer
    is first scaled to integers by the lcm of its denominators.  Each row
    is reduced at its leading column by integer cross-multiplication with
    the pivot row there, and divided by its content after every step, so
    it stays small and primitive.
    """
    pivots: dict[int, dict[int, int]] = {}
    for raw in a:
        row = {j: x for j, x in enumerate(raw) if x}
        if not all(type(x) is int for x in row.values()):
            row = {j: Fraction(x) for j, x in row.items()}
            den = lcm(*(x.denominator for x in row.values()))
            row = {j: x.numerator * (den // x.denominator)
                   for j, x in row.items()}
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


def rank_rational(a) -> int:
    """Rank of a matrix with int or Fraction entries, by exact elimination.

    >>> rank_rational([[1, 2], [2, 4]])
    1
    >>> rank_rational([[Fraction(1, 2), 0], [0, 3]])
    2
    >>> rank_rational([])
    0
    """
    return len(_echelon(a))


def nullspace_rational(a) -> list[list[Fraction]]:
    """Basis of the right nullspace over the rationals.

    Returns a list of vectors (each of length = #columns).  Each free
    column in turn is set to 1 and the other free columns to 0, and the
    pivot unknowns follow by back-substitution on the echelon form; this
    is the basis read off the unique reduced echelon form.

    >>> nullspace_rational([[1, 2]])
    [[Fraction(-2, 1), Fraction(1, 1)]]
    """
    ncols = len(a[0]) if a else 0
    pivots = _echelon(a)
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


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns (U, S, V) with U, V unimodular and U*A*V = S, where S is diagonal
    with nonnegative entries d_1 | d_2 | ... (zeros trailing).  Pivoting picks
    the nonzero entry of minimal absolute value in the working submatrix,
    which keeps intermediate growth small on the matrices this package sees.

    >>> U, S, V = snf([[2, 0], [0, 3]])
    >>> [S[i][i] for i in range(2)]
    [1, 6]

    The work is sparse; the result is dense.  S and U are held as rows
    {column: nonzero int} and V as columns {row: nonzero int}, so a row or
    column operation costs the nonzeros it touches.  The rows of S are
    keyed by column label, the column's index in A, and two lists map
    labels to positions and back; swapping two columns of S swaps two
    entries of each list, and swapping two columns of V swaps two
    references.  At step t, rows and columns before t are finished
    (diagonal), so

    * rows t and below hold nonzeros only in columns t and up: the pivot
      scan and the divisibility check read a row's values directly;
    * the column phase runs once column t is zero below the pivot, so
      subtracting q times column t from column j changes only s[t][j] in
      S (and column j of V).

    Ties are broken by the first row, then the first column, in index
    order, so the operation sequence and the transforms are those of the
    dense elimination.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    s = [{j: x for j, x in enumerate(row) if x} for row in a]
    u = [{i: 1} for i in range(nrows)]
    v = [{j: 1} for j in range(ncols)]
    pos = list(range(ncols))  # column label -> position
    label = list(range(ncols))  # position -> column label
    t = 0

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            li, lj = label[i], label[j]
            label[i], label[j] = lj, li
            pos[li], pos[lj] = j, i
            v[i], v[j] = v[j], v[i]

    def sub(dst, src, q):
        # dst -= q * src, keeping only nonzeros
        for j, y in src.items():
            x = dst.get(j, 0) - q * y
            if x:
                dst[j] = x
            else:
                del dst[j]

    while t < min(nrows, ncols):
        # Locate the first (row-major) minimal-absolute-value nonzero entry
        # in s[t:, t:]; nothing nonzero is smaller than 1, so a 1 ends the
        # scan.
        pivot = None
        best = 0
        for i in range(t, nrows):
            val = min(map(abs, s[i].values()), default=0)
            if val and (not best or val < best):
                best, pivot = val, i
                if val == 1:
                    break
        if pivot is None:
            break
        row = s[pivot]
        swap_rows(t, pivot)
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
                u[t] = {j: -x for j, x in u[t].items()}
            p = st[lt]
            col = [i for i in range(t + 1, nrows) if lt in s[i]]
            if col:
                for i in col:
                    q = _round_div(s[i][lt], p)
                    if q:
                        sub(s[i], st, q)
                        sub(u[i], u[t], q)
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
                        sub(v[k], v[t], q)
                rest = [k for k, j in row_ if j in st]
                if rest:
                    swap_cols(t, min(rest, key=lambda k: abs(st[label[k]])))
                continue
            break
        # Enforce divisibility d_t | every remaining entry (always true for
        # d_t = 1): fold the first offending row in and redo the pivot step.
        p = s[t][label[t]]
        bad = None if p == 1 else next(
            (i for i in range(t + 1, nrows)
             if any(x % p for x in s[i].values())), None)
        if bad is None:
            t += 1
        else:
            sub(s[t], s[bad], -1)
            sub(u[t], u[bad], -1)
    # Densify, releasing each sparse row or column once it is copied so
    # that both forms of a matrix are never held whole at once.
    return (_dense_rows(u, nrows, range(nrows)), _dense_rows(s, ncols, pos),
            _dense_columns(v))


def _dense_rows(rows: list[dict[int, int]], width: int, pos) -> IntMatrix:
    # pos maps the keys of the sparse rows to columns of the dense ones
    out = []
    for i, sparse in enumerate(rows):
        row = [0] * width
        for j, x in sparse.items():
            row[pos[j]] = x
        rows[i] = None
        out.append(row)
    return out


def _dense_columns(cols: list[dict[int, int]]) -> IntMatrix:
    out = [[0] * len(cols) for _ in cols]
    for j, sparse in enumerate(cols):
        for i, x in sparse.items():
            out[i][j] = x
        cols[j] = None
    return out


def snf_diagonal(a: IntMatrix) -> list[int]:
    """The invariant factors d_1 | d_2 | ... (nonnegative, zeros trailing)."""
    _, s, _ = snf(a)
    return [s[i][i] for i in range(min(mat_shape(s)))]


def gcd_list(values) -> int:
    """gcd of an iterable of ints, >= 0; gcd of nothing is 0.

    >>> gcd_list([4, -6, 8])
    2
    """
    g = 0
    for x in values:
        g, _, _ = ext_gcd(g, x)
    return g
