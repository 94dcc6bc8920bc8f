"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision Python ints and
`fractions.Fraction`; no floats are ever introduced.  The module provides the
small toolkit the rest of the package leans on:

* extended gcd with Bezout certificate,
* Hermite normal form (row style, with unimodular transform),
* Smith normal form with both unimodular transforms,
* one sparse, fraction-free row echelon routine behind rational rank and
  rational nullspace (rows scaled to integers, kept as {column: int}),
* exact determinant (Bareiss),
* linear Diophantine systems (particular solution + integer kernel basis).

Matrices are plain lists of lists of ints (or Fractions for the rational
helpers); rows are the outer index.
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


def mat_vec(a: IntMatrix, v: list) -> list:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


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

    Rows are scaled to integers by the lcm of their denominators and kept
    as {column: nonzero int}.  Each row is reduced at its leading column
    by integer cross-multiplication with the pivot row there, and divided
    by its content after every step, so it stays small and primitive.
    """
    pivots: dict[int, dict[int, int]] = {}
    for raw in a:
        row = {j: Fraction(x) for j, x in enumerate(raw) if x}
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


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (U, H) with U unimodular, H = U*A in row echelon form, pivots
    positive, and entries above each pivot reduced into [0, pivot).

    >>> U, H = hnf([[2, 4], [6, 8]])
    >>> H
    [[2, 0], [0, 4]]
    >>> from tropcount.exactmath import mat_mul
    >>> mat_mul(U, [[2, 4], [6, 8]]) == H
    True
    """
    h = mat_copy(a)
    nrows, ncols = mat_shape(h)
    u = mat_identity(nrows)
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        # Clear the column below `row` by gcd steps, keeping everything exact.
        while True:
            nonzero = [i for i in range(row, nrows) if h[i][col] != 0]
            if not nonzero:
                break
            # Bring the entry of minimal absolute value to the pivot row.
            best = min(nonzero, key=lambda i: abs(h[i][col]))
            if best != row:
                h[row], h[best] = h[best], h[row]
                u[row], u[best] = u[best], u[row]
            if all(h[i][col] == 0 for i in range(row + 1, nrows)):
                break
            p = h[row][col]
            if p < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
                p = -p
            for i in range(row + 1, nrows):
                if h[i][col] != 0:
                    q = _round_div(h[i][col], p)
                    if q:
                        h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[row])]
        if h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            p = h[row][col]
            for i in range(row):
                q = h[i][col] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
            row += 1
    return u, h


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns (U, S, V) with U, V unimodular and U*A*V = S, where S is diagonal
    with nonnegative entries d_1 | d_2 | ... (zeros trailing).  Pivoting picks
    the nonzero entry of minimal absolute value in the working submatrix,
    which keeps intermediate growth small on the matrices this package sees.

    >>> U, S, V = snf([[2, 0], [0, 3]])
    >>> [S[i][i] for i in range(2)]
    [1, 6]
    """
    s = mat_copy(a)
    nrows, ncols = mat_shape(s)
    u = mat_identity(nrows)
    v = mat_identity(ncols)

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst -= q * row_src
        if q:
            s[dst] = [x - q * y for x, y in zip(s[dst], s[src])]
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        if q:
            for row in s:
                row[dst] -= q * row[src]
            for row in v:
                row[dst] -= q * row[src]

    t = 0
    while t < min(nrows, ncols):
        # Locate the first (row-major) minimal-absolute-value nonzero entry
        # in s[t:, t:]; nothing nonzero is smaller than 1, so a 1 ends the
        # scan.
        pivot = None
        best = 0
        for i in range(t, nrows):
            val = min(map(abs, filter(None, s[i][t:])), default=0)
            if val and (not best or val < best):
                best, pivot = val, i
                if val == 1:
                    break
        if pivot is None:
            break
        row = s[pivot]
        swap_rows(t, pivot)
        swap_cols(t, next(j for j in range(t, ncols) if abs(row[j]) == best))
        # Clear row and column t by gcd descent.  Quotients round to the
        # nearest integer so every remainder is at most half the pivot, and
        # the smallest remainder is promoted to pivot before retrying; both
        # measures keep intermediate entries from ballooning.
        while True:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
            p = s[t][t]
            col = [i for i in range(t + 1, nrows) if s[i][t]]
            if col:
                for i in col:
                    add_row(t, i, _round_div(s[i][t], p))
                rest = [i for i in range(t + 1, nrows) if s[i][t]]
                if rest:
                    swap_rows(t, min(rest, key=lambda i: abs(s[i][t])))
                continue
            row_ = [j for j in range(t + 1, ncols) if s[t][j]]
            if row_:
                for j in row_:
                    add_col(t, j, _round_div(s[t][j], p))
                rest = [j for j in range(t + 1, ncols) if s[t][j]]
                if rest:
                    swap_cols(t, min(rest, key=lambda j: abs(s[t][j])))
                continue
            break
        # Enforce divisibility d_t | every remaining entry (always true for
        # d_t = 1): fold the first offending row in and redo the pivot step.
        p = s[t][t]
        bad = None if p == 1 else next(
            (i for i in range(t + 1, nrows)
             if any(x % p for x in s[i][t + 1:])), None)
        if bad is None:
            t += 1
        else:
            add_row(bad, t, -1)
    return u, s, v


def snf_diagonal(a: IntMatrix) -> list[int]:
    """The invariant factors d_1 | d_2 | ... (nonnegative, zeros trailing)."""
    _, s, _ = snf(a)
    return [s[i][i] for i in range(min(mat_shape(s)))]


def linear_diophantine_solve(
    a: IntMatrix, b: list[int]
) -> tuple[list[int], list[list[int]]] | None:
    """Solve A x = b over the integers.

    Returns (x0, kernel_basis) where x0 is one particular solution and
    kernel_basis spans {x : A x = 0}, or None when no integer solution
    exists.

    >>> linear_diophantine_solve([[2]], [3]) is None
    True
    >>> x0, ker = linear_diophantine_solve([[2, 3]], [1])
    >>> 2 * x0[0] + 3 * x0[1]
    1
    >>> [2 * k[0] + 3 * k[1] for k in ker]
    [0]
    """
    nrows, ncols = mat_shape(a)
    if nrows != len(b):
        raise ValueError("dimension mismatch between matrix and right side")
    u, s, v = snf(a)
    c = mat_vec(u, b)
    z = [0] * ncols
    r = 0
    for i in range(min(nrows, ncols)):
        d = s[i][i]
        if d != 0:
            if c[i] % d != 0:
                return None
            z[i] = c[i] // d
            r = i + 1
    for i in range(r, nrows):
        if c[i] != 0:
            return None
    x0 = mat_vec(v, z)
    kernel = []
    for j in range(r, ncols):
        kernel.append([v[i][j] for i in range(ncols)])
    return x0, kernel


def solve_rational(a, b) -> list[Fraction] | None:
    """Solve A x = b over the rationals (unique-solution or least guess).

    A may be any shape; returns one solution or None when inconsistent.
    Used for small 2x2 systems (period-coordinate changes), so plain
    Gauss-Jordan on Fractions is fine.
    """
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    nrows = len(rows)
    ncols = len(a[0]) if a else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, nrows):
        if rows[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = rows[r][ncols]
    return x


def gcd_list(values) -> int:
    """gcd of an iterable of ints, >= 0; gcd of nothing is 0.

    >>> gcd_list([4, -6, 8])
    2
    """
    g = 0
    for x in values:
        g, _, _ = ext_gcd(g, x)
    return g
