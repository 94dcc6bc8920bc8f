import random
from fractions import Fraction
from math import gcd

from tropcount.curve import subdivide
from tropcount.exactmath import (_echelon, _round_div, det_int, ext_gcd,
                                 gcd_list,
                                 mat_identity, mat_mul, nullspace_rational,
                                 rank_rational, snf, snf_diagonal)
from tropcount.moduli import build_D
from tropcount.prelog import assemble_system
from tropcount.selftest import base_instances, generated_curves


def is_unimodular(m):
    return abs(det_int(m)) == 1


def test_ext_gcd_basics():
    assert ext_gcd(240, 46) == (2, -9, 47)
    for a, b in [(0, 0), (0, 5), (5, 0), (-4, 6), (12, -18), (7, 7)]:
        g, x, y = ext_gcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g
        assert g >= 0


def test_det_int_known_values():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    # singular
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_int_matches_cofactor_expansion():
    rng = random.Random(11)

    def cofactor(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor(minor)
        return total

    for _ in range(40):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == cofactor(m)


def test_rank_and_nullspace():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank_rational(a) == 2
    basis = nullspace_rational(a)
    assert len(basis) == 1
    for vec in basis:
        assert all(sum(Fraction(row[j]) * vec[j] for j in range(3)) == 0
                   for row in a)
    assert rank_rational([[0, 0], [0, 0]]) == 0
    assert len(nullspace_rational([[0, 0], [0, 0]])) == 2
    assert rank_rational(mat_identity(4)) == 4
    assert nullspace_rational(mat_identity(4)) == []


def _rank_reference(a):
    """Dense Fraction Gauss-Jordan rank: the loop version rank_rational
    replaced, kept as its reference."""
    rows = [[Fraction(x) for x in row] for row in a]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, nrows):
            f = rows[i][col] / pv
            if f:
                for j in range(col, ncols):
                    rows[i][j] -= f * rows[rank][j]
        rank += 1
        col += 1
    return rank


def _nullspace_reference(a):
    """Dense Fraction reduced echelon nullspace: the loop version
    nullspace_rational replaced, kept as its reference."""
    rows = [[Fraction(x) for x in row] for row in a]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
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
        if rank == nrows:
            break
    free_cols = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def _random_matrix(rng, nrows, ncols, rational):
    def entry():
        if rng.random() < 0.5:
            return 0
        num = rng.randrange(-9, 10)
        return Fraction(num, rng.randrange(1, 7)) if rational else num

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    # dependent rows make ranks below full likely
    for _ in range(rng.randrange(0, 3)):
        if nrows >= 2:
            i, j, k = (rng.randrange(nrows) for _ in range(3))
            c = rng.randrange(-3, 4)
            rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])]
    return rows


def test_rank_and_nullspace_match_dense_reference():
    rng = random.Random(41)
    shapes = [(0, 0), (1, 0), (3, 0), (1, 1), (2, 5), (3, 9), (9, 3),
              (6, 6), (10, 14), (14, 10)]
    cases = [[], [[]], [[0, 0, 0]], [[0] * 4 for _ in range(3)],
             [[Fraction(0)] * 2, [Fraction(1, 3), Fraction(-2, 7)]]]
    for nrows, ncols in shapes:
        for rational in (False, True):
            for _ in range(15):
                cases.append(_random_matrix(rng, nrows, ncols, rational))
    for a in cases:
        assert rank_rational(a) == _rank_reference(a), a
        got = nullspace_rational(a)
        assert got == _nullspace_reference(a), a
        assert all(type(x) is Fraction for vec in got for x in vec)


def test_echelon_keeps_int_rows_as_their_fraction_twins():
    # all-int rows skip the Fraction scaling; the pivots must be the ones
    # the same rows give as Fractions, and mixed rows still scale
    rng = random.Random(43)
    mats = [_random_matrix(rng, n, m, False)
            for n, m in [(1, 1), (3, 5), (6, 6), (9, 4), (12, 12)]
            for _ in range(20)]
    mats += [assemble_system(curve).exponents
             for _, curve, _ in base_instances()]
    for a in mats:
        as_fractions = [[Fraction(x) for x in row] for row in a]
        assert _echelon(a) == _echelon(as_fractions), a
        mixed = [[Fraction(x) if (i + j) % 2 else x
                  for j, x in enumerate(row)] for i, row in enumerate(a)]
        assert _echelon(mixed) == _echelon(a), a
    assert _echelon([[2, 4], [Fraction(1, 2), 3]]) == {0: {0: 2, 1: 4},
                                                       1: {1: 1}}


def test_snf_doc_example():
    u, s, v = snf([[2, 0], [0, 3]])
    assert [s[i][i] for i in range(2)] == [1, 6]
    assert is_unimodular(u) and is_unimodular(v)
    assert mat_mul(mat_mul(u, [[2, 0], [0, 3]]), v) == s


def _snf_reference(a):
    """snf without its unit-pivot shortcuts (full-submatrix pivot scan,
    divisibility sweep for every pivot), kept as the loop version that
    snf must match transform for transform."""
    s = [row[:] for row in a]
    nrows, ncols = len(s), len(s[0]) if s else 0
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
        # Locate the minimal-absolute-value nonzero entry in s[t:, t:].
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                val = abs(s[i][j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
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
        # Enforce divisibility d_t | every remaining entry.
        p = s[t][t]
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if s[i][j] % p != 0:
                    # Fold that row in and redo the pivot step.
                    add_row(i, t, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    return u, s, v



def test_snf_transforms_match_reference():
    # Pivots of 1 end the scan early and skip the divisibility sweep; the
    # transforms must come out exactly as without those shortcuts.
    rng = random.Random(47)
    cases = [[[0]], [[2, 0], [0, 3]], [[4, 6], [6, 9]]]
    for _ in range(150):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        scale = rng.choice((1, 2, 3, 6))
        cases.append([[scale * rng.randrange(-4, 5) if rng.random() < 0.6
                       else rng.choice((0, 1, -1, 2, 3))
                       for _ in range(ncols)] for _ in range(nrows)])
    for a in cases:
        assert snf(a) == _snf_reference(a), a


def test_snf_transforms_match_reference_on_pipeline_matrices():
    # The D matrices of the count and the exponent matrices of the prelog
    # system, on the catalog curves and on subdivided, relifted and
    # transformed ones, plus empty, zero, wide and tall shapes.
    rng = random.Random(79)
    cases = [[], [[]], [[], []], [[0] * 5 for _ in range(3)],
             [[0], [0], [0]], [[1, -1, 0, 2, 0, 0, 3, 0, 0]],
             [[2], [-4], [0], [6], [3], [0], [0], [9]]]
    for nrows, ncols in ((2, 11), (11, 2), (3, 14), (14, 3)):
        for _ in range(10):
            cases.append([[rng.choice((0, 0, 0, 1, -1, 2, -3, 4))
                           for _ in range(ncols)] for _ in range(nrows)])
    for name, curve, marks in (base_instances()
                               + generated_curves(rng, 30, keep_marks=True)):
        gamma, ids = subdivide(curve, marks)
        cases.append(build_D(gamma, ids))
        cases.append(assemble_system(curve).exponents)
    for a in cases:
        assert snf(a) == _snf_reference(a), a


def test_snf_zero_and_empty():
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]
    u, s, v = snf([[0]])
    assert s == [[0]]
    assert snf_diagonal([[7]]) == [7]


def test_snf_random_properties():
    rng = random.Random(23)
    for _ in range(60):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        a = [[rng.randrange(-10, 11) for _ in range(ncols)]
             for _ in range(nrows)]
        u, s, v = snf(a)
        assert is_unimodular(u) and is_unimodular(v)
        assert mat_mul(mat_mul(u, a), v) == s
        diag = [s[i][i] for i in range(min(nrows, ncols))]
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert s[i][j] == 0
        for x in diag:
            assert x >= 0
        for prev, nxt in zip(diag, diag[1:]):
            if nxt:
                assert prev != 0 and nxt % prev == 0


def test_snf_survives_dense_12x12():
    # Entry growth during elimination must stay bounded enough to finish;
    # a dozen dense draws with entries up to 20 covers the sizes the
    # counting pipeline ever produces.
    rng = random.Random(0)
    for _ in range(12):
        a = [[rng.randrange(-20, 21) for _ in range(12)] for _ in range(12)]
        u, s, v = snf(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert is_unimodular(u) and is_unimodular(v)


def test_snf_first_divisor_is_entry_gcd():
    rng = random.Random(31)
    for _ in range(40):
        a = [[rng.randrange(-12, 13) for _ in range(3)] for _ in range(3)]
        entries = [x for row in a for x in row]
        d = snf_diagonal(a)
        assert d[0] == gcd_list(entries)


def test_snf_square_product_is_abs_det():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-8, 9) for _ in range(n)] for _ in range(n)]
        d = snf_diagonal(a)
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(det_int(a))


def test_gcd_list():
    assert gcd_list([]) == 0
    assert gcd_list([0, 0]) == 0
    assert gcd_list([-4, 6]) == 2
    assert gcd_list([9]) == 9
