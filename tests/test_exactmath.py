import random
from fractions import Fraction
from math import gcd

from equivalence_cases import covers
from tropcount import catalog, moduli
from tropcount.curve import subdivide
from tropcount.exactmath import (_round_div, det_int, ext_gcd, log_apply,
                                 log_row, mat_mul, nullspace_rational,
                                 rank_rational, snf, snf_diagonal, to_rows)
from tropcount.moduli import build_D, build_F
from tropcount.prelog import assemble_system
from tropcount.selftest import base_instances, generated_curves


def is_unimodular(m):
    return abs(det_int(m)) == 1


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _dense(rows, width):
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def _dense_snf(rows, width):
    """snf of rows with U and V densified, once their sparse form is
    checked: the log as triples of ints (i, t, q) on rows in range, a
    swap (q = 0) on two distinct rows, U as the log's rows, and V as
    width columns, each an {index: int} dict in range with no stored
    zero (a stored zero would break the eliminations)."""
    log, d, v = snf(rows, width)
    n = len(rows)
    assert all(len(op) == 3 and all(type(x) is int for x in op)
               and 0 <= op[0] < n and 0 <= op[1] < n
               and (op[2] or op[0] != op[1]) for op in log)
    assert len(v) == width
    assert all(type(x) is int and x and 0 <= i < width
               for col in v for i, x in col.items())
    return ([log_row(log, i, n) for i in range(n)], d,
            [[col.get(j, 0) for col in v] for j in range(width)])


def _snf(a):
    """snf of a dense matrix, U and V dense."""
    return _dense_snf(to_rows(a), len(a[0]) if a else 0)


def _diagonal_matrix(d, nrows, ncols):
    """The nrows x ncols matrix S with d on its diagonal."""
    return [[d[i] if i == j else 0 for j in range(ncols)]
            for i in range(nrows)]


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
    assert rank_rational(to_rows(a)) == 2
    basis = nullspace_rational(to_rows(a), 3)
    assert len(basis) == 1
    for vec in basis:
        assert all(sum(Fraction(row[j]) * vec[j] for j in range(3)) == 0
                   for row in a)
    assert rank_rational(to_rows([[0, 0], [0, 0]])) == 0
    assert len(nullspace_rational(to_rows([[0, 0], [0, 0]]), 2)) == 2
    assert rank_rational(to_rows(_identity(4))) == 4
    assert nullspace_rational(to_rows(_identity(4)), 4) == []


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


def _random_matrix(rng, nrows, ncols):
    rows = [[0 if rng.random() < 0.5 else rng.randrange(-9, 10)
             for _ in range(ncols)] for _ in range(nrows)]
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
    cases = [[], [[]], [[0, 0, 0]], [[0] * 4 for _ in range(3)]]
    for nrows, ncols in shapes:
        for _ in range(30):
            cases.append(_random_matrix(rng, nrows, ncols))
    for a in cases:
        rows, ncols = to_rows(a), len(a[0]) if a else 0
        assert rank_rational(rows) == _rank_reference(a), a
        got = nullspace_rational(rows, ncols)
        assert got == _nullspace_reference(a), a
        assert all(type(x) is Fraction for vec in got for x in vec)


def test_snf_doc_example():
    u, d, v = _dense_snf([{0: 2}, {1: 3}], 2)
    assert d == [1, 6]
    assert is_unimodular(u) and is_unimodular(v)
    assert mat_mul(mat_mul(u, [[2, 0], [0, 3]]), v) == [[1, 0], [0, 6]]


def _snf_reference(a):
    """snf without its unit-pivot shortcuts (full-submatrix pivot scan,
    divisibility sweep for every pivot), kept as the loop version that
    snf must match transform for transform."""
    s = [row[:] for row in a]
    nrows, ncols = len(s), len(s[0]) if s else 0
    u = _identity(nrows)
    v = _identity(ncols)

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


def _udv_reference(a):
    """(U, d, V) of _snf_reference: the diagonal of its S as d."""
    u, s, v = _snf_reference(a)
    return u, [s[i][i] for i in range(min(len(s), len(v)))], v


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
        assert _snf(a) == _udv_reference(a), a


def _builder_rows(curve, marks, monkeypatch):
    """[(builder, rows, width)] of the matrix builders on one curve: F,
    the F transpose of the dual flag space and the reduced F of the
    kernel order as the eliminations receive them, and the prelog
    exponents."""
    seen = []

    def spy(function):
        def wrapper(rows, *args):
            seen.append(rows)
            return function(rows, *args)
        return wrapper

    monkeypatch.setattr(moduli, "nullspace_rational",
                        spy(nullspace_rational))
    monkeypatch.setattr(moduli, "snf", spy(snf))
    moduli.dual_flag_space(curve)
    moduli.kernel_order_gcstar(curve, marks)
    monkeypatch.undo()
    points = 2 * len(curve.vertices)
    system = assemble_system(curve)
    return [("F", build_F(curve), points),
            ("dual flag", seen[0], len(curve.edges)),
            ("reduced F", seen[1], points),
            ("prelog", system.exponents, len(system.flags))]


def test_snf_transforms_match_reference_on_pipeline_matrices(monkeypatch):
    # The rows of every matrix builder, on the catalog curves, on
    # subdivided, relifted and transformed ones and on covers, hold only
    # nonzero ints inside their width, and rank, nullspace and the Smith
    # form on them equal the dense references on the same matrix; the
    # Smith form's U rows and V columns are sparse in the same way.  Also
    # the D matrices of the count and empty, zero, wide and tall shapes.
    rng = random.Random(79)
    cases = [[], [[]], [[], []], [[0] * 5 for _ in range(3)],
             [[0], [0], [0]], [[1, -1, 0, 2, 0, 0, 3, 0, 0]],
             [[2], [-4], [0], [6], [3], [0], [0], [9]]]
    for nrows, ncols in ((2, 11), (11, 2), (3, 14), (14, 3)):
        for _ in range(10):
            cases.append([[rng.choice((0, 0, 0, 1, -1, 2, -3, 4))
                           for _ in range(ncols)] for _ in range(nrows)])
    curves = base_instances() + generated_curves(rng, 30, keep_marks=True)
    curves += [(f"{base}-cover{k}", *covers.cover_instance(base, k, None))
               for base in sorted(covers.BASES) for k in (2, 3, 8)]
    for name, curve, marks in curves:
        gamma, ids = subdivide(curve, marks)
        cases.append(build_D(gamma, ids))
        for builder, rows, width in _builder_rows(curve, marks, monkeypatch):
            where = (name, builder)
            assert all(type(x) is int and x and 0 <= j < width
                       for row in rows for j, x in row.items()), where
            a = _dense(rows, width)
            assert rank_rational(rows) == _rank_reference(a), where
            assert nullspace_rational(rows, width) == \
                _nullspace_reference(a), where
            assert _dense_snf(rows, width) == _udv_reference(a), where
    # the wrapping cycles are among the curves: their edges are horizontal,
    # so each normal has a zero component, which F leaves out
    assert all(len(row) == 2 for row in build_F(catalog.wrapping_cycle(2)))
    for a in cases:
        assert _snf(a) == _udv_reference(a), a


def test_snf_zero_and_empty():
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]
    u, d, v = _snf([[0]])
    assert d == [0]
    assert snf_diagonal([[7]]) == [7]


def test_snf_random_properties():
    rng = random.Random(23)
    for _ in range(60):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        a = [[rng.randrange(-10, 11) for _ in range(ncols)]
             for _ in range(nrows)]
        u, diag, v = _snf(a)
        assert (u, diag, v) == _udv_reference(a), a
        assert is_unimodular(u) and is_unimodular(v)
        assert len(diag) == min(nrows, ncols)
        assert mat_mul(mat_mul(u, a), v) == \
            _diagonal_matrix(diag, nrows, ncols)
        for x in diag:
            assert x >= 0
        for prev, nxt in zip(diag, diag[1:]):
            if nxt:
                assert prev != 0 and nxt % prev == 0


def test_log_replays_to_the_rows_of_u_and_to_u_times_b():
    # backward replay of e_i is row i of the reference U, forward replay
    # on b is U*b; the scaled matrices take the divisibility fold (row t
    # += row bad, logged with t < bad), and negations (t, t, 2) are common
    rng = random.Random(71)
    folds = negations = 0
    for _ in range(300):
        nrows, ncols = rng.randrange(0, 8), rng.randrange(0, 8)
        scale = rng.choice((1, 1, 2, 3))
        rows = [{j: scale * x for j in range(ncols)
                 if rng.random() < 0.5 and (x := rng.randrange(-9, 10))}
                for _ in range(nrows)]
        log = snf(rows, ncols)[0]
        u = _udv_reference(_dense(rows, ncols))[0]
        for i in range(nrows):
            assert log_row(log, i, nrows) == u[i]
        b = [rng.randrange(-50, 51) for _ in range(nrows)]
        assert log_apply(log, b, lambda x, y, q: x - q * y) == \
            [sum(x * y for x, y in zip(row, b)) for row in u]
        folds += sum(1 for i, t, q in log if q and i < t)
        negations += sum(1 for i, t, q in log if i == t)
    assert folds >= 10 and negations >= 10


def test_snf_survives_dense_12x12():
    # Entry growth during elimination must stay bounded enough to finish;
    # a dozen dense draws with entries up to 20 covers the sizes the
    # counting pipeline ever produces.
    rng = random.Random(0)
    for _ in range(12):
        a = [[rng.randrange(-20, 21) for _ in range(12)] for _ in range(12)]
        u, d, v = _snf(a)
        assert mat_mul(mat_mul(u, a), v) == _diagonal_matrix(d, 12, 12)
        assert is_unimodular(u) and is_unimodular(v)


def test_snf_first_divisor_is_entry_gcd():
    rng = random.Random(31)
    for _ in range(40):
        a = [[rng.randrange(-12, 13) for _ in range(3)] for _ in range(3)]
        entries = [x for row in a for x in row]
        d = snf_diagonal(a)
        assert d[0] == gcd(*entries)


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
