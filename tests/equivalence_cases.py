"""Curves and chained reference code for the tests that pin the integer
fast paths (character products, mv_prod, the kernel order and the dual
flag generator) to the results of the code they replaced, and dense_snf,
which checks snf's sparse output and densifies it for the oracles.

The cases are the catalog, the selftest generators (subdivided, relifted
and transformed catalog curves) and cyclic covers of the catalog up to
index 16, each once with its own multipliers and once with random exact
polar ones.
"""

import pathlib
import random
import sys
from fractions import Fraction

from tropcount.exactmath import log_row, snf
from tropcount.selftest import (base_instances, generated_curves,
                                random_exact_curve)
from tropcount.valuegroup import MulValue, mv_pow

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "tropbench"))
import covers  # the cover generator lives with the benchmark

COVER_KS = (2, 3, 8, 16)


def cases(seed: int, generated: int = 30):
    """[(name, curve, marks)] over the catalog, generated curves and
    covers, then all of them again with random exact multipliers."""
    rng = random.Random(seed)
    out = base_instances() + generated_curves(rng, generated)
    for base in sorted(covers.BASES):
        for k in COVER_KS:
            curve, marks = covers.cover_instance(base, k, None)
            out.append((f"{base}-cover{k}", curve, marks))
    out += [(f"{name}+exact", random_exact_curve(rng, curve), marks)
            for name, curve, marks in out]
    return out


def chi_reference(curve, family, vector, reduce_by_delta=True) -> MulValue:
    """The character of one wall family as two chained powers."""
    a, b = vector
    d = curve.delta if reduce_by_delta else 1
    m = curve.lattice.multipliers
    pos = m["alpha12"] if family == 1 else m["alpha22"]
    neg = m["alpha11"] if family == 1 else m["alpha21"]
    return mv_pow(pos, Fraction(a, d)) * mv_pow(neg, Fraction(-b, d))


def nullspace_reference(a):
    """Basis of the right nullspace over the rationals of the dense
    integer matrix a, by dense Fraction reduced echelon form: each free
    column in turn is set to 1 and the other free columns to 0."""
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


def dense_snf(rows, width):
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
