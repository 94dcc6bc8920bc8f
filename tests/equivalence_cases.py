"""Curves and chained reference code for the tests that pin the integer
fast paths (character products, mv_prod, the dual flag dimension and the
kernel order) to the results of the code they replaced.

The cases are the catalog, the selftest generators (subdivided, relifted
and transformed catalog curves) and cyclic covers of the catalog up to
index 16, each once with its own multipliers and once with random exact
polar ones.
"""

import pathlib
import random
import sys
from fractions import Fraction

from tropcount.selftest import (base_instances, generated_curves,
                                random_exact_curve)
from tropcount.valuegroup import MulValue, mv_mul, mv_pow

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
    return mv_mul(mv_pow(pos, Fraction(a, d)), mv_pow(neg, Fraction(-b, d)))
