"""Exact realizability and counting for tropical curves on a torus quotient.

The package decides whether a parametrized tropical curve in R^2 modulo a
rank-2 period lattice comes from a family of algebraic curves with the
multipliers attached to the periods, constructs the multiplicative gluing
data when it does, and counts the algebraic curves through generic marked
points.  All arithmetic is exact (integers, rationals, and a formal
multiplicative group with rational phases); a numeric mode with explicit
tolerances is available for concrete complex multipliers.

The names in __all__ load their submodule on first use (PEP 562), so
`import tropcount` and a command of the CLI load only the layers they use.
"""

__version__ = "0.1.0"

#: submodule -> the names of __all__ it defines
_EXPORTS = {
    "curve": ("Edge", "MarkedPoint", "PeriodLattice", "TropicalCurve",
              "ValidationReport", "Vertex", "canonical_offset", "crossings",
              "ensure_valid", "offset_sequence", "relift", "subdivide",
              "transform", "validate"),
    "curvefile": ("dumps_curve", "load_curve", "loads_curve", "save_curve"),
    "errors": ("ConstraintError", "DegeneracyError", "InfeasibleError",
               "ParseError", "TropcountError", "ValidationError"),
    "moduli": ("CountReport", "KernelOrder", "build_D", "build_F",
               "count_curves", "deformation_ranks", "dual_flag_space",
               "edge_weight_product", "kernel_order_bruteforce",
               "kernel_order_gcstar", "rigidity_check",
               "smallest_maximal_minor"),
    "prelog": ("MonomialSolution", "MonomialSystem", "VertexModel",
               "assemble_system", "prelog_exists", "solve_monomial",
               "verify_assignment"),
    "realize": ("RealizabilityReport", "is_realizable", "parity_exponent",
                "realizability_target", "sigma_cocycle", "sigma_geometric"),
    "valuegroup": ("EqualityMode", "MulValue", "mv_eval_numeric", "mv_is_one",
                   "mv_pow", "mv_root"),
}

#: name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
