"""Command-line interface.

Commands operate on JSON curve files (see curvefile) and print a report,
human-readable by default or machine-readable with --json.  Output is
byte-identical for identical inputs, flags and seeds.

Exit codes: 0 success, 1 I/O or parse error, 2 invalid curve (a marked
point with t outside (0, 1) included), 3 geometric degeneracy (no generic
offset found), 4 infeasible or unrealizable, 5 violated precondition
(wrong number of marks, non-rigid, undecided equality, a plot over its
size limit, ...).  Each error class carries its code as exit_code (see
errors).

The default equality mode comes from the curve file (the form of its
multipliers); the TROPCOUNT_MODE environment variable and the --mode flag
override it, in that order.

One command table (COMMANDS) holds the grammar.  A well-formed command
line is read from it directly; argparse is loaded only for help and usage
errors, so that their text and exit code are argparse's own.

A --json report is the text json.dumps(report, indent=2) would write, but
built by a small writer (_json_text) that formats string and integer
leaves with the C string encoder and int.__repr__ and joins each map or
list in one pass; with an indent, json.dumps runs its pure-Python encoder.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

from .curve import canonical_offset, ensure_valid, validate
from .curvefile import (format_rational, load_curve, parse_complex,
                        parse_polar, parse_rational, read_json)
from .errors import ConstraintError, ParseError, TropcountError
from .moduli import (count_curves, deformation_ranks, dual_flag_dimension,
                     edge_weight_product)
from .prelog import assemble_system, solve_monomial, verify_assignment
from .realize import is_realizable, parity_exponent, sigma_cocycle, \
    sigma_geometric
from .valuegroup import (DEFAULT_TOLERANCE, UNDECIDED_FACTOR, EqualityMode,
                         MulValue)

_MODE_NAMES = {
    "formal": EqualityMode.FORMAL,
    "exact": EqualityMode.EXACT,
    "numeric": EqualityMode.NUMERIC,
}


def _resolve_mode(args, curve) -> EqualityMode:
    if getattr(args, "mode", None):
        return _MODE_NAMES[args.mode]
    env = os.environ.get("TROPCOUNT_MODE", "").strip().lower()
    if env:
        if env not in _MODE_NAMES:
            raise ConstraintError(
                f"TROPCOUNT_MODE={env!r} is not one of formal/exact/numeric")
        return _MODE_NAMES[env]
    return curve.lattice.mode


# --------------------------------------------------------------------------
# report rendering
# --------------------------------------------------------------------------


def _human_lines(obj, indent: str = "") -> list[str]:
    lines: list[str] = []
    for key, value in obj.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_human_lines(value, indent + "  "))
        elif isinstance(value, list) and value \
                and all(isinstance(x, dict) for x in value):
            lines.append(f"{indent}{key}:")
            for item in value:
                sub = _human_lines(item, indent + "    ")
                if sub:
                    first = sub[0]
                    lines.append(f"{indent}  - {first.strip()}")
                    lines.extend(sub[1:])
        elif isinstance(value, list):
            rendered = ", ".join(str(x) for x in value)
            lines.append(f"{indent}{key}: [{rendered}]")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


#: the C string encoder behind json.dumps (ensure_ascii is on by default)
_json_str = json.encoder.encode_basestring_ascii


def _json_text(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2), for a value nested at indentation pad.

    Python's encoder runs in pure Python whenever an indent is given.
    This writer builds the same layout itself: str and int leaves are
    formatted as json.dumps formats them (the C string encoder and
    int.__repr__), and each dict or list is joined in one comprehension,
    so a dict of leaves costs one pass.  Anything else (floats, keys that
    are not strings, other types) is left to json.dumps, indented to fit.
    """
    kind = type(obj)
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is dict or kind is list:
        if not obj:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        try:
            if kind is dict:
                items = [_json_str(k) + ": " + (
                    _json_str(v) if type(v) is str else
                    int.__repr__(v) if type(v) is int else
                    _json_text(v, inner)) for k, v in obj.items()]
                ends = "{}"
            else:
                items = [_json_str(v) if type(v) is str else
                         int.__repr__(v) if type(v) is int else
                         _json_text(v, inner) for v in obj]
                ends = "[]"
        except TypeError:  # a key that is not a string
            pass
        else:
            return (ends[0] + "\n" + inner + (",\n" + inner).join(items)
                    + "\n" + pad + ends[1])
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(_json_text(report) + "\n")
    else:
        sys.stdout.write("\n".join(_human_lines(report)) + "\n")


def _invariants(curve) -> dict:
    return {
        "genus": curve.genus,
        "delta": curve.delta,
        "vertex_weights": {
            v.id: curve.vertex_weight(v.id) for v in curve.vertices
        },
        "parity": parity_exponent(curve),
        "edge_weights": {e.id: e.weight for e in curve.edges},
    }


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_validate(args) -> int:
    curve, _ = load_curve(args.file)
    result = validate(curve)
    report = {
        "command": "validate",
        "file": args.file,
        "valid": result.ok,
        "problems": list(result.problems),
        "warnings": list(result.warnings),
    }
    _emit(report, args.json)
    return 0 if result.ok else 2


def cmd_analyze(args) -> int:
    curve, marks = load_curve(args.file)
    ensure_valid(curve)
    rank_kernel, rank_cokernel = deformation_ranks(curve)
    dual_dim = dual_flag_dimension(curve)
    report = {
        "command": "analyze",
        "file": args.file,
        "mode": curve.lattice.mode.value,
        **_invariants(curve),
        "rank_kernel": rank_kernel,
        "rank_cokernel": rank_cokernel,
        "dual_flag_dimension": dual_dim,
        "edge_weight_product": edge_weight_product(curve),
        "marked_points": [
            {"edge": m.edge, "t": format_rational(m.t)} for m in marks
        ],
    }
    _emit(report, args.json)
    return 0


def cmd_realizable(args) -> int:
    curve, _ = load_curve(args.file)
    ensure_valid(curve)
    mode = _resolve_mode(args, curve)
    offset = canonical_offset(curve)
    cocycle = sigma_cocycle(curve)
    geometric = sigma_geometric(curve, offset)
    result = is_realizable(curve, mode, args.tol)
    warnings = []
    if result.verdict is None:
        warnings.append(
            "numeric comparison inside the undecided margin; refine the "
            "tolerance or use exact multipliers")
    report = {
        "command": "realizable",
        "file": args.file,
        "mode": mode.value,
        **_invariants(curve),
        "offset": [format_rational(offset[0]), format_rational(offset[1])],
        "sigma_cocycle": str(cocycle),
        "sigma_geometric": str(geometric),
        "sigma_agreement": cocycle == geometric,
        "target": str(result.target),
        "verdict": result.verdict_text,
        "certificate": result.certificate,
        "warnings": warnings,
    }
    _emit(report, args.json)
    if cocycle != geometric:
        raise ConstraintError(
            "internal disagreement between the two sigma computations")
    return 0


def cmd_count(args) -> int:
    curve, marks = load_curve(args.file)
    ensure_valid(curve)
    mode = _resolve_mode(args, curve)
    result = count_curves(curve, marks, mode, args.tol)
    report = {
        "command": "count",
        "file": args.file,
        "mode": mode.value,
        **_invariants(curve),
        "marked_points": [
            {"edge": m.edge, "t": format_rational(m.t)} for m in marks
        ],
        "sigma": str(result.realizability.sigma),
        "verdict": result.realizability.verdict_text,
        "kernel_order": result.kernel.order,
        "invariant_factors": list(result.kernel.invariant_factors),
        "edge_weight_product": result.edge_weight_product,
        "total": result.total,
    }
    _emit(report, args.json)
    return 0


def _flag_key(flag) -> str:
    return f"{flag[0]}|{flag[1]}"


def _parse_check_value(raw, index: int, numeric_table: dict, what: str):
    if isinstance(raw, str):
        value = parse_rational(raw, what)
        if value == 0:
            raise ParseError(f"{what}: zero is not invertible")
        try:
            return MulValue.rational(value)
        except ValueError as exc:
            raise ParseError(f"{what}: {exc}") from exc
    if isinstance(raw, dict):
        if "modulus" in raw:
            return parse_polar(raw, what)
        if "re" in raw:
            name = f"check{index}"
            numeric_table[name] = parse_complex(
                raw["re"], raw.get("im", 0.0), what)
            return MulValue.symbol(name)
        if set(raw) <= {"symbols", "primes", "turns"}:
            try:
                return MulValue.from_dict(raw)
            except (AttributeError, TypeError, ValueError,
                    ZeroDivisionError) as exc:
                raise ParseError(f"{what}: bad group element: {exc}") from exc
    raise ParseError(f"assignment value {raw!r} is not a rational string, "
                     "modulus/turns, re/im, or serialized group element")


def cmd_prelog(args) -> int:
    curve, _ = load_curve(args.file)
    ensure_valid(curve)
    mode = _resolve_mode(args, curve)
    system = assemble_system(curve)

    if args.check:
        doc = read_json(args.check, args.check)
        flags_doc = doc.get("flags") if isinstance(doc, dict) else None
        if not isinstance(flags_doc, dict):
            raise ParseError(
                f"{args.check}: expected an object with a \"flags\" map")
        numeric_table = dict(curve.lattice.numeric_values)
        assignment = []
        for i, flag in enumerate(system.flags):
            key = _flag_key(flag)
            if key not in flags_doc:
                raise ParseError(f"{args.check}: missing flag {key!r}")
            assignment.append(_parse_check_value(
                flags_doc[key], i, numeric_table, f"{args.check}: {key}"))
        check_mode = mode
        if len(numeric_table) > len(curve.lattice.numeric_values):
            check_mode = EqualityMode.NUMERIC
        failures = verify_assignment(system, assignment, check_mode,
                                     numeric_values=numeric_table,
                                     tolerance=args.tol)
        report = {
            "command": "prelog",
            "file": args.file,
            "mode": check_mode.value,
            "check": args.check,
            "rows_checked": len(system.exponents),
            "failing_rows": [
                {"row": label, "certificate": certificate}
                for label, certificate in failures
            ],
            "result": "pass" if not failures else "fail",
        }
        _emit(report, args.json)
        return 0 if not failures else 4

    solution = solve_monomial(
        system, mode, numeric_values=curve.lattice.numeric_values,
        tolerance=args.tol)
    report = {
        "command": "prelog",
        "file": args.file,
        "mode": mode.value,
        **_invariants(curve),
        "feasible": {True: "yes", False: "no", None: "undecided"}[
            solution.feasible],
        "witnesses": [
            {
                "value": str(w.value),
                "holds": {True: "yes", False: "no", None: "undecided"}[
                    w.verdict],
                "certificate": w.certificate,
            }
            for w in solution.witnesses
        ],
    }
    if solution.feasible is not False and solution.assignment is not None:
        verification = verify_assignment(
            system, solution.assignment, mode,
            numeric_values=curve.lattice.numeric_values, tolerance=args.tol)
        if solution.feasible is True and verification:
            raise ConstraintError(
                f"internal: solved assignment fails rows {verification}")
        report["verification"] = "pass" if not verification else "undecided"
        keys = [_flag_key(flag) for flag in system.flags]
        report["assignment"] = {
            key: (value.to_dict() if args.json else str(value))
            for key, value in zip(keys, solution.assignment)
        }
        report["kernel_free_generators"] = [
            dict(zip(keys, generator)) for generator in solution.kernel_free
        ]
        report["kernel_torsion_generators"] = [
            dict(zip(keys, map(str, generator)))
            for generator in solution.kernel_torsion
        ]
    _emit(report, args.json)
    return 4 if solution.feasible is False else 0


def cmd_plot(args) -> int:
    # imported here, as selftest is, so that no other command loads it
    from .plot import render_svg

    curve, _ = load_curve(args.file)
    svg = render_svg(curve)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(svg)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(svg)
    return 0


def cmd_selftest(args) -> int:
    # imported here so that no other command pays for loading the suites
    from .selftest import run_all

    results = run_all(args.seed, args.cases)
    for result in results:
        sys.stdout.write(result.line() + "\n")
        if not result.passed:
            for failure in result.failures[:3]:
                sys.stdout.write(f"    counterexample: {failure}\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(
        f"{len(results) - len(failed)}/{len(results)} suites passed\n")
    return 0 if not failed else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


_FILE = ("file", {"help": "curve file (JSON)"})
_JSON = ("--json", {"action": "store_true", "help": "machine-readable report"})
_MODE = ("--mode", {"choices": sorted(_MODE_NAMES),
                    "help": "equality mode override"})
_TOL = ("--tol", {"type": float, "default": DEFAULT_TOLERANCE,
                  "help": "numeric tolerance (default 1e-9)"})

#: The command-line grammar: command -> (handler name, help, arguments in
#: help order), an argument being (name, add_argument keywords) and the
#: one name without a leading "-" the positional.  build_parser spells it
#: out for argparse; _read_argv reads well-formed command lines from it.
#: Handlers are named, not held, so that main calls whatever function the
#: module attribute holds at the time (a wrapper, under tracing).
COMMANDS = {
    "validate": ("cmd_validate", "check curve well-formedness",
                 (_FILE, _JSON)),
    "analyze": ("cmd_analyze", "combinatorial invariants and ranks",
                (_FILE, _JSON)),
    "realizable": ("cmd_realizable", "decide realizability",
                   (_FILE, _JSON, _MODE, _TOL)),
    "count": ("cmd_count", "count algebraic curves through the marked points",
              (_FILE, _JSON, _MODE, _TOL)),
    "prelog": ("cmd_prelog", "solve the multiplicative gluing system",
               (_FILE, _JSON, _MODE, _TOL,
                ("--check", {"metavar": "FILE", "help": "verify a flag "
                             "assignment instead of solving"}))),
    "plot": ("cmd_plot", "render the curve as SVG",
             (_FILE, ("--out", {"metavar": "FILE", "default": "",
                                "help": "output path (default: stdout)"}))),
    "selftest": ("cmd_selftest", "run the property suites",
                 (("--seed", {"type": int, "default": 0}),
                  ("--cases", {"type": int, "default": None,
                               "help": "cases per suite (default: per-suite "
                                       "minimum)"}))),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="tropcount",
        description="Realizability and counting for tropical curves on a "
                    "two-dimensional torus quotient.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, text, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(func=globals()[handler])
    return parser


def _read_argv(argv):
    """The namespace build_parser().parse_args(argv) returns, read in one
    pass, when argv is a command, its positional and exact option names,
    each valued option followed by a value that does not start with "-",
    converts with the option's type and is one of its choices.  None for
    anything else (help, --opt=value, abbreviations, "--", negative
    numbers, usage errors), which argparse then answers."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, arguments = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": globals()[handler]}
    options, positionals, given = {}, [], []
    for name, keywords in arguments:
        if name.startswith("-"):
            options[name] = keywords
            values[name[2:]] = (False if keywords.get("action") == "store_true"
                                else keywords.get("default"))
        else:
            positionals.append(name)
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        keywords = options.get(token)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            values[token[2:]] = True
            continue
        raw = next(tokens, "-")  # a missing value is refused like a flag
        if raw.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(raw)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[token[2:]] = value
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _check_numbers(args) -> None:
    """Refuse a --tol that is not finite and > 0, or whose undecided band
    UNDECIDED_FACTOR * tol overflows, and a --cases below 1."""
    tol = getattr(args, "tol", DEFAULT_TOLERANCE)
    if not (tol > 0 and math.isfinite(UNDECIDED_FACTOR * tol)):
        raise ParseError(f"--tol {tol!r}: a tolerance must be finite and > 0, "
                         f"and {UNDECIDED_FACTOR} * tol finite")
    cases = getattr(args, "cases", None)
    if cases is not None and cases < 1:
        raise ParseError(f"--cases {cases} is below 1")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args)
    except TropcountError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
