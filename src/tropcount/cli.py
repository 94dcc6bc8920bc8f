"""Command-line interface.

Commands operate on JSON curve files (see curvefile) and print a report,
human-readable by default or machine-readable with --json.  Output is
byte-identical for identical inputs, flags and seeds.  The layout of
every report is defined here; the library returns records of values.

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

The module loads only the layers every command needs (errors, record,
valuegroup, curve, curvefile) and, from the standard library, _json and
small modules (os, re, enum, functools, math, ...) that an interpreter
started with site has usually loaded already.  Each handler imports the
rest it uses when it runs, so validate and plot load no algebra and
count does not load prelog.  No command but selftest loads fractions
(with decimal and numbers): rationals are read and kept as (numerator,
denominator) pairs of ints.  A failing command may load json (to word a
parse error) or argparse (for help and usage errors), and a numeric
comparison loads cmath.

The program runs through run() (`python -m tropcount.cli` and the
installed `tropcount` script): main(), then the atexit handlers and the
flush of both output streams that interpreter shutdown would run, then
os._exit with main()'s code, which skips freeing the modules and objects
of a process that is ending.  A failed write to standard output ends it
with code 1 and one error line.  main() called from Python only returns
the code.

A --json report is the text json.dumps(report, indent=2) would write, but
built by a small writer (_json_text) that formats string and integer
leaves with the C string encoder of json.dumps (taken from _json, so that
the json package is never loaded) and int.__repr__ and joins each map or
list in one pass; with an indent, json.dumps runs its pure-Python encoder.
The report is written as it is formatted (_write_json): the items of the
report and of each map or list in it go to sys.stdout.write one by one,
so its text is never held whole.  Human output is written the same way
(_human_lines): one write per top-level item (a leaf, a map or a list of
leaves), and for a list of maps one for its "key:" line and one per map,
never one write per line.  prelog's kernel generators enter the report
as generators that build one dense map at a time from the solver's
sparse columns; both writers read a generator as a list as it comes,
without looking ahead, and write one that yields nothing as [].  Every
integer a report would write, the generators' included, is checked
against the interpreter's int-to-str limit before the first write.
"""

import atexit
import errno
import math
import os
import sys
# the C string encoder of json.dumps (json.encoder re-exports it)
from _json import encode_basestring_ascii as _json_str
from itertools import repeat
from types import GeneratorType, SimpleNamespace

from .curve import canonical_offset, ensure_valid, validate
from .curvefile import (check_one_form, load_curve, parse_complex,
                        parse_group_element, parse_polar, parse_rational,
                        read_json)
from .errors import (ConstraintError, ParseError, TropcountError, clip,
                     format_rational, long_integer_text)
from .valuegroup import (DEFAULT_TOLERANCE, UNDECIDED_FACTOR, EqualityMode,
                         MulValue)


def _resolve_mode(args, curve) -> EqualityMode:
    if getattr(args, "mode", None):
        return EqualityMode(args.mode)
    env = os.environ.get("TROPCOUNT_MODE", "").strip().lower()
    if env:
        try:
            return EqualityMode(env)
        except ValueError:
            raise ConstraintError(
                f"TROPCOUNT_MODE={env!r} is not one of formal/exact/numeric"
            ) from None
    return curve.lattice.mode


# --------------------------------------------------------------------------
# report rendering
# --------------------------------------------------------------------------


def _human_lines(obj, indent: str = ""):
    """obj's human rendering, one piece of text per item as it is made:
    a leaf, a map or a list of leaves whole; a list of maps, or a
    generator (read as one), as its "key:" line when the first map
    arrives and then each map, or "key: []" when none does."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:\n" + "".join(
                _human_lines(value, indent + "  "))
        elif type(value) is GeneratorType or (
                isinstance(value, list) and value
                and all(isinstance(x, dict) for x in value)):
            head = f"{indent}{key}:\n"
            for item in value:
                if head:
                    yield head
                    head = ""
                text = "".join(_human_lines(item, indent + "    "))
                if text:
                    yield f"{indent}  - {text[len(indent) + 4:]}"
            if head:
                yield f"{indent}{key}: []\n"
        elif isinstance(value, list):
            yield f"{indent}{key}: [{', '.join(str(x) for x in value)}]\n"
        else:
            yield f"{indent}{key}: {value}\n"


def _json_text(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2), for a value nested at indentation pad.

    Python's encoder runs in pure Python whenever an indent is given.
    This writer builds the same layout itself for what a report holds:
    str, int, bool and None leaves in lists and in dicts with string
    keys.  Leaves are formatted as json.dumps formats them (the C string
    encoder and int.__repr__), and each dict or list is joined in one
    comprehension, so a dict of leaves costs one pass.  Anything else (a
    float, an int subclass, a key that is not a string) raises TypeError.
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
        return (ends[0] + "\n" + inner + (",\n" + inner).join(items)
                + "\n" + pad + ends[1])
    raise TypeError(f"a report cannot hold a {kind.__name__}")


def _write_json(obj, write, pad: str = "", depth: int = 2) -> None:
    """Write _json_text(obj, pad) through write, in pieces: the items of
    a map or list one by one, down depth levels, and every value below
    whole; a value _json_text refuses raises its TypeError.  A generator
    stands for a list and is written item by item, so it is never held
    whole, and as [] when it yields nothing; it may sit at most depth
    levels down, where the writer still reaches it."""
    kind = type(obj)
    if kind is GeneratorType:
        kind = list
    elif not (depth and obj and (kind is list or kind is dict)):
        write(_json_text(obj, pad))
        return
    inner = pad + "  "
    sep = "\n" + inner
    write("{" if kind is dict else "[")
    for item in obj.items() if kind is dict else obj:
        if kind is dict:
            key, item = item
            write(sep + _json_str(key) + ": ")
        else:
            write(sep)
        _write_json(item, write, inner, depth - 1)
        sep = ",\n" + inner
    end = "}" if kind is dict else "]"
    # an empty generator wrote no item: close it as []
    write(end if sep[0] == "\n" else "\n" + pad + end)


def _refuse_long_integers(value) -> None:
    """Raise ConstraintError when value (a report, or the sparse columns
    a generator of it is built from) holds an integer past the
    interpreter's limit on int-to-str, so that a report that cannot be
    written is not begun.  Generators are skipped.  Python 3.10 has no
    limit (no sys.get_int_max_str_digits), nor does a limit of 0."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        return
    stack = [value]
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is int:
            # 10**limit has more than 3 * limit bits
            if (value.bit_length() > 3 * limit
                    and abs(value) >= 10 ** limit):
                raise ConstraintError(f"cannot write {long_integer_text()}")
        elif kind is dict:
            stack.extend(value.values())
        elif kind is list or kind is tuple:
            stack.extend(value)


def _emit(report: dict, as_json: bool) -> None:
    _refuse_long_integers(report)
    write = sys.stdout.write
    if as_json:
        _write_json(report, write)
        write("\n")
    else:
        for piece in _human_lines(report):
            write(piece)


def _header(command: str, args, curve, mode: EqualityMode) -> dict:
    """The first items of an analyze, realizable, count or prelog report:
    the command, the file, the equality mode and the curve's invariants."""
    from .realize import parity_exponent

    return {
        "command": command,
        "file": args.file,
        "mode": mode.value,
        "genus": curve.genus,
        "delta": curve.delta,
        "vertex_weights": {
            v.id: curve.vertex_weight(v.id) for v in curve.vertices
        },
        "parity": parity_exponent(curve),
        "edge_weights": {e.id: e.weight for e in curve.edges},
    }


def _marked_points(marks) -> list:
    return [{"edge": m.edge, "t": format_rational(*m._t)} for m in marks]


#: a three-valued verdict as a report writes it
_ANSWER = {True: "yes", False: "no", None: "undecided"}


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------
#
# Each handler imports the layers it uses beyond the ones this module
# loads, so that a command loads only its own.  The import reads the
# module attribute at call time, so a wrapper installed there is called.


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
    from .moduli import deformation_ranks, edge_weight_product

    curve, marks = load_curve(args.file)
    ensure_valid(curve)
    rank_kernel, rank_cokernel = deformation_ranks(curve)
    report = {
        **_header("analyze", args, curve, curve.lattice.mode),
        "rank_kernel": rank_kernel,
        "rank_cokernel": rank_cokernel,
        # the dual flag space is dual to Coker F (moduli.dual_flag_space)
        "dual_flag_dimension": rank_cokernel,
        "edge_weight_product": edge_weight_product(curve),
        "marked_points": _marked_points(marks),
    }
    _emit(report, args.json)
    return 0


def cmd_realizable(args) -> int:
    from .realize import is_realizable, sigma_geometric

    curve, _ = load_curve(args.file)
    ensure_valid(curve)
    mode = _resolve_mode(args, curve)
    offset = canonical_offset(curve)
    geometric = sigma_geometric(curve)
    result = is_realizable(curve, mode, args.tol)
    cocycle = result.sigma
    warnings = []
    if result.verdict is None:
        warnings.append(
            "numeric comparison inside the undecided margin; refine the "
            "tolerance or use exact multipliers")
    report = {
        **_header("realizable", args, curve, mode),
        "offset": [format_rational(*offset[0]), format_rational(*offset[1])],
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
    from .moduli import count_curves

    curve, marks = load_curve(args.file)
    ensure_valid(curve)
    mode = _resolve_mode(args, curve)
    result = count_curves(curve, marks, mode, args.tol)
    report = {
        **_header("count", args, curve, mode),
        "marked_points": _marked_points(marks),
        "sigma": str(result.realizability.sigma),
        "verdict": result.realizability.verdict_text,
        "kernel_order": result.kernel.order,
        "invariant_factors": list(result.kernel.invariant_factors),
        "edge_weight_product": result.edge_weight_product,
        "total": result.total,
    }
    _emit(report, args.json)
    return 0


def _flag_keys(flags) -> list[str]:
    """The report key "vertex|edge" of each flag.  Ids that hold "|" can
    give two flags one key; such a curve is refused."""
    keys = [f"{vertex}|{edge}" for vertex, edge in flags]
    seen = set()
    for key in keys:
        if key in seen:
            raise ConstraintError(
                f"two flags share the report key {clip(repr(key))}")
        seen.add(key)
    return keys


def _parse_check_value(raw, what: str) -> MulValue | complex:
    """A group element, or the nonzero complex number of an re/im value."""
    if isinstance(raw, str):
        value = parse_rational(raw, what)
        try:
            return MulValue.rational(value)
        except ValueError as exc:
            raise ParseError(f"{what}: {exc}") from exc
    if isinstance(raw, dict):
        check_one_form(raw, ({"modulus", "turns"}, {"re", "im"},
                             {"symbols", "primes", "turns"}), what)
        if "modulus" in raw:
            return parse_polar(raw, what)
        if "re" in raw:
            z = parse_complex(raw["re"], raw.get("im", 0.0), what)
            if z == 0:
                raise ParseError(f"{what}: zero is not invertible")
            return z
        if set(raw) <= {"symbols", "primes", "turns"}:
            return parse_group_element(raw, what)
    raise ParseError(f"assignment value {clip(repr(raw))} is not a rational "
                     "string, modulus/turns, re/im, or serialized group "
                     "element")


def cmd_prelog(args) -> int:
    from .prelog import assemble_system, solve_monomial, verify_assignment

    curve, _ = load_curve(args.file)
    ensure_valid(curve)
    mode = _resolve_mode(args, curve)
    system = assemble_system(curve)
    keys = _flag_keys(system.flags)

    if args.check:
        doc = read_json(args.check, args.check)
        flags_doc = doc.get("flags") if isinstance(doc, dict) else None
        if not isinstance(flags_doc, dict):
            raise ParseError(
                f"{args.check}: expected an object with a \"flags\" map")
        assignment = []
        for key in keys:
            if key not in flags_doc:
                raise ParseError(
                    f"{args.check}: missing flag {clip(repr(key))}")
            assignment.append(_parse_check_value(
                flags_doc[key], f"{args.check}: {clip(key)}"))
        # name each complex value past the symbols in use, so none binds it
        taken = {key for x in assignment if isinstance(x, MulValue)
                 for kind, key, _, _ in x.terms if kind == 0}
        numeric_table = dict(curve.lattice.numeric_values)
        for i, x in enumerate(assignment):
            if isinstance(x, complex):
                name = f"check{i}"
                while name in taken:
                    name += "'"
                numeric_table[name] = x
                assignment[i] = MulValue.symbol(name)
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
        **_header("prelog", args, curve, mode),
        "feasible": _ANSWER[solution.feasible],
        "witnesses": [
            {
                "value": str(w.value),
                "holds": _ANSWER[w.verdict],
                "certificate": w.certificate,
            }
            for w in solution.witnesses
        ],
    }
    if solution.feasible is not False:
        verification = verify_assignment(
            system, solution.assignment, mode,
            numeric_values=curve.lattice.numeric_values, tolerance=args.tol)
        if solution.feasible is True and verification:
            raise ConstraintError(
                f"internal: solved assignment fails rows {verification}")
        report["verification"] = "pass" if not verification else "undecided"
        report["assignment"] = {
            key: (value.to_dict() if args.json else str(value))
            for key, value in zip(keys, solution.assignment)
        }
        # the generators are sparse; each dense map is built as it is
        # written, one at a time, from entries checked and formatted here,
        # so that a value that cannot be written stops the report unbegun
        _refuse_long_integers(solution.kernel_free)
        torsion = [{j: str(x) for j, x in generator.items()}
                   for generator in solution.kernel_torsion]
        flags = range(len(keys))
        report["kernel_free_generators"] = (
            dict(zip(keys, map(generator.get, flags, repeat(0))))
            for generator in solution.kernel_free)
        report["kernel_torsion_generators"] = (
            dict(zip(keys, map(generator.get, flags, repeat("1"))))
            for generator in torsion)
    _emit(report, args.json)
    return 4 if solution.feasible is False else 0


def cmd_plot(args) -> int:
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
    from .selftest import run_all

    results = run_all(args.seed, args.cases)
    for result in results:
        sys.stdout.write(result.line() + "\n")
        if not result.passed:
            for failure in result.failures[1:3]:
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
_MODE = ("--mode", {"choices": sorted(m.value for m in EqualityMode),
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


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse drops a failed write; run() reports it
            file = file or sys.stderr
            if message and file:
                file.write(message)

    parser = Parser(
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
    except ValueError as exc:
        # str() of an integer past the interpreter's digit limit, which
        # stays in force so that parsing input stays bounded
        if "integer string conversion" not in str(exc):
            raise
        sys.stderr.write(f"error: cannot write {long_integer_text()}\n")
        return ConstraintError.exit_code


class _ClosedOutput:
    """sys.stdout when file descriptor 1 was closed at start-up (Python
    sets it to None): a write fails as one to a closed descriptor does."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self):
        pass


def run() -> None:
    """The program: main() on sys.argv, then exit with its code.

    After main() returns, the registered atexit handlers run and both
    output streams are flushed, the part of interpreter shutdown that has
    an effect outside the process; os._exit then skips the rest, which
    only frees the modules and objects of a process that is ending.  A
    write to standard output that fails (closed, a broken pipe, a full
    disk) exits 1 with one error line.  Help and usage errors end the
    same way, with argparse's code (its SystemExit, 0 or 2); a crash (a
    traceback) takes the interpreter's usual way out."""
    if sys.stdout is None:
        sys.stdout = _ClosedOutput()
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        atexit._run_exitfuncs()
        sys.stdout.flush()
    except OSError as exc:
        # main() turns a failed read into a ParseError, so this is a
        # failed write; the handlers run unless they already have (the
        # call empties their list)
        atexit._run_exitfuncs()
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        code = 1
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
