"""Batch command-line front end.

Reads a JSON problem file (or stdin), dispatches the requested checker and
writes a JSON report (CSV for `scan`) to stdout or --out.  Exit codes of
the `catamaj` command (`command`):

    0  sufficient / verified / catalyst found
    2  refuted / catalyst fails
    3  inconclusive / nothing found
    4  malformed input: the problem file or an argument does not parse, or
       the problem is invalid (a vector that is not a distribution, a grid
       that misses a branch, mismatched dimensions, an eps <= 0), or the
       report cannot be written to --out (a directory, a missing parent)
    5  resource cap hit: a grid spec over the budget, or the degree cap on
       a verdict left inconclusive
    6  internal error: a KeyError, ValueError or TypeError escaped a checker
       or the report writer after the problem parsed

One flat parser, built once per process, reads the command, the problem
path and the options in any order.  Every setting follows one rule: a flag
overrides the problem-file field of the same name, which overrides the
default (`--evidence` and `--out` are flags only; `sum_tol`, `mode`,
`dim`, `resolution` and `probabilities` fields only);
only an absent flag or an absent or null field is unset (`_setting`).
Decimal strings in problem files are parsed digit-for-digit, so exact-mode
runs never round through binary floats.  `--evidence full` reports every
exact per-k coefficient and every failing grid point; its integers can run
to thousands of digits, so the int->str digit limit is lifted while such a
report is encoded and written.  Compact reports are written on one line,
full ones indented.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional

import mpmath

from . import reports
from .coherence import check_coherent_trumping, pure_state_from_amplitudes, pure_state_from_probs
from .context import (COMPACT, DEFAULT_CONTEXT, EXACT, FLOAT, FULL, MAX_PRECISION, Context,
                      parse_exact)
from .errors import CatamajError, DegreeCapExceeded, GridTooLarge, InputError
from .majorization import GridSpec, THERMO, LOCC, search_catalyst, verify_catalyst
from .thermo import DEFAULT_EPS, check_thermo, gibbs_vector, renyi_divergence, thermal_from_gibbs
from .trumping import check_trumping
from .vectors import (
    ProbVector,
    converted,
    make_prob_vector,
    pad_pair,
    renyi_entropy,
    scaled_p_norm,
)

EXIT_SUFFICIENT = 0
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3
EXIT_INPUT = 4
EXIT_CAP = 5
EXIT_INTERNAL = 6

_STATUS_EXIT = {
    "trumping_sufficient": EXIT_SUFFICIENT,
    "closure_sufficient": EXIT_SUFFICIENT,
    "sufficient": EXIT_SUFFICIENT,
    "refuted": EXIT_REFUTED,
    "inconclusive": EXIT_INCONCLUSIVE,
}


class InternalFault(Exception):
    """A builtin error that escaped a checker or the report writer after the
    problem parsed."""


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a KeyError, ValueError or TypeError it
    raises recast as an InternalFault: by then the input has parsed, so the
    fault is the program's, not the problem file's."""
    try:
        return fn(*args, **kwargs)
    except (KeyError, ValueError, TypeError) as exc:
        raise InternalFault(f"{type(exc).__name__}: {exc}") from exc


def _load_problem(path: Optional[str]) -> dict:
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        # NaN and +-Infinity stay strings, as decimals do, for each field's reader
        data = json.loads(text, parse_float=str, parse_constant=str)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read problem file: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("problem file must contain a JSON object")
    return data


def _setting(args, problem: dict, name: str):
    """The one settings rule: the flag, else the problem-file field of the
    same name, else None for the default.  Only an absent flag or an absent
    or null field is unset: 0, false and "" are checked by their reader.
    A setting without a flag (`sum_tol`, `mode`, `dim`, `resolution`,
    `probabilities`) is read from its field alone."""
    value = getattr(args, name, None)
    return problem.get(name) if value is None else value


def _integer(value) -> int:
    if isinstance(value, bool):    # int() would read true and false as 1 and 0
        raise InputError(f"cannot parse {value!r} as an integer")
    return int(value)


# (setting, Context field, parser) of the settings a flag or field may give
_CONTEXT_SETTINGS = (("backend", "backend", str), ("precision", "precision", _integer),
                     ("sum_tol", "sum_tol", parse_exact), ("degree_cap", "degree_cap", _integer))


def _context(args, problem: dict) -> Context:
    overrides = {field: parse(value) for name, field, parse in _CONTEXT_SETTINGS
                 if (value := _setting(args, problem, name)) is not None}
    if args.evidence:
        overrides["evidence"] = args.evidence
    return replace(DEFAULT_CONTEXT, **overrides) if overrides else DEFAULT_CONTEXT


def _grid(args, problem: dict) -> GridSpec:
    text = _setting(args, problem, "grid")
    return GridSpec() if text is None else GridSpec.parse(text)


def _field(problem: dict, key: str):
    if key not in problem:
        raise InputError(f"problem file is missing field {key!r}")
    return problem[key]


def _array(problem: dict, key: str) -> list:
    value = _field(problem, key)
    if not isinstance(value, list):
        raise InputError(f"field {key!r} must be an array of numbers")
    return value


def _vector(problem: dict, key: str, ctx: Context) -> ProbVector:
    return make_prob_vector(_array(problem, key), ctx)


def _thermal(problem: dict, ctx: Context):
    if "g" in problem:
        return thermal_from_gibbs(_vector(problem, "g", ctx))
    if "energies" in problem and "beta" in problem:
        return gibbs_vector([parse_exact(e) for e in _array(problem, "energies")],
                            parse_exact(problem["beta"]), ctx)
    raise InputError("thermo problems need either 'g' or 'energies' plus 'beta'")


def _catalyst_mode(args, problem: dict, ctx: Context):
    """(mode, g, g_cat) of a catalyst problem; g and g_cat are None under LOCC."""
    mode = _setting(args, problem, "mode")
    mode = LOCC if mode is None else mode
    if mode != THERMO:
        return mode, None, None
    g = _thermal(problem, ctx).g
    return mode, g, (_vector(problem, "g_cat", ctx) if "g_cat" in problem else None)


def _emit(payload: str, out: Optional[str]):
    if out:
        # single atomic publication so a crashed run never leaves half a report
        tmp, opened = f"{out}.tmp", False
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                opened = True    # from here on the temp file is ours to remove
                fh.write(payload)
            os.replace(tmp, out)
        except OSError as exc:
            if opened:
                os.remove(tmp)
            raise InputError(f"cannot write report: {exc}") from None
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _report(args, encode, ctx: Context) -> None:
    """Write the report whose body `encode()` returns."""

    def payload():
        body = {"schema": reports.SCHEMA, "command": args.command, **encode()}
        return json.dumps(body, indent=2 if ctx.full_evidence else None)

    limit = sys.get_int_max_str_digits()
    if ctx.full_evidence:
        sys.set_int_max_str_digits(0)
    try:
        _emit(_checked(payload), args.out)
    finally:
        sys.set_int_max_str_digits(limit)


def _verdict_report(args, encode, verdict, ctx: Context) -> int:
    """Write a checker's report; its exit code (a cap hit exits 5)."""
    _report(args, lambda: encode(verdict), ctx)
    return EXIT_CAP if verdict.cap_hit else _STATUS_EXIT[verdict.status]


def cmd_check_trumping(args, problem: dict, ctx: Context) -> int:
    verdict = _checked(check_trumping, _vector(problem, "x", ctx), _vector(problem, "y", ctx),
                       ctx, grid=_grid(args, problem))
    return _verdict_report(args, reports.trumping_verdict_to_json, verdict, ctx)


def cmd_check_thermo(args, problem: dict, ctx: Context) -> int:
    q_rho, q_sigma = _vector(problem, "q_rho", ctx), _vector(problem, "q_sigma", ctx)
    spec = _thermal(problem, ctx)
    g_eps = _vector(problem, "g_eps", replace(ctx, backend="exact")) if "g_eps" in problem else None
    eps = _setting(args, problem, "eps")
    verdict = _checked(check_thermo, q_rho, q_sigma, spec, g_eps=g_eps, ctx=ctx,
                       grid=_grid(args, problem), eps=DEFAULT_EPS if eps is None else parse_exact(eps))
    return _verdict_report(args, reports.thermo_verdict_to_json, verdict, ctx)


def cmd_check_coherence(args, problem: dict, ctx: Context) -> int:
    probabilities = _setting(args, problem, "probabilities")
    if not isinstance(probabilities, (bool, type(None))):
        raise InputError(f"field 'probabilities' must be true or false, not {probabilities!r}")
    build = pure_state_from_probs if probabilities else pure_state_from_amplitudes
    psi, phi = _array(problem, "psi"), _array(problem, "phi")
    verdict = _checked(check_coherent_trumping, build(psi, ctx), build(phi, ctx), ctx,
                       grid=_grid(args, problem))
    return _verdict_report(args, reports.trumping_verdict_to_json, verdict, ctx)


def cmd_verify_catalyst(args, problem: dict, ctx: Context) -> int:
    x, y, c = (_vector(problem, key, ctx) for key in ("x", "y", "catalyst"))
    mode, g, g_cat = _catalyst_mode(args, problem, ctx)
    ok = _checked(verify_catalyst, x, y, c, mode, g, g_cat, ctx)
    _report(args, lambda: {"verified": ok, "mode": mode,
                           "catalyst": reports.vector_to_json(c)}, ctx)
    return EXIT_SUFFICIENT if ok else EXIT_REFUTED


def cmd_search_catalyst(args, problem: dict, ctx: Context) -> int:
    x, y = _vector(problem, "x", ctx), _vector(problem, "y", ctx)
    dim, resolution = (_setting(args, problem, name) for name in ("dim", "resolution"))
    dim = _integer(2 if dim is None else dim)
    resolution = parse_exact("1/100" if resolution is None else resolution)
    mode, g, g_cat = _catalyst_mode(args, problem, ctx)
    found = _checked(search_catalyst, x, y, dim, resolution, mode, g, g_cat, ctx)
    _report(args, lambda: {
        "found": found is not None, "catalyst": reports.vector_to_json(found),
        "dim": dim, "resolution": str(resolution)}, ctx)
    return EXIT_SUFFICIENT if found is not None else EXIT_INCONCLUSIVE


def cmd_scan(args, problem: dict, ctx: Context) -> int:
    """CSV over the grid, rows ascending in p, 12 significant digits: of
    (p, D_p(q_rho||g), D_p(q_sigma||g)) for a thermal problem, else of
    (p, ||x||_p, ||y||_p, H_p(x), H_p(y)).  p in {0, 1} is excluded (those
    points live in the dedicated Burg/Shannon checks)."""
    grid = _grid(args, problem)
    # every row evaluates at one more p: convert the entries to mpf once
    if "q_rho" in problem:
        q_rho, q_sigma = (converted(_vector(problem, key, ctx), ctx)
                          for key in ("q_rho", "q_sigma"))
        g = converted(_thermal(problem, ctx).g, ctx)
        header = "p,divergence_rho,divergence_sigma"

        def row(p):
            return renyi_divergence(q_rho, g, p, ctx), renyi_divergence(q_sigma, g, p, ctx)
    else:
        x, y = (converted(v, ctx) for v in pad_pair(_vector(problem, "x", ctx),
                                                     _vector(problem, "y", ctx)))
        header = "p,norm_x,norm_y,renyi_x,renyi_y"

        def row(p):
            return (scaled_p_norm(x, p, ctx), scaled_p_norm(y, p, ctx),
                    renyi_entropy(x, p, ctx), renyi_entropy(y, p, ctx))

    def csv():
        lines = [header]
        for p in grid:
            lines.append(",".join(mpmath.nstr(v, 12) for v in (mpmath.mpf(float(p)), *row(p))))
        return "\n".join(lines) + "\n"

    _emit(_checked(csv), args.out)
    return EXIT_SUFFICIENT


# command -> (handler, the problem-file mode it requires, or None)
COMMANDS = {
    "check-trumping": (cmd_check_trumping, LOCC),
    "check-thermo": (cmd_check_thermo, THERMO),
    "check-coherence": (cmd_check_coherence, "coherence"),
    "verify-catalyst": (cmd_verify_catalyst, None),
    "search-catalyst": (cmd_search_catalyst, None),
    "scan": (cmd_scan, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catamaj",
        description="Finite sufficient-condition checkers for catalytic "
                    "majorization, thermal operations, and pure-state "
                    "coherence, with brute-force corroboration.  Options may "
                    "come before or after the command.")
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("problem", nargs="?", help="JSON problem file ('-' or omitted reads stdin)")
    d = DEFAULT_CONTEXT    # the defaults the help text names
    parser.add_argument("--backend", choices=[EXACT, FLOAT],
                        help=f"scalar backend (default: {d.backend})")
    parser.add_argument("--precision", type=int, help="float mantissa bits, 128 to "
                        f"{MAX_PRECISION} (default: {d.precision})")
    parser.add_argument("--eps",
                        help=f"l1 target for rational Gibbs approximation (default: {DEFAULT_EPS})")
    parser.add_argument("--grid", help="p-grid as --grid=min:max:step; the '=' keeps a negative "
                                       f"min from reading as a flag (default: {GridSpec()})")
    parser.add_argument("--degree-cap", help=f"polynomial degree cap n*r (default: {d.degree_cap})")
    parser.add_argument("--evidence", choices=[COMPACT, FULL],
                        help="report a summary per family and scan, or every "
                             f"exact coefficient and failing point (default: {d.evidence})")
    parser.add_argument("--out", help="write the report here instead of stdout")
    return parser


PARSER = build_parser()
# parse_intermixed_args formats the usage text on every call while `usage`
# is None, and prints that text: store it once
PARSER.usage = PARSER.format_usage()[len("usage: "):]


def main(argv=None) -> int:
    # intermixed, so that a problem path after an option still reads as one
    args = PARSER.parse_intermixed_args(argv)
    handler, mode = COMMANDS[args.command]
    try:
        problem = _load_problem(args.problem)
        if mode is not None and problem.get("mode") not in (None, mode):
            raise InputError(f"problem file says mode {problem['mode']!r} "
                             f"but command expects {mode!r}")
        return handler(args, problem, _context(args, problem))
    except CatamajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, (GridTooLarge, DegreeCapExceeded)) else EXIT_INPUT
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: malformed problem input ({exc})", file=sys.stderr)
        return EXIT_INPUT
    except InternalFault as exc:
        print(f"error: internal error ({exc})", file=sys.stderr)
        return EXIT_INTERNAL


def command(argv=None) -> int:
    """The `catamaj` command: `main`, with an argument that does not parse
    exiting 4 rather than argparse's 2, which here means "refuted".  `main`
    itself lets argparse's SystemExit(2) through to in-process callers."""
    try:
        return main(argv)
    except SystemExit as exc:
        if exc.code != 2:
            raise
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(command())
