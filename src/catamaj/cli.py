"""Batch command-line front end.

Reads a JSON problem file (or stdin), dispatches the requested checker and
writes a JSON report (CSV for `scan`) to stdout or --out.  Exit codes of
the `catamaj` command (`command`):

    0  sufficient / verified / catalyst found
    2  refuted / catalyst fails
    3  inconclusive / nothing found
    4  malformed input: the problem file or an argument does not parse, or
       the problem is invalid (a vector that is not a distribution, a grid
       that misses a branch, mismatched dimensions)
    5  resource cap hit: the grid budget, or the degree cap on a verdict
       left inconclusive
    6  internal error: a KeyError, ValueError or TypeError escaped a checker
       or the report writer after the problem parsed

One flat parser, built once per process, reads the command, the problem
path and the options in any order.  Every setting follows one rule: a flag
overrides the problem-file field of the same name, which overrides the
default (`--evidence` and `--out` are flags only, `sum_tol` a field only).
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
from .context import DEFAULT_CONTEXT, Context, parse_exact
from .errors import CatamajError, DegreeCapExceeded, GridTooLarge, InputError
from .majorization import GridSpec, THERMO, LOCC, search_catalyst, verify_catalyst
from .thermo import check_thermo, gibbs_vector, renyi_divergence, thermal_from_gibbs
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
        data = json.loads(text, parse_float=str)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read problem file: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("problem file must contain a JSON object")
    return data


def _setting(args, problem: dict, name: str):
    """The one settings rule: the flag, else the problem-file field of the
    same name, else None for the default.  A flag or field that is absent,
    null, false, 0 or empty is unset, and a setting without a flag
    (`sum_tol`) is read from its field alone."""
    return getattr(args, name, None) or problem.get(name)


def _integer(value) -> int:
    if isinstance(value, bool):    # int() would read true and false as 1 and 0
        raise InputError(f"cannot parse {value!r} as an integer")
    return int(value)


# (setting, Context field, parser) of the settings a flag or field may give
_CONTEXT_SETTINGS = (("backend", "backend", str), ("precision", "precision", _integer),
                     ("sum_tol", "sum_tol", parse_exact),
                     ("tol", "lorenz_tol", lambda v: float(parse_exact(v))),
                     ("degree_cap", "degree_cap", _integer))


def _context(args, problem: dict) -> Context:
    overrides = {field: parse(value) for name, field, parse in _CONTEXT_SETTINGS
                 if (value := _setting(args, problem, name))}
    if args.evidence:
        overrides["evidence"] = args.evidence
    return replace(DEFAULT_CONTEXT, **overrides) if overrides else DEFAULT_CONTEXT


def _grid(args, problem: dict) -> GridSpec:
    text = _setting(args, problem, "grid")
    return GridSpec.parse(text) if text else GridSpec()


def _field(problem: dict, key: str):
    if key not in problem:
        raise InputError(f"problem file is missing field {key!r}")
    return problem[key]


def _vector(problem: dict, key: str, ctx: Context) -> ProbVector:
    value = _field(problem, key)
    if not isinstance(value, list):
        raise InputError(f"field {key!r} must be an array of numbers")
    return make_prob_vector(value, ctx)


def _thermal(problem: dict, ctx: Context):
    if "g" in problem:
        return thermal_from_gibbs(_vector(problem, "g", ctx))
    if "energies" in problem and "beta" in problem:
        return gibbs_vector([parse_exact(e) for e in problem["energies"]],
                            parse_exact(problem["beta"]), ctx)
    raise InputError("thermo problems need either 'g' or 'energies' plus 'beta'")


def _catalyst_mode(problem: dict, ctx: Context):
    """(mode, g, g_cat) of a catalyst problem; g and g_cat are None under LOCC."""
    mode = problem.get("mode", LOCC)
    if mode != THERMO:
        return mode, None, None
    g = _thermal(problem, ctx).g
    return mode, g, (_vector(problem, "g_cat", ctx) if "g_cat" in problem else None)


def _emit(payload: str, out: Optional[str]):
    if out:
        # single atomic publication so a crashed run never leaves half a report
        tmp = f"{out}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, out)
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
    g_eps = (make_prob_vector(problem["g_eps"], ctx.with_backend("exact"))
             if "g_eps" in problem else None)
    eps = parse_exact(_setting(args, problem, "eps") or "1/1000")
    verdict = _checked(check_thermo, q_rho, q_sigma, spec, g_eps=g_eps, eps=eps, ctx=ctx,
                       grid=_grid(args, problem))
    return _verdict_report(args, reports.thermo_verdict_to_json, verdict, ctx)


def cmd_check_coherence(args, problem: dict, ctx: Context) -> int:
    build = pure_state_from_probs if problem.get("probabilities") else pure_state_from_amplitudes
    psi, phi = _field(problem, "psi"), _field(problem, "phi")
    verdict = _checked(check_coherent_trumping, build(psi, ctx), build(phi, ctx), ctx,
                       grid=_grid(args, problem))
    return _verdict_report(args, reports.trumping_verdict_to_json, verdict, ctx)


def cmd_verify_catalyst(args, problem: dict, ctx: Context) -> int:
    x, y, c = (_vector(problem, key, ctx) for key in ("x", "y", "catalyst"))
    mode, g, g_cat = _catalyst_mode(problem, ctx)
    ok = _checked(verify_catalyst, x, y, c, mode, g, g_cat, ctx)
    _report(args, lambda: {"verified": ok, "mode": mode,
                           "catalyst": reports.vector_to_json(c)}, ctx)
    return EXIT_SUFFICIENT if ok else EXIT_REFUTED


def cmd_search_catalyst(args, problem: dict, ctx: Context) -> int:
    x, y = _vector(problem, "x", ctx), _vector(problem, "y", ctx)
    dim = _integer(problem.get("dim", 2))
    resolution = parse_exact(problem.get("resolution", "1/100"))
    mode, g, g_cat = _catalyst_mode(problem, ctx)
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
        for p in grid.within(ctx.point_budget):
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
    parser.add_argument("--backend", choices=["exact", "float"],
                        help="scalar backend (default: exact)")
    parser.add_argument("--precision", type=int,
                        help="float mantissa bits, 128 to 65536 (default: 256)")
    parser.add_argument("--tol", help="float-mode dominance tolerance (default: 1e-12)")
    parser.add_argument("--eps",
                        help="l1 target for rational Gibbs approximation (default: 1/1000)")
    parser.add_argument("--grid", help="p-grid as --grid=min:max:step; the '=' keeps a negative "
                                       "min from reading as a flag (default: -20:20:1/20)")
    parser.add_argument("--degree-cap", help="polynomial degree cap n*r (default: 4096)")
    parser.add_argument("--evidence", choices=["compact", "full"],
                        help="report a summary per family and scan, or every "
                             "exact coefficient and failing point (default: compact)")
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
