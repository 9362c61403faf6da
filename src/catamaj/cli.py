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
    5  resource cap hit (grid budget, degree cap, embedding cap)
    6  internal error: a KeyError, ValueError or TypeError escaped a checker
       or the report writer after the problem parsed

Config precedence: command-line flags > problem-file fields > defaults.
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
from fractions import Fraction
from typing import Optional

import mpmath

from . import reports
from .coherence import check_coherent_trumping, pure_state_from_amplitudes, pure_state_from_probs
from .context import DEFAULT_CONTEXT, Context
from .errors import CatamajError, DegreeCapExceeded, GridTooLarge, InputError
from .majorization import GridSpec, THERMO, LOCC, search_catalyst, verify_catalyst
from .thermo import check_thermo, gibbs_vector, renyi_divergence, thermal_from_gibbs
from .trumping import check_trumping
from .vectors import ProbVector, make_prob_vector, pad_pair, renyi_entropy, scaled_p_norm

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


def _context(args, problem: dict) -> Context:
    ctx = DEFAULT_CONTEXT
    backend = args.backend or problem.get("backend")
    if backend:
        ctx = ctx.with_backend(backend)
    overrides = {}
    if args.precision or problem.get("precision"):
        overrides["precision"] = int(args.precision or problem["precision"])
    if args.tol or problem.get("tol"):
        overrides["lorenz_tol"] = float(args.tol or problem["tol"])
    if args.degree_cap or problem.get("degree_cap"):
        overrides["degree_cap"] = int(args.degree_cap or problem["degree_cap"])
    if args.evidence:
        overrides["evidence"] = args.evidence
    if overrides:
        ctx = replace(ctx, **overrides)
    return ctx


def _vector(problem: dict, key: str, ctx: Context) -> ProbVector:
    if key not in problem:
        raise InputError(f"problem file is missing field {key!r}")
    value = problem[key]
    if not isinstance(value, list):
        raise InputError(f"field {key!r} must be an array of numbers")
    tolerate = problem.get("sum_tol")
    if tolerate is not None:
        tolerate = Fraction(str(tolerate))
    return make_prob_vector(value, ctx, tolerate_sum=tolerate)


def _grid(args, problem: dict) -> Optional[GridSpec]:
    text = args.grid or problem.get("grid")
    if text is None:
        return None
    return GridSpec.parse(text)


def _thermal(problem: dict, ctx: Context):
    if "g" in problem:
        return thermal_from_gibbs(_vector(problem, "g", ctx))
    if "energies" in problem and "beta" in problem:
        return gibbs_vector([Fraction(e) if isinstance(e, str) else e
                             for e in problem["energies"]], Fraction(problem["beta"]), ctx)
    raise InputError("thermo problems need either 'g' or 'energies' plus 'beta'")


def _catalyst_gibbs(problem: dict, mode: str, ctx: Context):
    """(g, g_cat) of a thermal catalyst problem; (None, None) under LOCC."""
    if mode != THERMO:
        return None, None
    g = _thermal(problem, ctx).g
    return g, (_vector(problem, "g_cat", ctx) if "g_cat" in problem else None)


def _check_mode(problem: dict, expected: str):
    mode = problem.get("mode")
    if mode is not None and mode != expected:
        raise InputError(f"problem file says mode {mode!r} but command expects {expected!r}")


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


def _report(command: str, encode, out: Optional[str], ctx: Context) -> None:
    """Write the report whose body `encode()` returns."""

    def payload():
        body = {"schema": reports.SCHEMA, "command": command, **encode()}
        return json.dumps(body, indent=2 if ctx.full_evidence else None)

    limit = sys.get_int_max_str_digits()
    if ctx.full_evidence:
        sys.set_int_max_str_digits(0)
    try:
        _emit(_checked(payload), out)
    finally:
        sys.set_int_max_str_digits(limit)


def _verdict_report(command: str, encode, verdict, out: Optional[str], ctx: Context) -> int:
    """Write a checker's report; its exit code (a cap hit exits 5)."""
    _report(command, lambda: encode(verdict), out, ctx)
    return EXIT_CAP if verdict.cap_hit else _STATUS_EXIT[verdict.status]


def cmd_check_trumping(args) -> int:
    problem = _load_problem(args.problem)
    _check_mode(problem, "locc")
    ctx = _context(args, problem)
    x = _vector(problem, "x", ctx)
    y = _vector(problem, "y", ctx)
    verdict = _checked(check_trumping, x, y, ctx, grid=_grid(args, problem))
    return _verdict_report("check-trumping", reports.trumping_verdict_to_json, verdict,
                           args.out, ctx)


def cmd_check_thermo(args) -> int:
    problem = _load_problem(args.problem)
    _check_mode(problem, "thermo")
    ctx = _context(args, problem)
    q_rho = _vector(problem, "q_rho", ctx)
    q_sigma = _vector(problem, "q_sigma", ctx)
    spec = _thermal(problem, ctx)
    g_eps = None
    if "g_eps" in problem:
        exact_ctx = ctx.with_backend("exact")
        g_eps = make_prob_vector(problem["g_eps"], exact_ctx)
    eps = Fraction(args.eps) if args.eps else Fraction(str(problem.get("eps", "1/1000")))
    verdict = _checked(check_thermo, q_rho, q_sigma, spec, g_eps=g_eps, eps=eps, ctx=ctx,
                       grid=_grid(args, problem))
    return _verdict_report("check-thermo", reports.thermo_verdict_to_json, verdict,
                           args.out, ctx)


def cmd_check_coherence(args) -> int:
    problem = _load_problem(args.problem)
    _check_mode(problem, "coherence")
    ctx = _context(args, problem)
    build = pure_state_from_probs if problem.get("probabilities") else pure_state_from_amplitudes
    for key in ("psi", "phi"):
        if key not in problem:
            raise InputError(f"problem file is missing field {key!r}")
    psi = build(problem["psi"], ctx)
    phi = build(problem["phi"], ctx)
    verdict = _checked(check_coherent_trumping, psi, phi, ctx, grid=_grid(args, problem))
    return _verdict_report("check-coherence", reports.trumping_verdict_to_json, verdict,
                           args.out, ctx)


def cmd_verify_catalyst(args) -> int:
    problem = _load_problem(args.problem)
    ctx = _context(args, problem)
    x = _vector(problem, "x", ctx)
    y = _vector(problem, "y", ctx)
    c = _vector(problem, "catalyst", ctx)
    mode = problem.get("mode", LOCC)
    g, g_cat = _catalyst_gibbs(problem, mode, ctx)
    ok = _checked(verify_catalyst, x, y, c, mode, g, g_cat, ctx)
    _report("verify-catalyst", lambda: {"verified": ok, "mode": mode,
                                        "catalyst": reports.vector_to_json(c)}, args.out, ctx)
    return EXIT_SUFFICIENT if ok else EXIT_REFUTED


def cmd_search_catalyst(args) -> int:
    problem = _load_problem(args.problem)
    ctx = _context(args, problem)
    x = _vector(problem, "x", ctx)
    y = _vector(problem, "y", ctx)
    dim = int(problem.get("dim", 2))
    resolution = Fraction(str(problem.get("resolution", "1/100")))
    mode = problem.get("mode", LOCC)
    g, g_cat = _catalyst_gibbs(problem, mode, ctx)
    found = _checked(search_catalyst, x, y, dim, resolution, mode, g, g_cat, ctx)
    _report("search-catalyst", lambda: {
        "found": found is not None, "catalyst": reports.vector_to_json(found),
        "dim": dim, "resolution": str(resolution)}, args.out, ctx)
    return EXIT_SUFFICIENT if found is not None else EXIT_INCONCLUSIVE


def cmd_scan(args) -> int:
    problem = _load_problem(args.problem)
    ctx = _context(args, problem)
    grid = _grid(args, problem) or GridSpec()
    if "q_rho" in problem:
        q_rho = _vector(problem, "q_rho", ctx)
        q_sigma = _vector(problem, "q_sigma", ctx)
        g = _thermal(problem, ctx).g
        _emit(_checked(emit_divergence_scan, q_rho, q_sigma, g, grid, ctx), args.out)
    else:
        x = _vector(problem, "x", ctx)
        y = _vector(problem, "y", ctx)
        _emit(_checked(emit_scan, x, y, grid, ctx), args.out)
    return EXIT_SUFFICIENT


def _csv(header: str, grid: GridSpec, row, ctx: Context) -> str:
    """CSV of p and the values `row(p)` over the grid, rows ascending in p,
    12 significant digits."""
    lines = [header]
    for p in grid.table_within(ctx.point_budget)[2]:
        lines.append(",".join(mpmath.nstr(v, 12) for v in (mpmath.mpf(float(p)), *row(p))))
    return "\n".join(lines) + "\n"


def emit_scan(x: ProbVector, y: ProbVector, grid: GridSpec,
              ctx: Context = DEFAULT_CONTEXT) -> str:
    """CSV of (p, ||x||_p, ||y||_p, H_p(x), H_p(y)) over the grid.

    p in {0, 1} is excluded (those points live in the dedicated Burg/Shannon
    checks).
    """
    x, y = pad_pair(x, y)
    return _csv("p,norm_x,norm_y,renyi_x,renyi_y", grid,
                lambda p: (scaled_p_norm(x, p, ctx), scaled_p_norm(y, p, ctx),
                           renyi_entropy(x, p, ctx), renyi_entropy(y, p, ctx)), ctx)


def emit_divergence_scan(q_rho: ProbVector, q_sigma: ProbVector, g: ProbVector,
                         grid: GridSpec, ctx: Context = DEFAULT_CONTEXT) -> str:
    """CSV of (p, D_p(q_rho||g), D_p(q_sigma||g)) over the grid."""
    return _csv("p,divergence_rho,divergence_sigma", grid,
                lambda p: (renyi_divergence(q_rho, g, p, ctx),
                           renyi_divergence(q_sigma, g, p, ctx)), ctx)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catamaj",
        description="Finite sufficient-condition checkers for catalytic "
                    "majorization, thermal operations, and pure-state "
                    "coherence, with brute-force corroboration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", nargs="?", default=None,
                       help="JSON problem file ('-' or omitted reads stdin)")
        p.add_argument("--backend", choices=["exact", "float"], default=None,
                       help="scalar backend (default: exact)")
        p.add_argument("--precision", type=int, default=None,
                       help="float mantissa bits (default: 256)")
        p.add_argument("--tol", default=None,
                       help="float-mode dominance tolerance (default: 1e-12)")
        p.add_argument("--eps", default=None,
                       help="l1 target for rational Gibbs approximation (default: 1/1000)")
        p.add_argument("--grid", default=None,
                       help="p-grid as --grid=min:max:step; the '=' keeps a negative "
                            "min from reading as a flag (default: -20:20:1/20)")
        p.add_argument("--degree-cap", dest="degree_cap", default=None,
                       help="polynomial degree cap n*r (default: 4096)")
        p.add_argument("--evidence", choices=["compact", "full"], default=None,
                       help="report a summary per family and scan, or every "
                            "exact coefficient and failing point (default: compact)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    for name, handler in [("check-trumping", cmd_check_trumping),
                          ("check-thermo", cmd_check_thermo),
                          ("check-coherence", cmd_check_coherence),
                          ("verify-catalyst", cmd_verify_catalyst),
                          ("search-catalyst", cmd_search_catalyst),
                          ("scan", cmd_scan)]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GridTooLarge, DegreeCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CatamajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
