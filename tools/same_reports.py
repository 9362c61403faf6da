"""Compare the CLI output of two checkouts on the benchmark's request sets.

Usage, from anywhere:

    python3 tools/same_reports.py PARENT CHANGE [--seeds 11 1801 ...]

PARENT and CHANGE are the roots of two checkouts.  Each runs in its own
fresh interpreter, with catamaj imported from ROOT/src, over the requests
that `perfbench/workloads.py` (this repository's, read only) generates for
every seed and both workloads, plus the fixed EXTRAS, checker problems
the benchmark never reaches, once with compact evidence and once with
`--evidence full`.  `scan` also runs on each `check-trumping` and
`check-thermo` problem, and its CSVs are compared byte for byte; every
request also runs once more with `--backend float`, and every checker
request once more at `--precision 128`, the least precision, where the
residual route's bound on mpmath's error (`majorization._cancelled`) is
loosest.

A request differs when its exit code, its stderr or its report differs, or
when a checker's report, decoded by its checkout's `catamaj.reports`, does
not re-encode to the same JSON.  When the two sides print the same
`schema` (or neither prints one: a CSV, an empty stdout), their stdout is
compared byte for byte, so a key-order change or a 1 turning into 1.0
differs too.  When they print different `schema`s, the reports are compared
as parsed JSON without the keys a report-format change is allowed to move:
`schema`, the `coherence` report that schema 6 dropped and the scan's
`oracle.grid`.  Every difference is printed; the exit status is 1 if there
is one, 2 if a checkout's run failed, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
IGNORED = ("schema", "coherence")    # top-level keys a format change may move
IGNORED_SCAN = ("grid",)             # keys of the "oracle" object likewise
DECODED = {"check-trumping": "trumping", "check-coherence": "trumping",
           "check-thermo": "thermo"}  # command -> the verdict codec of its report
_STATES = {"q_rho": ["0.7", "0.2", "0.1"], "q_sigma": ["0.5", "0.3", "0.2"]}
# (label, argv, problem) of checker calls no benchmark request makes: the
# embedded families (thermo.embed), a divergence refutation that mpmath
# decides, an exact g with an explicit eps, a supplied g_eps, the slack
# path's families (both hold; the reciprocal one fails; the closure one fails
# with and without H1), a closure-sufficient LOCC verdict whose oracle
# refutes, scans whose shared entries cancel (a shared (q_i, g_i) pair whose
# residual settles points; an n = 4 pair with a shared middle entry whose
# open points all fail), and catalyst searches that one p -> +-inf limit
# ends (the bottom one in thermo mode, the top one on the float backend)
EXTRAS = (
    ("families", ["check-thermo"], {"q_rho": ["1/60", "11/60", "1/3", "7/15"],
                                    "q_sigma": ["1/3", "7/15", "1/15", "2/15"],
                                    "g": ["1/4", "1/4", "3/8", "1/8"]}),
    ("mpmath divergence", ["check-thermo"], {"q_rho": ["1/12", "1/2", "3/10", "7/60"],
                                             "q_sigma": ["7/60", "17/60", "7/30", "11/30"],
                                             "g": ["1/5", "2/5", "1/5", "1/5"]}),
    ("exact g", ["check-thermo", "--eps", "1/10"], dict(_STATES, g=["1/2", "1/4", "1/4"])),
    ("g_eps", ["check-thermo", "--eps", "1/10"],
     dict(_STATES, energies=[0, 1, 2], beta="1/3", g_eps=["1/2", "1/4", "1/4"])),
    ("slack families hold", ["check-thermo", "--eps", "1/10"],
     {"q_rho": ["3/15", "12/15"], "q_sigma": ["10/13", "3/13"], "energies": [0, 3], "beta": "1"}),
    ("slack reciprocal fails", ["check-thermo", "--eps", "1/10"],
     {"q_rho": ["5/18", "1/18", "12/18"], "q_sigma": ["7/24", "10/24", "7/24"],
      "energies": [0, 1, 3], "beta": "1"}),
    ("slack closure and H1 fail", ["check-thermo", "--eps", "1/5"],
     {"q_rho": ["6/19", "4/19", "9/19"], "q_sigma": ["11/26", "11/26", "4/26"],
      "energies": [0, 1, 3], "beta": "1/2"}),
    ("slack closure fails", ["check-thermo", "--eps", "1/5"],
     {"q_rho": ["10/21", "11/21"], "q_sigma": ["12/18", "6/18"], "energies": [0, 1], "beta": "1"}),
    ("closure sufficient", ["check-trumping"],
     {"x": ["1/20", "13/40", "19/40", "3/20"], "y": ["29/40", "3/40", "1/10", "1/10"]}),
    ("shared pair", ["check-thermo"], {"q_rho": ["31/100", "17/25", "1/100"],
                                       "q_sigma": ["4/25", "17/25", "4/25"],
                                       "g": ["1/2", "1/4", "1/4"]}),
    ("shared middle", ["check-trumping"],
     {"x": ["7/10", "3/20", "1/10", "1/20"], "y": ["7/10", "3/25", "1/10", "2/25"]}),
    ("thermo search, bottom limit", ["search-catalyst"],
     {"x": ["3/5", "1/5", "1/5"], "y": ["3/5", "3/10", "1/10"], "g": ["1/2", "1/4", "1/4"],
      "mode": "thermo", "dim": 3, "resolution": "1/20"}),
    ("float search, top limit", ["search-catalyst", "--backend", "float"],
     {"x": ["3/5", "1/5", "1/5"], "y": ["1/2", "3/10", "1/5"], "dim": 3, "resolution": "1/20"}),
)


def _variants(label, argv, problem):
    """The compact, full, scan, float and 128-bit calls of one request."""
    for evidence in ("compact", "full"):
        yield f"{label} {evidence}", argv + ["--evidence", evidence], problem
    if argv[0] in ("check-trumping", "check-thermo"):
        yield f"{label} scan", ["scan"] + argv[1:], problem
    yield f"{label} float", argv + ["--backend", "float"], problem
    if argv[0] in DECODED:
        yield f"{label} precision 128", argv + ["--precision", "128"], problem


def _calls(seeds):
    """(label, argv, problem) of every call, in a fixed order."""
    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS, requests

    for workload in WORKLOADS:
        for seed in seeds:
            for index, req in enumerate(requests(workload, seed)):
                yield from _variants(f"{workload} seed {seed} #{index} {req.kind}",
                                     req.argv, req.problem)
    for label, argv, problem in EXTRAS:
        yield from _variants(f"extra {label}", argv, problem)


def _reencodes(reports, argv, stdout):
    """Whether a checker's report decodes and re-encodes to the same JSON;
    None for other output (a CSV, an empty stdout)."""
    name = DECODED.get(argv[0])
    if name is None or not stdout:
        return None
    body = {k: v for k, v in json.loads(stdout).items() if k not in ("schema", "command")}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)    # a full report's integers may run to any length
    try:
        decoded = getattr(reports, f"{name}_verdict_from_json")(body)
        return json.dumps(getattr(reports, f"{name}_verdict_to_json")(decoded)) == json.dumps(body)
    except (KeyError, ValueError, TypeError):    # what a report that does not decode raises
        return False
    finally:
        sys.set_int_max_str_digits(limit)


def _clear_caches():
    """Empty the functools caches of catamaj's modules, so that each call
    starts as a fresh process would."""
    for name, module in list(sys.modules.items()):
        if name == "catamaj" or name.startswith("catamaj."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def child(root, out_path, seeds):
    """Run every call in-process against ROOT/src; write one JSON line each."""
    sys.path.insert(0, os.path.join(root, "src"))
    import catamaj.cli as cli
    import catamaj.reports as reports

    with tempfile.TemporaryDirectory() as tmp, open(out_path, "w", encoding="utf-8") as out:
        path = os.path.join(tmp, "problem.json")
        for label, argv, problem in _calls(seeds):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(problem, fh)
            _clear_caches()
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv + [path])
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            except Exception as exc:  # a traceback is a result to compare too
                code = f"{type(exc).__name__}: {exc}"
            out.write(json.dumps({"label": label, "code": code, "stderr": stderr.getvalue(),
                                  "stdout": stdout.getvalue(),
                                  "reencodes": _reencodes(reports, argv, stdout.getvalue())})
                      + "\n")


def _parsed(stdout):
    """The report as parsed JSON, or the text."""
    try:
        return json.loads(stdout)
    except ValueError:
        return stdout


def _without_format_keys(report):
    """The report without the keys a format change may move."""
    if not isinstance(report, dict):
        return report
    report = {k: v for k, v in report.items() if k not in IGNORED}
    if isinstance(report.get("oracle"), dict):
        report["oracle"] = {k: v for k, v in report["oracle"].items() if k not in IGNORED_SCAN}
    return report


def _same_report(old, new):
    """Whether two outputs agree: byte for byte when both print the same
    schema, else as parsed JSON without the keys a format change may move."""
    parsed = _parsed(old), _parsed(new)
    schemas = [r.get("schema") if isinstance(r, dict) else None for r in parsed]
    if schemas[0] == schemas[1]:
        return old == new
    return _without_format_keys(parsed[0]) == _without_format_keys(parsed[1])


def _run(root, out_path, seeds):
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child", root,
                             out_path, "--seeds", *map(str, seeds)])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", metavar="ROOT", help="PARENT and CHANGE")
    parser.add_argument("--seeds", nargs="+", type=int, default=[11, 1801])
    parser.add_argument("--child", nargs=2, metavar=("ROOT", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child, args.seeds)
        return 0
    if len(args.roots) != 2:
        parser.error("give the roots of two checkouts: PARENT CHANGE")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, f"{side}.jsonl") for side in ("parent", "change")]
        # the two checkouts run side by side, one interpreter each
        procs = [_run(os.path.abspath(root), out, args.seeds)
                 for root, out in zip(args.roots, outs)]
        if any([proc.wait() for proc in procs]):
            print("a checkout's run failed", file=sys.stderr)
            return 2
        sides = []
        for out in outs:
            with open(out, encoding="utf-8") as fh:
                sides.append([json.loads(line) for line in fh])
    parent, change = sides
    differ = 0
    for old, new in zip(parent, change):
        diffs = [what for what, same in (
            ("exit code", old["code"] == new["code"]),
            ("stderr", old["stderr"] == new["stderr"]),
            ("report", _same_report(old["stdout"], new["stdout"])),
            ("re-encoding", False not in (old["reencodes"], new["reencodes"]))) if not same]
        if diffs:
            differ += 1
            print(f"DIFFERS {old['label']}: {', '.join(diffs)}")
    print(f"{len(parent)} calls compared, {differ} differ")
    return 1 if differ or len(parent) != len(change) else 0


if __name__ == "__main__":
    sys.exit(main())
