"""Compare the CLI output of two checkouts on the benchmark's request sets.

Usage, from anywhere:

    python3 tools/same_reports.py PARENT CHANGE [--seeds 11 1801 ...]

PARENT and CHANGE are the roots of two checkouts.  Each runs in its own
fresh interpreter, with catamaj imported from ROOT/src, over the requests
that `perfbench/workloads.py` (this repository's, read only) generates for
every seed and both workloads, once with compact evidence and once with
`--evidence full`.  `scan` also runs on each `check-trumping` and
`check-thermo` problem, and its CSVs are compared byte for byte.

A request differs when its exit code, its stderr or its report differs.
Reports are compared as parsed JSON without the keys that a report-format
change is allowed to move: `schema` and the scan's `oracle.grid`; output
that is not JSON is compared as text.  Every difference is printed; the
exit status is 1 if there is one, 2 if a checkout's run failed, else 0.
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
IGNORED = ("schema",)           # top-level keys a format change may move
IGNORED_SCAN = ("grid",)        # keys of the "oracle" object likewise


def _calls(seeds):
    """(label, argv, problem) of every call, in a fixed order."""
    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS, requests

    for workload in WORKLOADS:
        for seed in seeds:
            for index, req in enumerate(requests(workload, seed)):
                label = f"{workload} seed {seed} #{index} {req.kind}"
                for evidence in ("compact", "full"):
                    yield f"{label} {evidence}", req.argv + ["--evidence", evidence], req.problem
                if req.argv[0] in ("check-trumping", "check-thermo"):
                    yield f"{label} scan", ["scan"] + req.argv[1:], req.problem


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
                                  "stdout": stdout.getvalue()}) + "\n")


def _comparable(stdout):
    """The report without the keys a format change may move, or the text."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(report, dict):
        return report
    report = {k: v for k, v in report.items() if k not in IGNORED}
    if isinstance(report.get("oracle"), dict):
        report["oracle"] = {k: v for k, v in report["oracle"].items() if k not in IGNORED_SCAN}
    return report


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
        diffs = [what for what, a, b in (
            ("exit code", old["code"], new["code"]),
            ("stderr", old["stderr"], new["stderr"]),
            ("report", _comparable(old["stdout"]), _comparable(new["stdout"]))) if a != b]
        if diffs:
            differ += 1
            print(f"DIFFERS {old['label']}: {', '.join(diffs)}")
    print(f"{len(parent)} calls compared, {differ} differ")
    return 1 if differ or len(parent) != len(change) else 0


if __name__ == "__main__":
    sys.exit(main())
