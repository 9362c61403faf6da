"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A stub that flips one feasible verdict to "refuted" must raise the failed
   count, so the correctness check is not vacuous.
2. A tiny run of every workload, traced and untraced, prints every metric
   named in BENCHMARK.json with its unit.
3. In a directory holding only BENCHMARK.json and perfbench/, a run exits
   non-zero and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import import_cli, run_passes, score  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        raise SystemExit(1)


def flipped_verdict_fails(root, tmp):
    cli = import_cli(root)
    reqs = requests("locc_thermal", 1)[:8]
    clean = score(run_passes(cli, reqs, None, tmp).records)
    real = cli.check_trumping
    flips = []

    def stub(*args, **kwargs):
        verdict = real(*args, **kwargs)
        if not flips and verdict.status in ("trumping_sufficient", "closure_sufficient"):
            flips.append(verdict.status)
            return dataclasses.replace(verdict, status="refuted")
        return verdict

    cli.check_trumping = stub
    try:
        stubbed = score(run_passes(cli, reqs, None, tmp).records)
    finally:
        cli.check_trumping = real
    failed = lambda recs: sum(r["failed"] for r in recs)
    check(failed(clean) == 0, f"clean stub-free run has no failures ({len(clean)} requests)")
    check(bool(flips) and failed(stubbed) == failed(clean) + 1
          and sum(r["wrong"] for r in stubbed) == 1,
          "one feasible verdict flipped to refuted counts as one wrong, failed request")


def tiny_runs(root, spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=root, capture_output=True, text=True, timeout=180)
            check(done.returncode == 0, f"{workload} --trace {trace} exits 0")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1, f"{workload} --trace {trace} result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} --trace {trace} prints every {key} metric "
                               "with its unit")


def bare_directory_fails(root, tmp):
    bare = os.path.join(tmp, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "locc_thermal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without src/ the run exits non-zero and prints no result")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tmp = os.path.join(root, ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    try:
        flipped_verdict_fails(root, tmp)
        bare_directory_fails(root, tmp)
        tiny_runs(root, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
