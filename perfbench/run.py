"""catamaj benchmark: one run of one workload, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are locc_thermal and near_tie (see perfbench/README.md).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
installs spans around the calls into each module and reports the per-layer
metrics instead.  The program is imported from ./src; without it the run
exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170


def _bench_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _units(trace):
    spec = _bench_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "catamaj", "cli.py")):
        print(f"error: no catamaj sources under {root}/src", file=sys.stderr)
        return 2
    units = _units(args.trace)
    work = os.path.join(root, ".perfbench")
    tmp = os.path.join(work, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        spec_path = os.path.join(tmp, "spec.json")
        result_path = os.path.join(tmp, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"root": root, "tmp": tmp, "workload": args.workload,
                       "seed": args.seed, "seconds": args.seconds,
                       "trace": bool(args.trace)}, fh)
        worker = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                                   spec_path, result_path], cwd=root)
        try:
            status = worker.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            print(f"error: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
            return 1
        if status != 0:
            print(f"error: worker exited with {status}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if args.trace:
            shutil.move(os.path.join(tmp, "spans.jsonl"),
                        os.path.join(work, f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = result["metrics"]
    for line in result["problems"]:
        print(f"failed {line}")
    for layer in result.get("absent_layers", []):
        print(f"absent layer: {layer} (its hooks no longer exist)")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name in units:
        print(f"{name} = {metrics[name]} {units[name]}")
    for name, value in result.get("unscaled", {}).items():
        print(f"unscaled {name} = {value}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
