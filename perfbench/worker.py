"""One benchmark run in a fresh interpreter: passes of CLI calls.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

The run generates its fixed request set and writes the problem files
(outside the timed region), then makes passes over the set with a single
client and no think time: each ``catamaj.cli.main`` call runs in-process
and the next starts only when it has returned.  Before every call the
``functools`` caches of catamaj's modules are emptied, so each call starts
as a fresh CLI process would and a repeat gains nothing from the one
before.  The first pass runs every request; later passes repeat the
timed requests until the window closes.  Every call's report is checked
against the request's ground-truth label.

A shared virtual machine can change speed by a quarter and more from one
minute to the next, for every process on it alike.  So before
each call the worker also times `reference_work`, fixed work that uses no
catamaj code, and the latency and throughput are scaled to the host speed
at which that work takes REFERENCE_S: a time T measured while the
reference took R on average is reported as T * REFERENCE_S / R.  Set-up
time is not scaled: starting an interpreter hardly follows those swings.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import monotonic, perf_counter

from tracing import DECIDED_BY, Tracer
from truth import DECIDED, FOUND, catalyst_works, outcome, thermo_catalyst_gap
from workloads import requests


SETUP_PER_PASS = 3
SETUP_SAMPLES_MIN = 9
# Time of reference_work on the 2-vCPU VM the README's numbers come from,
# at a quiet moment; latency and throughput are reported at this speed.
REFERENCE_S = 0.016


def reference_work():
    """Fixed work that shares no code with catamaj, in the three kinds that
    catamaj's calls spend their time in: exact fraction arithmetic, products
    of big integers, and a plain interpreted loop."""
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(k, 719) * Fraction(719 - k, 100003) + Fraction(1, k)
    ints = [7 ** (2000 + 37 * k) for k in range(12)]
    out = [0] * (2 * len(ints))
    for i, a in enumerate(ints):
        for j, b in enumerate(ints):
            out[i + j] += a * b
    h = 0
    for k in range(60000):
        h = (h * 31 + k) & 0xFFFFFFFF
    return total, out[len(ints)], h


def reference_seconds():
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def setup_sample(root):
    """Seconds from launching a fresh interpreter until `import catamaj.cli`
    has completed in it."""
    code = ("import sys, time; sys.path.insert(0, 'src'); import catamaj.cli; "
            "print(time.monotonic())")
    start = monotonic()
    done = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout.strip()) - start


def import_cli(root):
    """Import catamaj.cli from ROOT/src, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "catamaj", "cli.py")):
        raise SystemExit(f"no catamaj sources under {src}")
    sys.path.insert(0, src)
    import catamaj.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"catamaj imported from {cli.__file__}, not from {src}")
    return cli


def _summary(text):
    """The report fields the label check needs, or None if unparsable."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    if not isinstance(report, dict):
        return None
    keep = ("status", "cap_hit", "verified", "found", "catalyst")
    return {k: report[k] for k in keep if k in report}


def call(cli, argv):
    """One CLI call; returns (exit code or None, report text, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code, error = None, f"SystemExit({exc.code})"
    except Exception:
        code, error = None, traceback.format_exc(limit=-3)
    seconds = perf_counter() - start
    if error is None and err.getvalue():
        error = err.getvalue().strip()[:300]
    return code, out.getvalue(), error, seconds


def clear_caches(stats):
    """Empty every functools cache of catamaj's modules, adding each cache's
    hits and misses so far to `stats` (qualified name -> [hits, misses])."""
    for name, module in list(sys.modules.items()):
        if name != "catamaj" and not name.startswith("catamaj."):
            continue
        for attr, value in list(vars(module).items()):
            info = getattr(value, "cache_info", None)
            if info is None or not callable(getattr(value, "cache_clear", None)):
                continue
            got = info()
            tally = stats.setdefault(f"{name}.{attr}", [0, 0])
            tally[0] += got.hits
            tally[1] += got.misses
            value.cache_clear()


@dataclass
class Run:
    records: list                                 # one per request
    walls: list = field(default_factory=list)     # every call, in call order
    refs: list = field(default_factory=list)      # reference_work before each call
    stats: dict = field(default_factory=dict)     # cache name -> [hits, misses]
    passes: int = 0                               # passes started


def run_passes(cli, reqs, seconds, tmp, tracer=None, between=None) -> Run:
    """Call every request once, then repeat the windowed ones pass after pass.

    The window opens at the first windowed call and closes `seconds` later;
    a pass stops part-way when it closes.  `seconds` None makes one pass.
    `between`, if given, is called after every pass, outside the timed
    calls.
    """
    records = []
    for index, req in enumerate(reqs):
        path = os.path.join(tmp, f"problem-{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(req.problem, fh)
        records.append({"request": req, "path": path, "latencies": [], "unstable": None})
    run = Run(records)
    clear_caches(run.stats)
    deadline, passes = None, 0
    while True:
        for rec in records:
            req = rec["request"]
            if passes and not req.windowed:
                continue
            if req.windowed and deadline is None and seconds is not None:
                deadline = perf_counter() + seconds
            if passes and perf_counter() >= deadline:
                break
            clear_caches(run.stats)
            gc.collect()
            run.refs.append(reference_seconds())
            if tracer is not None:
                tracer.begin_request()
            code, text, error, latency = call(cli, req.argv + [rec["path"]])
            report = _summary(text) if text else None
            if not passes:
                rec.update(code=code, error=error, report=report, bytes=len(text.encode()))
            elif (code, report) != (rec["code"], rec["report"]) and not rec["unstable"]:
                rec["unstable"] = f"pass {passes + 1} gave exit {code}, pass 1 exit {rec['code']}"
            rec["latencies"].append(latency)
            run.walls.append(latency)
        passes += 1
        if between is not None:
            between()
        if deadline is None or perf_counter() >= deadline:
            break
    clear_caches(run.stats)
    for rec in records:
        os.remove(rec["path"])
    run.passes = passes
    return run


def _catalyst_ok(check, entries):
    if not entries:
        return False
    c = [Fraction(v) for v in entries]
    if check["mode"] == "locc":
        return catalyst_works(check["x"], check["y"], c)
    return thermo_catalyst_gap(check["x"], check["y"], check["g"], c) >= 0


def score(records):
    """Label every record: failed, wrong (contradicts its label), decided."""
    for rec in records:
        req = rec["request"]
        if rec["code"] is None:
            got, problem = None, rec["error"] or "no exit code"
        else:
            got, problem = outcome(req.argv[0], rec["code"], rec["report"])
            if problem is not None and rec["error"]:
                problem += f" ({rec['error'][:160]})"
        if problem is None and rec["unstable"]:
            got, problem = None, rec["unstable"]
        if problem is None and got == FOUND and req.catalyst_check:
            if not _catalyst_ok(req.catalyst_check, rec["report"].get("catalyst")):
                got, problem = None, "returned catalyst does not verify"
        wrong = problem is None and got not in req.allowed
        if wrong:
            problem = f"{got} contradicts the label {sorted(req.allowed)}"
        rec["outcome"] = got
        rec["wrong"] = wrong
        rec["failed"] = problem is not None
        rec["problem"] = problem
        rec["decided"] = not rec["failed"] and got in DECIDED
    return records


def host_factor(run):
    """How much slower than at REFERENCE_S the host ran during this run."""
    return statistics.fmean(run.refs) / REFERENCE_S


def end_to_end(run, host):
    """Latency and throughput over the windowed requests' calls, at a host
    `host` times faster than the one measured; shares over every request."""
    records = run.records
    timed = [r["latencies"] for r in records if r["request"].windowed]
    calls = [t for latencies in timed for t in latencies]
    n = len(records)
    return {
        "throughput_rps": len(calls) / sum(calls) * host,
        "latency_p50_s": statistics.median(statistics.fmean(t) for t in timed) / host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": sum(not r["failed"] for r in records) / n,
        "decided_share": sum(r["decided"] for r in records) / n,
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, run, threads):
    t, c, n = tracer.incl_time, tracer.counts, tracer.calls
    own = tracer.self_time
    records, walls = run.records, run.walls
    sizes = [r["bytes"] for r in records]
    codes = [r["code"] for r in records]
    hits, misses = run.stats.get("catamaj.sympoly._cached_coeffs", (0, 0))
    metrics = {
        "cli.self_s": own.get("cli.main", 0.0),
        "vectors.parse_s": t.get("vectors.make_prob_vector", 0.0),
        "vectors.parse_calls": n.get("vectors.make_prob_vector", 0),
        "vectors.tensor_s": t.get("vectors.tensor", 0.0),
        "vectors.tensor_calls": n.get("vectors.tensor", 0),
        "majorization.oracle_s": t.get("majorization.oracle_scan", 0.0),
        "majorization.oracle_points": c.get("oracle_points", 0),
        "majorization.oracle_useful_ratio": _ratio(c.get("oracle_needed", 0),
                                                   c.get("oracle_points", 0)),
        "majorization.verify_s": t.get("majorization.verify_catalyst", 0.0),
        "majorization.verify_calls": n.get("majorization.verify_catalyst", 0),
        "majorization.search_s": t.get("majorization.search_catalyst", 0.0),
        "majorization.search_threads1_s": threads[0],
        "majorization.search_threads2_s": threads[1],
        "sympoly.family_s": t.get("sympoly.compare_F_family", 0.0),
        "sympoly.family_calls": n.get("sympoly.compare_F_family", 0),
        "sympoly.kernel_s": t.get("sympoly.build_coeffs", 0.0),
        "sympoly.degree_max": c.get("degree_max", 0),
        "sympoly.coeff_bits_max": c.get("coeff_bits_max", 0),
        "sympoly.coeffs_built": c.get("coeffs_built", 0),
        "sympoly.coeffs_useful_ratio": _ratio(c.get("coeffs_needed", 0),
                                              c.get("coeffs_built", 0)),
        "sympoly.cache_hits": hits,
        "sympoly.cache_misses": misses,
        "trumping.self_s": own.get("trumping.check_trumping", 0.0),
        "trumping.exponents_s": t.get("trumping.compute_exponents", 0.0),
        "trumping.r_bar_max": c.get("r_bar_max", 0),
        "thermo.self_s": own.get("thermo.check_thermo", 0.0),
        "thermo.divergence_scan_s": t.get("thermo.divergence_scan", 0.0),
        "thermo.divergence_points": c.get("divergence_points", 0),
        "thermo.embed_s": t.get("thermo.embed", 0.0),
        "thermo.embed_dim_max": c.get("embed_dim_max", 0),
        "thermo.rational_approx_s": t.get("thermo.rational_approx", 0.0),
        "thermo.cap_hits": c.get("thermo_cap_hits", 0),
        "coherence.self_s": own.get("coherence.check_coherent_trumping", 0.0),
        "coherence.report_s": t.get("coherence.coherence_report", 0.0),
        # self time: thermo_verdict_to_json calls the hooked vector_to_json
        "reports.encode_s": own.get("reports.encode", 0.0),
        "reports.bytes_median": statistics.median(sizes),
        "reports.bytes_max": max(sizes),
        "trace.wall_s": sum(walls),
        "trace.passes": run.passes,
        "host.reference_s": statistics.fmean(run.refs),
        "trace.overhead_s": tracer.overhead,
        "trace.residual_s": tracer.residual(walls),
    }
    for stage in DECIDED_BY:
        metrics[f"trumping.decided_by.{stage}"] = c.get(f"decided_by.{stage}", 0)
    for code in (0, 2, 3, 4, 5):
        metrics[f"cli.exit_{code}"] = codes.count(code)
    return metrics


def compare_threads(cli, records, tmp):
    """Time the thermal exhaustive searches at --threads 1 and 2, untraced
    and alternating, for the process-pool question."""
    seen, total = set(), [0.0, 0.0]
    for rec in records:
        req = rec["request"]
        if not req.kind.startswith("thermo_exhaustive") or req.kind in seen:
            continue
        seen.add(req.kind)
        path = os.path.join(tmp, "threads.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(req.problem, fh)
        for slot, threads in enumerate((1, 2)):
            clear_caches({})
            code, _, error, seconds = call(cli, req.argv + [path, "--threads", str(threads)])
            if code is None and error == "SystemExit(2)":
                return [0.0, 0.0]    # the CLI no longer has --threads
            if code != rec["code"]:
                raise SystemExit(f"--threads {threads} changed the exit code of {req.kind}: "
                                 f"{code} vs {rec['code']} ({error})")
            total[slot] += seconds
    return total


def main(argv):
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = import_cli(spec["root"])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    setup = []

    def measure_setup():
        # Spread over the run, so one slow moment of the host does not set it.
        setup.extend(setup_sample(spec["root"]) for _ in range(SETUP_PER_PASS))

    run = run_passes(cli, requests(spec["workload"], spec["seed"]), spec["seconds"],
                     spec["tmp"], tracer, None if tracer else measure_setup)
    records = score(run.records)
    if tracer is None:
        while len(setup) < SETUP_SAMPLES_MIN:
            measure_setup()
        metrics = end_to_end(run, host_factor(run))
        metrics["setup_s"] = statistics.median(setup)
        unscaled = end_to_end(run, 1.0)
        extra = {"unscaled": {"latency_p50_s": unscaled["latency_p50_s"],
                              "throughput_rps": unscaled["throughput_rps"],
                              "host_factor": host_factor(run)}}
    else:
        tracer.uninstall()
        threads = (compare_threads(cli, records, spec["tmp"])
                   if spec["workload"] == "locc_thermal" else (0.0, 0.0))
        metrics = per_layer(tracer, run, threads)
        tracer.write_spans(os.path.join(spec["tmp"], "spans.jsonl"))
        extra = {"absent_layers": tracer.absent_layers()}
    result = {
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "wrong": sum(r["wrong"] for r in records),
        "problems": [f"#{i} {r['request'].kind}: {r['problem']}"
                     for i, r in enumerate(records) if r["problem"]],
        "metrics": metrics,
        **extra,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
