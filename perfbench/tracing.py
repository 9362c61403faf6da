"""Spans around the calls into catamaj's modules, installed from outside.

catamaj's modules import each other with ``from .x import y``, so a function
is wrapped where it is looked up: ``catamaj.trumping.oracle_scan`` is the
name check_trumping calls, not ``catamaj.majorization.oracle_scan``.  Each
span records its name, start, end, parent span and request id.  A span's
self time is its duration minus the time its child spans cover, including
the children's own bookkeeping, so the self times of one request add up to
its traced wall time minus the tracer's overhead.  The overhead is measured
directly: the time each wrapper spends outside the call it wraps.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute, span name).  The layer is the span name's prefix.
HOOKS = [
    ("catamaj.cli", "main", "cli.main"),
    ("catamaj.cli", "make_prob_vector", "vectors.make_prob_vector"),
    ("catamaj.cli", "check_trumping", "trumping.check_trumping"),
    ("catamaj.cli", "check_thermo", "thermo.check_thermo"),
    ("catamaj.cli", "check_coherent_trumping", "coherence.check_coherent_trumping"),
    ("catamaj.cli", "pure_state_from_probs", "coherence.pure_state"),
    ("catamaj.cli", "verify_catalyst", "majorization.verify_catalyst"),
    ("catamaj.cli", "search_catalyst", "majorization.search_catalyst"),
    ("catamaj.coherence", "check_trumping", "trumping.check_trumping"),
    ("catamaj.coherence", "coherence_report", "coherence.coherence_report"),
    ("catamaj.trumping", "oracle_scan", "majorization.oracle_scan"),
    ("catamaj.trumping", "compute_exponents", "trumping.compute_exponents"),
    ("catamaj.trumping", "compare_F_family", "sympoly.compare_F_family"),
    ("catamaj.thermo", "compare_F_family", "sympoly.compare_F_family"),
    ("catamaj.thermo", "divergence_scan", "thermo.divergence_scan"),
    ("catamaj.thermo", "embed", "thermo.embed"),
    ("catamaj.thermo", "rational_approx", "thermo.rational_approx"),
    ("catamaj.sympoly", "_exact_coeffs", "sympoly.build_coeffs"),
    ("catamaj.sympoly", "_float_coeffs", "sympoly.build_coeffs"),
    ("catamaj.majorization", "verify_catalyst", "majorization.verify_catalyst"),
    ("catamaj.majorization", "tensor", "vectors.tensor"),
    ("catamaj.reports", "trumping_verdict_to_json", "reports.encode"),
    ("catamaj.reports", "thermo_verdict_to_json", "reports.encode"),
    ("catamaj.reports", "vector_to_json", "reports.encode"),
]
LAYERS = ("cli", "vectors", "sympoly", "majorization", "trumping", "thermo",
          "coherence", "reports")
DECIDED_BY = ("top_entry", "h1", "r_undefined", "closure", "reciprocal", "oracle")


def decided_by(verdict) -> str:
    """The stage of check_trumping that fixed a TrumpingVerdict's status."""
    reasons = verdict.reasons
    if verdict.status == "refuted" and reasons and reasons[-1].startswith("oracle grid"):
        return "oracle"
    first = reasons[0] if reasons else ""
    if first.startswith("x_1 ="):
        return "top_entry"
    if first.startswith("H1(x) <= H1(y)"):
        return "h1"
    if first == "r undefined":
        return "r_undefined"
    return "reciprocal" if verdict.negative_report is not None else "closure"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request id]
        self.stack = []          # [span index, time covered by children]
        self.request = -1
        self.overhead = 0.0
        self.self_time = {}      # name -> seconds
        self.incl_time = {}      # name -> seconds
        self.calls = {}          # name -> count
        self.counts = {}         # counter -> value, filled by _observe
        self.request_self = []   # per request: summed self time
        self.request_overhead = []
        self.absent = []         # hooks whose attribute is gone
        self._saved = []

    def install(self):
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def absent_layers(self):
        present = {name.split(".")[0] for (m, a, name) in HOOKS
                   if f"{m}.{a}" not in self.absent}
        return [layer for layer in LAYERS if layer not in present]

    def begin_request(self):
        self.request += 1
        self.request_self.append(0.0)
        self.request_overhead.append(0.0)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            entered = perf_counter()
            index = len(self.spans)
            parent = self.stack[-1][0] if self.stack else None
            span = [name, 0.0, 0.0, parent, self.request]
            self.spans.append(span)
            frame = [index, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                span[1], span[2] = start, end
                duration = end - start
                own = duration - frame[1]
                self.self_time[name] = self.self_time.get(name, 0.0) + own
                self.incl_time[name] = self.incl_time.get(name, 0.0) + duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.request_self[-1] += own
                if result is not None:
                    self._observe(name, result)
                left = perf_counter()
                cost = (start - entered) + (left - end)
                self.overhead += cost
                self.request_overhead[-1] += cost
                if self.stack:
                    self.stack[-1][1] += duration + cost
        traced.__wrapped__ = fn
        return traced

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _observe(self, name, result):
        """Counters taken from the results at a boundary."""
        if name == "majorization.oracle_scan":
            points = len(result.grid)
            needed = points
            if not result.consistent:
                grid_fail = [f.p for f in result.failures if f.p is not None]
                needed = result.grid.index(grid_fail[0]) + 1 if grid_fail else 0
            self._add("oracle_points", points)
            self._add("oracle_needed", needed)
        elif name == "thermo.divergence_scan":
            self._add("divergence_points", len(result.grid))
        elif name == "thermo.embed":
            self._max("embed_dim_max", result.dim)
        elif name == "thermo.check_thermo":
            self._add("thermo_cap_hits", int(result.cap_hit))
        elif name == "trumping.check_trumping":
            self._add("decided_by." + decided_by(result), 1)
            if result.exponents is not None and result.exponents.r_bar is not None:
                self._max("r_bar_max", result.exponents.r_bar)
        elif name == "sympoly.build_coeffs":
            self._add("coeffs_built", len(result))
            self._max("degree_max", len(result) - 1)
            bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                        for c in result if hasattr(c, "denominator")), default=0)
            self._max("coeff_bits_max", bits)
        elif name == "sympoly.compare_F_family":
            failing = next((e.k for e in result.per_k if not e.holds), result.k_range[1])
            # Coefficients 0..k for both sides are needed to reach the outcome.
            self._add("coeffs_needed", 2 * (failing + 1))

    def residual(self, walls):
        """Largest |wall - overhead - sum of self times| over the requests."""
        return max((abs(w - o - s) for w, o, s in
                    zip(walls, self.request_overhead, self.request_self)), default=0.0)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
