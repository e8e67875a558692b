"""Layer trace: spans and counters recorded from outside the program.

``install`` wraps the public functions of each ``btlab`` module listed in
``TARGETS``.  It rebinds every name in every loaded ``btlab`` module that
refers to the original, so calls made inside the package go through the
wrapper too, and it wraps the ``Poly`` methods on the class.  A span
records name, start, end, parent span and case id; spans stay in memory
until ``write_spans``.  A span's self time is its duration minus the
time its child spans cover; a child covers its whole wrapper, counter
and bookkeeping included, so trace work never lands in a self time.
Counters are taken at the same boundaries from arguments and return
values, so they depend only on the inputs: two traced runs of the same
code give identical counters.

The price of the trace is measured, not inferred from two noisy wall
times: each wrapper adds the time it spends outside the wrapped call to
``own_ns``, and ``entry_cost_ns`` calibrates, on a no-op, the cost of
calling into a wrapper, which no timer inside it can see.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter_ns


def _pair_orbits(counts, args, ret):
    counts["pair_orbits.orbits"] += len(ret)
    counts["pair_orbits.points"] += sum(len(o) for o in ret)


def _segment_scan(counts, args, ret):
    e = args[0]
    counts["segment_scan.steps_in"] += len(e)
    counts["segment_scan.minus_starts"] += e.count(-1)
    counts["segment_scan.segments_out"] += len(ret)


def _build_gamma_graph(counts, args, ret):
    counts["build_gamma_graph.edges_out"] += len(ret.edges)


def _classify_components(counts, args, ret):
    counts["classify_components.free_paths_out"] += ret.free_paths
    counts["classify_components.cycles_out"] += len(ret.cycles)


def _enumerate_bt1(counts, args, ret):
    counts["enumerate_bt1.classes_out"] += len(ret)


def _aperiodic_necklaces(counts, args, ret):
    f, v = args
    counts["aperiodic_necklaces.placements"] += math.comb(f + v, v)
    counts["aperiodic_necklaces.words_out"] += len(ret)


def _poly_mul(counts, args, ret):
    counts["Poly.__mul__.term_products"] += len(args[0].terms) * len(args[1].terms)
    counts["Poly.__mul__.terms_out"] += len(ret.terms)


def _poly_terms(name):
    def count(counts, args, ret):
        counts[f"{name}.terms"] += len(args[0].terms)
    return count


# What each target reports as per-layer metrics.
SELF = ("self_s",)
CALLS = ("calls",)
BOTH = ("self_s", "calls")

# (module, attribute, counter, reported); "Poly.x" wraps a method of
# polynomials.Poly.
TARGETS = (
    ("permutations", "parse_permutation", None, SELF),
    ("permutations", "pair_orbits", _pair_orbits, SELF),
    ("permutations", "epsilon_sequence", None, SELF),
    ("invariants", "segment_scan", _segment_scan, BOTH),
    ("invariants", "a_n", None, BOTH),
    ("invariants", "gamma", None, SELF),
    ("invariants", "component_exponent", None, SELF),
    ("invariants", "invariant_report", None, SELF),
    ("graph_oracle", "build_gamma_graph", _build_gamma_graph, BOTH),
    ("graph_oracle", "classify_components", _classify_components, BOTH),
    ("graph_oracle", "cross_check", None, SELF),
    ("sweep", "verification_sweep", None, SELF),
    ("kraft", "enumerate_bt1", _enumerate_bt1, BOTH),
    ("kraft", "aperiodic_necklaces", _aperiodic_necklaces, SELF),
    ("kraft", "kraft_type", None, SELF),
    ("polynomials", "Poly.__mul__", _poly_mul, BOTH),
    ("polynomials", "Poly.__pow__", None, SELF),
    ("polynomials", "Poly.divexact", None, SELF),
    ("polynomials", "Poly.eval_mod", _poly_terms("Poly.eval_mod"), BOTH),
    ("polynomials", "Poly.render", _poly_terms("Poly.render"), BOTH),
    ("witt", "sum_polynomials", None, BOTH),
    ("witt", "product_polynomials", None, BOTH),
    ("witt", "negation_polynomials", None, BOTH),
    ("witt", "witt_add", None, CALLS),
    ("witt", "witt_mul", None, CALLS),
    ("witt", "ring_iso_table", None, SELF),
    ("cli", "cmd_invariants", None, SELF),
    ("cli", "cmd_oracle", None, SELF),
    ("cli", "cmd_verify", None, SELF),
    ("cli", "cmd_enumerate_bt1", None, SELF),
    ("cli", "cmd_kraft_type", None, SELF),
    ("cli", "cmd_witt_polys", None, SELF),
    ("cli", "cmd_witt_eval", None, SELF),
    ("cli", "cmd_witt_check", None, SELF),
    ("cli", "main", None, SELF),
)

NAMES = tuple(attr for _, attr, _, _ in TARGETS)
# Work counters reported as per-layer metrics ...
COUNT_KEYS = (
    "pair_orbits.orbits", "pair_orbits.points",
    "segment_scan.steps_in", "segment_scan.segments_out",
    "build_gamma_graph.edges_out",
    "classify_components.free_paths_out", "classify_components.cycles_out",
    "enumerate_bt1.classes_out",
    "Poly.__mul__.term_products", "Poly.__mul__.terms_out",
    "Poly.eval_mod.terms", "Poly.render.terms",
)
# ... and ratios of counters: name -> (numerator, denominator).
RATIOS = {
    "segment_scan.hit_ratio": ("segment_scan.segments_out", "segment_scan.minus_starts"),
    "segment_scan.calls_per_orbit": ("segment_scan.calls", "pair_orbits.orbits"),
    "aperiodic_necklaces.yield_ratio": (
        "aperiodic_necklaces.words_out", "aperiodic_necklaces.placements"),
    "Poly.__mul__.fill_ratio": ("Poly.__mul__.terms_out", "Poly.__mul__.term_products"),
}
_RATIO_ONLY = ("segment_scan.minus_starts", "aperiodic_necklaces.placements",
               "aperiodic_necklaces.words_out")


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric a traced run reports."""
    units = {}
    for _, name, _, reported in TARGETS:
        for suffix in reported:
            units[f"{name}.{suffix}"] = "s" if suffix == "self_s" else "count"
    units.update(dict.fromkeys(COUNT_KEYS, "count"))
    units["main.output_bytes"] = "bytes"  # counted by the worker
    units.update(dict.fromkeys(RATIOS, "ratio"))
    units["trace_overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self, names=NAMES):
        self.case = None
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, case)
        self.calls = dict.fromkeys(names, 0)
        self.total_ns = dict.fromkeys(names, 0)
        self.self_ns = dict.fromkeys(names, 0)
        self.counts = dict.fromkeys(COUNT_KEYS + _RATIO_ONLY, 0)
        self.own_ns = 0  # time inside wrappers but outside the wrapped calls
        self._stack: list[list[int]] = []  # [span id, ns covered by children]

    def wrap(self, name, fn, counter):
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            entry = perf_counter_ns()
            span_id = len(self.spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[1]
                self.spans.append((span_id, name, start, end, parent, self.case))
            if counter is not None:
                counter(counts, args, ret)
            leave = perf_counter_ns()
            # The parent's children cover this wrapper's bookkeeping and
            # counter too, so trace work never inflates a self time.
            if stack:
                stack[-1][1] += leave - entry
            self.own_ns += (start - entry) + (leave - end)
            return ret

        traced.__wrapped__ = fn
        return traced

    def install(self, package="btlab"):
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod_name, attr, counter, _ in TARGETS:
            mod = sys.modules[f"{package}.{mod_name}"]
            if attr.startswith("Poly."):
                method = attr.split(".", 1)[1]
                setattr(mod.Poly, method, self.wrap(attr, getattr(mod.Poly, method), counter))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(attr, original, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, traced)

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def counters(self) -> dict[str, int]:
        """Call counts and work counts: a pure function of the inputs."""
        out = {f"{name}.calls": self.calls[name] for name in self.calls}
        out.update(self.counts)
        return out

    def times(self) -> dict[str, float]:
        out = {}
        for name in self.calls:
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            out[f"{name}.total_s"] = self.total_ns[name] / 1e9
        return out

    def write_spans(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns",
                                            "parent", "case"]}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _noop():
    return None


def entry_cost_ns(calls: int = 20000, reps: int = 5) -> float:
    """Per wrapped call, the cost that ``own_ns`` cannot see: the Python
    call into the wrapper and back.  Calibrated on a no-op as the wrapped
    time minus the bare time minus what the wrapper measured of itself;
    the least of ``reps`` tries, and never below 0.
    """
    best = float("inf")
    for _ in range(reps):
        probe = Tracer(names=("noop",))
        wrapped = probe.wrap("noop", _noop, None)
        t0 = perf_counter_ns()
        for _ in range(calls):
            _noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0) - probe.own_ns) / calls)
    return max(best, 0.0)
