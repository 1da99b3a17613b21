"""Spans around the calls into each qpl layer, and the per-layer metrics.

The tracer wraps every public function of the nine qpl modules.  A
``from .x import f`` copies the binding, so each module that holds the
function gets its own wrapper, which also records which module made the
call ("via").  Spans (name, via, start, end, parent, note) stay in memory
and are written out when the run ends; a span's self time is its
duration minus the durations of its direct children.
"""

import csv
import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("arith", "quartic", "forms", "realgeom", "localfp", "sieve",
          "counting", "selmer", "cli")

# argparse set-up stays in cli.main's self time, as cli.main_self_s defines it.
SKIP = {"cli.build_parser"}

RAISED = "raised"

# What a span records about its call, for the ratios below.
NOTES = {
    "quartic.rational_linear_factor": lambda a, k, r: r is not None,
    "sieve.in_Wp": lambda a, k, r: bool(r),
    "localfp.stabilizer_order_fp": lambda a, k, r: (a[1] if len(a) > 1 else k["p"], r),
    "localfp.qp_soluble": lambda a, k, r: r.status,
    "counting.scan_box": lambda a, k, r: r.samples,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, via, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, via, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = RAISED
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result
        return traced

    def write(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "via", "start", "end", "parent", "note"])
            w.writerows(self.spans)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qpl" or n.startswith("qpl."))]
        plan = []
        for layer in LAYERS:
            mod = sys.modules["qpl." + layer]
            for attr, fn in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__ and name not in SKIP):
                    plan.append((name, attr, fn))
        for name, attr, fn in plan:
            for m in modules:
                if vars(m).get(attr) is fn:
                    self._saved.append((m, attr, fn))
                    setattr(m, attr, self._wrap(name, m.__name__.rpartition(".")[2], fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()


def units_for(workload, seconds):
    """Units a traced run covers: fixed by the workload's nominal rate,
    not measured, so a seed always gives the same spans and counts.  The
    untraced and the traced pass then take about `seconds` together."""
    return max(1, math.ceil(seconds * workload.units_per_s / 2))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, plain, traced):
    """Per-layer metrics from the traced pass.  `plain` and `traced` are
    the results of the same ops without and with tracing (wall time at
    index 0, nominal time at index 4); times are rescaled to nominal
    machine speed by the traced pass's ratio of nominal to wall time, and
    the nominal times of the two passes give the tracing overhead."""
    scale = sum(r[4] for r in traced) / sum(r[0] for r in traced)
    m = {name: v * scale if UNITS[name] in ("s", "ms") else v
         for name, v in _metrics(tracer.spans, sum(op.rows for op in ops)).items()}
    plain_s = sum(r[4] for r in plain)
    m["trace.overhead_frac"] = _ratio(sum(r[4] for r in traced) - plain_s, plain_s)
    return m


def _metrics(spans, rows):
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name, via, start, end, parent, note) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - child[i]

    def by_name(name):
        return [s for s in spans if s[0] == name]

    m = {
        "cli.calls": calls["cli.main"],
        "cli.main_self_s": self_s["cli.main"],
        "cli.handler_self_s": sum(v for k, v in self_s.items()
                                  if k.startswith("cli.cmd_")),
        "counting.rows": sum(s[5] for s in by_name("counting.scan_box")
                             if s[5] != RAISED),
        "counting.scan_self_s": sum(self_s["counting." + f] for f in
                                    ("scan_box", "scan_chunks", "plan_chunks")),
        "forms.resolvent_calls": calls["forms.resolvent_quartic"],
        "forms.resolvent_s": incl["forms.resolvent_quartic"],
        "forms.resolvent_per_row": _ratio(calls["forms.resolvent_quartic"], rows),
        "forms.invariants_calls": calls["forms.invariants"],
        "forms.invariants_self_s": self_s["forms.invariants"],
        "forms.act_calls": calls["forms.act"],
        "forms.act_s": incl["forms.act"],
    }

    roots = by_name("quartic.rational_linear_factor")
    m.update({
        "quartic.root_search_calls": len(roots),
        "quartic.root_search_s": incl["quartic.rational_linear_factor"],
        "quartic.root_hit_ratio": _ratio(sum(s[5] is True for s in roots), len(roots)),
        "quartic.compose_row_calls": calls["quartic.compose_row"],
        "quartic.compose_row_s": incl["quartic.compose_row"],
        "quartic.repeated_factor_s": incl["quartic.repeated_factor_mod_p"],
    })

    stab = [s for s in by_name("localfp.stabilizer_order_fp") if s[5] != RAISED]
    candidates = sum(1 for s in by_name("arith.det_generic") if s[1] == "localfp")
    accepted = sum(order * (p - 1) for p, order in (s[5] for s in stab))

    def median_ms(p):
        times = [s[3] - s[2] for s in stab if s[5][0] == p]
        return 1000 * statistics.median(times) if times else 0.0

    qp = by_name("localfp.qp_soluble")
    m.update({
        "localfp.stabilizer_calls": calls["localfp.stabilizer_order_fp"],
        "localfp.stabilizer_self_s": self_s["localfp.stabilizer_order_fp"],
        "localfp.stabilizer_p5_ms": median_ms(5),
        "localfp.stabilizer_p7_ms": median_ms(7),
        "localfp.g4_candidates": candidates,
        "localfp.g4_accept_ratio": _ratio(accepted, candidates),
        "localfp.qp_calls": len(qp),
        "localfp.qp_self_s": self_s["localfp.qp_soluble"],
        "localfp.fp_points_s": incl["localfp.fp_points_on_intersection"],
        "localfp.qp_insoluble": sum(s[5] == "insoluble" for s in qp),
        "localfp.qp_unknown": sum(s[5] == "unknown" for s in qp),
        "localfp.torsion_s": incl["localfp.curve_four_torsion"]
        + incl["localfp.jacobian_four_torsion_small_p"],
        "realgeom.real_class_calls": calls["realgeom.real_class"],
        "realgeom.real_class_s": incl["realgeom.real_class"],
        "realgeom.R_soluble_calls": calls["realgeom.is_R_soluble"],
        "realgeom.R_soluble_s": incl["realgeom.is_R_soluble"],
    })

    scan_spans = {i for i, s in enumerate(spans) if s[0] == "sieve.sieve_scan"}
    wp_top = [s for s in by_name("sieve.in_Wp") if s[4] in scan_spans]
    descents = by_name("sieve.verify_gamma_descent")
    m.update({
        "sieve.in_Wp_calls": calls["sieve.in_Wp"],
        "sieve.Wp_hit_ratio": _ratio(sum(s[5] is True for s in wp_top), len(wp_top)),
        "sieve.in_Wp1_calls": calls["sieve.in_Wp1"],
        "sieve.in_Wp1_self_s": self_s["sieve.in_Wp1"],
        "sieve.descent_calls": len(descents),
        "sieve.descent_self_s": self_s["sieve.verify_gamma_descent"],
        "sieve.descent_ok_ratio": _ratio(sum(s[5] != RAISED for s in descents),
                                         len(descents)),
        "arith.kernel_mod_p_s": incl["arith.kernel_mod_p"],
        "arith.complete_unimodular_s": incl["arith.complete_unimodular"],
        "selmer.lp_calls": calls["selmer.solve_equality_lp"],
        "selmer.lp_s": incl["selmer.solve_equality_lp"],
    })
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(v for k, v in self_s.items()
                                   if k.startswith(layer + "."))
    m["trace.spans"] = len(spans)
    return m


UNITS = {name: unit for name, unit in (
    ("cli.calls", "count"), ("cli.main_self_s", "s"), ("cli.handler_self_s", "s"),
    ("counting.rows", "count"), ("counting.scan_self_s", "s"),
    ("forms.resolvent_calls", "count"), ("forms.resolvent_s", "s"),
    ("forms.resolvent_per_row", "count/row"), ("forms.invariants_calls", "count"),
    ("forms.invariants_self_s", "s"), ("forms.act_calls", "count"),
    ("forms.act_s", "s"),
    ("quartic.root_search_calls", "count"), ("quartic.root_search_s", "s"),
    ("quartic.root_hit_ratio", "ratio"), ("quartic.compose_row_calls", "count"),
    ("quartic.compose_row_s", "s"), ("quartic.repeated_factor_s", "s"),
    ("localfp.stabilizer_calls", "count"), ("localfp.stabilizer_self_s", "s"),
    ("localfp.stabilizer_p5_ms", "ms"), ("localfp.stabilizer_p7_ms", "ms"),
    ("localfp.g4_candidates", "count"), ("localfp.g4_accept_ratio", "ratio"),
    ("localfp.qp_calls", "count"), ("localfp.qp_self_s", "s"),
    ("localfp.fp_points_s", "s"), ("localfp.qp_insoluble", "count"),
    ("localfp.qp_unknown", "count"), ("localfp.torsion_s", "s"),
    ("realgeom.real_class_calls", "count"), ("realgeom.real_class_s", "s"),
    ("realgeom.R_soluble_calls", "count"), ("realgeom.R_soluble_s", "s"),
    ("sieve.in_Wp_calls", "count"), ("sieve.Wp_hit_ratio", "ratio"),
    ("sieve.in_Wp1_calls", "count"), ("sieve.in_Wp1_self_s", "s"),
    ("sieve.descent_calls", "count"), ("sieve.descent_self_s", "s"),
    ("sieve.descent_ok_ratio", "ratio"), ("arith.kernel_mod_p_s", "s"),
    ("arith.complete_unimodular_s", "s"),
    ("selmer.lp_calls", "count"), ("selmer.lp_s", "s"),
)}
UNITS.update({layer + ".self_s": "s" for layer in LAYERS})
UNITS.update({"trace.overhead_frac": "ratio", "trace.spans": "count"})
