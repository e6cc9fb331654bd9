"""Spans around the package's public functions, recorded from outside.

``install`` replaces each function listed in ``TARGETS`` by a wrapper that
records a span (name, start, end, parent span, op id) in a ``Tracer``.  A
function is replaced wherever its callers look it up: under every name in
every loaded ``hurwitztau`` module that refers to it (``from``-imports bind
their own names), and methods on their class.  Nothing under ``src/`` is
modified; ``install`` returns a function that undoes the patching.

Spans stay in memory and are written once, when the run ends.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("covers", "specfun", "curves", "taufn", "variational", "cones")


def _count_specs(tracer, args, kwargs, result):
    tracer.counters["specfun.riemann_theta_bundle.specs"] += len(result)


def _count_nodes(tracer, args, kwargs, result):
    tracer.counters["variational.vardwa_rhs_curve.nodes"] += result.nodes


def _count_modes(tracer, args, kwargs, result):
    tracer.counters["cones.detzeta_N_model.modes"] += result[1]["modes"]


def _note_chart_point(tracer, args, kwargs, result):
    curve, m, x = args[:3]
    tracer.keep_alive[id(curve)] = curve     # ids stay unique within the op
    tracer.distinct.add((id(curve), int(m), complex(x)))


# (span name, module, attribute or Class.method, counter hook)
TARGETS = (
    ("covers.validate_cover", "hurwitztau.covers", "validate_cover", None),
    ("specfun.riemann_theta_bundle", "hurwitztau.specfun",
     "riemann_theta_bundle", _count_specs),
    ("specfun.riemann_theta", "hurwitztau.specfun", "riemann_theta", None),
    ("specfun.poly_roots", "hurwitztau.specfun", "poly_roots", None),
    ("specfun.schwarzian", "hurwitztau.specfun", "schwarzian", None),
    ("curves.HyperellipticCurve", "hurwitztau.curves",
     "HyperellipticCurve.__init__", None),
    *(("curves." + m, "hurwitztau.curves", "HyperellipticCurve." + m,
       _note_chart_point if m == "abel_branch_chart" else None)
      for m in ("branch_data", "infinity_data", "abel_segment",
                "branch_chart_point", "abel_branch_chart", "w_hat_branch_chart",
                "bergman_sb_branch", "h_taylor_branch", "riemann_constants")),
    *(("taufn." + f, "hurwitztau.taufn", f, None)
      for f in ("tau_genus1", "tau_genus2", "tau_polynomial", "tau_three_poles")),
    *(("variational." + f, "hurwitztau.variational", f,
       _count_nodes if f == "vardwa_rhs_curve" else None)
      for f in ("rauch_contour", "det_imB_derivative", "vardwa_rhs_curve",
                "smatrix_hh_zero", "clue_identity_check", "dln_tau_genus1_fd",
                "dln_tau_genus2_fd")),
    ("cones.detzeta_N_model", "hurwitztau.cones", "detzeta_N_model", _count_modes),
    *(("cones." + f, "hurwitztau.cones", f, None)
      for f in ("spectral_shift_asymptotic", "mu0_asymptotic_fit",
                "dtn_exterior_eigenvalue")),
)

COUNTERS = ("specfun.riemann_theta_bundle.specs",
            "variational.vardwa_rhs_curve.nodes",
            "cones.detzeta_N_model.modes")

# spans the benchmark opens itself: the op, the CLI process around a
# cli_cold op, and the import and cli.main spans inside that process
OP_SPAN = "op"
CLI_SPANS = ("cli.process", "import.hurwitztau", "cli.main")


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op]."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.distinct = set()
        self.keep_alive = {}
        self.op = -1
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def end_op(self):
        """Fold the op's distinct chart points into the counters."""
        self.counters["curves.abel_branch_chart.distinct"] += len(self.distinct)
        self.distinct.clear()
        self.keep_alive.clear()

    def graft(self, spans, counters, parent):
        """Attach spans recorded in another process under span ``parent``.

        ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which every
        process shares, so child timestamps need no offset.
        """
        base = len(self.spans)
        for name, t0, t1, par, _ in spans:
            self.spans.append([name, t0, t1, parent if par < 0 else par + base,
                               self.op])
        for key, val in counters.items():
            self.counters[key] += val

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _wrap(tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def install(tracer):
    """Patch every target where callers look it up; returns the undo."""
    patches = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "hurwitztau" or n.startswith("hurwitztau.")]
    for name, modname, attr, hook in TARGETS:
        mod = importlib.import_module(modname)
        owner_name, _, attr = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, hook))
            continue
        original = getattr(mod, attr)
        wrapper = _wrap(tracer, name, original, hook)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    patches.append((m, key, val))
                    setattr(m, key, wrapper)

    def undo():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return undo


def self_times(spans):
    """Self time of every span: duration minus the union of its children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, reach = 0.0, t0
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            a, b = max(spans[j][1], reach), min(spans[j][2], t1)
            if b > a:
                covered += b - a
                reach = b
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(spans, counters, n_ops):
    """Per-op calls and self time of every traced function, per-layer self
    time, the benchmark's own time, and how much of the op wall they cover."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s, t in zip(spans, selfs):
        calls[s[0]] += 1
        self_s[s[0]] += t
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for name, _, _, _ in TARGETS:
        out[f"{name}.calls"] = calls[name] * per_op
        out[f"{name}.self_s"] = self_s[name] * per_op
    for key in COUNTERS:
        out[key] = counters.get(key, 0.0) * per_op
    n_chart = calls["curves.abel_branch_chart"]
    out["curves.abel_branch_chart.distinct_frac"] = (
        counters.get("curves.abel_branch_chart.distinct", 0.0) / n_chart
        if n_chart else 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_s.items()
                                     if n.startswith(layer + ".")) * per_op
    for name in CLI_SPANS:
        out[f"{name}.self_s"] = self_s[name] * per_op
    out["bench.self_s"] = self_s[OP_SPAN] * per_op
    op_wall = sum(s[2] - s[1] for s in spans if s[0] == OP_SPAN)
    out["trace.op_wall_s"] = op_wall * per_op
    out["trace.accounted_frac"] = sum(selfs) / op_wall if op_wall else 0.0
    return out
