"""Benchmark worker: one fresh process that sets up and runs one workload.

Set-up (import, input generation, warm-up) ends with a ``READY`` line on
stdout; ``run.py`` times it from outside.  In ``run`` mode the worker then
runs ops in a closed loop with one client for the given seconds (and at
least ``MIN_OPS`` ops), sampling the reference task as it goes; in ``trace``
mode it runs every op twice, untraced and then under the tracer.  The result
goes to a JSON file named on the final ``DONE`` line.

Usage: python worker.py ROOT WORKLOAD SEED SECONDS MODE
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

import numpy as np
from hurwitztau.errors import HurwitzTauError

import ops
import tracing
from gate import judge
from inputs import CLUE_DEFECT_INDEX, InputStream, probe_inputs, write_inputs

# at least this many ops, so that some percentile has ten samples beyond it
MIN_OPS = 11
# the reference task runs this often
REF_EVERY_S = 0.25
# inputs generated during set-up; runs that need more continue the stream
POOL = {"cli_cold": 90, "identity_sweep": 24, "moduli_sweep": 120,
        "cone_spectra": 2000}


def in_process(fn):
    def run(item, tracer):
        try:
            checks = fn(item)
        except HurwitzTauError as exc:
            return judge([], error=type(exc).__name__, typed=True), {}
        except Exception as exc:       # an untyped failure is a gate result
            return judge([], error=type(exc).__name__, typed=False), {}
        return judge(checks), {}
    return run


class CliRunner:
    """cli_cold ops: one fresh ``python -m hurwitztau.cli`` per op."""

    def __init__(self, root, out_dir):
        self.spawner = ops.Spawner(ops.cli_env(root))
        self.out_dir = out_dir
        self.here = os.path.dirname(os.path.abspath(__file__))
        self.written = set()

    def input_path(self, item):
        """The op's input file, written on first use by this process (a file
        left by an earlier run may hold other inputs)."""
        if "data" not in item:
            return None
        path = os.path.join(self.out_dir, f"{item['index']}.json")
        if item["index"] not in self.written:
            with open(path, "w") as fh:
                json.dump(item["data"], fh)
            self.written.add(item["index"])
        return path

    def __call__(self, item, tracer):
        argv = ops.cli_argv(item, self.input_path(item))
        if tracer is None:
            code, report, stderr, wall = ops.run_cli(self.spawner, argv)
        else:
            spans = os.path.join(self.out_dir, "child-spans.json")
            launcher = [os.path.join(self.here, "tracecli.py"), spans]
            with tracer.span("cli.process") as idx:
                code, report, stderr, wall = ops.run_cli(self.spawner, argv,
                                                         launcher)
            with open(spans) as fh:
                child = json.load(fh)
            tracer.graft(child["spans"], child["counters"], idx)
        extra = {"command": " ".join(item["command"]), "process_wall_s": wall,
                 "report_elapsed_s": (report or {}).get("elapsed")}
        return ops.judge_cli(item, code, report, stderr), extra

    def close(self):
        """Stop the spawner; returns the largest CLI process's peak RSS, kB."""
        return self.spawner.close()


def warm_up(workload, item, runner):
    """Pay first-call costs (lazy imports, .pyc compilation, NumPy/SciPy
    kernel set-up) once, outside the timed loop."""
    if workload == "cli_cold":
        runner(item, None)
    elif workload == "cone_spectra":
        ops.cones.detzeta_N_model(ops.cones.ConeCircle(item["k"], item["R"]),
                                  1j * item["t"])
    else:
        curve_input = item["curves"][0] if workload == "moduli_sweep" else item
        curve = ops.HyperellipticCurve(ops.points(curve_input))
        curve.theta([0.0] * curve.g)


class Items:
    """Inputs by index: the set-up pool, then the continued stream."""

    def __init__(self, stream, pool):
        self.stream = stream
        self.items = list(pool)

    def __getitem__(self, i):
        while i >= len(self.items):
            self.items.append(next(self.stream))
        return self.items[i]


def timed_op(run_op, item, i, tracer=None):
    """Run one op and return its record (the gate outcome and wall time)."""
    t0 = time.perf_counter()
    if tracer is None:
        outcome, extra = run_op(item, None)
    else:
        tracer.op = i
        with tracer.span("op"):
            outcome, extra = run_op(item, tracer)
        tracer.end_op()
    wall = time.perf_counter() - t0
    return {"index": i, "wall_s": wall, "ok": outcome.ok,
            "reasons": outcome.reasons, "worst_ratio": outcome.worst_ratio,
            "unflagged": outcome.unflagged, **extra}


# read by the reference task in a scattered order
SCATTERED = list(range(200000))


def reference_task():
    """A fixed mix of interpreted Python that reads a list of 200,000 ints
    in a scattered order (about 7 MB, so cache misses count) and small NumPy
    calls, like the package's own inner loops.  On a shared 2-vCPU x86_64
    VM machine speed drifts by up to 2x within seconds; this task's wall
    time drifts with it, so op times divided by it are steady across runs.
    Over four minutes of interleaved samples, the log ratio of a full op to
    this task varied by 0.075-0.093 (standard deviation), against 0.094-0.119
    with a plain integer loop in place of the list reads."""
    s = 0
    n = len(SCATTERED)
    for i in range(0, n // 2, 7):
        s += SCATTERED[(i * 7919) % n]
    a = np.arange(36.0).reshape(6, 6) + np.eye(6)
    for _ in range(150):
        np.linalg.solve(a, a[0])
        np.einsum("ij,j->i", a, a[1])
    return s


def timed_loop(run_op, items, seconds, inside_ops):
    """Closed loop, one client: the next op starts when the last ends.

    The reference task runs between ops whenever REF_EVERY_S has passed
    since its last run, and once more at the end; ``refs`` holds its
    (start, wall time) samples.  With ``inside_ops`` a SIGALRM timer also
    runs it every REF_EVERY_S inside an op that lasts longer than that, so
    that a long op has samples from its own time; the sample's time is taken
    off the op.  ``cli_cold`` ops are child processes on the same CPU, which
    the reference would slow down, so there it runs only between ops.
    """
    records, refs = [], []
    spent = [0.0]

    def reference(*_):
        if spent[0] < 0:                  # already inside the reference task
            return
        total, spent[0] = spent[0], -1.0
        t0 = time.perf_counter()
        reference_task()
        wall = time.perf_counter() - t0
        refs.append((t0, wall))
        spent[0] = total + wall

    def timer(delay):
        if inside_ops:
            signal.setitimer(signal.ITIMER_REAL, delay, delay)

    previous = signal.signal(signal.SIGALRM, reference)
    try:
        reference()
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds or len(records) < MIN_OPS:
            if time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                reference()
            t0, before = time.perf_counter(), spent[0]
            timer(REF_EVERY_S)
            rec = timed_op(run_op, items[len(records)], len(records))
            timer(0.0)
            t1 = time.perf_counter()
            rec.update(t0=t0, t1=t1, wall_s=t1 - t0 - (spent[0] - before))
            records.append(rec)
    finally:
        timer(0.0)
        signal.signal(signal.SIGALRM, previous)
    reference()
    return {"records": records, "refs": refs,
            "elapsed_s": time.perf_counter() - t_start}


def traced_loop(run_op, items, seconds):
    """Each input twice, untraced and then traced, so that drift in machine
    speed affects both; returns (untraced result, traced result, tracer)."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or not plain:
        i = len(plain)
        plain.append(timed_op(run_op, items[i], i))
        undo = tracing.install(tracer)
        try:
            traced.append(timed_op(run_op, items[i], i, tracer))
        finally:
            undo()
    return ({"records": plain, "elapsed_s": sum(r["wall_s"] for r in plain)},
            {"records": traced, "elapsed_s": sum(r["wall_s"] for r in traced)},
            tracer)


def defect_probes(workload, fixtures):
    """Measure the known defects that the timed inputs leave out (see
    ``inputs.probe_inputs``): {probe name: summary}.  ``moduli_sweep`` has
    none; the probes run after the timed ops, outside every metric."""
    probes = probe_inputs(fixtures)
    if workload == "identity_sweep":
        name, kind, op = f"clue_index_{CLUE_DEFECT_INDEX}", "clue", ops.clue_probe_op
    elif workload in ("cone_spectra", "cli_cold"):
        name, kind, op = "shift_leading", "shift", ops.shift_probe_op
    else:
        return {}
    outs = [in_process(op)(item, None)[0] for item in probes[kind]]
    return {name: {"probes": len(outs),
                   "over_tol": sum(not o.ok for o in outs),
                   "worst_ratio": max(o.worst_ratio for o in outs),
                   "unflagged": any(o.unflagged for o in outs)}}


def peak_rss_mb(run_op):
    """Peak RSS of the process that ran the ops: this one, or for cli_cold
    the largest CLI process (which stops the spawner)."""
    if isinstance(run_op, CliRunner):
        return run_op.close() / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # kB


def main(argv):
    root, workload, seed, seconds, mode = argv
    seed, seconds = int(seed), float(seconds)
    # one core for the ops, the reference task and the CLI children (which
    # inherit it): machine speed drifts per core, and the reference only
    # tracks the drift of the core it runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                           f"{workload}-{seed}")
    os.makedirs(out_dir, exist_ok=True)

    stream = InputStream(workload, seed, os.path.join(root, "fixtures"))
    pool = stream.take(POOL[workload])
    write_inputs(os.path.join(out_dir, "inputs.json"), pool)
    if workload == "cli_cold":
        run_op = CliRunner(root, out_dir)
        for item in pool:
            run_op.input_path(item)
    else:
        run_op = in_process({"identity_sweep": ops.identity_op,
                             "moduli_sweep": ops.moduli_op,
                             "cone_spectra": ops.cone_op}[workload])
    warm_up(workload, pool[0], run_op)
    print("READY", flush=True)
    if mode == "setup":
        if isinstance(run_op, CliRunner):
            run_op.close()
        return 0

    items = Items(stream, pool)
    if mode == "run":
        result = timed_loop(run_op, items, seconds, workload != "cli_cold")
    else:
        result, traced, tracer = traced_loop(run_op, items, seconds)
        tracer.dump(os.path.join(out_dir, "spans.json"))
        result["traced"] = traced
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters,
                                                 len(traced["records"]))
    result["peak_rss_mb"] = peak_rss_mb(run_op)
    result["defects"] = defect_probes(workload, os.path.join(root, "fixtures"))
    path = os.path.join(out_dir, f"result-{mode}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)
    print("DONE", path, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
