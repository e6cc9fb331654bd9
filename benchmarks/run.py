"""hurwitztau benchmark: seeded closed-loop workloads with a correctness gate.

Run from the repository root:

    python3 benchmarks/run.py --workload identity_sweep --seed 1 --seconds 25 --trace 0

Each run starts ``SETUPS`` fresh worker processes one after another.  Each
imports the package from ``src/``, generates the seeded inputs and warms
up; ``setup_s`` is the median of their set-up times, measured from the
spawn to the worker's READY line.  The middle worker then runs the ops, so
that the set-ups spread over the run and its changes in machine speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and then traced, and prints the per-layer metrics (see
``tracing.py``) with the tracing overhead.  Human-readable
lines come first, among them the gate's failure counts and the known-defect
probes (see ``inputs.probe_inputs``); the last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5
RUN_TIMEOUT_S = 160.0
IMPORT_PROBES = 3
REF_NEIGHBOURS = 3
IMPORT_PROBE = (
    "import sys, time\n"
    "n0 = len(sys.modules)\n"
    "t0 = time.perf_counter()\n"
    "import hurwitztau\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, len(sys.modules) - n0, int('scipy.special' in sys.modules))\n"
)


def fail(msg):
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_workers(root, args):
    """SETUPS fresh workers; returns (set-up times, the middle one's result)."""
    mode = "trace" if args.trace else "run"
    setups, result_path = [], None
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for rep in range(SETUPS):
        runs_ops = rep == SETUPS // 2
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), root,
               args.workload, str(args.seed), str(args.seconds),
               mode if runs_ops else "setup"]
        t0 = time.perf_counter()
        # own session, so that a timeout also ends the worker's CLI children
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=worker_env(root), cwd=root,
                                start_new_session=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            lines = []
            for line in proc.stdout:
                if line.startswith("READY"):
                    setups.append(time.perf_counter() - t0)
                lines.append(line)
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0 or len(setups) != rep + 1:
            fail(f"worker exited with {proc.returncode}")
        if runs_ops:
            done = [ln for ln in lines if ln.startswith("DONE ")]
            if not done:
                fail("worker gave no result")
            result_path = done[-1].split(" ", 1)[1].strip()
    with open(result_path) as fh:
        return setups, json.load(fh)


def tail(walls):
    """Op wall time at the highest percentile with >= 10 samples beyond it:
    the (n - 10)-th smallest of n samples.  Returns (value, percentile, n)."""
    w = sorted(walls)
    k = len(w) - 10
    if k < 1:
        raise ValueError("the tail needs at least 11 ops")
    return w[k - 1], 100.0 * k / len(w), len(w)


def ref_times(result):
    """Reference-task time for each op: the median of the samples taken
    during the op, padded with the nearest ones before and after it to at
    least 2 * REF_NEIGHBOURS, so that one sample taken in a brief slow or
    fast spell does not skew the op."""
    starts = [t for t, _ in result["refs"]]
    walls = [s for _, s in result["refs"]]
    out = []
    for r in result["records"]:
        lo = bisect.bisect_left(starts, r["t0"])
        hi = bisect.bisect_left(starts, r["t1"])
        pad = max(0, REF_NEIGHBOURS - (hi - lo) // 2)
        out.append(statistics.median(walls[max(0, lo - pad): hi + pad]))
    return out


def end_to_end(setups, result):
    """End-to-end metrics.  Op times are in units of the reference task
    (``ref``: an op's wall time over the reference task's wall time next to
    it, see ``worker.reference_task``), which cancels the drift in machine
    speed; the wall-clock values are returned as notes."""
    recs = result["records"]
    walls = [r["wall_s"] for r in recs]
    refs = ref_times(result)
    norm = [w / ref for w, ref in zip(walls, refs)]
    tail_ref, pct, n = tail(norm)
    ok = sum(r["ok"] for r in recs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_ref": (len(recs) / sum(norm), "1/ref"),
        "op_wall_p50_ref": (statistics.median(norm), "ref"),
        "op_wall_tail_ref": (tail_ref, "ref"),
        "ops_ok_frac": (ok / len(recs), "fraction"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    ref = statistics.median(s for _, s in result["refs"])
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_ref": f"{len(recs) / sum(walls):.6g} ops/s; reference task "
                       f"median {ref * 1e3:.3f} ms",
        "op_wall_p50_ref": f"{statistics.median(walls):.6g} s",
        "op_wall_tail_ref": f"{tail(walls)[0]:.6g} s; p{pct:.0f} of n={n} "
                            "ops, 10 beyond it",
        "ops_ok_frac": f"ops_failed_frac = {1 - ok / len(recs):.4f}",
    }
    return metrics, notes


def import_probe(root):
    """Import cost over a bare interpreter, median of IMPORT_PROBES."""
    rows = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             capture_output=True, text=True, check=True,
                             env=worker_env(root), cwd=root, timeout=60)
        t, n, sps = out.stdout.split()
        rows.append((float(t), int(n), int(sps)))
    return {
        "import.hurwitztau_s": (statistics.median(r[0] for r in rows), "s"),
        "import.modules_loaded": (float(rows[-1][1]), "count"),
        "import.scipy_special_loaded": (float(rows[-1][2]), "count"),
    }


def per_layer(result, probe):
    """Per-layer metrics of a trace-mode result; ``probe`` is the import
    probe's output."""
    recs, traced = result["records"], result["traced"]
    metrics = dict(probe)
    for name, val in result["layers"].items():
        unit = "count/op"
        if name.endswith("self_s") or name == "trace.op_wall_s":
            unit = "s/op"
        elif name.endswith("_frac"):
            unit = "fraction"
        metrics[name] = (val, unit)
    cli = [r for r in recs if r.get("report_elapsed_s") is not None]
    if cli:
        wall = statistics.median(r["process_wall_s"] for r in cli)
        elapsed = statistics.median(r["report_elapsed_s"] for r in cli)
        over = statistics.median(r["process_wall_s"] - r["report_elapsed_s"]
                                 for r in cli)
    else:
        wall = elapsed = over = 0.0
    metrics["cli.process_wall_s"] = (wall, "s")
    metrics["cli.report_elapsed_s"] = (elapsed, "s")
    metrics["cli.overhead_s"] = (over, "s")
    untraced = len(recs) / result["elapsed_s"]
    traced_rate = len(traced["records"]) / traced["elapsed_s"]
    metrics["trace.ops_per_s_untraced"] = (untraced, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced, "fraction")
    kinds = Counter(reason.split(":", 1)[0]
                    for r in traced["records"] for reason in r["reasons"])
    metrics["gate.disc_over_tol_p50"] = (disc_over_tol_p50(recs), "ratio")
    metrics["errors.typed"] = (float(kinds["typed_error"]), "count")
    metrics["errors.untyped"] = (float(kinds["untyped_error"]), "count")
    return metrics


def disc_over_tol_p50(recs):
    """Median over ops of the op's worst discrepancy / tolerance (an op
    that raised counts as infinitely far out)."""
    p50 = statistics.median(r["worst_ratio"] for r in recs)
    return p50 if math.isfinite(p50) else sys.float_info.max


def gate_summary(recs):
    by_reason = Counter(reason for r in recs for reason in r["reasons"])
    failed = sum(not r["ok"] for r in recs)
    return failed, by_reason


def main():
    # end the worker's process group (the finally in run_workers) on SIGTERM
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("src/hurwitztau/__init__.py", "fixtures/curve_genus2.json"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found; run from the repository root")

    setups, result = run_workers(root, args)
    recs = result["records"]
    all_recs = recs + result.get("traced", {}).get("records", [])
    failed, by_reason = gate_summary(recs)
    if args.trace:
        metrics, notes = per_layer(result, import_probe(root)), {}
    else:
        metrics, notes = end_to_end(setups, result)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"closed loop, 1 client, {len(recs)} ops")
    for name, (val, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {val:>14.6g} {unit}{note}")
    print(f"  gate: {failed} of {len(recs)} ops failed; worst discrepancy / "
          f"tolerance, median over ops: {disc_over_tol_p50(recs):.6g}")
    for reason, n in sorted(by_reason.items()):
        print(f"    {reason:<42} {n}")
    defects = result["defects"]
    for name, d in defects.items():
        print(f"  known defect {name} (fixed probe inputs, not timed): "
              f"{d['over_tol']} of {d['probes']} over tolerance; worst "
              f"discrepancy / tolerance {d['worst_ratio']:.6g}")
    print(json.dumps({
        "correct": not any(r["unflagged"] for r in all_recs)
        and not any(d["unflagged"] for d in defects.values()),
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
