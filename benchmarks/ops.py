"""One operation per workload, returning the checks the gate judges.

The checks mirror what the CLI gates on for the same computation, with the
tolerances of ``hurwitztau.cli.DEFAULT_TOLS``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

from hurwitztau import cones, taufn, variational
from hurwitztau.cli import DEFAULT_TOLS as TOLS
from hurwitztau.curves import HyperellipticCurve

from gate import Check, judge

def _c(v):
    return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)


def finite(name, *values):
    """A check that fails (as a NaN) when any value is not finite."""
    ok = all(np.all(np.isfinite(np.asarray(v, dtype=complex))) for v in values)
    return Check(name, 0.0 if ok else math.nan, 1.0)


def holds(name, condition):
    """A pass/fail check: ratio 0 when ``condition`` holds, 1 otherwise."""
    return Check(name, 0.0 if condition else 1.0, 1.0)


def _abs(v):
    """Magnitude of a report number (complex values serialize as [re, im])."""
    return abs(_c(v))


def points(curve_input):
    return [_c(p) for p in curve_input["branch_points"]]


# ---------------------------------------------------------------------------
# identity_sweep
# ---------------------------------------------------------------------------

def identity_op(item):
    """clue identity (Fourier S-matrix vs Richardson Schiffer) and the genus-2
    governing system (contour rhs vs finite-difference ln tau)."""
    pts = points(item)
    m = item["branch_index"]
    zeta = _c(item["zeta"])
    curve = HyperellipticCurve(pts)
    res = variational.clue_identity_check(curve, m, ell=2)
    block = res["block"]
    ha = complex(block.ha_diag[0])
    rhs = variational.vardwa_rhs_curve(curve, m)
    fd, _ = variational.dln_tau_genus2_fd(pts, m, zeta, hub=curve.hub)
    return [
        Check("clue", abs(res["discrepancy"]), TOLS["clue"]),
        Check("smatrix_symmetry", block.symmetry_defect, TOLS["smatrix_symmetry"]),
        # the CLI's `verify clue` requires S_ha real and non-negative
        Check("ha_imag", abs(ha.imag), 1e-10),
        holds("ha_nonnegative", ha.real >= 0),
        Check("pde_genus2", abs(fd - rhs.value), TOLS["pde_genus2"]),
    ]


# ---------------------------------------------------------------------------
# moduli_sweep
# ---------------------------------------------------------------------------

def _moduli_curve(c):
    pts = points(c)
    m = c["branch_index"]
    hub = HyperellipticCurve(pts).hub

    def factory(p):
        return HyperellipticCurve(p, hub=hub)

    curve = factory(pts)
    g = curve.g
    rauch = variational.rauch_check(factory, pts, m, 0, 0)
    worst = float(np.max(np.abs(rauch["contour_matrix"] - rauch["fd_matrix"])))
    dd = variational.det_imB_derivative(factory, pts, m)
    checks = [
        Check(f"g{g}.rauch", worst, TOLS["rauch"]),
        Check(f"g{g}.imB_trace_vs_contour",
              abs(dd["trace_route"] - dd["contour_route"]), TOLS["rauch_trace"]),
        Check(f"g{g}.imB_trace_vs_fd",
              abs(dd["trace_route"] - dd["fd_route"]), TOLS["rauch"]),
    ]
    if g == 1:
        tv, _ = taufn.tau_genus1(curve)
        checks.append(finite("g1.tau", tv.value))
        fd, anti = variational.dln_tau_genus1_fd(pts, m, hub=hub)
    else:
        zeta = _c(c["zeta"])
        tv, _ = taufn.tau_genus2(curve, zeta)
        tv2, _ = taufn.tau_genus2(curve, _c([-1.4, 1.1]), frozen=None)
        checks.append(Check("g2.zeta_independence",
                            abs(abs(tv.value) - abs(tv2.value)) / abs(tv.value),
                            TOLS["zeta_independence"]))
        fd, anti = variational.dln_tau_genus2_fd(pts, m, zeta, hub=hub)
    # the finite-difference derivative feeds the governing system: its
    # antiholomorphic (non-holomorphy) part must sit below that tolerance
    checks.append(finite(f"g{g}.dln_tau_fd", fd))
    checks.append(Check(f"g{g}.fd_antiholomorphic", abs(anti),
                        TOLS[f"pde_genus{g}"]))
    return checks


def moduli_op(item):
    checks = []
    for c in item["curves"]:
        checks += _moduli_curve(c)
    return checks


# ---------------------------------------------------------------------------
# cone_spectra
# ---------------------------------------------------------------------------

def shift_check(cone):
    shift = cones.spectral_shift_asymptotic(cone)
    return Check("shift_leading",
                 abs(shift["leading"] - shift["expected"]) / shift["expected"],
                 TOLS["shift_leading"])


def cone_op(item):
    cone = cones.ConeCircle(k=item["k"], R=item["R"])
    checks = []
    for axis, lam in (("neg_energy", 1j * item["t"]), ("real", item["t"])):
        log_det, _ = cones.detzeta_N_model(cone, complex(lam))
        checks.append(finite(f"detzeta_{axis}", log_det))
    checks.append(shift_check(cone))
    fit = cones.mu0_asymptotic_fit(cone)
    # `cone mu0-fit` accepts |leading - 1| < 1 / |log lambda_min|
    checks.append(Check("mu0_leading", abs(fit["leading"] - 1.0),
                        1.0 / abs(np.log(abs(fit["lambda_min"])))))
    return checks


# ---------------------------------------------------------------------------
# known-defect probes (outside the timed ops; see inputs.probe_inputs)
# ---------------------------------------------------------------------------

def clue_probe_op(item):
    """The clue check alone, on one curve at one branch index."""
    res = variational.clue_identity_check(HyperellipticCurve(points(item)),
                                          item["branch_index"], ell=2)
    return [Check("clue", abs(res["discrepancy"]), TOLS["clue"])]


def shift_probe_op(item):
    """The spectral-shift leading-law check alone, on one (k, R) cone."""
    return [shift_check(cones.ConeCircle(k=item["k"], R=item["R"]))]


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def cli_argv(item, input_path):
    group, name = item["command"]
    if group == "cone":
        return [group, name, "--k", str(item["k"]), "--R", repr(item["R"])]
    return [group, name, "--input", input_path]


def cli_checks(item, report):
    """The discrepancies the CLI's own pass/fail rule uses, re-judged."""
    group, name = item["command"]
    out = report.get("outputs", {})
    disc = report.get("discrepancies", {})
    key = f"{group} {name}"
    if key == "cover validate":
        return [holds("cover.genus", out["genus"] == item["expect"]["genus"])]
    if key == "tau poly":
        return [Check("tau_poly.route_ratio", _abs(disc["route_ratio_minus_1"]),
                      TOLS["example1"])]
    if key == "tau rational3":
        return [Check("tau_rational3.route_ratio", _abs(disc["route_ratio_minus_1"]),
                      TOLS["example2"])]
    if key == "tau genus1":
        return [finite("tau_genus1.tau", _c(out["tau"]))]
    if key == "tau genus2":
        return [Check("tau_genus2.zeta_independence",
                      _abs(disc["zeta_independence_rel"]), TOLS["zeta_independence"])]
    if key == "cone det-n0":
        return [Check("cone_det_n0.closed_form", _abs(disc["closed_form"]),
                      TOLS["detstar"])]
    if key == "cone dtn":
        return [finite("cone_dtn.mu", *[_c(s["mu"]) for s in out["samples"]])]
    if key == "cone mu0-fit":
        lam_min = abs(_c(out["lambda_min"]))
        return [Check("cone_mu0_fit.leading", _abs(disc["leading_minus_1"]),
                      1.0 / abs(math.log(lam_min)))]
    if key == "cone shift-fit":
        return [Check("cone_shift_fit.leading", _abs(disc["leading_rel"]),
                      TOLS["shift_leading"])]
    raise ValueError(f"no checks for {key}")


def judge_cli(item, code, report, stderr):
    """Gate outcome of one CLI process from its exit code and report."""
    if report is None:
        # no report: a traceback is an untyped failure, anything else a
        # failure the CLI signalled through its exit code
        untyped = "Traceback (most recent call last)" in stderr
        return judge([], error="Traceback" if untyped else "no_report",
                     typed=not untyped, exit_code=code)
    error = report.get("error") or report.get("outputs", {}).get("error")
    if error is not None:
        return judge([], error=error, typed=True, exit_code=code)
    return judge(cli_checks(item, report), exit_code=code)


class Spawner:
    """The ``spawner.py`` process that starts the CLI processes (see there
    for why); it inherits this process's CPU affinity."""

    def __init__(self, env):
        here = os.path.dirname(os.path.abspath(__file__))
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(here, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run(self, cmd):
        """(exit code, stdout, stderr, wall s) of one process."""
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the CLI spawner ended with {self.proc.wait()}")
        out = json.loads(line)
        return out["code"], out["stdout"], out["stderr"], out["wall_s"]

    def close(self):
        """Stop the spawner; returns its children's largest peak RSS in kB."""
        self.proc.stdin.close()
        peak = json.loads(self.proc.stdout.readline())["peak_rss_kb"]
        self.proc.wait()
        return peak


def run_cli(spawner, argv, launcher=None):
    """One fresh CLI process: (exit code, report or None, stderr, wall s)."""
    cmd = [sys.executable] + (launcher or ["-m", "hurwitztau.cli"]) + argv
    code, stdout, stderr, wall = spawner.run(cmd)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        report = None
    return code, report, stderr, wall


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("HURWITZTAU_OUT", None)
    return env
