"""Batch command-line front end.

Subcommands mirror the library surface: cover validation, tau evaluation in
every regime, the variational identity checks, and model-cone spectra/fits.
Every run writes a JSON report with inputs, outputs, discrepancies and
convergence certificates; exit status 0 means all discrepancies are within
tolerance, 1 a numerical failure (named in the report), 2 a usage error.
Complex numbers serialize as [re, im].
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import sys
import time

from .errors import DomainError, HurwitzTauError

DEFAULT_TOLS = {
    "example1": 1e-9,
    "example2": 1e-8,
    "pde_genus0": 1e-6,
    "rauch": 1e-5,
    "rauch_trace": 1e-8,
    "pde_genus1": 1e-5,
    "varodin": 1e-5,
    "zeta_independence": 1e-5,
    "pde_genus2": 1e-4,
    "clue": 1e-5,
    "smatrix_symmetry": 1e-8,
    "detstar": 1e-12,
    "shift_leading": 0.1,
}


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if hasattr(obj, "tolist"):      # numpy arrays and scalars
        return _jsonify(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    return obj


def write_report(path, report):
    report = _jsonify(report)
    text = json.dumps(report, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _out_path(args, default_name):
    if args.out:
        return args.out
    root = os.environ.get("HURWITZTAU_OUT")
    if root:
        return os.path.join(root, default_name)
    return None


def _load_input(args):
    if not args.input:
        raise SystemExit("--input is required")
    with open(args.input) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"the input must be a JSON object, got {data!r}")
    return data


def _complex(v):
    """A JSON number or [re, im] as a complex number, else a usage error."""
    parts = v if isinstance(v, list) else [v, 0]
    if len(parts) != 2 or any(type(x) not in (int, float) for x in parts):
        raise ValueError(f"expected a number or [re, im], got {v!r}")
    return complex(*parts)


def _finite_point(data, key, default):
    """data[key] (``default`` when absent) as a complex number; a value
    that is not finite raises DomainError naming the key."""
    z = _complex(data.get(key, default))
    if not cmath.isfinite(z):
        raise DomainError(f"{key} must be finite, got {z}")
    return z


def _write_csv(args, header, rows):
    """Writes a CSV table next to the --out report; returns its path (None
    without --out)."""
    if not args.out:
        return None
    path = os.path.splitext(args.out)[0] + ".csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _tols(args):
    tols = dict(DEFAULT_TOLS)
    for item in args.tol or []:
        name, _, val = item.partition("=")
        if not val:
            raise SystemExit(f"bad --tol entry {item!r}")
        if name not in DEFAULT_TOLS:
            raise SystemExit(f"unknown tolerance {name!r} "
                             f"(known: {', '.join(DEFAULT_TOLS)})")
        tols[name] = float(val)
    return tols


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (report dict, ok flag) and
# imports its own modules, so a command loads only what it uses
# ---------------------------------------------------------------------------

def cmd_cover_validate(args):
    from . import covers

    data = _load_input(args)
    spec = covers.cover_from_json(data)
    try:
        rep = covers.validate_cover(spec)
    except HurwitzTauError as exc:
        return {
            "inputs": data,
            "outputs": {"valid": False, "error": type(exc).__name__,
                        "message": str(exc)},
        }, False
    return {
        "inputs": data,
        "outputs": {
            "valid": True,
            "genus": rep.genus,
            "conical_points": [
                {"value": cp.critical_value, "multiplicity": cp.multiplicity,
                 "angle_over_2pi": cp.cone_angle_over_2pi,
                 "cycle": list(cp.cycle)}
                for cp in rep.conical_points
            ],
            "end_multiplicities": list(rep.ends.multiplicities),
            "cycle_structures": [list(c) for c in rep.cycle_structures],
        },
    }, True


def cmd_tau_poly(args):
    from . import taufn

    data = _load_input(args)
    coeffs = [_complex(c) for c in data["coefficients"]]
    tv = taufn.tau_polynomial(coeffs)
    d = tv.diagnostics
    ratio = d["resultant_route"] / (d["recorded_constant"] * d["product_route_tau24"])
    ok = abs(ratio - 1.0) < _tols(args)["example1"]
    return {
        "inputs": data,
        "outputs": {
            "tau": tv.value, "log_abs_tau": tv.log_abs,
            "normalization_tag": tv.normalization_tag,
            "tau24_product_route": d["product_route_tau24"],
            "resultant_route": d["resultant_route"],
            "recorded_constant": d["recorded_constant"],
        },
        "discrepancies": {"route_ratio_minus_1": ratio - 1.0},
    }, ok


def cmd_tau_rational3(args):
    from . import taufn

    data = _load_input(args)
    a, b, c = (_complex(data[k]) for k in ("a", "b", "c"))
    tv = taufn.tau_three_poles(a, b, c)
    d = tv.diagnostics
    ratio = d["m_route_tau24"] / d["resultant_route_tau24"]
    ok = abs(ratio - 1.0) < _tols(args)["example2"]
    return {
        "inputs": data,
        "outputs": {
            "tau": tv.value, "log_abs_tau": tv.log_abs,
            "normalization_tag": tv.normalization_tag,
            "tau24_m_route": d["m_route_tau24"],
            "tau24_resultant_route": d["resultant_route_tau24"],
            "M": d["M"],
        },
        "discrepancies": {"route_ratio_minus_1": ratio - 1.0},
    }, ok


def _branch_index(data, n):
    """data["branch_index"] (0 when absent) as an index into n points; any
    other value is a usage error naming the key."""
    m = data.get("branch_index", 0)
    if type(m) not in (int, float) or not float(m).is_integer() \
            or not 0 <= m < n:
        raise SystemExit(f"branch_index must be an integer in 0..{n - 1}, "
                         f"got {m!r}")
    return int(m)


def _curve_from_input(data):
    """(curve, branch points, branch index) of a curve command's input."""
    from .curves import HyperellipticCurve

    if "branch_points" not in data:
        raise SystemExit("the input has no branch_points (only verify vardwa "
                         "takes cubic-family input)")
    pts = [_complex(p) for p in data["branch_points"]]
    m = _branch_index(data, len(pts))
    return HyperellipticCurve(pts), pts, m


def cmd_tau_genus1(args):
    from . import taufn

    data = _load_input(args)
    curve, _, _ = _curve_from_input(data)
    tv, _ = taufn.tau_genus1(curve)
    return {
        "inputs": data,
        "outputs": {
            "tau": tv.value, "log_abs_tau": tv.log_abs,
            "normalization_tag": tv.normalization_tag,
            "B": curve.B.B[0, 0],
            "period_certificate": curve.period_certificate,
        },
    }, True


def cmd_tau_genus2(args):
    from . import taufn

    data = _load_input(args)
    zeta = _finite_point(data, "zeta", [0.9, 1.7])
    zeta2 = _finite_point(data, "zeta_check", [-1.4, 1.1])
    curve, _, _ = _curve_from_input(data)
    tv, ing = taufn.tau_genus2(curve, zeta)
    tv2, _ = taufn.tau_genus2(curve, zeta2, frozen=None)
    rel = abs(abs(tv.value) - abs(tv2.value)) / abs(tv.value)
    ok = rel < _tols(args)["zeta_independence"]
    return {
        "inputs": data,
        "outputs": {
            "tau": tv.value, "log_abs_tau": tv.log_abs,
            "normalization_tag": tv.normalization_tag,
            "Z": tv.diagnostics["Z"],
            "lattice_residual": tv.diagnostics["lattice_residual"],
        },
        "discrepancies": {"zeta_independence_rel": rel},
        "certificates": {"K": tv.diagnostics["K_certificate"],
                         "period": curve.period_certificate},
    }, ok


def cmd_verify_rauch(args):
    from . import variational
    from .curves import HyperellipticCurve

    data = _load_input(args)
    curve, pts, m = _curve_from_input(data)
    tols = _tols(args)
    factory = lambda p: HyperellipticCurve(p, hub=curve.hub)
    g = curve.g
    worst = 0.0
    entries = {}
    res = variational.rauch_check(factory, pts, m, 0, 0)
    for a in range(g):
        for b in range(g):
            d = abs(res["contour_matrix"][a, b] - res["fd_matrix"][a, b])
            entries[f"dB_{a}{b}"] = {
                "contour": res["contour_matrix"][a, b],
                "fd": res["fd_matrix"][a, b],
                "discrepancy": d,
            }
            worst = max(worst, d)
    dd = variational.det_imB_derivative(factory, pts, m)
    trace_vs_contour = abs(dd["trace_route"] - dd["contour_route"])
    trace_vs_fd = abs(dd["trace_route"] - dd["fd_route"])
    ok = worst < tols["rauch"] and trace_vs_contour < tols["rauch_trace"] \
        and trace_vs_fd < tols["rauch"]
    return {
        "inputs": data,
        "outputs": {"entries": entries, "det_imB": dd},
        "discrepancies": {
            "max_rauch": worst,
            "imB_trace_vs_contour": trace_vs_contour,
            "imB_trace_vs_fd": trace_vs_fd,
        },
        "certificates": {"contour": res["certificate"]},
    }, ok


def cmd_verify_vardwa(args):
    from . import taufn, variational

    data = _load_input(args)
    tols = _tols(args)
    if "branch_points" in data:
        curve, pts, m = _curve_from_input(data)
        if curve.g > 1:
            zeta = _finite_point(data, "zeta", [0.9, 1.7])
        rhs = variational.vardwa_rhs_curve(curve, m)
        if curve.g == 1:
            fd, anti = variational.dln_tau_genus1_fd(pts, m, hub=curve.hub)
            tol = tols["pde_genus1"]
        else:
            fd, anti = variational.dln_tau_genus2_fd(pts, m, zeta, hub=curve.hub)
            tol = tols["pde_genus2"]
    else:       # genus 0 cubic family
        a = _complex(data.get("a", [-3.0, 0.0]))
        b = _complex(data.get("b", [0.0, 0.0]))
        m = _branch_index(data, 2)      # a cubic has two critical values
        fam = variational.CubicFamily(a, b)
        rhs = variational.vardwa_rhs_genus0(taufn.RationalCoverP1(fam.coeffs()),
                                            m)
        fd, anti = fam.dln_tau_fd(m)
        tol = tols["pde_genus0"]
    d = abs(fd - rhs.value)
    return {
        "inputs": data,
        "outputs": {"fd": fd, "contour": rhs.value,
                    "antiholomorphic_part": anti},
        "discrepancies": {"pde": d},
        "certificates": {"contour": rhs.certificate},
    }, d < tol


def cmd_verify_varodin(args):
    from . import variational
    from .curves import HyperellipticCurve

    data = _load_input(args)
    tols = _tols(args)
    base, pts, m = _curve_from_input(data)
    factory = lambda p: HyperellipticCurve(p, hub=base.hub)
    curve = factory(pts)
    vr = variational.varodin_rhs_curve(curve, m)
    vd = variational.vardwa_rhs_curve(curve, m)
    dd = variational.det_imB_derivative(factory, pts, m)
    # the FD route: with vardwa read as -H(0, 0)/2, the trace route equals
    # the Schiffer term of varodin by the same residue argument, so a chain
    # through it would compare a value with itself
    chain = vd.value + dd["fd_route"]
    d = abs(vr["value"] - chain)
    return {
        "inputs": data,
        "outputs": {
            "varodin": vr["value"],
            "varodin_sign_flipped": vr["sign_flipped"],
            "vardwa": vd.value,
            "dln_det_imB": dd["fd_route"],
            "chain": chain,
        },
        "discrepancies": {"chain": d},
        "certificates": {"contour": vd.certificate,
                         "h_taylor": vr["h_taylor_certificate"]},
    }, d < tols["varodin"]


def cmd_verify_clue(args):
    from . import variational

    data = _load_input(args)
    tols = _tols(args)
    curve, _, m = _curve_from_input(data)
    res = variational.clue_identity_check(curve, m, ell=2)
    block = res["block"]
    sym = block.symmetry_defect
    ha = block.ha_diag[0]
    ha_ok = abs(ha.imag) < 1e-10 and ha.real >= 0
    ok = abs(res["discrepancy"]) < tols["clue"] and sym < tols["smatrix_symmetry"] \
        and ha_ok
    return {
        "inputs": data,
        "outputs": {
            "lhs": res["lhs"], "rhs": res["rhs"],
            "s_hh": block.hh, "s_ha_diag": block.ha_diag,
        },
        "discrepancies": {
            "clue": abs(res["discrepancy"]),
            "symmetry": sym,
            "ha_imag": abs(ha.imag),
        },
        "certificates": {
            "h_taylor": block.diagnostics["h_taylor_certificate"],
            "klein_baker": res["klein_baker_certificate"]},
    }, ok


def cmd_cone_dtn(args):
    from . import cones

    nodes = 8 if args.nodes is None else args.nodes
    if nodes < 1:
        raise ValueError(f"--nodes must be at least 1, got {nodes}")
    cone = cones.ConeCircle(k=args.k, R=args.R)
    lam_values = [complex(0, 10.0 ** (-j)) for j in range(1, 5)]
    n_values = list(range(nodes))
    rows, k_ratio = cones.dtn_table(cone, lam_values, n_values)
    out_csv = _write_csv(args, ["n", "lam_re", "lam_im", "mu_re", "mu_im"],
                         ([n, lm.real, lm.imag, mu.real, mu.imag]
                          for n, lm, mu in rows))
    zero = cones.dtn_zero_spectrum(cone, n_last=8)
    return {
        "inputs": {"k": args.k, "R": args.R},
        "outputs": {
            "zero_spectrum": list(zero[1]),
            "multiplicities": list(int(x) for x in zero[2]),
            "csv": out_csv,
            "samples": [
                {"n": n, "lambda": lm, "mu": mu} for n, lm, mu in rows[:8]
            ],
        },
        "certificates": {"k_ratio": k_ratio},
    }, True


def cmd_cone_det_n0(args):
    import numpy as np

    from . import cones

    cone = cones.ConeCircle(k=args.k, R=args.R)
    val = cones.detstar_N0_model(cone)
    expected = 2 * np.pi * args.k * args.R ** 2
    d = abs(val - expected)
    return {
        "inputs": {"k": args.k, "R": args.R},
        "outputs": {"detstar_exterior": val,
                    "detstar_full": cones.detstar_N0_model(cone, family="full")},
        "discrepancies": {"closed_form": d},
    }, d < _tols(args)["detstar"]


def _exponents(args, jmax, unknowns, least=None):
    """The exponents j of a fit's lambda = 10^-j, --jmin to --jmax (``jmax``
    by default): a usage error where they are fewer than the fit's
    ``unknowns`` or start below ``least``."""
    jmax = jmax if args.jmax is None else args.jmax
    exponents = range(args.jmin, jmax + 1)
    if len(exponents) < unknowns:
        raise ValueError(
            f"--jmin {args.jmin} to --jmax {jmax} gives {len(exponents)} "
            f"samples, fewer than the {unknowns} unknowns of the fit")
    if least is not None and args.jmin < least:
        raise ValueError(f"--jmin must be at least {least} for "
                         f"{args.command} (lambda = 10^-j < 1), got {args.jmin}")
    return exponents


def cmd_cone_mu0_fit(args):
    import numpy as np

    from . import cones

    cone = cones.ConeCircle(k=args.k, R=args.R)
    fit = cones.mu0_asymptotic_fit(cone, exponents=_exponents(args, 8, 3))
    lam_min = abs(fit["lambda_min"])
    ok = abs(fit["leading"] - 1.0) < 1.0 / abs(np.log(lam_min))
    return {
        "inputs": {"k": args.k, "R": args.R},
        "outputs": fit,
        "discrepancies": {"leading_minus_1": abs(fit["leading"] - 1.0)},
    }, ok


def cmd_cone_shift_fit(args):
    from . import cones

    cone = cones.ConeCircle(k=args.k, R=args.R)
    exponents = _exponents(args, 7, 2, least=1)
    # the CSV rows are the determinants the fit sampled
    fit, log_dets = cones._shift_fit(cone, exponents)
    out_csv = _write_csv(args, ["lam", "logdet_re", "phase"],
                         ([lam, log_det.real, log_det.imag]
                          for lam, log_det in zip(fit["samples"], log_dets)))
    ok = abs(fit["leading"] - fit["expected"]) < _tols(args)["shift_leading"] \
        * fit["expected"]
    return {
        "inputs": {"k": args.k, "R": args.R,
                   "exponents": [exponents[0], exponents[-1]]},
        "outputs": {**fit, "csv": out_csv},
        "discrepancies": {
            "leading_rel": abs(fit["leading"] - fit["expected"]) / fit["expected"]
        },
    }, ok


# ---------------------------------------------------------------------------

def build_parser():
    sup = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False, argument_default=sup)
    common.add_argument("--input", help="input JSON path")
    common.add_argument("--out", help="output report path (JSON)")
    common.add_argument("--tol", action="append", metavar="name=value",
                        help="tolerance override (repeatable)")
    common.add_argument("--nodes", type=int, metavar="N",
                        help="cone dtn only: tabulate the angular modes "
                             "n = 0..N-1, N >= 1 (default 8); no other "
                             "command reads it")
    common.add_argument("--k", type=int, help="cone order")
    common.add_argument("--R", type=float, help="cone circle radius")
    common.add_argument("--jmin", type=int,
                        help="smallest exponent of the lambda sequence 10^-j")
    common.add_argument("--jmax", type=int,
                        help="largest exponent of the lambda sequence 10^-j "
                             "(default 8 for cone mu0-fit, 7 for shift-fit)")
    p = argparse.ArgumentParser(
        prog="hurwitztau",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    commands = {
        ("cover", "validate"): cmd_cover_validate,
        ("tau", "poly"): cmd_tau_poly,
        ("tau", "rational3"): cmd_tau_rational3,
        ("tau", "genus1"): cmd_tau_genus1,
        ("tau", "genus2"): cmd_tau_genus2,
        ("verify", "rauch"): cmd_verify_rauch,
        ("verify", "vardwa"): cmd_verify_vardwa,
        ("verify", "varodin"): cmd_verify_varodin,
        ("verify", "clue"): cmd_verify_clue,
        ("cone", "dtn"): cmd_cone_dtn,
        ("cone", "det-n0"): cmd_cone_det_n0,
        ("cone", "mu0-fit"): cmd_cone_mu0_fit,
        ("cone", "shift-fit"): cmd_cone_shift_fit,
    }
    groups = {}
    for (group, name), fn in commands.items():
        # nested two-word form: `hurwitztau tau poly ...`
        if group not in groups:
            gp = sub.add_parser(group, parents=[common])
            groups[group] = gp.add_subparsers(dest="subcommand", required=True)
        sp = groups[group].add_parser(name, parents=[common])
        sp.set_defaults(fn=fn, command=f"{group}-{name}")
        # flat alias: `hurwitztau tau-poly ...`
        alias = sub.add_parser(f"{group}-{name}", parents=[common])
        alias.set_defaults(fn=fn, command=f"{group}-{name}")
    return p


def main(argv=None):
    parser = build_parser()
    defaults = argparse.Namespace(input=None, out=None, tol=None,
                                  nodes=None, k=1, R=1.0, jmin=2, jmax=None)
    try:
        args = parser.parse_args(argv, namespace=defaults)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    t0 = time.perf_counter()
    try:
        report, ok = args.fn(args)
    except HurwitzTauError as exc:
        report = {"error": type(exc).__name__, "message": str(exc),
                  "command": args.command}
        write_report(_out_path(args, f"{args.command}.json"), report)
        print(f"FAIL {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, SystemExit) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report["command"] = args.command
    report["elapsed"] = time.perf_counter() - t0
    write_report(_out_path(args, f"{args.command}.json"), report)
    if not ok:
        print(f"FAIL {args.command}: discrepancy outside tolerance",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
