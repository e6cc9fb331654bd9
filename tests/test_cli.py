import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from hurwitztau import cli


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = cli.main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def write_input(tmp_path, data, name="input.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_cover_validate_roundtrip(tmp_path):
    inp = write_input(tmp_path, {
        "degree": 2,
        "sigma_infinity": [],
        "branches": [{"value": [float(j), 0.0], "sigma": [[1, 2]]}
                     for j in range(4)],
        "base_point": [9.0, 0.0],
    })
    code, rep = run_cli(["--input", inp, "cover-validate"], tmp_path)
    assert code == 0
    assert rep["outputs"]["genus"] == 1
    assert rep["outputs"]["end_multiplicities"] == [1, 1]


def test_cover_validate_rejects_bad_data(tmp_path):
    inp = write_input(tmp_path, {
        "degree": 2,
        "sigma_infinity": [],
        "branches": [{"value": [0.0, 0.0], "sigma": [[1, 2]]}],
        "base_point": [9.0, 0.0],
    })
    code, rep = run_cli(["--input", inp, "cover-validate"], tmp_path)
    assert code == 1
    assert rep["outputs"]["error"] == "ProductNotIdentity"


def test_tau_poly_report(tmp_path):
    inp = write_input(tmp_path, {
        "coefficients": [[0.0, 0.0], [-3.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    })
    code, rep = run_cli(["--input", inp, "tau-poly"], tmp_path)
    assert code == 0
    out = rep["outputs"]
    assert abs(out["tau24_product_route"][0] - (-36.0)) < 1e-9
    assert abs(out["resultant_route"][0] - (-108.0)) < 1e-8
    assert abs(out["recorded_constant"] - 3.0) < 1e-14


def test_tau_rational3_report(tmp_path):
    inp = write_input(tmp_path, {"a": [1.0, 0.0], "b": [2.0, 0.0],
                                 "c": [3.0, 0.0]})
    code, rep = run_cli(["--input", inp, "tau-rational3"], tmp_path)
    assert code == 0
    assert abs(rep["outputs"]["M"][0] - 54.0) < 1e-10


def test_cone_det_n0(tmp_path):
    code, rep = run_cli(["--k", "1", "--R", "1.0", "cone-det-n0"], tmp_path)
    assert code == 0
    assert abs(rep["outputs"]["detstar_exterior"] - 2 * np.pi) < 1e-12
    code, rep = run_cli(["--k", "2", "--R", "1.0", "cone-det-n0"], tmp_path)
    assert abs(rep["outputs"]["detstar_exterior"] - 4 * np.pi) < 1e-12


def test_cone_mu0_fit(tmp_path):
    code, rep = run_cli(["cone-mu0-fit"], tmp_path)
    assert code == 0
    assert rep["outputs"]["selected"] == "gamma"
    assert rep["outputs"]["lambda_min"] == [0.0, 1e-8]


def test_cone_fit_jmax_is_the_largest_exponent(tmp_path):
    code, rep = run_cli(["--jmax", "6", "cone-mu0-fit"], tmp_path)
    assert code == 0
    assert rep["outputs"]["lambda_min"] == [0.0, 1e-6]
    code, rep = run_cli(["--jmax", "6", "cone-shift-fit"], tmp_path)
    assert rep["inputs"]["exponents"] == [2, 6]
    assert min(map(float, rep["outputs"]["samples"])) == 1e-6


def test_tau_genus1_command(tmp_path):
    inp = write_input(tmp_path, {
        "branch_points": [[-1.9, 0.0], [-0.85, 0.0], [0.6, 0.25], [1.7, 0.0]],
    })
    code, rep = run_cli(["--input", inp, "tau-genus1"], tmp_path)
    assert code == 0
    assert np.isfinite(rep["outputs"]["log_abs_tau"])


def test_tau_genus1_unmet_period_certificate_exits_1(tmp_path):
    # e_2 = 0 sits on the segment of pair (0, 1)
    inp = write_input(tmp_path, {
        "branch_points": [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.5, 0.0]],
    })
    code, rep = run_cli(["--input", inp, "tau", "genus1"], tmp_path)
    assert code == 1
    assert rep["error"] == "PeriodQuadratureFailure"
    assert "pair loop (0, 1)" in rep["message"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_cli_non_finite_branch_point_exits_1(bad, tmp_path):
    # rejected before any quadrature: no NumPy warning on stderr
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(
        {"branch_points": [[bad, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]]}))
    out = tmp_path / "report.json"
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitztau.cli", "tau", "genus1",
         "--input", str(inp), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["error"] == "CurveGeometryError"
    assert report["message"] == "branch points must be finite"
    assert proc.stderr == ("FAIL tau-genus1: CurveGeometryError: "
                           "branch points must be finite\n")


def test_verify_vardwa_genus0_command(tmp_path):
    inp = write_input(tmp_path, {"a": [-3.0, 0.0], "b": [0.0, 0.0],
                                 "branch_index": 0})
    code, rep = run_cli(["--input", inp, "verify-vardwa"], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["pde"] < 1e-6


@pytest.mark.parametrize("m", [0, 1])
def test_verify_vardwa_cubic_family_axis_fixture(tmp_path, m):
    # a = 1, b = 2: both critical points on the imaginary axis, whose sorted
    # order flips under the FD moves
    with open(_fixture_path("cubic_family_axis")) as fh:
        data = json.load(fh)
    inp = write_input(tmp_path, dict(data, branch_index=m))
    code, rep = run_cli(["verify", "vardwa", "--input", inp], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["pde"] < 1e-6
    assert abs(complex(*rep["outputs"]["antiholomorphic_part"])) < 1e-6


def test_tolerance_override_can_fail(tmp_path):
    inp = write_input(tmp_path, {"a": [-3.0, 0.0], "b": [0.0, 0.0],
                                 "branch_index": 0})
    code, rep = run_cli(["--input", inp, "--tol", "pde_genus0=1e-15",
                         "verify-vardwa"], tmp_path)
    assert code == 1


def test_tau_rational3_tolerance_override(tmp_path):
    inp = write_input(tmp_path, {"a": [1.0, 0.0], "b": [2.0, 0.0],
                                 "c": [3.0, 0.0]})
    code, _ = run_cli(["--input", inp, "--tol", "example2=0",
                       "tau-rational3"], tmp_path)
    assert code == 1


def test_usage_error_exit_2(tmp_path):
    assert cli.main(["tau-poly"]) == 2          # missing input
    assert cli.main(["no-such-command"]) == 2


def test_missing_input_message(capsys):
    assert cli.main(["tau-poly"]) == 2
    assert "usage error: --input is required" in capsys.readouterr().err


def _fixture_path(name):
    return os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        name + ".json")


def test_unknown_tolerance_is_a_usage_error(tmp_path, capsys):
    code, rep = run_cli(["verify", "clue", "--input",
                         _fixture_path("curve_genus2"), "--tol", "clu=1e-3"],
                        tmp_path)
    assert code == 2 and rep is None
    known = ", ".join(cli.DEFAULT_TOLS)
    assert f"usage error: unknown tolerance 'clu' (known: {known})" \
        in capsys.readouterr().err


def test_varodin_gate_is_named(tmp_path):
    args = ["verify", "varodin", "--input", _fixture_path("curve_genus2")]
    code, rep = run_cli(args + ["--tol", "varodin=1e-15"], tmp_path)
    assert code == 1
    assert rep["discrepancies"]["chain"] > 1e-15


def test_report_byte_stability(tmp_path):
    inp = write_input(tmp_path, {
        "coefficients": [[0.0, 0.0], [-3.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    })
    _, rep1 = run_cli(["--input", inp, "tau-poly"], tmp_path, name="r1.json")
    _, rep2 = run_cli(["--input", inp, "tau-poly"], tmp_path, name="r2.json")
    rep1.pop("elapsed")
    rep2.pop("elapsed")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_verify_rauch_command(tmp_path):
    inp = write_input(tmp_path, {
        "branch_points": [[-1.9, 0.0], [-0.85, 0.0], [0.6, 0.25], [1.7, 0.0]],
        "branch_index": 1,
    })
    code, rep = run_cli(["--input", inp, "verify-rauch"], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["max_rauch"] < 1e-5
    assert rep["discrepancies"]["imB_trace_vs_contour"] < 1e-8


def test_verify_vardwa_genus1_command(tmp_path):
    inp = write_input(tmp_path, {
        "branch_points": [[-1.9, 0.0], [-0.85, 0.0], [0.6, 0.25], [1.7, 0.0]],
        "branch_index": 2,
    })
    code, rep = run_cli(["--input", inp, "verify-vardwa"], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["pde"] < 1e-5


def test_verify_varodin_command(tmp_path):
    inp = write_input(tmp_path, {
        "branch_points": [[-1.9, 0.0], [-0.85, 0.0], [0.6, 0.25], [1.7, 0.0]],
        "branch_index": 1,
    })
    code, rep = run_cli(["--input", inp, "verify-varodin"], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["chain"] < 1e-5
    # the opposite-sign companion value is reported alongside
    assert "varodin_sign_flipped" in rep["outputs"]
    # the H-Taylor torus behind the Schiffer side reports its certificate
    assert 0.0 <= rep["certificates"]["h_taylor"] <= 1e-7


_G2_INPUT = {"branch_points": [[-2.1, 0.0], [-1.0, 0.0], [-0.2, 0.3], [0.7, 0.0],
                               [1.5, 0.1], [2.4, 0.0]]}


def _cli_process(argv, data, tmp_path):
    """Runs the CLI in a fresh process on ``data``; returns the process and
    the report it wrote (None if none)."""
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitztau.cli", *argv,
         "--input", str(inp), "--out", str(out)],
        capture_output=True, text=True, env=env)
    return proc, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("key", ["zeta", "zeta_check"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_tau_genus2_non_finite_zeta_exits_1(key, bad, tmp_path):
    # rejected before any path: no NumPy warning on stderr
    proc, report = _cli_process(["tau", "genus2"],
                                dict(_G2_INPUT, **{key: [bad, 0.0]}), tmp_path)
    assert proc.returncode == 1
    assert report["error"] == "DomainError"
    msg = f"{key} must be finite, got ({bad}+0j)"
    assert report["message"] == msg
    assert proc.stderr == f"FAIL tau-genus2: DomainError: {msg}\n"


def test_verify_vardwa_genus2_non_finite_zeta_exits_1(tmp_path):
    proc, report = _cli_process(
        ["verify", "vardwa"],
        dict(_G2_INPUT, branch_index=1, zeta=[0.9, float("nan")]), tmp_path)
    assert proc.returncode == 1
    assert report["error"] == "DomainError"
    assert proc.stderr == ("FAIL verify-vardwa: DomainError: "
                           "zeta must be finite, got (0.9+nanj)\n")


_CUBIC = {"a": [-3.0, 0.0], "b": [0.0, 0.0]}
_NOT_A_CURVE = ("the input has no branch_points "
                "(only verify vardwa takes cubic-family input)")


_BAD_POINT = {"branch_points": [["x", 1]] + _G2_INPUT["branch_points"][1:]}
_SHORT_POINT = {"branch_points": [[3]] + _G2_INPUT["branch_points"][1:4]}
_COVER = {"degree": 2, "sigma_infinity": [],
          "branches": [{"value": [float(j), 0.0], "sigma": [[1, 2]]}
                       for j in range(4)]}


@pytest.mark.parametrize("command, data, message", [
    ("verify clue", dict(_G2_INPUT, branch_index=9),
     "branch_index must be an integer in 0..5, got 9"),
    ("verify vardwa", dict(_G2_INPUT, branch_index=9),
     "branch_index must be an integer in 0..5, got 9"),
    ("verify varodin", dict(_G2_INPUT, branch_index=9),
     "branch_index must be an integer in 0..5, got 9"),
    ("verify rauch", dict(_G2_INPUT, branch_index=2.5),
     "branch_index must be an integer in 0..5, got 2.5"),
    ("verify clue", dict(_G2_INPUT, branch_index=-1),
     "branch_index must be an integer in 0..5, got -1"),
    ("verify vardwa", dict(_CUBIC, branch_index=2),
     "branch_index must be an integer in 0..1, got 2"),
    ("verify clue", _CUBIC, _NOT_A_CURVE),
    ("verify varodin", _CUBIC, _NOT_A_CURVE),
    ("verify rauch", _BAD_POINT,
     "expected a number or [re, im], got ['x', 1]"),
    ("tau genus1", _SHORT_POINT, "expected a number or [re, im], got [3]"),
    ("verify vardwa", dict(_CUBIC, a=[1.0, 0.0, 2.0]),
     "expected a number or [re, im], got [1.0, 0.0, 2.0]"),
    ("tau poly", [], "the input must be a JSON object, got []"),
    ("cover validate", [], "the input must be a JSON object, got []"),
    ("cover validate", dict(_COVER, degree=0),
     "a cover needs an integer degree in 1..10000, got 0"),
    ("cover validate", dict(_COVER, degree=100_000_000),
     "a cover needs an integer degree in 1..10000, got 100000000"),
    ("cover validate", dict(_COVER, branches=[{"value": ["nan", 0],
                                               "sigma": [[1, 2]]}]),
     "malformed point: ['nan', 0]"),
    ("cover validate", dict(_COVER, sigma_infinity=[[1.5, 2]]),
     "malformed cycles: [[1.5, 2]]"),
], ids=["clue-9", "vardwa-9", "varodin-9", "rauch-2.5", "clue-negative",
        "vardwa-cubic-2", "clue-cubic", "varodin-cubic", "rauch-string-point",
        "genus1-short-point", "vardwa-long-a", "poly-top-level-list",
        "cover-top-level-list", "cover-degree-0", "cover-degree-1e8",
        "cover-nan-string-value", "cover-float-cycle"])
def test_malformed_curve_input_is_a_usage_error(command, data, message,
                                                tmp_path, capsys):
    code, rep = run_cli([*command.split(), "--input",
                         write_input(tmp_path, data)], tmp_path)
    assert code == 2 and rep is None
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_verify_clue_command(tmp_path):
    inp = write_input(tmp_path, {
        "branch_points": [[-1.9, 0.0], [-0.85, 0.0], [0.6, 0.25], [1.7, 0.0]],
        "branch_index": 1,
    })
    code, rep = run_cli(["--input", inp, "verify-clue"], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["clue"] < 1e-5
    assert 0.0 <= rep["certificates"]["h_taylor"] < 1e-7
    # the grid-doubling certificate of the right side's Klein-Baker torus
    assert 0.0 < rep["certificates"]["klein_baker"] < 1e-7


def test_tau_genus2_command(tmp_path):
    inp = write_input(tmp_path, {
        "branch_points": [[-2.1, 0.0], [-1.0, 0.0], [-0.2, 0.3], [0.7, 0.0],
                          [1.5, 0.1], [2.4, 0.0]],
    })
    code, rep = run_cli(["--input", inp, "tau-genus2"], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["zeta_independence_rel"] < 1e-5
    assert rep["certificates"]["K"] < 1e-8
    assert rep["certificates"]["period"] < 1e-9


def test_cone_shift_fit_command(tmp_path):
    code, rep = run_cli(["cone-shift-fit"], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["leading_rel"] < 0.1


def test_cone_shift_fit_csv_rows_are_the_fit_samples(tmp_path, monkeypatch):
    # the CSV holds the determinants the fit sampled: no second mode sum
    from hurwitztau import cones

    calls = []
    model = cones.detzeta_N_model

    def counting(*args, **kw):
        calls.append(args)
        return model(*args, **kw)

    monkeypatch.setattr(cones, "detzeta_N_model", counting)
    code, rep = run_cli(["cone-shift-fit"], tmp_path)
    assert code == 0 and "log_dets" not in rep["outputs"]
    samples = rep["outputs"]["samples"]
    rows = [r.split(",") for r in
            (tmp_path / "report.csv").read_text().splitlines()[1:]]
    assert {float(r[0]): float(r[2]) / np.pi for r in rows} \
        == {float(lam): xi for lam, xi in samples.items()}
    assert len(calls) == len(samples)


_UNKNOWNS = "samples, fewer than the {} unknowns of the fit"


@pytest.mark.parametrize("argv, message", [
    (["shift-fit", "--jmin", "0"],
     "--jmin must be at least 1 for cone-shift-fit (lambda = 10^-j < 1), got 0"),
    (["shift-fit", "--jmin", "5", "--jmax", "3"],
     "--jmin 5 to --jmax 3 gives 0 " + _UNKNOWNS.format(2)),
    (["shift-fit", "--jmin", "3", "--jmax", "3"],
     "--jmin 3 to --jmax 3 gives 1 " + _UNKNOWNS.format(2)),
    (["mu0-fit", "--jmin", "3", "--jmax", "4"],
     "--jmin 3 to --jmax 4 gives 2 " + _UNKNOWNS.format(3)),
], ids=["shift-lambda-1", "shift-empty", "shift-one", "mu0-two"])
def test_cone_fit_exponents_are_a_usage_error(argv, message, tmp_path, capfd):
    # capfd: LAPACK writes its complaints to the file descriptor itself
    code, rep = run_cli(["cone", *argv], tmp_path)
    assert code == 2 and rep is None
    assert capfd.readouterr().err == f"usage error: {message}\n"


def test_cone_shift_fit_past_the_mode_sum_range_exits_1(tmp_path):
    # R = 60 puts lambda R = 0.6 at lambda = 10^-2
    code, rep = run_cli(["cone", "shift-fit", "--R", "60"], tmp_path)
    assert code == 1
    assert rep["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ["det-n0", "--R", "nan"], ["det-n0", "--R", "inf"],
    ["det-n0", "--R", "1e160"], ["dtn", "--R", "nan"],
    ["mu0-fit", "--R", "nan"], ["dtn", "--k", "4", "--R", "1e154"],
], ids=["det-n0-nan", "det-n0-inf", "det-n0-1e160", "dtn-nan", "mu0-fit-nan",
        "dtn-k4-1e154"])
def test_cone_radius_out_of_range_is_a_domain_error(argv, tmp_path):
    # a non-finite R, or a 2 pi k R^2 past the float range
    code, rep = run_cli(["cone", *argv], tmp_path)
    assert code == 1 and rep["error"] == "DomainError"


@pytest.mark.parametrize("R", ["1e-31", "1e-100"])
def test_cone_shift_fit_at_a_tiny_radius_reports(R, tmp_path):
    # orders nu = n / (k R) up to 1e100: the tail bound underflows instead
    # of overflowing, so the fit ends in a finite report (its leading
    # coefficient misses the law far outside the band where it holds)
    code, rep = run_cli(["cone", "shift-fit", "--R", R], tmp_path)
    assert code == 1 and "error" not in rep
    assert not re.search(r"\b(NaN|Infinity)\b",
                         (tmp_path / "report.json").read_text())


def test_cone_dtn_csv(tmp_path):
    out = tmp_path / "dtn.json"
    # with --out the CSV table lands next to the report
    code = cli.main(["--k", "2", "--out", str(out), "cone-dtn"])
    assert code == 0
    csv_path = tmp_path / "dtn.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",") == ["n", "lam_re", "lam_im", "mu_re", "mu_im"]


def test_cone_dtn_nodes_is_the_mode_count(tmp_path):
    out = tmp_path / "dtn.json"
    assert cli.main(["--k", "2", "--nodes", "3", "--out", str(out),
                     "cone-dtn"]) == 0
    rows = (tmp_path / "dtn.csv").read_text().splitlines()[1:]
    # four spectral parameters times the modes n = 0, 1, 2
    assert len(rows) == 4 * 3
    assert {int(r.split(",")[0]) for r in rows} == {0, 1, 2}


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_cone_dtn_nodes_below_one_is_a_usage_error(tmp_path, capsys, nodes):
    out = tmp_path / "dtn.json"
    assert cli.main(["--k", "2", "--nodes", nodes, "--out", str(out),
                     "cone-dtn"]) == 2
    assert "--nodes must be at least 1" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "dtn.csv").exists()


def test_cone_dtn_past_the_overflow_of_k_nu(tmp_path):
    # K_nu(0.1) overflows from nu = 106 on; the ratio recurrence does not
    code, rep = run_cli(["--k", "1", "--R", "1.0", "--nodes", "300",
                         "cone-dtn"], tmp_path)
    assert code == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 * 300
    mu = [float(r.split(",")[3]) for r in rows]
    assert all(np.isfinite(mu)) and min(mu) > 0


def test_cone_dtn_order_past_max_modes_is_a_domain_error(tmp_path):
    # nu = n / (k R) ~ 3e21 at n = 1: the K-ratio recurrence would take that
    # many steps, so the order is refused before the first.  In a process of
    # its own first, so that a hang fails at the timeout
    argv = ["cone", "dtn", "--k", "3", "--R", "1e-22"]
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitztau.cli", *argv,
         "--out", str(tmp_path / "process.json")],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 1 and "DomainError" in proc.stderr
    start = time.perf_counter()
    code, rep = run_cli(argv, tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and rep["error"] == "DomainError"
    assert not (tmp_path / "report.csv").exists()


def test_cone_dtn_reports_the_k_ratio_certificate(tmp_path):
    # integer orders at x <= 1/2 (k R = 1) take the series: certificate 0;
    # fractional orders take the doubling trapezoid, certified below 1e-12
    code, rep = run_cli(["cone", "dtn", "--k", "1"], tmp_path)
    assert code == 0 and rep["certificates"] == {"k_ratio": 0.0}
    code, rep = run_cli(["cone", "dtn", "--k", "3", "--R", "0.77"], tmp_path)
    assert code == 0 and 0.0 < rep["certificates"]["k_ratio"] < 1e-12


def test_cone_dtn_missed_k_ratio_certificate_exits_1(tmp_path, monkeypatch):
    from hurwitztau import cones

    rule = cones.trapezoid_doubling
    monkeypatch.setattr(cones, "trapezoid_doubling",
                        lambda fun, **kw: rule(fun, max_doublings=1, **kw))
    code, rep = run_cli(["cone", "dtn", "--k", "2"], tmp_path)
    assert code == 1 and rep["error"] == "LossOfPrecision"
    assert not (tmp_path / "report.csv").exists()


def test_cone_tail_bound_over_tolerance_exits_1(tmp_path, monkeypatch):
    from hurwitztau import cones

    monkeypatch.setattr(cones, "_TAIL_TOL", 0.0)
    code, _ = run_cli(["cone-shift-fit"], tmp_path)
    assert code == 1


def test_default_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HURWITZTAU_OUT", str(tmp_path / "reports"))
    code = cli.main(["--k", "1", "cone-det-n0"])
    assert code == 0
    assert (tmp_path / "reports" / "cone-det-n0.json").exists()
