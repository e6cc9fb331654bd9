import json
import os
import re
import subprocess
import sys

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


def test_verify_clue_command(tmp_path):
    inp = write_input(tmp_path, {
        "branch_points": [[-1.9, 0.0], [-0.85, 0.0], [0.6, 0.25], [1.7, 0.0]],
        "branch_index": 1,
    })
    code, rep = run_cli(["--input", inp, "verify-clue"], tmp_path)
    assert code == 0
    assert rep["discrepancies"]["clue"] < 1e-5
    assert 0.0 <= rep["certificates"]["h_taylor"] < 1e-7


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

    n_max = []
    model = cones.detzeta_N_model

    def counting(*args, **kw):
        n_max.append(kw.get("n_max"))
        return model(*args, **kw)

    monkeypatch.setattr(cones, "detzeta_N_model", counting)
    code, rep = run_cli(["cone-shift-fit"], tmp_path)
    assert code == 0 and "log_dets" not in rep["outputs"]
    samples = rep["outputs"]["samples"]
    rows = [r.split(",") for r in
            (tmp_path / "report.csv").read_text().splitlines()[1:]]
    assert {float(r[0]): float(r[2]) / np.pi for r in rows} \
        == {float(lam): xi for lam, xi in samples.items()}
    assert n_max == [2000] * len(samples)


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


def test_default_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HURWITZTAU_OUT", str(tmp_path / "reports"))
    code = cli.main(["--k", "1", "cone-det-n0"])
    assert code == 0
    assert (tmp_path / "reports" / "cone-det-n0.json").exists()
