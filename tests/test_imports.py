"""Import diet and lazy exports.

Each diet test runs in a fresh interpreter and reads ``sys.modules``
afterwards, so it sees what a command really loads, not what this pytest
process has already imported.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import hurwitztau

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = os.path.join(ROOT, "fixtures")

# the names the six eager ``from .x import (...)`` blocks re-exported
EXPORTED = {
    "covers": ("CoverSpec", "Permutation", "cover_from_json",
               "genus_from_riemann_hurwitz", "validate_cover"),
    "cones": ("ConeCircle", "detstar_N0_model", "detzeta_N_model",
              "dtn_exterior_eigenvalue", "dtn_zero_spectrum",
              "mu0_asymptotic_fit", "spectral_shift_asymptotic"),
    "curves": ("CurvePoint", "HyperellipticCurve"),
    "specfun": ("RiemannMatrix", "ThetaCharacteristic", "poly_roots",
                "resultant", "riemann_theta", "schwarzian", "theta1_prime"),
    "taufn": ("RationalCoverP1", "TauValue", "m_polynomial", "tau_genus0",
              "tau_genus1", "tau_genus2", "tau_polynomial", "tau_three_poles"),
    "variational": ("CubicFamily", "clue_identity_check",
                    "det_imB_derivative", "dln_tau_genus1_fd",
                    "dln_tau_genus2_fd", "rauch_check", "smatrix_hh_zero",
                    "vardwa_rhs_curve", "vardwa_rhs_genus0",
                    "varodin_rhs_curve"),
}
ALL_NAMES = {name for names in EXPORTED.values() for name in names}


def loaded_after(code, modules=("numpy", "scipy.special")):
    """Which of ``modules`` a fresh interpreter has loaded after running
    ``code``; the answer is the last line of its stdout."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps({m: m in sys.modules "
        f"for m in {tuple(modules)!r}}}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def cli_run(*argv):
    """Code for ``loaded_after`` that runs one CLI command and asserts exit 0."""
    args = list(argv)
    return ("from hurwitztau import cli\n"
            f"assert cli.main({args!r}) == 0\n")


def fixture(name):
    return os.path.join(FIXTURES, name + ".json")


@pytest.mark.parametrize("module", ["hurwitztau", "hurwitztau.cli"])
def test_package_import_loads_no_numpy(module):
    loaded = loaded_after(f"import {module}")
    assert loaded == {"numpy": False, "scipy.special": False}


def test_cover_validate_loads_no_numpy():
    loaded = loaded_after(cli_run("cover", "validate",
                                  "--input", fixture("cover_torus")))
    assert not loaded["numpy"]


@pytest.mark.parametrize("command, name", [
    ("poly", "poly_cubic"),
    ("genus1", "curve_genus1"),
    ("genus2", "curve_genus2"),
])
def test_tau_commands_load_no_scipy_special(command, name):
    loaded = loaded_after(cli_run("tau", command, "--input", fixture(name)))
    assert loaded["numpy"]
    assert not loaded["scipy.special"]


@pytest.mark.parametrize("k, R", [("2", "1.0"), ("3", "0.77")])
def test_cone_dtn_loads_no_scipy(k, R):
    # fractional orders (1/2 at k = 2; up to nu ~ 130 at k = 3, --nodes 300)
    # start their K_nu ratio from the doubling trapezoid, not from SciPy's K
    loaded = loaded_after(cli_run("cone", "dtn", "--k", k, "--R", R,
                                  "--nodes", "300"),
                          ("numpy", "scipy", "scipy.special"))
    assert loaded == {"numpy": True, "scipy": False, "scipy.special": False}


BAND_CONE_OP = (
    "import sys\n"
    "sys.path.insert(0, 'benchmarks')\n"
    "import ops\n"
    "assert all(c.ratio < 1 for c in\n"
    "           ops.cone_op({'k': 4, 'R': 0.69, 't': 0.1}))\n")


# the mode sum at the end of its range, |lambda R| = 1/2, on three rays
RANGE_END = (
    "import cmath\n"
    "from hurwitztau import cones\n"
    "for lam in (0.5, 0.5j, cmath.rect(0.5, 0.3)):\n"
    "    cones.detzeta_N_model(cones.ConeCircle(1, 1.0), lam)\n")


@pytest.mark.parametrize("code", [
    cli_run("cone", "mu0-fit"),
    cli_run("cone", "shift-fit"),
    BAND_CONE_OP,
    RANGE_END,
], ids=["mu0-fit", "shift-fit", "cone_op", "detzeta-range-end"])
def test_cone_fits_load_no_scipy_special(code):
    # |lambda R| <= _SERIES_X throughout: series and closed-form tail only
    loaded = loaded_after(code)
    assert loaded["numpy"]
    assert not loaded["scipy.special"]


def test_cone_closed_form_loads_no_scipy_special():
    # det* N(0) is a closed form: no Bessel function, so no SciPy
    loaded = loaded_after(cli_run("cone", "det-n0", "--k", "2"))
    assert loaded["numpy"]
    assert not loaded["scipy.special"]


def test_cones_import_loads_no_scipy_special():
    loaded = loaded_after("import hurwitztau.cones")
    assert loaded == {"numpy": True, "scipy.special": False}


@pytest.mark.parametrize("code", [
    "import hurwitztau.cones",
    cli_run("cone", "det-n0", "--k", "2"),
    cli_run("cone", "dtn", "--k", "2"),
    cli_run("cone", "mu0-fit"),
    cli_run("cone", "shift-fit"),
], ids=["import", "det-n0", "dtn", "mu0-fit", "shift-fit"])
def test_cones_load_no_specfun_or_polynomial(code):
    # the cone layer shares only the trapezoid rule (hurwitztau.quadrature)
    # with the curve layer: neither the curves, the theta/polynomial kernel,
    # the tau functions nor numpy.polynomial come with it
    modules = ("hurwitztau.curves", "hurwitztau.specfun", "hurwitztau.taufn",
               "numpy.polynomial")
    loaded = loaded_after(code, modules)
    assert loaded == dict.fromkeys(modules, False)


def test_all_is_the_exported_names():
    assert set(hurwitztau.__all__) == ALL_NAMES
    assert hurwitztau.__all__ == sorted(hurwitztau.__all__)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exports_are_the_module_objects(module):
    mod = importlib.import_module(f"hurwitztau.{module}")
    for name in EXPORTED[module]:
        assert getattr(hurwitztau, name) is getattr(mod, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hurwitztau import *", namespace)
    assert ALL_NAMES <= set(namespace)
    assert namespace["HyperellipticCurve"] is hurwitztau.HyperellipticCurve


def test_dir_lists_the_exports():
    listed = dir(hurwitztau)
    assert ALL_NAMES <= set(listed)
    assert "__version__" in listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError,
                       match="module 'hurwitztau' has no attribute 'nope'"):
        hurwitztau.nope
