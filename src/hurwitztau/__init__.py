"""Bergman tau-functions on Hurwitz spaces and model-cone spectral data.

Numerical library plus batch CLI: builds hyperelliptic covers, evaluates the
tau-function in all genus regimes, cross-verifies the governing variational
identities (Rauch, det Im B, Schiffer-connection forms, zero-energy S-matrix
blocks), and computes the explicitly solvable Dirichlet-to-Neumann spectra
and regularized determinants on model cones.

The public names below load lazily (PEP 562): ``import hurwitztau`` imports
no submodule, and each name imports its module on first access.
"""

import importlib

_EXPORTS = {
    **dict.fromkeys((
        "CoverSpec",
        "Permutation",
        "cover_from_json",
        "genus_from_riemann_hurwitz",
        "validate_cover",
    ), "covers"),
    **dict.fromkeys((
        "ConeCircle",
        "detstar_N0_model",
        "detzeta_N_model",
        "dtn_exterior_eigenvalue",
        "dtn_zero_spectrum",
        "mu0_asymptotic_fit",
        "spectral_shift_asymptotic",
    ), "cones"),
    **dict.fromkeys(("CurvePoint", "HyperellipticCurve"), "curves"),
    **dict.fromkeys((
        "RiemannMatrix",
        "ThetaCharacteristic",
        "poly_roots",
        "resultant",
        "riemann_theta",
        "schwarzian",
        "theta1_prime",
    ), "specfun"),
    **dict.fromkeys((
        "RationalCoverP1",
        "TauValue",
        "m_polynomial",
        "tau_genus0",
        "tau_genus1",
        "tau_genus2",
        "tau_polynomial",
        "tau_three_poles",
    ), "taufn"),
    **dict.fromkeys((
        "CubicFamily",
        "clue_identity_check",
        "det_imB_derivative",
        "dln_tau_genus1_fd",
        "dln_tau_genus2_fd",
        "rauch_check",
        "smatrix_hh_zero",
        "vardwa_rhs_curve",
        "vardwa_rhs_genus0",
        "varodin_rhs_curve",
    ), "variational"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
