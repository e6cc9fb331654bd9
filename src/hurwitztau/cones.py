"""Model-cone spectral computations.

Exterior/interior Dirichlet-to-Neumann eigenvalues on the circle r = R of an
infinite cone of angle 2 pi k, the zeta-regularized determinant of the
Neumann jump operator, and the small-spectral-parameter asymptotics (leading
log law, subleading constant, spectral shift) that feed the gluing formula.

Spectral-parameter convention: the operator is Delta - lambda^2 with
Im lambda >= 0; "negative energy" means lambda = i t, t > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special as sps

from .errors import (
    DomainError,
    FitUnstable,
    HankelZero,
    PhaseUnwrappingFailure,
    TailModelMismatch,
)
from .specfun import hankel1, hankel1_deriv

__all__ = [
    "ConeCircle",
    "dtn_exterior_eigenvalue",
    "dtn_zero_spectrum",
    "detstar_N0_model",
    "jump_eigenvalue_neg_energy",
    "jump_eigenvalue",
    "detzeta_N_model",
    "mu0_asymptotic_fit",
    "spectral_shift_asymptotic",
    "MU0_SUBLEADING_PI_GAMMA_HALF",
    "MU0_SUBLEADING_GAMMA",
]

EULER_GAMMA = float(np.euler_gamma)
_TAIL_TOL = 1e-8    # mode-sum truncation certificate of detzeta_N_model


@dataclass(frozen=True)
class ConeCircle:
    """Circle r = R on the infinite cone of total angle 2 pi k.

    The radial variable is r = |y|^k, so the circle sits at |y| = R^(1/k);
    the angular mode n has Bessel order nu_n = |n| / (k R).
    """

    k: int
    R: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("cone order k must be a positive integer")
        if self.R <= 0:
            raise DomainError("circle radius must be positive")

    def nu(self, n):
        return abs(n) / (self.k * self.R)


def dtn_exterior_eigenvalue(n, cone: ConeCircle, lam):
    """Exterior DtN eigenvalue mu_n(lambda) = -d_r H_nu(lambda r)|_R / H_nu(lambda R).

    Defined for Im lambda >= 0, lambda != 0; mu_n = mu_{-n}.  On the positive
    imaginary axis the Hankel ratio is evaluated through the modified Bessel
    K (numerically stable down to arbitrarily small |lambda|): there
    mu_n(i t) = -t K_nu'(t R) / K_nu(t R) > 0.
    """
    lam = complex(lam)
    if lam == 0:
        raise DomainError("use dtn_zero_spectrum for lambda = 0")
    if lam.imag < -1e-12 * abs(lam):
        raise DomainError("require Im lambda >= 0")
    nu = cone.nu(n)
    if lam.real == 0.0 and lam.imag > 0:
        t = lam.imag
        x = t * cone.R
        kv = sps.kve(nu, x)
        kvp = -(sps.kve(nu - 1.0, x) + sps.kve(nu + 1.0, x)) / 2.0
        if kv == 0 or not np.isfinite(kv):
            raise HankelZero(f"K_nu(t R) unusable at nu={nu}, t={t}")
        return complex(-t * kvp / kv)
    denom = hankel1(nu, lam * cone.R)
    if abs(denom) < 1e-290:
        raise HankelZero(f"H_nu(lambda R) ~ 0 at nu={nu}, lambda={lam}")
    return -lam * hankel1_deriv(nu, lam * cone.R) / denom


def dtn_zero_spectrum(cone: ConeCircle, n_max=20):
    """Zero-energy exterior DtN spectrum {|n| / (k R^2)}, n in Z.

    Multiplicity 2 for n != 0 (modes +-n), 1 for n = 0.
    """
    n = np.arange(0, n_max + 1)
    mu = n / (cone.k * cone.R ** 2)
    mult = np.where(n == 0, 1, 2)
    return n, mu, mult


def detstar_N0_model(cone: ConeCircle, family="exterior"):
    """Zeta-regularized determinant (zero mode excluded) of the zero-energy
    model operator on the cone circle.

    family="exterior": eigenvalues |n|/(k R^2), n != 0, each twice:
        zeta(s) = 2 (k R^2)^s zeta_R(s),  det* = 2 pi k R^2.
    family="full": jump operator (interior + exterior), eigenvalues
        2|n|/(k R^2):  det* = pi k R^2.
    """
    if family == "exterior":
        return 2.0 * np.pi * cone.k * cone.R ** 2
    if family == "full":
        return np.pi * cone.k * cone.R ** 2
    raise DomainError(f"unknown family {family!r}")


def jump_eigenvalue_neg_energy(n, cone: ConeCircle, t):
    """Jump-operator eigenvalue at lambda = i t (t > 0), in closed form:
    mu_n = 1 / (R I_nu(t R) K_nu(t R)).  Real and positive."""
    if t <= 0:
        raise DomainError("t must be positive for negative energy")
    nu = cone.nu(n)
    x = t * cone.R
    prod = sps.ive(nu, x) * sps.kve(nu, x)   # I K with exact exponent cancel
    return 1.0 / (cone.R * prod)


def jump_eigenvalue(n, cone: ConeCircle, lam):
    """Jump-operator eigenvalue mu_n(lambda) = -2i / (pi R J_nu(lambda R) H_nu(lambda R)),
    valid for Im lambda >= 0, lambda != 0 (interior Bessel-J sector DtN plus
    the exterior Hankel DtN, combined by the Wronskian)."""
    lam = complex(lam)
    nu = cone.nu(n)
    J = sps.jv(nu, lam * cone.R)
    H = sps.hankel1(nu, lam * cone.R)
    denom = J * H
    if abs(denom) < 1e-290:
        raise HankelZero("Bessel product vanished in the jump eigenvalue")
    return -2j / (np.pi * cone.R * denom)


def _log_eps_tail(nu, lam_R_sq):
    """log(mu_n R / (2 nu)) fallback for orders where the direct Bessel
    product under/overflows; analytic in s = (lambda R)^2.

    Small-argument product: mu_n = (2 nu / R)(1 - s/(2(nu^2-1)) + ...);
    otherwise the uniform (Debye) product expansion with z^2 = -s/nu^2:
    I K = (1/(2 nu)) (1+z^2)^{-1/2} [1 + (t^2 - 6 t^4 + 5 t^6)/(8 nu^2)],
    t^2 = 1/(1+z^2).
    """
    s = complex(lam_R_sq)
    z2 = -s / nu ** 2
    out = np.empty(len(nu), dtype=complex)
    small = np.abs(z2) < 1e-6
    out[small] = np.log1p(-s / (2 * (nu[small] ** 2 - 1.0)))
    zz2 = z2[~small]
    t2 = 1.0 / (1.0 + zz2)
    corr = (t2 - 6 * t2 ** 2 + 5 * t2 ** 3) / (8 * nu[~small] ** 2)
    out[~small] = 0.5 * np.log1p(zz2) - np.log1p(corr)
    return out


def detzeta_N_model(cone: ConeCircle, lam, n_max=4000):
    """log of the zeta-regularized determinant of the Neumann jump operator
    on the model cone at spectral parameter lambda (Im lambda > 0 for real
    values; real lambda gives the analytically continued complex log-det).

    The mode sum subtracts the large-n asymptotic log(2 nu_n / R) whose
    zeta-regularized value is restored in closed form from
    zeta_R(0) = -1/2, zeta_R'(0) = -(1/2) log(2 pi):

      log det N(lambda) = log mu_0 + log(pi k R^2) + 2 sum_{n>=1} eps_n,
      eps_n = log(mu_n k R^2 / (2 n)),

    with the residual tail beyond n_max restored through its 1/n^2 model,
    whose certificate must stay below ``_TAIL_TOL``.
    Returns (log_det, diagnostics).
    """
    lam = complex(lam)
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    kR2 = cone.k * cone.R ** 2
    pure_imag = abs(lam.real) < 1e-14 * abs(lam)

    def mu(n):
        if pure_imag:
            return jump_eigenvalue_neg_energy(n, cone, lam.imag)
        return jump_eigenvalue(n, cone, lam)

    mu0 = mu(0)
    n = np.arange(1, n_max + 1)
    nu = n / (cone.k * cone.R)
    x = lam * cone.R
    with np.errstate(all="ignore"):
        if pure_imag:
            t = lam.imag
            prod = sps.ive(nu, t * cone.R) * sps.kve(nu, t * cone.R)
            good = np.isfinite(prod) & (prod > 0)
            eps = np.empty(n_max, dtype=complex)
            eps[good] = -np.log(2 * nu[good] * prod[good])
            eps[~good] = _log_eps_tail(nu[~good], (lam * cone.R) ** 2)
        else:
            J = sps.jv(nu, x)
            H = sps.hankel1(nu, x)
            prod = J * H
            good = np.isfinite(prod) & (np.abs(prod) > 1e-280)
            eps = np.empty(n_max, dtype=complex)
            # mu_n = -2i/(pi R J H): eps_n = -log(pi nu J H / (-i))
            eps[good] = -np.log(np.pi * nu[good] * prod[good] / (-1j))
            eps[~good] = _log_eps_tail(nu[~good], (lam * cone.R) ** 2)
    # analytic 1/n^2 tail model: eps_n ~ -lambda^2 (k R^2)^2 / (2 n^2)
    c2 = -(lam * kR2) ** 2 / 2.0
    tail = c2 * float(sps.polygamma(1, n_max + 1))
    model_last = c2 / n_max ** 2
    resid_last = abs(eps[-1] - model_last)
    if abs(eps[-1]) > 1e-12 and abs(model_last) > 1e-300:
        mism = resid_last / max(abs(eps[-1]), abs(model_last))
        if mism > 0.2 and abs(eps[-1]) > _TAIL_TOL:
            raise TailModelMismatch(
                f"last mode deviates from the 1/n^2 tail model by {mism:.1%}"
            )
    # unmodeled remainder decays one power faster than the restored tail:
    # bound it by the last-mode model residual times the tail mode count
    cert = float(2 * resid_last * n_max)
    if cert > _TAIL_TOL:
        raise TailModelMismatch(
            f"mode-sum truncation certificate {cert:.2e} > {_TAIL_TOL}; "
            "increase n_max"
        )
    log_det = np.log(mu0) + np.log(np.pi * kR2) + 2 * (np.sum(eps) + tail)
    diag = {
        "mu0": complex(mu0),
        "tail_estimate": complex(tail),
        "modes": n_max,
        "truncation_certificate": cert,
    }
    return complex(log_det), diag


MU0_SUBLEADING_PI_GAMMA_HALF = "log(R/2) + pi*gamma/2 - i*pi/2"
MU0_SUBLEADING_GAMMA = "log(R/2) + gamma - i*pi/2"


def _mu0_candidates(R):
    # two closed-form candidates for the subleading constant, differing in
    # whether the Euler-constant term carries a pi/2 factor
    pi_gamma_half = np.log(R / 2.0) + np.pi * EULER_GAMMA / 2.0 - 1j * np.pi / 2.0
    gamma = np.log(R / 2.0) + EULER_GAMMA - 1j * np.pi / 2.0
    return pi_gamma_half, gamma


def mu0_asymptotic_fit(cone: ConeCircle, exponents=range(2, 9)):
    """Fit mu_0(i t) (-R log lambda) = a0 + a1 / log lambda + a2 / log^2 lambda
    over a geometric sequence t = 10^-j.

    Returns the leading coefficient (target 1) with the regression residual,
    plus a sharp subleading extraction -1/(R mu_0) - log(lambda) -> const
    (the expansion truncates at O(lambda^2 log lambda), so this inversion
    adjudicates between the two closed-form candidates for the subleading
    constant far below the fit noise).
    """
    ts = np.array([10.0 ** (-j) for j in exponents])
    lam = 1j * ts
    y = []
    x = []
    sharp = []
    for lm in lam:
        mu0 = dtn_exterior_eigenvalue(0, cone, lm)
        L = np.log(lm)
        y.append(mu0 * (-cone.R * L))
        x.append(1.0 / L)
        sharp.append(-1.0 / (cone.R * mu0) - L)
    y = np.array(y)
    x = np.array(x)
    V = np.vander(x, 3, increasing=True)
    sol, res, rank, sv = np.linalg.lstsq(V, y, rcond=None)
    if rank < 3:
        raise FitUnstable("mu0 regression is rank deficient")
    pred = V @ sol
    resid = float(np.max(np.abs(pred - y)))
    leading = complex(sol[0])
    subleading_fit = complex(-sol[1])
    subleading_sharp = complex(sharp[-1])
    pi_gamma_half, gamma_cand = _mu0_candidates(cone.R)
    d_pgh = abs(subleading_sharp - pi_gamma_half)
    d_gamma = abs(subleading_sharp - gamma_cand)
    return {
        "leading": leading,
        "subleading": subleading_fit,
        "subleading_sharp": subleading_sharp,
        "residual": resid,
        "candidate_pi_gamma_half": complex(pi_gamma_half),
        "candidate_gamma": complex(gamma_cand),
        "dist_pi_gamma_half": float(d_pgh),
        "dist_gamma": float(d_gamma),
        "selected": "gamma" if d_gamma < d_pgh else "pi_gamma_half",
        "lambda_min": complex(1j * ts.min()),
    }


def spectral_shift_asymptotic(cone: ConeCircle, exponents=range(2, 8),
                              n_cones=1):
    """Spectral-shift leading law: xi(lambda) = pi^{-1} Arg det N(lambda + i0)
    fitted against 1 / log(lambda^2) along lambda = 10^-j (2000 modes per
    determinant).

    For n_cones independent model cones the phases add and the leading
    coefficient is n_cones.  Returns the fitted leading coefficient and the
    per-sample table; xi vanishes identically for negative energies.
    """
    lams = np.array([10.0 ** (-j) for j in exponents])
    xi = []
    for lm in lams:
        log_det, _ = detzeta_N_model(cone, complex(lm), n_max=2000)
        phase = log_det.imag
        if abs(phase) > np.pi:
            raise PhaseUnwrappingFailure(
                f"unexpectedly large determinant phase {phase:.3f}"
            )
        xi.append(n_cones * phase / np.pi)
    xi = np.array(xi)
    x = 1.0 / np.log(lams ** 2)
    V = np.vander(x, 2, increasing=True)
    sol, *_ = np.linalg.lstsq(V, xi, rcond=None)
    leading = float(sol[1])
    return {
        "leading": leading,
        "expected": float(n_cones),
        "samples": {float(l): float(v) for l, v in zip(lams, xi)},
        "residual": float(np.max(np.abs(V @ sol - xi))),
    }


def dtn_table(cone: ConeCircle, lam_values, n_values):
    """(n, lambda, mu_n) rows for CSV emission."""
    rows = []
    for lm in lam_values:
        for n in n_values:
            mu = dtn_exterior_eigenvalue(n, cone, lm)
            rows.append((int(n), complex(lm), complex(mu)))
    return rows
