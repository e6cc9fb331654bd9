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
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    FitUnstable,
    HankelZero,
    LossOfPrecision,
    PhaseUnwrappingFailure,
    TailModelMismatch,
)

__all__ = [
    "ConeCircle",
    "dtn_exterior_eigenvalue",
    "dtn_zero_spectrum",
    "detstar_N0_model",
    "jump_eigenvalue",
    "detzeta_N_model",
    "mu0_asymptotic_fit",
    "spectral_shift_asymptotic",
    "MU0_SUBLEADING_PI_GAMMA_HALF",
    "MU0_SUBLEADING_GAMMA",
]

EULER_GAMMA = float(np.euler_gamma)
_TAIL_TOL = 1e-8    # mode-sum truncation certificate of detzeta_N_model
_BLOCK = 128        # modes per direct Bessel-product block of detzeta_N_model


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


def _on_imag_axis(lam):
    """Whether lambda lies on the imaginary axis, where the DtN and jump
    eigenvalues and the mode sums use I_nu and K_nu in place of J_nu and
    H_nu."""
    return abs(lam.real) < 1e-14 * abs(lam)


def dtn_exterior_eigenvalue(n, cone: ConeCircle, lam):
    """Exterior DtN eigenvalue mu_n(lambda) = -d_r H_nu(lambda r)|_R / H_nu(lambda R).

    Defined for Im lambda >= 0, lambda != 0; mu_n = mu_{-n}.  On the positive
    imaginary axis the Hankel ratio is evaluated through the modified Bessel
    K (numerically stable down to arbitrarily small |lambda|): there
    mu_n(i t) = -t K_nu'(t R) / K_nu(t R) > 0.  Elsewhere H_nu' is the
    two-sided recurrence (H_{nu-1} - H_{nu+1}) / 2, and a non-finite H_nu or
    H_nu' (AMOS overflow) raises LossOfPrecision.
    """
    lam = complex(lam)
    if lam == 0:
        raise DomainError("use dtn_zero_spectrum for lambda = 0")
    if lam.imag < -1e-12 * abs(lam):
        raise DomainError("require Im lambda >= 0")
    import scipy.special as sps   # deferred: only the Bessel paths need SciPy

    nu = cone.nu(n)
    if _on_imag_axis(lam):
        t = lam.imag
        x = t * cone.R
        kv = sps.kve(nu, x)
        kvp = -(sps.kve(nu - 1.0, x) + sps.kve(nu + 1.0, x)) / 2.0
        if kv == 0 or not np.isfinite(kv):
            raise HankelZero(f"K_nu(t R) unusable at nu={nu}, t={t}")
        return complex(-t * kvp / kv)
    z = lam * cone.R
    denom = complex(sps.hankel1(nu, z))
    deriv = complex((sps.hankel1(nu - 1.0, z)
                     - sps.hankel1(nu + 1.0, z)) / 2.0)
    if not (np.isfinite(denom) and np.isfinite(deriv)):
        raise LossOfPrecision(
            f"H_nu(lambda R) lost all significance at nu={nu}, lambda={lam}")
    if abs(denom) < 1e-290:
        raise HankelZero(f"H_nu(lambda R) ~ 0 at nu={nu}, lambda={lam}")
    return -lam * deriv / denom


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


def jump_eigenvalue(n, cone: ConeCircle, lam):
    """Jump-operator eigenvalue mu_n(lambda) = -2i / (pi R J_nu(lambda R) H_nu(lambda R)),
    valid for Im lambda >= 0, lambda != 0 (interior Bessel-J sector DtN plus
    the exterior Hankel DtN, combined by the Wronskian).  At lambda = i t,
    t > 0, it is the real closed form 1 / (R I_nu(t R) K_nu(t R)) > 0."""
    import scipy.special as sps

    lam = complex(lam)
    nu = cone.nu(n)
    if _on_imag_axis(lam):
        if lam.imag <= 0:
            raise DomainError("t must be positive for negative energy")
        x = lam.imag * cone.R
        prod = sps.ive(nu, x) * sps.kve(nu, x)   # I K with exact exponent cancel
        return 1.0 / (cone.R * prod)
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


@lru_cache(maxsize=32)
def _trigamma(n):
    """psi'(n) = sum_{m >= n} 1/m^2, the tail model's mode sum; one SciPy
    call per mode count."""
    import scipy.special as sps

    return float(sps.polygamma(1, n))


def _where_nonzero(second, first, nb, x):
    """second(nb, x) at the orders where ``first`` is nonzero, 0 elsewhere."""
    out = np.zeros_like(first)
    keep = first != 0
    out[keep] = second(nb[keep], x)
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
    whose certificate must stay below ``_TAIL_TOL``.  The Bessel product
    (J H; I K on the imaginary axis) is evaluated in blocks of ``_BLOCK``
    modes of rising nu, up to the first block with no representable product
    that starts past the turning point nu > 2 |lambda R| + 2: beyond it |J|
    and I fall, |H| and K rise monotonically in nu, so no later product is
    representable.  Within a block the second factor (H, or K) is evaluated
    only where the first (J, or I) is nonzero and taken as 0 elsewhere:
    there the full product is 0 or NaN, and both are rejected as
    unrepresentable, so the sum is exactly the one over every product.  All
    other modes take the expansion of ``_log_eps_tail``.
    Returns (log_det, diagnostics); diagnostics["direct_modes"] counts the
    modes scanned, that is, the modes of the blocks evaluated.
    """
    import scipy.special as sps

    lam = complex(lam)
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    kR2 = cone.k * cone.R ** 2
    pure_imag = _on_imag_axis(lam)
    mu0 = jump_eigenvalue(0, cone, lam)
    nu = np.arange(1, n_max + 1) / (cone.k * cone.R)
    x = lam * cone.R

    def direct(nb):
        # the product is formed on the whole block, so each representable
        # one is bitwise the product of the two unmasked factor arrays
        if pure_imag:
            tR = lam.imag * cone.R
            first = sps.ive(nb, tR)
            prod = first * _where_nonzero(sps.kve, first, nb, tR)
            good = np.isfinite(prod) & (prod > 0)
            return good, -np.log(2 * nb[good] * prod[good])
        first = sps.jv(nb, x)
        prod = first * _where_nonzero(sps.hankel1, first, nb, x)
        good = np.isfinite(prod) & (np.abs(prod) > 1e-280)
        # mu_n = -2i/(pi R J H): eps_n = -log(pi nu J H / (-i))
        return good, -np.log(np.pi * nb[good] * prod[good] / (-1j))

    eps = np.empty(n_max, dtype=complex)
    good = np.zeros(n_max, dtype=bool)
    direct_modes = 0
    with np.errstate(all="ignore"):
        for lo in range(0, n_max, _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            good[blk], eps_good = direct(nu[blk])
            eps[blk][good[blk]] = eps_good
            direct_modes += good[blk].size
            if not good[blk].any() and nu[lo] > 2 * abs(x) + 2:
                break
        eps[~good] = _log_eps_tail(nu[~good], x ** 2)
    # analytic 1/n^2 tail model: eps_n ~ -lambda^2 (k R^2)^2 / (2 n^2)
    c2 = -(lam * kR2) ** 2 / 2.0
    tail = c2 * _trigamma(n_max + 1)
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
        "direct_modes": direct_modes,
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


def spectral_shift_asymptotic(circles, exponents=range(2, 8)):
    """Spectral-shift leading law: xi(lambda) = pi^{-1} Arg det N(lambda + i0)
    fitted against 1 / log(lambda^2) along lambda = 10^-j (2000 modes per
    determinant).

    ``circles`` is one ConeCircle or a sequence of them: the determinant of
    independent model cones is the product of theirs, so the phases add and
    the expected leading coefficient is the number of cones.  Returns the
    fitted leading coefficient and the per-sample table; xi vanishes
    identically for negative energies.
    """
    return _shift_fit(circles, exponents)[0]


def _shift_fit(circles, exponents):
    """(fit, log_dets): the report of :func:`spectral_shift_asymptotic` and
    the sampled ln det N (summed over the cones), in sample order."""
    if isinstance(circles, ConeCircle):
        circles = [circles]
    lams = np.array([10.0 ** (-j) for j in exponents])
    xi, log_dets = [], []
    for lm in lams:
        per_cone = [detzeta_N_model(c, complex(lm), n_max=2000)[0]
                    for c in circles]
        for log_det in per_cone:
            if abs(log_det.imag) > np.pi:
                raise PhaseUnwrappingFailure(
                    f"unexpectedly large determinant phase {log_det.imag:.3f}"
                )
        log_det = sum(per_cone[1:], per_cone[0])
        log_dets.append(log_det)
        xi.append(log_det.imag / np.pi)
    xi = np.array(xi)
    x = 1.0 / np.log(lams ** 2)
    V = np.vander(x, 2, increasing=True)
    sol, *_ = np.linalg.lstsq(V, xi, rcond=None)
    leading = float(sol[1])
    return {
        "leading": leading,
        "expected": float(len(circles)),
        "samples": {float(l): float(v) for l, v in zip(lams, xi)},
        "residual": float(np.max(np.abs(V @ sol - xi))),
    }, log_dets


def dtn_table(cone: ConeCircle, lam_values, n_values):
    """(n, lambda, mu_n) rows for CSV emission."""
    rows = []
    for lm in lam_values:
        for n in n_values:
            mu = dtn_exterior_eigenvalue(n, cone, lm)
            rows.append((int(n), complex(lm), complex(mu)))
    return rows
