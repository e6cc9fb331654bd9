"""Model-cone spectral computations.

Exterior/interior Dirichlet-to-Neumann eigenvalues on the circle r = R of an
infinite cone of angle 2 pi k, the zeta-regularized determinant of the
Neumann jump operator, and the small-spectral-parameter asymptotics (leading
log law, subleading constant, spectral shift) that feed the gluing formula.

Spectral-parameter convention: the operator is Delta - lambda^2 with
Im lambda >= 0; "negative energy" means lambda = i t, t > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    FitUnstable,
    LossOfPrecision,
    PhaseUnwrappingFailure,
    TruncationFailure,
)
from .quadrature import trapezoid_doubling

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
_TAIL_TOL = 1e-8    # largest tail remainder bound detzeta_N_model accepts
_SERIES_X = 0.5     # largest |lambda R| of the mode sum
_SERIES_TERMS = 12  # terms past the first of each series at |x| <= _SERIES_X
_NU_TAIL = 24.0     # lowest order at which the closed-form tail may start
_TAIL_TERMS = 5     # K: terms of S_nu that the tail expands
_TAIL_ORDER = 14    # Q: powers of 1/nu^2 that the tail sums in closed form
_CAUCHY_NODES = 64  # nodes of the circle integral at (near-)integer orders
_CAUCHY_RADIUS = 0.25
_MAX_MODES = 1 << 15
_K_TARGET = 1e-12   # doubling certificate each K_nu integral of _k_ratio meets


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
        if not self.R > 0 or math.isinf(2 * math.pi * self.k * self.R * self.R):
            raise DomainError(f"circle radius must be positive with 2 pi k R^2 "
                              f"finite, got k = {self.k}, R = {self.R}")

    def nu(self, n):
        return abs(n) / (self.k * self.R)


def _spectral_parameter(lam):
    """lambda as a complex number, checked against the convention
    Im lambda >= 0 (up to rounding); lambda = 0 or Im lambda < 0 raises
    DomainError."""
    lam = complex(lam)
    if lam == 0:
        raise DomainError("lambda must be nonzero (dtn_zero_spectrum holds "
                          "the zero-energy spectrum)")
    if lam.imag < -1e-12 * abs(lam):
        raise DomainError(f"require Im lambda >= 0, got lambda = {lam}")
    return lam


def _on_imag_axis(lam):
    """Whether lambda lies on the imaginary axis, where the DtN and jump
    eigenvalues and the mode sums use I_nu and K_nu in place of J_nu and
    H_nu."""
    return abs(lam.real) < 1e-14 * abs(lam)


# order-0 and order-1 ascending series: 12 terms hold to rounding for
# |z| <= _SERIES_X
_HARMONIC = [sum(1.0 / j for j in range(1, k + 1)) for k in range(13)]  # H_0..H_12


def _order0_sums(w):
    """(sum_{k>=0} w^k / k!^2, sum_{k>=1} H_k w^k / k!^2), H_k the harmonic
    numbers: with w = z^2/4 they build I_0 and K_0 (DLMF 10.25.2, 10.31.2),
    with w = -z^2/4 J_0 and Y_0 (DLMF 10.2.2, 10.8.2)."""
    term, total, weighted = 1.0, 1.0, 0.0
    for k in range(1, 13):
        term *= w / (k * k)
        total += term
        weighted += _HARMONIC[k] * term
    return total, weighted


def _k01(y):
    """(I_0(y), K_0(y), K_1(y)) for 0 < y <= _SERIES_X, by DLMF 10.31.2 and
    10.31.1."""
    w = y * y / 4
    i0, h = _order0_sums(w)
    log_half = math.log(y / 2)
    k0 = -(log_half + EULER_GAMMA) * i0 + h
    # b_k = w^k / (k! (k+1)!); psi(k+1) + psi(k+2) = H_k + H_{k+1} - 2 gamma
    b, i1, psi = 1.0, 1.0, 1.0 - 2 * EULER_GAMMA
    for k in range(1, 12):
        b *= w / (k * (k + 1))
        i1 += b
        psi += b * (_HARMONIC[k] + _HARMONIC[k + 1] - 2 * EULER_GAMMA)
    k1 = 1.0 / y + log_half * (y / 2) * i1 - (y / 4) * psi
    return i0, k0, k1


def _j0_h0(z):
    """(J_0(z), H_0(z)) for 0 < |z| <= _SERIES_X, Im z >= 0, by DLMF 10.2.2
    and 10.8.2 on the principal branch of log."""
    j0, h = _order0_sums(-z * z / 4)
    y0 = (2 / np.pi) * ((cmath.log(z / 2) + EULER_GAMMA) * j0 - h)
    return j0, j0 + 1j * y0


def _k_ratio(f, x):
    """(K_{1-f}(x) / K_f(x), certificate), 0 <= f < 1, x > 0: K_nu(x) e^x =
    int_0^inf e^{-x (cosh u - 1)} cosh(nu u) du (DLMF 10.32.9) by the doubling
    trapezoid, one rule per order, on the even integrand over [-U, U]
    (Trefethen & Weideman, SIAM Rev. 56, 2014), x (cosh U - 1) = 700: U ~
    log(1400/x) at small x, sqrt(1400/x) at large x follows the peak width.
    A miss, or a ratio not finite and positive, raises LossOfPrecision."""
    U = 2 * math.asinh(math.sqrt(350 / x))    # 2 x sinh(U / 2)^2 = 700

    def integral(nu):
        def fun(th):
            u = U * (th / np.pi - 1)
            return np.exp(-2 * x * np.sinh(u / 2) ** 2) * np.cosh(nu * u)
        return trapezoid_doubling(fun, target=_K_TARGET)

    (a, _, ca), (b, _, cb) = integral(1.0 - f), integral(f)
    r = float(a.real / b.real)
    if not (ca < _K_TARGET and cb < _K_TARGET and math.isfinite(r) and r > 0):
        raise LossOfPrecision(
            f"K_nu ratio at nu={f}, x={x}: certificates {ca:.2e}, {cb:.2e} "
            f"(target {_K_TARGET:.0e}), ratio {r}")
    return r, max(ca, cb)


def _dtn_exterior(n, cone, lam):
    """(:func:`dtn_exterior_eigenvalue`, ``_k_ratio`` certificate or 0)."""
    lam = _spectral_parameter(lam)
    nu = cone.nu(n)
    if _on_imag_axis(lam):
        if nu > _MAX_MODES:     # the recurrence below takes floor(nu) steps
            raise DomainError(f"DtN order nu = {nu:.3g} past {_MAX_MODES}")
        t = lam.imag
        x = t * cone.R
        frac = nu - math.floor(nu)
        if frac == 0.0 and x <= _SERIES_X:
            _, k0, k1 = _k01(x)
            r, cert = k1 / k0, 0.0
        else:
            r, cert = _k_ratio(frac, x)
        for i in range(math.floor(nu)):
            r = 1.0 / (r + 2.0 * (frac + i) / x)
        return complex(t * (nu / x + r)), cert
    import scipy.special as sps   # deferred: only off the imaginary axis
    z = lam * cone.R
    denom = complex(sps.hankel1(nu, z))
    deriv = complex((sps.hankel1(nu - 1.0, z)
                     - sps.hankel1(nu + 1.0, z)) / 2.0)
    if not (np.isfinite(denom) and np.isfinite(deriv)):
        raise LossOfPrecision(
            f"H_nu(lambda R) lost all significance at nu={nu}, lambda={lam}")
    if abs(denom) < 1e-290:
        raise LossOfPrecision(f"H_nu(lambda R) ~ 0 at nu={nu}, lambda={lam}")
    return -lam * deriv / denom, 0.0


def dtn_exterior_eigenvalue(n, cone: ConeCircle, lam):
    """Exterior DtN eigenvalue mu_n(lambda) = -d_r H_nu(lambda r)|_R / H_nu(lambda R).

    Defined for Im lambda >= 0, lambda != 0; mu_n = mu_{-n}.  On the positive
    imaginary axis, mu_n(i t) = -t K_nu'(x) / K_nu(x) = t (nu / x + r_nu),
    x = t R, with the ratio r_nu = K_{nu-1}(x) / K_nu(x) carried up from the
    fractional order f = nu - floor(nu) by r_{nu+1} = 1 / (r_nu + 2 nu / x)
    (DLMF 10.29.1), so no K_nu is formed and nothing overflows; r_f comes
    from the series of K_0 and K_1 at f = 0 and x <= _SERIES_X, else from
    the certified trapezoid of ``_k_ratio``: no SciPy call.  An order nu
    above ``_MAX_MODES`` raises DomainError before any step.  Off the axis
    (no command goes there) H_nu' is SciPy's (H_{nu-1} - H_{nu+1}) / 2; a
    non-finite H_nu or H_nu' or a vanishing H_nu raises LossOfPrecision.
    """
    return _dtn_exterior(n, cone, lam)[0]


def dtn_zero_spectrum(cone: ConeCircle, n_last=20):
    """Zero-energy exterior DtN spectrum {|n| / (k R^2)}, n in Z.

    Multiplicity 2 for n != 0 (modes +-n), 1 for n = 0.
    """
    n = np.arange(0, n_last + 1)
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
    """Jump-operator eigenvalue of the mode n = 0,
    mu_0(lambda) = -2i / (pi R J_0(lambda R) H_0(lambda R)) (interior
    Bessel-J sector DtN plus the exterior Hankel DtN, combined by the
    Wronskian), for Im lambda >= 0 and 0 < |lambda R| <= _SERIES_X, from the
    ascending series of ``_j0_h0``; at lambda = i t it is the real closed
    form 1 / (R I_0(t R) K_0(t R)) > 0 from ``_k01``.  No SciPy call.  The
    modes n >= 1 enter the mode sum as P_n of ``_series_eps``
    (mu_n = 2 nu / (R P_n)); any other n or lambda raises DomainError."""
    lam = _spectral_parameter(lam)
    if cone.nu(n) != 0:
        raise DomainError(f"jump_eigenvalue holds the mode n = 0 only, got {n}")
    axis = _on_imag_axis(lam)
    x = lam.imag * cone.R if axis else lam * cone.R
    if not abs(x) <= _SERIES_X:
        raise DomainError(
            f"mu_0 needs |lambda R| <= {_SERIES_X}, got {abs(x):.6g}")
    if axis:
        i0, k0, _ = _k01(x)
        return 1.0 / (cone.R * i0 * k0)
    J, H = _j0_h0(x)
    return -2j / (np.pi * cone.R * J * H)


# ---------------------------------------------------------------------------
# mode sum: product split per mode, closed-form tail
# ---------------------------------------------------------------------------

_EM_B = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730]) \
    / np.array([math.factorial(2 * j) for j in range(1, 7)])
_EM_NEXT = (7 / 6) / math.factorial(14)
_EM_POW = 1.0 - 2 * np.arange(1, 7)
_ZETA_DIRECT = np.arange(8.0)


def _zeta_scaled(sig, a, c):
    """c^sig zeta(sig, a) = sum_{n>=0} (c / (a + n))^sig for an array of
    sig > 1 and a, c > 0: 8 terms summed, then Euler-Maclaurin (DLMF 2.10.1)
    with B_2 .. B_12.  Returns (values, remainder bounds); each bound is the
    first omitted term, which bounds the remainder since every derivative of
    n^-sig keeps one sign."""
    direct = ((c / (a + _ZETA_DIRECT)) ** sig[:, None]).sum(axis=1)
    b = a + len(_ZETA_DIRECT)
    cb = (c / b) ** sig
    poch = np.cumprod(sig[:, None] + np.arange(13.0), axis=1)   # (sig)_1..13
    em = b / (sig - 1) + 0.5 + (poch[:, 0:12:2] * _EM_B * b ** _EM_POW).sum(axis=1)
    return direct + cb * em, cb * _EM_NEXT * poch[:, 12] * b ** -13.0


_KS = np.arange(1.0, _SERIES_TERMS + 1)
_S_RATIO = (2 * _KS - 1) / (2 * _KS)                   # C(2k,k) / (4 C(2k-2,k-1))


def _S(nu, s, den=None):
    """S_nu(s) = sum_k C(2k, k) (-s/4)^k / prod_{j<=k} (j^2 - nu^2), first
    _SERIES_TERMS + 1 terms, at an array of orders (real or complex, none an
    integer up to _SERIES_TERMS); ``den`` may hold (k - nu)(k + nu),
    k = 1.._SERIES_TERMS."""
    if den is None:
        # (k - nu) is exact near k, so the pole terms keep their relative accuracy
        den = (_KS - nu[:, None]) * (_KS + nu[:, None])
    return 1.0 + np.cumprod((-s * _S_RATIO) / den, axis=1).sum(axis=1)


def _j2_part(nu, s, log_half, log_gamma, cot):
    """pi nu J_nu(x)^2 (i - cot nu pi) at an array of non-integer orders,
    from x^2 = s, log(x/2) = log_half (principal branch),
    log_gamma = log Gamma(1 + nu) and cot = cot nu pi; the ascending series
    of J_nu (DLMF 10.2.2) has _SERIES_TERMS + 1 terms."""
    series = 1.0 + np.cumprod((-s / 4) / (_KS * (nu[:, None] + _KS)), axis=1).sum(axis=1)
    return (np.pi * nu * np.exp(2 * nu * log_half - 2 * log_gamma)
            * series ** 2 * (1j - cot))


_DELTA = _CAUCHY_RADIUS * np.exp(2j * np.pi * np.arange(_CAUCHY_NODES)
                                 / _CAUCHY_NODES)
_COT_DELTA = np.cos(np.pi * _DELTA) / np.sin(np.pi * _DELTA)


def _log_gamma_at_nodes():
    """log Gamma(1 + delta) at the circle offsets ``_DELTA``, from
    -gamma delta + sum_{k>=2} zeta(k) (-delta)^k / k (DLMF 5.7.3); 30 terms
    at |delta| = 1/4."""
    k = np.arange(2.0, 32.0)
    zeta_k = _zeta_scaled(k, 1.0, 1.0)[0]
    return -EULER_GAMMA * _DELTA \
        + ((-_DELTA[:, None]) ** k * (zeta_k / k)).sum(axis=1)


_LOG_GAMMA_NODES = _log_gamma_at_nodes()


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


class _Orders:
    """The orders nu_n = n / (k R), n = 1..N, of a cone with what
    ``_series_eps`` needs of them alone: nearest integers m, |sin| and |cos|
    of pi (nu - m) and cot nu pi (exact, nu - m being exact), the
    denominators of S_nu's term ratios, log Gamma(1 + nu), and the pieces
    of the J^2 bound.  They are the same for every lambda of the cone, so
    ``_cone_orders`` shares them (arrays read-only)."""

    def __init__(self, kR, N):
        nu = self.nu = np.arange(1, N + 1) / kR
        self.m = np.rint(nu)
        d = np.pi * (nu - self.m)
        self.sin = np.abs(np.sin(d))
        self.cos = np.abs(np.cos(d))
        exact = self.sin == 0
        self.cot = np.cos(d) / np.where(exact, 1.0, np.sin(d))
        self.den = (_KS - nu[:, None]) * (_KS + nu[:, None])
        self.log_gamma = np.array([math.lgamma(1 + v) for v in nu])
        self.two_nu = 2 * nu
        self.two_nu_log_nu = self.two_nu * np.log(nu)
        self.inv = 1 / (2 * (nu + 1))
        self.positive = self.m >= 1
        # S meets its pole at an integer order up to _SERIES_TERMS
        self.pole = exact & self.positive & (self.m <= _SERIES_TERMS)
        # J^2 threshold: 1e-18 |sin|, never met at an integer order
        self.floor = np.where(exact, np.inf, 1e-18 * self.sin)
        self.sin_cos = self.sin + self.cos
        _read_only(*(a for a in vars(self).values() if isinstance(a, np.ndarray)))


_cone_orders = lru_cache(maxsize=8)(_Orders)


def _series_eps(orders, x, pure_imag):
    """eps_n = -log P_n at the ``_Orders`` given, with no Bessel-function
    call, where P = pi nu J_nu(x) H_nu(x) / (-i) (= 2 nu I_nu K_nu at
    x = i t R) is split as

      P = S_nu(x^2) + pi nu J_nu(x)^2 (i - cot nu pi)

    (DLMF 10.8.3 with Y_nu through J_{+-nu}; on the imaginary axis it reads
    2 nu I K = S_nu(-t^2 R^2) - pi nu I_nu^2 / sin nu pi).  Near an integer
    m the two parts share a pole that cancels in P, so where
    |pi nu J_nu^2 cot nu pi| may exceed 1 (bounded above through Stirling's
    lower bound on Gamma(1 + nu)) P is the Cauchy integral over the circle
    |zeta - m| = _CAUCHY_RADIUS, on which the split is well conditioned (P is
    entire in nu), by the trapezoid rule on _CAUCHY_NODES nodes; so is it
    where S meets its pole at an integer order.  An integer order past the
    series' terms whose J^2 bound is below 1e-30 keeps S alone, and the J^2
    part is skipped where it, and the pole it cancels, are below 1e-18.
    Returns (eps, certificate): the largest change of such an eps when
    every other node is dropped (0 if no order took the circle).
    """
    o = orders
    x = complex(x)
    s = x * x
    log_half = cmath.log(x / 2)
    # bound on |pi nu J_nu(x)^2| from Gamma(1 + nu) >= sqrt(2 pi nu) (nu/e)^nu
    j2_bound = 0.5 * np.exp(o.two_nu * math.log(np.e * abs(x) / 2)
                            - o.two_nu_log_nu + abs(s) * o.inv)
    near = o.positive & (j2_bound * o.cos > o.sin) & (j2_bound > 1e-30) | o.pole
    cert = 0.0
    if not near.any():
        P = _S(o.nu, s, o.den)
    else:
        P = np.empty(o.nu.shape, dtype=complex)
        P[~near] = _S(o.nu[~near], s, o.den[~near])
        centre = o.m[near]
        zeta = centre[:, None] + _DELTA
        # log Gamma(1 + m + delta) = log Gamma(1 + delta) + sum_{i<=m} log(i + delta)
        steps = np.cumsum(np.log(np.arange(1.0, centre.max() + 1)[:, None] + _DELTA),
                          axis=0)
        log_gamma = _LOG_GAMMA_NODES + steps[centre.astype(int) - 1]
        flat = zeta.ravel()
        Pz = (_S(flat, s)
              + _j2_part(flat, s, log_half, log_gamma.ravel(),
                         np.tile(_COT_DELTA, len(centre)))) \
            .reshape(zeta.shape) * _DELTA / (zeta - o.nu[near][:, None])
        P[near] = Pz.mean(axis=1)
        cert = float(np.max(np.abs(np.log(Pz[:, ::2].mean(axis=1) / P[near]))))
    with_j2 = np.flatnonzero(~near & (j2_bound * o.sin_cos > o.floor))
    if with_j2.size:
        P[with_j2] += _j2_part(o.nu[with_j2], s, log_half, o.log_gamma[with_j2],
                               o.cot[with_j2])
    # P = 2 nu I K > 0 on the imaginary axis
    return (-np.log(P.real) if pure_imag else -np.log(P)), cert


def _tail_start(kR):
    """N, the number of modes summed term by term: every order past
    nu_{N+1} = (N + 1) / (k R) is at least _NU_TAIL, where the tail bound of
    ``_tail`` holds for |x| <= _SERIES_X (it asks nu >= 4 |x|^2 + 2 and
    e |x| + 2).  Past _MAX_MODES it raises TruncationFailure."""
    N = math.ceil(_NU_TAIL * kR)
    if N > _MAX_MODES:
        raise TruncationFailure(
            f"the tail at k R = {kR} starts past {_MAX_MODES} modes")
    return N


@lru_cache(maxsize=1)
def _tail_coefficients():
    """E with -log S_{<K}(u) = sum_{q=1..Q} u^q sum_{p=1..Q} E[q-1, p-1] s^p
    + O(u^{Q+1}),
    where S_{<K}(u) = sum_{k<K} C(2k, k) (s u / 4)^k / prod_{j<=k} (1 - j^2 u)
    is S_nu(s) cut at K = _TAIL_TERMS terms, written in u = 1/nu^2, and
    Q = _TAIL_ORDER: power-series arithmetic in u with polynomial
    coefficients in s."""
    K, Q = _TAIL_TERMS, _TAIL_ORDER
    S = np.zeros((Q + 1, Q + 1))     # S[q, p]: coefficient of u^q s^p
    S[0, 0] = 1.0
    g = np.zeros(Q + 1)              # u^k / prod_{j<=k} (1 - j^2 u)
    g[0] = 1.0
    c = 1.0                          # C(2k, k) / 4^k
    for k in range(1, K):
        g = np.concatenate(([0.0], g[:-1]))
        for q in range(1, Q + 1):
            g[q] += k * k * g[q - 1]
        c *= (2 * k - 1) / (2 * k)
        S[:, k] += c * g
    L = np.zeros_like(S)             # log S, from S L' = S'
    for q in range(1, Q + 1):
        acc = q * S[q]
        for i in range(1, q):
            acc = acc - i * np.convolve(L[i], S[q - i])[:Q + 1]
        L[q] = acc / q
    E = -L[1:, 1:]                   # no u^q s^0 term: S = 1 at s = 0
    _read_only(E)
    return E


def _zeta_upper(sig, b, c):
    """Upper bound c^sig (b^-sig + b^(1-sig) / (sig - 1)) of
    sum_{n>=b} (c / n)^sig, b > 0."""
    return (c / b) ** sig * (1 + b / (sig - 1))


@lru_cache(maxsize=16)
def _tail_zeta(N, kR):
    """``_zeta_scaled`` at sig = 2, 4, .., 2Q, a = N + 1, c = k R: the
    same for every lambda of a cone whose tail starts at N."""
    zeta, rem = _zeta_scaled(2.0 * np.arange(1, _TAIL_ORDER + 1), N + 1.0, kR)
    _read_only(zeta, rem)
    return zeta, rem


_J2_MAJORANT = (1 + 1.1) * math.exp(math.pi) * math.cosh(math.pi / 2)


def _tail(s, kR, N):
    """(sum_{n>N} eps_n, bound on the error of that value) at s = (lambda R)^2.

    With u_n = 1/nu_n^2 = (k R / n)^2, the sum is

      sum_{q=1..Q} e_q(s) (k R)^{2q} zeta(2q, N + 1),

    e_q the coefficients of -log S_{<K} (``_tail_coefficients``) and zeta
    by ``_zeta_scaled``.  The bound adds, over every n > N:

    * R_n = P_n - S_{<K}(nu_n), by the maximum modulus on the circle
      |nu - m| = 1/2 around the nearest integer m, where P is split as in
      ``_series_eps`` and no order is within 1/2 of an integer: there
      |sum_{k>=K} T_k| <= C(2K, K) (|s|/4)^K / prod_{j<=K} (a^2 - j^2)
      / (1 - 2|s| / (a + K + 1)), a = nu_n - 1 (each later term is at most
      2|s| / (k + 1 + a) times the one before), and
      |pi nu J_nu^2 (i - cot nu pi)| <= 2.1 e^pi cosh(pi/2)
      max(1, |x|/2)^4 e^{|s| / (2(a+1))} (a + 2) / (2a) (e|x| / (2a))^{2a}
      (a <= Re nu <= a + 2 and |Im nu| <= 1/2 on the circle, DLMF 5.6.7 for
      1/|Gamma|, |cot| <= coth(pi/2) < 1.1 there, Stirling's lower bound on
      Gamma(1 + a)); this part falls at least 4-fold per unit of a, since
      a >= e|x|;
    * log P_n - log S_{<K} <= 2 |R_n| / (1 - sigma), sigma bounding
      |S_{<K} - 1| <= (1 - |s| / (nu^2 - K^2))^{-1/2} - 1;
    * the powers of u past Q, by Cauchy's estimate on |u| = rho =
      min(1 / (2 (K-1)^2), 1 / (4 |s|)), where |log S_{<K}| <=
      -log(2 - (1 - 2 |s| rho)^{-1/2});
    * the Euler-Maclaurin remainders of the zeta values.
    """
    K = _TAIL_TERMS
    sa = abs(s)
    e = _tail_coefficients() @ np.cumprod(np.full(_TAIL_ORDER, s))
    zeta, zeta_rem = _tail_zeta(N, kR)
    tail = e @ zeta
    nu1 = (N + 1) / kR
    a1 = nu1 - 1
    x_abs = math.sqrt(sa)
    coef_S = math.comb(2 * K, K) * (sa / 4) ** K / (1 - 2 * sa / (a1 + K + 1))
    # a power of 1/a1 underflows to 0 at a huge order, where a1's overflows
    first_S = coef_S * (1 / (a1 - K)) ** (2 * K)
    sum_S = coef_S * _zeta_upper(2 * K, N + 1 - kR * (1 + K), kR)
    first_J = _J2_MAJORANT * max(1.0, x_abs / 2) ** 4 \
        * math.exp(sa / (2 * (a1 + 1))) * (a1 + 2) / (2 * a1) \
        * (np.e * x_abs / (2 * a1)) ** (2 * a1)
    sum_J = first_J / (1 - 4.0 ** (-1 / kR))
    sigma = (1 - sa / (nu1 * nu1 - K ** 2)) ** -0.5 - 1
    if (first_S + first_J) / (1 - sigma) > 0.5:
        return tail, math.inf
    rho = 1 / max(2 * (K - 1) ** 2, 4 * sa)
    log_max = -math.log(2 - (1 - 2 * sa * rho) ** -0.5)
    cauchy = log_max / (1 - 1 / (nu1 * nu1 * rho)) \
        * _zeta_upper(2 * _TAIL_ORDER + 2, N + 1, kR / math.sqrt(rho))
    bound = 2 * (sum_S + sum_J) / (1 - sigma) + cauchy \
        + float(np.abs(e) @ zeta_rem)
    return tail, bound


def detzeta_N_model(cone: ConeCircle, lam):
    """log of the zeta-regularized determinant of the Neumann jump operator
    on the model cone at spectral parameter lambda (Im lambda > 0 for real
    values; real lambda gives the analytically continued complex log-det).

    The mode sum subtracts the large-n asymptotic log(2 nu_n / R) whose
    zeta-regularized value is restored in closed form from
    zeta_R(0) = -1/2, zeta_R'(0) = -(1/2) log(2 pi):

      log det N(lambda) = log mu_0 + log(pi k R^2) + 2 sum_{n>=1} eps_n,
      eps_n = log(mu_n k R^2 / (2 n)) = -log P_n.

    Defined for Im lambda >= 0 and 0 < |lambda R| <= _SERIES_X (DomainError
    otherwise), the small-lambda range the gluing constants are read from.
    The first N modes (``_tail_start``) are summed term by term, each P_n by
    the product split of ``_series_eps`` and mu_0 by the series of
    ``jump_eigenvalue``, so no SciPy call is made.  The modes n > N are summed in closed form by
    ``_tail``, whose error bound must stay below ``_TAIL_TOL``
    (TruncationFailure otherwise).  Returns (log_det, diagnostics): "modes"
    is N, "tail_bound" the bound, "series_x" the range _SERIES_X, and
    "near_integer_certificate" that of ``_series_eps``.
    """
    lam = _spectral_parameter(lam)
    pure_imag = _on_imag_axis(lam)
    kR = cone.k * cone.R
    # x on the imaginary axis is exactly i t R, so that s = -(t R)^2
    x = 1j * lam.imag * cone.R if pure_imag else lam * cone.R
    if not abs(x) <= _SERIES_X:
        raise DomainError(
            f"the mode sum needs |lambda R| <= {_SERIES_X}, got {abs(x):.6g}")
    mu0 = jump_eigenvalue(0, cone, lam)
    N = _tail_start(kR)
    eps, cert = _series_eps(_cone_orders(kR, N), x, pure_imag)
    tail, bound = _tail((x * x).real if pure_imag else x * x, kR, N)
    if not bound <= _TAIL_TOL:
        raise TruncationFailure(
            f"mode-sum tail bound {bound:.2e} > {_TAIL_TOL}")
    log_det = np.log(mu0) + np.log(np.pi * cone.k * cone.R ** 2) \
        + 2 * (np.sum(eps) + tail)
    diag = {
        "mu0": complex(mu0),
        "tail": complex(tail),
        "modes": N,
        "tail_bound": bound,
        "series_x": _SERIES_X,
        "near_integer_certificate": cert,
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
    y, x, sharp = [], [], []
    for lm in 1j * ts:
        mu0 = dtn_exterior_eigenvalue(0, cone, lm)
        L = np.log(lm)
        y.append(mu0 * (-cone.R * L))
        x.append(1.0 / L)
        sharp.append(-1.0 / (cone.R * mu0) - L)
    y = np.array(y)
    V = np.vander(np.array(x), 3, increasing=True)
    sol, _, rank, _ = np.linalg.lstsq(V, y, rcond=None)
    if rank < 3:
        raise FitUnstable("mu0 regression is rank deficient")
    subleading_sharp = complex(sharp[-1])
    pi_gamma_half, gamma_cand = _mu0_candidates(cone.R)
    d_pgh = abs(subleading_sharp - pi_gamma_half)
    d_gamma = abs(subleading_sharp - gamma_cand)
    return {
        "leading": complex(sol[0]),
        "subleading": complex(-sol[1]),
        "subleading_sharp": subleading_sharp,
        "residual": float(np.max(np.abs(V @ sol - y))),
        "candidate_pi_gamma_half": complex(pi_gamma_half),
        "candidate_gamma": complex(gamma_cand),
        "dist_pi_gamma_half": float(d_pgh),
        "dist_gamma": float(d_gamma),
        "selected": "gamma" if d_gamma < d_pgh else "pi_gamma_half",
        "lambda_min": complex(1j * ts.min()),
    }


def spectral_shift_asymptotic(circles, exponents=range(2, 8)):
    """Spectral-shift leading law: xi(lambda) = pi^{-1} Arg det N(lambda + i0)
    fitted against 1 / log(lambda^2) along lambda = 10^-j.

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
    if min(exponents, default=1) < 1:
        raise DomainError("the shift fit samples lambda = 10^-j < 1: j >= 1")
    lams = np.array([10.0 ** (-j) for j in exponents])
    xi, log_dets = [], []
    for lm in lams:
        per_cone = [detzeta_N_model(c, complex(lm))[0] for c in circles]
        for log_det in per_cone:
            if abs(log_det.imag) > np.pi:
                raise PhaseUnwrappingFailure(
                    f"unexpectedly large determinant phase {log_det.imag:.3f}")
        log_det = sum(per_cone[1:], per_cone[0])
        log_dets.append(log_det)
        xi.append(log_det.imag / np.pi)
    xi = np.array(xi)
    V = np.vander(1.0 / np.log(lams ** 2), 2, increasing=True)
    sol, _, rank, _ = np.linalg.lstsq(V, xi, rcond=None)
    if rank < 2:
        raise FitUnstable("spectral-shift regression is rank deficient")
    return {
        "leading": float(sol[1]),
        "expected": float(len(circles)),
        "samples": {float(l): float(v) for l, v in zip(lams, xi)},
        "residual": float(np.max(np.abs(V @ sol - xi))),
    }, log_dets


def dtn_table(cone: ConeCircle, lam_values, n_values):
    """((n, lambda, mu_n) rows for CSV emission, the worst ``_k_ratio``
    certificate over them: 0 where only the series was used)."""
    rows = [(int(n), complex(lm), *_dtn_exterior(n, cone, lm))
            for lm in lam_values for n in n_values]
    return [r[:3] for r in rows], max((r[3] for r in rows), default=0.0)
