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
_BLOCK = 1 << 15    # lambda-mode pairs of one pass of detzeta_N_model
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
        if not 1 <= self.k <= 1.7976931348623157e308:    # the largest float
            raise DomainError("cone order k must be a positive integer in the float range")
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
# (sig)_1 .. (sig)_13 at the orders sig = 2 .. 31 that _zeta_scaled is taken at
_POCHHAMMER = np.cumprod(np.arange(2.0, 32.0)[:, None] + np.arange(13.0), axis=1)


def _zeta_scaled(sig, a, c):
    """c^sig zeta(sig, a) = sum_{n>=0} (c / (a + n))^sig for an array of
    integer sig in 2 .. 31 and a, c > 0: 8 terms summed, then Euler-Maclaurin
    (DLMF 2.10.1) with B_2 .. B_12, whose (sig)_1 .. (sig)_13 are tabled once.
    Returns (values, remainder bounds); each bound is the first omitted term,
    which bounds the remainder since every derivative of n^-sig keeps one sign."""
    poch = _POCHHAMMER[sig.astype(int) - 2]
    direct = ((c / (a + _ZETA_DIRECT)) ** sig[:, None]).sum(axis=1)
    b = a + len(_ZETA_DIRECT)
    cb = (c / b) ** sig
    em = b / (sig - 1) + 0.5 + (poch[:, 0:12:2] * _EM_B * b ** _EM_POW).sum(axis=1)
    return direct + cb * em, cb * _EM_NEXT * poch[:, 12] * b ** -13.0


_KS = np.arange(1.0, _SERIES_TERMS + 1)
# the term ratios' factors, -C(2k,k) / (4 C(2k-2,k-1)) of S and -1/4 of J_nu
_FACTORS = np.array([(1 - 2 * _KS) / (2 * _KS), np.full(_SERIES_TERMS, -0.25)]).T


def _series(ratios):
    """1 + t_1 + .. + t_12, the cumulative products of the term ratios down
    the first axis, summed as (A_1 + A_2) + (A_3 + A_4), A_j = t_j + t_{j+4} +
    t_{j+8} (NumPy's order along twelve complex terms).  Complex ratios take
    np.cumprod (unfused products); real ones the same products in place, a
    term at a time, far faster down a long axis: to the bit the real parts of
    the complex route."""
    if np.iscomplexobj(ratios):
        ratios = ratios.cumprod(axis=0)
    else:
        for prev, row in zip(ratios, ratios[1:]):
            row *= prev
    a = ratios[0:4] + ratios[4:8] + ratios[8:12]
    return 1.0 + ((a[0] + a[1]) + (a[2] + a[3]))


def _j2_part(series, log_half, orders):
    """pi nu J_nu(x)^2 (i - cot nu pi) from the J_nu series, log(x/2) and
    ``orders`` = (2 nu, 2 log Gamma(1 + nu), pi nu, i - cot nu pi), nu not an integer."""
    two_nu, two_log_gamma, pi_nu, i_cot = orders
    return pi_nu * np.exp(two_nu * log_half - two_log_gamma) * series ** 2 * i_cot


_DELTA = _CAUCHY_RADIUS * np.exp(2j * np.pi * np.arange(_CAUCHY_NODES)
                                 / _CAUCHY_NODES)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


class _Orders:
    """The orders nu_n = n / (k R), n = 1..N, of a cone with all that
    ``_series_eps`` and ``_tail`` need of them alone (shared, read-only): the
    reciprocal term-ratio denominators of S, then of J_nu up to the last order
    that can take the J^2 part, ``_j2_part``'s orders, the J^2 thresholds and
    the tail's weights."""

    def __init__(self, kR, N):
        nu = self.nu = np.arange(1, N + 1) / kR
        self.m = np.rint(nu)
        d = np.pi * (nu - self.m)
        signed_sin, signed_cos = np.sin(d), np.cos(d)
        sin, cos = np.abs(signed_sin), np.abs(signed_cos)
        exact, positive = sin == 0, self.m >= 1
        # S's ratios are 0 at its poles, integer orders up to _SERIES_TERMS (the
        # circle takes those), and past nu ~ 1e150 (S = 1, nu^2 overflows)
        pole = exact & (self.m <= _SERIES_TERMS)
        nu_S = np.where(pole | (nu > 1e150), np.inf, nu)
        two_nu = self.two_nu = 2 * nu
        two_nu_log_nu, self.inv = two_nu * np.log(nu), 1 / (2 * (nu + 1))
        # J^2 bound exp(e - 2 nu log nu) / 2 past |tan pi (nu - m)| and 1e-30:
        # the circle (a pole always); past 1e-18 |sin| / (|sin| + |cos|): the
        # J^2 part, which e at |x| = _SERIES_X, the largest, bounds to the first n
        self.near_at = two_nu_log_nu + np.where(pole, -np.inf, np.where(
            positive, np.log(2 * np.maximum(sin / cos, 1e-30)), np.inf))
        self.j2_at = two_nu_log_nu + np.where(exact, np.inf, np.log(
            2e-18 * np.where(exact, 1.0, sin) / (sin + cos)))
        take = np.flatnonzero(two_nu * math.log(np.e * _SERIES_X / 2)
                              + _SERIES_X ** 2 * self.inv + 1 > self.j2_at)
        n = take[-1] + 1 if take.size else 0
        log_gamma = np.array([math.lgamma(1 + v) for v in nu[:n].tolist()])
        # 1 / the term-ratio denominators of S_nu(s) = sum_k C(2k, k) (-s/4)^k /
        # prod_{j<=k} (j^2 - nu^2), k - nu exact near k for the pole terms, and of
        # J_nu(x) (x/2)^-nu Gamma(1 + nu) (complex / real is that product)
        k = _KS[:, None]
        self.inv_den = 1 / np.concatenate([(k - nu_S) * (k + nu_S), k * (nu[:n] + k)], 1)
        self.j2 = (two_nu[:n], 2 * log_gamma, np.pi * nu[:n],
                   1j - signed_cos[:n] / np.where(exact, 1.0, signed_sin)[:n])
        # ``_tail``'s weights of s^p, sum_q E[q-1, p-1] zeta_q, and of |s|^p in
        # its bound, sum_q |E[q-1, p-1]| r_q (``_zeta_scaled``)
        zeta, rem = _zeta_scaled(2.0 * np.arange(1, _TAIL_ORDER + 1), N + 1.0, kR)
        self.tail = (zeta @ _tail_coefficients(), rem @ np.abs(_tail_coefficients()),
                     _zeta_upper(2 * _TAIL_TERMS, N + 1 - kR * (1 + _TAIL_TERMS), kR))
        _read_only(*self.j2, *self.tail[:2], *(a for a in vars(self).values()
                                             if isinstance(a, np.ndarray)))


_cone_orders = lru_cache(maxsize=8)(_Orders)


@lru_cache(maxsize=32)
def _circles(centres):
    """The nodes zeta of the circles |zeta - m| = _CAUCHY_RADIUS, a row per m in
    ``centres``, with the term-ratio denominators and ``_j2_part``'s orders there."""
    centre, j, k = np.array(centres), np.arange(2.0, 32.0), _KS[:, None]
    zeta = centre[:, None] + _DELTA
    # log Gamma(1 + m + delta) = log Gamma(1 + delta) + sum_{i<=m} log(i + delta),
    # the first -gamma delta + sum_{j>=2} zeta(j) (-delta)^j / j (DLMF 5.7.3)
    log_gamma = -EULER_GAMMA * _DELTA + ((-_DELTA[:, None]) ** j
                                         * (_zeta_scaled(j, 1.0, 1.0)[0] / j)).sum(axis=1)
    log_gamma = log_gamma + np.cumsum(np.log(np.arange(1.0, centre.max() + 1)[:, None]
                                             + _DELTA), axis=0)[centre.astype(int) - 1]
    flat = zeta.ravel()
    nodes = (zeta, (k - flat) * (k + flat), k * (flat + k), 2 * flat,
             2 * log_gamma.ravel(), np.pi * flat,
             1j - np.tile(np.cos(np.pi * _DELTA) / np.sin(np.pi * _DELTA), len(centre)))
    _read_only(*nodes)
    return nodes


def _series_eps(orders, xs, pure_imag):
    """eps_n = -log P_n at the ``_Orders`` given, for x on one axis
    (``pure_imag``), with no Bessel-function call, where P = pi nu J_nu(x)
    H_nu(x) / (-i) (= 2 nu I_nu K_nu at x = i t R) is split as

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
    S at every order and the J_nu series up to the last order that can take
    the J^2 part are one (term, x, order) pass.  Returns eps (len(xs) x N) and
    per x the largest change of a circle's eps as every other node is dropped
    (0 if no order took the circle).
    """
    o = orders
    s = [v * v for v in xs]
    log_half = [cmath.log(v / 2) for v in xs]
    # |pi nu J_nu(x)^2| <= exp(e - 2 nu log nu) / 2, by Gamma(1 + nu) >=
    # sqrt(2 pi nu) (nu/e)^nu
    log_x, abs_s = np.array([[math.log(np.e * abs(v) / 2) for v in xs],
                             [abs(v) for v in s]])[:, :, None]
    e = o.two_nu * log_x + abs_s * o.inv
    near = e > o.near_at
    with_j2 = ~near & (e > o.j2_at)
    N, n = len(o.nu), len(o.j2[0])
    s_log_half = np.array([s, log_half])
    s_row = s_log_half[0] if any(v.imag for v in s) else s_log_half[0].real
    # s times the factors of S and of J_nu, one column each, over their rows
    ratios = np.repeat(s_row[:, None] * _FACTORS[:, None], (N, n), axis=2)
    ratios *= o.inv_den[:, None]
    series = _series(ratios)
    # P = 2 nu I K > 0 on the imaginary axis, where s is real: the real
    # parts alone, to the bit those of the complex route
    P = series[:, :N] if pure_imag else series[:, :N].astype(complex)
    cert = [0.0] * len(xs)
    for i in np.flatnonzero(near.any(axis=1)) if near.any() else ():
        row = near[i]
        zeta, S_den, J_den, *j2 = _circles(tuple(o.m[row].tolist()))
        Pz = (_series(s[i] * _FACTORS[:, :1] / S_den)
              + _j2_part(_series(s[i] * -0.25 / J_den), log_half[i], j2)) \
            .reshape(zeta.shape) * _DELTA / (zeta - o.nu[row][:, None])
        Pm = Pz.mean(axis=1)
        P[i, row] = Pm.real if pure_imag else Pm
        cert[i] = float(np.max(np.abs(np.log(Pz[:, ::2].mean(axis=1) / Pm))))
    if n:
        j2 = _j2_part(series[:, N:], s_log_half[1, :, None], o.j2)
        np.add(P[:, :n], j2.real if pure_imag else j2, out=P[:, :n], where=with_j2[:, :n])
    return -np.log(P), cert


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


_J2_MAJORANT = (1 + 1.1) * math.exp(math.pi) * math.cosh(math.pi / 2)


def _tail(s, kR, N):
    """(sum_{n>N} eps_n, bound on the error of that value), a list each, at
    a list of s = (lambda R)^2.  With u_n = 1/nu_n^2 = (k R / n)^2, the sum is

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
    * the Euler-Maclaurin remainders r_q of the zeta values, through
      |e_q(s)| <= sum_p |E[q-1, p-1]| |s|^p.
    """
    w, v, sum_S = _cone_orders(kR, N).tail
    powers = np.repeat(np.array(s)[:, None], _TAIL_ORDER, axis=1).cumprod(axis=1)
    K, nu1, sum_J = _TAIL_TERMS, (N + 1) / kR, 1 / (1 - 4.0 ** (-1 / kR))
    a1, bounds = nu1 - 1, []
    for sa, zeta_rem in zip(map(abs, s), (np.abs(powers) * v).sum(axis=1).tolist()):
        coef_S = math.comb(2 * K, K) * (sa / 4) ** K / (1 - 2 * sa / (a1 + K + 1))
        first_J = _J2_MAJORANT * max(1.0, math.sqrt(sa) / 2) ** 4 \
            * math.exp(sa / (2 * (a1 + 1))) * (a1 + 2) / (2 * a1) \
            * (np.e * math.sqrt(sa) / (2 * a1)) ** (2 * a1)
        # a power of 1/a1 underflows to 0 at a huge order, where a1's overflows
        first = coef_S * (1 / (a1 - K)) ** (2 * K) + first_J
        # sigma = (1 - u)^{-1/2} - 1 and log_max, without cancellation
        sigma = math.expm1(-0.5 * math.log1p(-sa / (nu1 * nu1 - K ** 2)))
        rho = 1 / max(2 * (K - 1) ** 2, 4 * sa)
        log_max = -math.log1p(-math.expm1(-0.5 * math.log1p(-2 * sa * rho)))
        bounds.append(math.inf if first / (1 - sigma) > 0.5 else
                      2 * (coef_S * sum_S + first_J * sum_J) / (1 - sigma) + zeta_rem
                      + log_max / (1 - 1 / (nu1 * nu1 * rho))
                      * _zeta_upper(2 * _TAIL_ORDER + 2, N + 1, kR / math.sqrt(rho)))
    return (powers * w).sum(axis=1).tolist(), bounds


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
    ``jump_eigenvalue``, so no SciPy call is made.  The modes n > N are
    summed in closed form by ``_tail``, whose error bound must stay below
    ``_TAIL_TOL`` (TruncationFailure naming the lambda otherwise).

    ``lam`` is a scalar or an array; the lambda on each axis are one pass
    (more if they hold over _BLOCK lambda-modes), equal to the bit to one
    call per lambda.  Returns (log_det, diagnostics): log_det, "mu0", "tail",
    "tail_bound" and "near_integer_certificate" shaped like ``lam`` (Python
    numbers for a scalar), "modes" N and "series_x".
    """
    lam = np.asarray(lam)
    lams = [_spectral_parameter(v) for v in lam.ravel().tolist()]
    kR, N = cone.k * cone.R, _tail_start(cone.k * cone.R)
    log_area = np.log(np.pi * cone.k * cone.R ** 2) if cone.R > 1e-150 \
        else np.log(np.pi * cone.k) + 2 * np.log(cone.R)   # R^2 underflows
    rows, groups, step = [None] * len(lams), {}, max(1, _BLOCK // N)
    for i, v in enumerate(lams):
        # x on the imaginary axis is exactly i t R, so that s = -(t R)^2
        axis = _on_imag_axis(v)
        x = 1j * v.imag * cone.R if axis else v * cone.R
        if not abs(x) <= _SERIES_X:
            raise DomainError(f"the mode sum needs |lambda R| <= {_SERIES_X}, "
                              f"got {abs(x):.6g} at lambda = {v}")
        groups.setdefault(axis, []).append((i, x))
    for axis, group in groups.items():
        for j in range(0, len(group), step):
            block, x = zip(*group[j:j + step])
            tail, bound = _tail([(v * v).real if axis else v * v for v in x], kR, N)
            for i, b in zip(block, bound):
                if not b <= _TAIL_TOL:
                    raise TruncationFailure(f"mode-sum tail bound {b:.2e} > "
                                            f"{_TAIL_TOL} at lambda = {lams[i]}")
            eps, cert = _series_eps(_cone_orders(kR, N), x, axis)
            for i, e, t, b, c in zip(block, eps.sum(axis=-1).tolist(), tail, bound, cert):
                mu0 = jump_eigenvalue(0, cone, lams[i])
                rows[i] = (complex(np.log(mu0) + log_area + 2 * (e + t)), complex(mu0),
                           complex(t), b, c)
    log_det, mu0, tail, bound, cert = rows[0] if not lam.ndim else (
        np.array(c, k).reshape(lam.shape) for c, k in
        zip(zip(*rows) if rows else [()] * 5, (complex,) * 3 + (float,) * 2))
    return log_det, {"mu0": mu0, "tail": tail, "modes": N, "tail_bound": bound,
                     "series_x": _SERIES_X, "near_integer_certificate": cert}


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
    # the two closed-form candidates for the subleading constant, differing
    # in whether the Euler-constant term carries a pi/2 factor
    pi_gamma_half = np.log(cone.R / 2.0) + np.pi * EULER_GAMMA / 2.0 - 1j * np.pi / 2.0
    gamma_cand = np.log(cone.R / 2.0) + EULER_GAMMA - 1j * np.pi / 2.0
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
    """(fit, log_dets, mode_sums): :func:`spectral_shift_asymptotic`'s report,
    the sampled ln det N (summed over the cones), and the worst "tail_bound"
    and "near_integer" of the mode sums (one per cone), their "modes" summed."""
    if isinstance(circles, ConeCircle):
        circles = [circles]
    if min(exponents, default=1) < 1:
        raise DomainError("the shift fit samples lambda = 10^-j < 1: j >= 1")
    lams = np.array([10.0 ** (-j) for j in exponents])
    log_dets, diags = zip(*(detzeta_N_model(c, lams) for c in circles))
    phases = np.array([log_det.imag for log_det in log_dets]).T  # (sample, cone)
    if (np.abs(phases) > np.pi).any():
        raise PhaseUnwrappingFailure("unexpectedly large determinant phase "
                                     f"{phases[np.abs(phases) > np.pi][0]:.3f}")
    total = sum(log_dets[1:], log_dets[0])
    xi = total.imag / np.pi
    V = np.vander(1.0 / np.log(lams ** 2), 2, increasing=True)
    sol, _, rank, _ = np.linalg.lstsq(V, xi, rcond=None)
    if rank < 2:
        raise FitUnstable("spectral-shift regression is rank deficient")
    return {
        "leading": float(sol[1]),
        "expected": float(len(circles)),
        "samples": {float(l): float(v) for l, v in zip(lams, xi)},
        "residual": float(np.max(np.abs(V @ sol - xi))),
    }, [complex(v) for v in total], {
        "tail_bound": max(np.max(d["tail_bound"]).item() for d in diags),
        "near_integer": max(np.max(d["near_integer_certificate"]).item() for d in diags),
        "modes": sum(d["modes"] for d in diags)}


def dtn_table(cone: ConeCircle, lam_values, n_values):
    """((n, lambda, mu_n) rows for CSV emission, the worst ``_k_ratio``
    certificate over them: 0 where only the series was used)."""
    rows = [(int(n), complex(lm), *_dtn_exterior(n, cone, lm))
            for lm in lam_values for n in n_values]
    return [r[:3] for r in rows], max((r[3] for r in rows), default=0.0)
