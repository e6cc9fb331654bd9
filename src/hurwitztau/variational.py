"""Numerical verification of the variational identities.

Rauch formulas for the period matrix, the det Im B variation, the governing
system for ln tau (finite differences against distinguished-chart contour
integrals of the projective-connection difference), the zero-energy
S-matrix block at a conical point, the antidiagonal trace matrix, and the
chained Schiffer-connection identity.

All identity checks return signed discrepancies; tolerance policy lives in
the callers/tests.  Every contour integral carries a node-doubling
convergence certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curves import HyperellipticCurve, _trapezoid_doubling, h_taylor_torus
from .errors import (
    ContourTooLarge,
    DifferentiationUnstable,
    NonConvergence,
    WrongOrder,
)
from .taufn import RationalCoverP1, TauIngredients, tau_genus0, tau_genus1, tau_genus2

__all__ = [
    "ContourIntegralResult",
    "SMatrixBlock",
    "AMatrix",
    "rauch_contour",
    "rauch_check",
    "det_imB_derivative",
    "vardwa_rhs_genus0",
    "vardwa_rhs_curve",
    "varodin_rhs_curve",
    "varodin_rhs_genus0",
    "smatrix_hh_zero",
    "clue_identity_check",
    "amatrix",
    "trace_identity_check",
    "CubicFamily",
    "dln_tau_genus1_fd",
    "dln_tau_genus2_fd",
]


@dataclass
class ContourIntegralResult:
    value: complex
    radius: float
    nodes: int
    certificate: float


@dataclass
class SMatrixBlock:
    """Zero-energy S-matrix data at a 4 pi cone (ell = 2).

    ``hh`` is the 1 x 1 holomorphic-holomorphic block at the exponent
    nu = 1/2; ``ha_diag`` the Bergman-kernel companion entry where computed.
    """

    hh: np.ndarray
    ha_diag: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def symmetry_defect(self):
        return float(np.max(np.abs(self.hh - self.hh.T)))


@dataclass
class AMatrix:
    """Antidiagonal matrix a_{mu nu} = 4 pi mu c_mu nu c_nu (mu + nu = 1)."""

    ell: int
    entries: np.ndarray

    @staticmethod
    def build(ell):
        ell = int(ell)
        n = ell - 1
        A = np.zeros((n, n))
        for k in range(1, ell):
            mu = k / ell
            nu = 1.0 - mu
            # c_nu = 1 / (2 sqrt(nu ell pi)):  4 pi mu c_mu nu c_nu = sqrt(mu nu)/ell
            c_mu = 1.0 / (2 * np.sqrt(mu * ell * np.pi))
            c_nu = 1.0 / (2 * np.sqrt(nu * ell * np.pi))
            A[k - 1, ell - k - 1] = 4 * np.pi * mu * c_mu * nu * c_nu
        return AMatrix(ell=ell, entries=A)


def amatrix(ell):
    return AMatrix.build(ell)


def trace_identity_check(ell, block):
    """Tr(A S) from the antidiagonal matrix versus the direct weighted sum
    sum_{mu+nu=1} sqrt(mu) sqrt(nu) S_{mu nu}; both reported.

    With the coupling-coefficient normalization of the antidiagonal matrix
    the two routes differ by the uniform factor ell; the ratio is returned
    for the caller to record.
    """
    A = AMatrix.build(ell).entries
    S = np.asarray(block, dtype=complex)
    trace_route = complex(np.trace(A @ S))
    direct = 0.0 + 0.0j
    for k in range(1, ell):
        mu, nu = k / ell, (ell - k) / ell
        direct += np.sqrt(mu * nu) * S[k - 1, ell - k - 1]
    ratio = direct / trace_route if trace_route != 0 else np.nan
    return {"trace_route": trace_route, "direct_sum": complex(direct),
            "ratio": complex(ratio)}


# ---------------------------------------------------------------------------
# contour helpers
# ---------------------------------------------------------------------------

def _circle_contour(fun, radius, nodes, max_doublings=3, target=None):
    """Closed-contour integral of fun(x) dx over |x| = radius: the periodic
    doubling trapezoid of :func:`curves._trapezoid_doubling` in the angle,
    x = radius e^{i theta}, dx = i x dtheta."""
    def integrand(th):
        xs = radius * np.exp(1j * th)
        return fun(xs) * 1j * xs

    value, N, cert = _trapezoid_doubling(integrand, nodes, max_doublings,
                                         target)
    return ContourIntegralResult(value, radius, N, cert)


def _branch_contour_radius(curve, m):
    """Distinguished-chart radius pulled back from a base-plane radius equal
    to 0.1 times the distance to the nearest other critical value."""
    dmin = float(np.min(np.abs(np.delete(curve.e, m) - curve.e[m])))
    r = np.sqrt(0.1 * dmin)
    if r ** 2 >= dmin:
        raise ContourTooLarge("contour would enclose a second critical value")
    return r


def _genus0_base_radius(cover: RationalCoverP1, m):
    """Base-plane radius at critical point m of a genus-0 cover: 0.1 times
    the distance to the nearest other critical value (0.1 when there is
    none)."""
    zm = cover.critical_values[m]
    others = np.delete(cover.critical_values, m)
    return 0.1 * float(np.min(np.abs(others - zm))) if len(others) else 0.1


def _moved(points, m, dz):
    """The branch points with point m moved by dz."""
    pts = list(points)
    pts[m] = pts[m] + dz
    return pts


def _wirtinger_fd(at, diff, h):
    """Wirtinger derivatives (d/dz_m, d/dzbar_m) from central differences
    along the real and the imaginary axis: ``at(dz)`` evaluates at the
    configuration moved by dz, and ``diff(plus, minus, h)`` is the central
    difference of two such evaluations at +-d along d (d = h, then i h)."""
    dx = diff(at(h), at(-h), h)
    dy = diff(at(1j * h), at(-1j * h), h)
    return (dx - 1j * dy) / 2, (dx + 1j * dy) / 2


# ---------------------------------------------------------------------------
# Rauch and det Im B
# ---------------------------------------------------------------------------

def rauch_contour(curve, m):
    """Matrix of contour integrals (1/2 pi i) oint v_a v_b / df around branch
    point m, i.e. d B_{ab} / d z_m by the Rauch formula; with certificate
    (32 nodes, doubled until the certificate is below 1e-9, at most three
    times)."""
    r = _branch_contour_radius(curve, m)
    g = curve.g

    def entry_fun(a, b):
        def fun(xs):
            vx = curve.chart_nodes(m, xs, "v")
            return vx[:, a] * vx[:, b] / (2.0 * xs)
        return fun

    out = np.zeros((g, g), dtype=complex)
    cert = 0.0
    for a in range(g):
        for b in range(a, g):
            res = _circle_contour(entry_fun(a, b), r, 32, target=1e-9)
            out[a, b] = out[b, a] = res.value
            cert = max(cert, res.certificate)
    return out, cert, r


def rauch_check(curve_factory, base_points, m, alpha, beta, h=1e-5):
    """Contour route versus central finite difference of the period matrix.

    ``curve_factory(points)`` builds the curve; returns a dict with both
    values and the signed discrepancy.
    """
    curve = curve_factory(base_points)
    contour, cert, r = rauch_contour(curve, m)

    def B_at(dz):
        return curve_factory(_moved(base_points, m, dz)).B.B

    fd = (B_at(h) - B_at(-h)) / (2 * h)
    return {
        "contour": complex(contour[alpha, beta]),
        "fd": complex(fd[alpha, beta]),
        "discrepancy": complex(contour[alpha, beta] - fd[alpha, beta]),
        "certificate": cert,
        "radius": r,
        "contour_matrix": contour,
        "fd_matrix": fd,
    }


def det_imB_derivative(curve_factory, base_points, m):
    """d/dz_m of ln det Im B three ways: the trace form, the contour form,
    and the Wirtinger finite difference (step 1e-5) of ln det Im B."""
    curve = curve_factory(base_points)
    Yi = curve.imB_inv()
    dB, cert, r = rauch_contour(curve, m)
    trace_route = complex(np.trace(dB @ Yi) / 2j)

    def q_fun(xs):
        vx = curve.chart_nodes(m, xs, "v")
        return np.einsum("ni,ij,nj->n", vx, Yi, vx) / (2.0 * xs)

    res = _circle_contour(q_fun, r, 32, target=1e-9)
    contour_route = res.value / 2j

    def lndet(dz):
        c = curve_factory(_moved(base_points, m, dz))
        return np.log(np.linalg.det(c.B.B.imag))

    fd_route, fd_antiholo = _wirtinger_fd(
        lndet, lambda plus, minus, h: (plus - minus) / (2 * h), 1e-5)
    return {
        "trace_route": trace_route,
        "contour_route": complex(contour_route),
        "fd_route": complex(fd_route),
        "fd_antiholomorphic": complex(fd_antiholo),
        "certificate": max(cert, res.certificate),
    }


# ---------------------------------------------------------------------------
# governing-system right-hand sides
# ---------------------------------------------------------------------------

def schwarzian_chart_pullback(ell):
    """Coefficient c in {z, x} = c / x^2 for z = z_m + x^(ell+1)."""
    return -(ell * (ell + 2)) / 2.0


def vardwa_rhs_curve(curve, m):
    """-(1/12 pi i) oint (S_B - S_f)/df around branch point m, in the
    distinguished chart (simple branch points: ell = 1), on 24 nodes doubled
    once."""
    r = _branch_contour_radius(curve, m)
    coef = schwarzian_chart_pullback(1)

    def fun(xs):
        sb = curve.bergman_sb_branch(m, xs)
        sf = coef / xs ** 2
        return (sb - sf) / (2.0 * xs)

    res = _circle_contour(fun, r, 24, max_doublings=1)
    return ContourIntegralResult(
        -res.value / (12j * np.pi), res.radius, res.nodes, res.certificate
    )


def vardwa_rhs_genus0(cover: RationalCoverP1, m):
    """Genus-0 governing contour in the global w chart: S_B = 0 there, so the
    integrand is -S_f(w)/f'(w) dw around the critical point w_m (32 nodes,
    doubled once)."""
    wm = cover.critical_points[m]
    f2 = cover.f2(wm)
    r = np.sqrt(2.0 * _genus0_base_radius(cover, m) / abs(f2))

    from .specfun import schwarzian

    def fun(ws):
        return np.array([-schwarzian(cover.num, cover.den, wm + w)
                         / cover.fprime(wm + w) for w in ws])

    res = _circle_contour(fun, r, 32, max_doublings=1)
    return ContourIntegralResult(-res.value / (12j * np.pi), r, res.nodes,
                                 res.certificate)


def varodin_rhs_curve(curve, m):
    """Schiffer-connection form of the determinant variation at a simple
    branch point: the chain-consistent value -(1/12) S_Sch(0) in the
    distinguished chart.

    The chain identity (contour form plus the det Im B variation), anchored
    by the genus-0 closed forms, fixes the sign used in ``value``; the
    opposite-sign convention is reported alongside as ``sign_flipped``.
    """
    s = curve.schiffer_branch_origin(m)
    return {"value": -s / 12.0, "sign_flipped": s / 12.0,
            "schiffer_at_origin": s}


def varodin_rhs_genus0(cover: RationalCoverP1, m):
    """Genus-0 chain value: S_Sch = S_B in the distinguished chart x at the
    critical point (no holomorphic differentials)."""
    w_hat_x = _genus0_chart_w(cover, m)
    delta = 0.02 * np.sqrt(_genus0_base_radius(cover, m))

    def H(d):
        return w_hat_x(d, -d) - 1.0 / (2 * d) ** 2

    h1, h2 = H(delta), H(delta / 2)
    extrap = (4 * h2 - h1) / 3
    if abs(extrap - h2) > 1e-4 * max(1.0, abs(extrap)):
        raise DifferentiationUnstable("genus-0 H(0,0) extrapolation unstable")
    s = 6.0 * extrap
    return {"value": -s / 12.0, "sign_flipped": s / 12.0,
            "schiffer_at_origin": s}


def _genus0_chart_w(cover: RationalCoverP1, m):
    """Distinguished-chart W(x1, x2) at critical point m of a genus-0 cover,
    vectorised over the chart points: the global-chart double pole pulled
    back through w(x), the Newton solve of f(w) = z_m + x^2 seeded by the
    quadratic model."""
    wm = cover.critical_points[m]
    zm = cover.critical_values[m]
    f2 = cover.f2(wm)

    def w_of_x(x):
        w = wm + x * np.sqrt(2.0 / f2)
        active = np.ones(np.shape(x), dtype=bool)
        for _ in range(40):
            step = (cover.cover.f(w) - (zm + x * x)) / cover.fprime(w)
            w = np.where(active, w - step, w)
            active &= ~(np.abs(step) < 1e-14 * np.maximum(1.0, np.abs(w)))
            if not active.any():
                break
        return w

    def w_hat_x(x1, x2):
        w1, w2 = w_of_x(x1), w_of_x(x2)
        return (2 * x1 / cover.fprime(w1)) * (2 * x2 / cover.fprime(w2)) \
            / (w1 - w2) ** 2

    return w_hat_x


# ---------------------------------------------------------------------------
# S-matrix block at zero energy
# ---------------------------------------------------------------------------


def smatrix_hh_zero(target, m, ell=2):
    """Zero-energy holomorphic-holomorphic S-matrix block at the cone over
    critical point m.

    Every branch point of a hyperelliptic curve and every accepted critical
    point of a genus-0 cover is simple, so each cone has angle 4 pi
    (ell = 2) and the block is 1 x 1, at the exponent nu = 1/2:

      S^{hh}_{1/2,1/2}(0) = -H(0, 0) + pi sum_{ab} (Im B)^{-1}_{ab} v_a(0) v_b(0)

    in the distinguished chart.  ``target`` is a HyperellipticCurve (m = a
    branch point index) or a RationalCoverP1 (m = a critical point index,
    H from the global-chart pullback, no differential term).  Any other
    ``ell`` raises WrongOrder.
    """
    if ell != 2:
        raise WrongOrder(f"the S-matrix block is computed at 4 pi cones "
                         f"(ell = 2) only, got ell = {ell!r}")
    if isinstance(target, HyperellipticCurve):
        # order 2: the grid certificate also covers the first derivatives
        H, cert = target.h_taylor_branch(m, order=2)
        vlead = target.branch_data(m).v_lead
        hh = -H[0, 0] + np.pi * complex(vlead @ target.imB_inv() @ vlead)
        ha = np.array([target.bergman_kernel(vlead)])
    else:
        r0 = np.sqrt(_genus0_base_radius(target, m))
        # a single grid: the genus-0 pullback is exact, no certificate
        H, cert = h_taylor_torus(_genus0_chart_w(target, m), 0.3 * r0,
                                 0.21 * r0, 1, 16, certify=False)
        hh = -H[0, 0]
        ha = np.array([0.0 + 0.0j])
    return SMatrixBlock(hh=np.array([[hh]], dtype=complex), ha_diag=ha,
                        diagnostics={"H00": complex(H[0, 0]),
                                     "h_taylor_certificate": cert})


def clue_identity_check(target, m, ell=2):
    """LHS (1/2) S^{hh}_{1/2,1/2}(0) at the 4 pi cone versus the RHS
    -(1/12) S_Sch(0); signed discrepancy.  The RHS is computed through the
    diagonal H(x, x) limit, a numerically independent evaluation path.  Any
    ``ell`` other than 2 raises WrongOrder."""
    block = smatrix_hh_zero(target, m, ell=ell)
    lhs = 0.5 * block.hh[0, 0]
    # right side through the near-diagonal limit: numerically independent
    # of the Fourier extraction feeding the block
    if isinstance(target, HyperellipticCurve):
        s = target.schiffer_branch_origin_richardson(m)
    else:
        s = varodin_rhs_genus0(target, m)["schiffer_at_origin"]
    rhs = -s / 12.0
    return {"lhs": complex(lhs), "rhs": complex(rhs),
            "discrepancy": complex(lhs - rhs), "block": block}


# ---------------------------------------------------------------------------
# moduli motion and finite differences of ln tau
# ---------------------------------------------------------------------------

class CubicFamily:
    """Monic centered cubics p = w^3 + a w + b: Newton inversion of the map
    (a, b) -> (z_1, z_2) (critical values), so prescribed critical-value
    displacements become coefficient displacements."""

    def __init__(self, a, b):
        self.a = complex(a)
        self.b = complex(b)

    def coeffs(self):
        return np.array([self.b, self.a, 0.0, 1.0], dtype=complex)

    def critical_values(self, ab=None):
        """Critical values ordered like RationalCoverP1.critical_points."""
        from .taufn import _canonical_order

        a, b = ab if ab is not None else (self.a, self.b)
        s = np.sqrt(-a / 3.0)
        w = _canonical_order(np.array([s, -s], dtype=complex))
        return w ** 3 + a * w + b

    def move_critical_value(self, m, dz):
        """Coefficients (a, b) after moving z_m by dz with the other critical
        value held fixed (at most 8 Newton steps, Jacobian by central
        differences of step 1e-7)."""
        target = self.critical_values().astype(complex)
        target[m] += dz
        ab = np.array([self.a, self.b], dtype=complex)
        for _ in range(8):
            cur = self.critical_values(ab)
            r = cur - target
            if np.max(np.abs(r)) < 1e-13 * max(1.0, np.max(np.abs(target))):
                break
            J = np.zeros((2, 2), dtype=complex)
            for j in range(2):
                abp = ab.copy()
                abp[j] += 1e-7
                abm = ab.copy()
                abm[j] -= 1e-7
                J[:, j] = (self.critical_values(abp)
                           - self.critical_values(abm)) / 2e-7
            ab = ab - np.linalg.solve(J, r)
        else:
            raise NonConvergence("Newton inversion of the critical-value map")
        return ab

    def dln_tau_fd(self, m):
        """Wirtinger FD (step 1e-6) of ln tau (uniformizer route) under z_m
        motion."""
        def lt(dz):
            a, b = self.move_critical_value(m, dz)
            cover = RationalCoverP1(np.array([b, a, 0.0, 1.0], dtype=complex))
            return tau_genus0(cover)[1]

        return _wirtinger_fd(lt, lt(0.0).dlog_tau, 1e-6)


def dln_tau_genus1_fd(base_points, m, hub=None):
    """Wirtinger FD (step 1e-5) of ln tau (genus 1) under branch-point
    motion, via ingredient ratios with a shared hub."""
    base_points = [complex(p) for p in base_points]
    if hub is None:
        hub = HyperellipticCurve(base_points).hub

    def ing_at(dz):
        curve = HyperellipticCurve(_moved(base_points, m, dz), hub=hub)
        return tau_genus1(curve)[1]

    return _wirtinger_fd(ing_at, ing_at(0.0).dlog_tau, 1e-5)


def dln_tau_genus2_fd(base_points, m, zeta_z, hub=None):
    """Wirtinger FD (step 1e-5) of ln tau (genus 2) under branch-point
    motion; discrete choices frozen at the base configuration."""
    base_points = [complex(p) for p in base_points]
    base_curve = HyperellipticCurve(base_points, hub=hub)
    hub = base_curve.hub
    _, base_ing = tau_genus2(base_curve, zeta_z)

    def ing_at(dz):
        curve = HyperellipticCurve(_moved(base_points, m, dz), hub=hub)
        return tau_genus2(curve, zeta_z, frozen=base_ing.frozen)[1]

    return _wirtinger_fd(ing_at, base_ing.dlog_tau, 1e-5)
