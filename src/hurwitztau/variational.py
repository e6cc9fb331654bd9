"""Numerical verification of the variational identities.

Rauch formulas for the period matrix, the det Im B variation, the governing
system for ln tau (finite differences against the residue of the
projective-connection difference in the distinguished chart), the
zero-energy S-matrix block at a conical point, and the chained
Schiffer-connection identity.

All identity checks return signed discrepancies; tolerance policy lives in
the callers/tests.  Every contour integral around a simple branch point is
read as its residue, with the certificate of the data it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curves import HyperellipticCurve
from .errors import WrongOrder
from .specfun import _rat_derivs
from .taufn import RationalCoverP1, tau_genus0, tau_genus1, tau_genus2

__all__ = [
    "ContourIntegralResult",
    "SMatrixBlock",
    "rauch_contour",
    "rauch_check",
    "det_imB_derivative",
    "vardwa_rhs_genus0",
    "vardwa_rhs_curve",
    "varodin_rhs_curve",
    "smatrix_hh_zero",
    "clue_identity_check",
    "CubicFamily",
    "dln_tau_genus1_fd",
    "dln_tau_genus2_fd",
]


@dataclass
class ContourIntegralResult:
    """A contour integral read as its residue, and its data's certificate;
    ``radius`` and ``nodes`` are those of its H-Taylor torus (0 if none)."""

    value: complex
    certificate: float
    radius: float = 0.0
    nodes: int = 0


@dataclass
class SMatrixBlock:
    """Zero-energy S-matrix data at a 4 pi cone (ell = 2).

    ``hh`` is the 1 x 1 holomorphic-holomorphic block at the exponent
    nu = 1/2; ``ha_diag`` the Bergman-kernel companion entry.
    """

    hh: np.ndarray
    ha_diag: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def symmetry_defect(self):
        return float(np.max(np.abs(self.hh - self.hh.T)))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

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
    """d B / d z_m by the Rauch formula, oint v_a v_b / df around branch
    point m, read as its residue: in the distinguished chart df = 2x dx, so
    the integrand is v_a(x) v_b(x) / (2x) dx and the value is
    pi i v_a(0) v_b(0), v(0) = ``branch_data(m).v_lead``.  Returns (matrix,
    certificate), the certificate being the period certificate of the
    ``coef`` that v_lead reads."""
    v = curve.branch_data(m).v_lead
    return np.pi * 1j * np.outer(v, v), curve.period_certificate


def rauch_check(curve_factory, base_points, m, alpha, beta, h=1e-5):
    """Contour route versus central finite difference of the period matrix.

    ``curve_factory(points)`` builds the curve; returns a dict with both
    values and the signed discrepancy.
    """
    curve = curve_factory(base_points)
    contour, cert = rauch_contour(curve, m)

    def B_at(dz):
        return curve_factory(_moved(base_points, m, dz)).B.B

    fd = (B_at(h) - B_at(-h)) / (2 * h)
    return {
        "contour": complex(contour[alpha, beta]),
        "fd": complex(fd[alpha, beta]),
        "discrepancy": complex(contour[alpha, beta] - fd[alpha, beta]),
        "certificate": cert,
        "contour_matrix": contour,
        "fd_matrix": fd,
    }


def det_imB_derivative(curve_factory, base_points, m):
    """d/dz_m of ln det Im B three ways: the trace form tr(dB (Im B)^-1) / 2i
    of the Rauch residue, the residue of the contour form
    (1/2i) oint v^T (Im B)^-1 v / df, i.e. (pi/2) v^T (Im B)^-1 v at
    v = v_lead, and the Wirtinger finite difference (step 1e-5) of
    ln det Im B."""
    curve = curve_factory(base_points)
    Yi = curve.imB_inv()
    dB, cert = rauch_contour(curve, m)
    v = curve.branch_data(m).v_lead
    trace_route = complex(np.trace(dB @ Yi) / 2j)
    contour_route = complex(np.pi / 2 * (v @ Yi @ v))

    def lndet(dz):
        c = curve_factory(_moved(base_points, m, dz))
        return np.log(np.linalg.det(c.B.B.imag))

    fd_route, fd_antiholo = _wirtinger_fd(
        lndet, lambda plus, minus, h: (plus - minus) / (2 * h), 1e-5)
    return {
        "trace_route": trace_route,
        "contour_route": contour_route,
        "fd_route": complex(fd_route),
        "fd_antiholomorphic": complex(fd_antiholo),
        "certificate": cert,
    }


# ---------------------------------------------------------------------------
# governing-system right-hand sides
# ---------------------------------------------------------------------------

def vardwa_rhs_curve(curve, m):
    """-(1/12 pi i) oint (S_B - S_f)/df around branch point m, read as its
    residue.  In the distinguished chart x = (z - z_m)^(1/2), df = 2x dx and
    S_f = {z, x} = -3/(2 x^2), so the integrand is
    (S_B(x) + 3/(2 x^2)) / (2x) dx with S_B holomorphic inside the contour:
    the only residue is S_B(0)/2, and the value is -S_B(0)/12 = -H(0, 0)/2.
    H(0, 0) comes from the H-Taylor torus (:meth:`h_taylor_branch`, inside
    the chart radius ``radius``); ``certificate`` is its grid-doubling
    certificate and ``nodes`` its points per circle."""
    n_fft = 16
    H, cert = curve.h_taylor_branch(m, order=1, n_fft=n_fft)
    return ContourIntegralResult(complex(-H[0, 0] / 2.0), cert,
                                 curve.chart_radius(m), 2 * n_fft)


def vardwa_rhs_genus0(cover: RationalCoverP1, m):
    """Genus-0 governing contour -(1/12 pi i) oint -S_f(w) / f'(w) dw around
    the critical point w_m (S_B = 0 in the global w chart), read as its
    residue: with f = f(w_m) + a_2 t^2 + a_3 t^3 + a_4 t^4 + .., t = w - w_m,
    the value is (4 a_2 a_4 - 3 a_3^2) / (16 a_2^3), a_k = f^(k)(w_m) / k!
    from exact rational differentiation.  The certificate is the residual
    of f' at w_m, relative to the scale :func:`specfun.schwarzian` uses."""
    wm = cover.critical_points[m]
    num, den = _rat_derivs(cover.num, cover.den)
    scale = float(np.max(np.abs(num))) * max(1.0, abs(wm)) ** (len(num) - 1)
    resid = abs(npoly.polyval(wm, num)) / max(scale, 1e-300)
    a = []
    for factorial in (2, 6, 24):    # k! for k = 2, 3, 4
        num, den = _rat_derivs(num, den)
        a.append(npoly.polyval(wm, num) / npoly.polyval(wm, den) / factorial)
    a2, a3, a4 = a
    return ContourIntegralResult(
        complex((4 * a2 * a4 - 3 * a3 ** 2) / (16 * a2 ** 3)), resid)


def varodin_rhs_curve(curve, m):
    """Schiffer-connection form of the determinant variation at a simple
    branch point: the chain-consistent value -(1/12) S_Sch(0) in the
    distinguished chart.

    The chain identity that ``verify varodin`` gates (the contour form plus
    the det Im B variation) fixes the sign used in ``value``; the
    opposite-sign convention is reported alongside as ``sign_flipped``, and
    the grid certificate of the H-Taylor torus as ``h_taylor_certificate``.
    """
    s, cert = curve.schiffer_branch_origin(m)
    return {"value": -s / 12.0, "sign_flipped": s / 12.0,
            "schiffer_at_origin": s, "h_taylor_certificate": cert}


# ---------------------------------------------------------------------------
# S-matrix block at zero energy
# ---------------------------------------------------------------------------


def smatrix_hh_zero(curve, m, ell=2):
    """Zero-energy holomorphic-holomorphic S-matrix block at the cone over
    branch point m of a hyperelliptic curve.

    Every branch point is simple, so each cone has angle 4 pi (ell = 2) and
    the block is 1 x 1, at the exponent nu = 1/2:

      S^{hh}_{1/2,1/2}(0) = -H(0, 0) + pi sum_{ab} (Im B)^{-1}_{ab} v_a(0) v_b(0)

    in the distinguished chart.  Any other ``ell`` raises WrongOrder.
    """
    if ell != 2:
        raise WrongOrder(f"the S-matrix block is computed at 4 pi cones "
                         f"(ell = 2) only, got ell = {ell!r}")
    # order 2: the grid certificate also covers the first derivatives
    H, cert = curve.h_taylor_branch(m, order=2)
    vlead = curve.branch_data(m).v_lead
    hh = -H[0, 0] + np.pi * complex(vlead @ curve.imB_inv() @ vlead)
    return SMatrixBlock(hh=np.array([[hh]], dtype=complex),
                        ha_diag=np.array([curve.bergman_kernel(vlead)]),
                        diagnostics={"H00": complex(H[0, 0]),
                                     "h_taylor_certificate": cert})


def clue_identity_check(curve, m, ell=2):
    """LHS (1/2) S^{hh}_{1/2,1/2}(0) at the 4 pi cone versus the RHS
    -(1/12) S_Sch(0); signed discrepancy.  Both sides read H(0, 0) by one
    torus extraction from two independent kernels: the left side from the
    theta kernel (``h_taylor_branch``), the right side's S_B from the
    Klein-Baker kernel (``bergman_sb_branch``), which reads no theta
    function; ``klein_baker_certificate`` is the grid-doubling certificate
    of the latter.  Any ``ell`` other than 2 raises WrongOrder."""
    block = smatrix_hh_zero(curve, m, ell=ell)
    lhs = 0.5 * block.hh[0, 0]
    s_b, cert = curve.bergman_sb_branch(m)
    rhs = -(s_b - curve.schiffer_sb_term(curve.branch_data(m).v_lead)) / 12.0
    return {"lhs": complex(lhs), "rhs": complex(rhs),
            "discrepancy": complex(lhs - rhs), "block": block,
            "klein_baker_certificate": cert}


# ---------------------------------------------------------------------------
# moduli motion and finite differences of ln tau
# ---------------------------------------------------------------------------

class CubicFamily:
    """Monic centered cubics p = w^3 + a w + b, moved in their critical
    values.

    Each critical point w has w^2 = -a/3 and p(w) = b - 2 w^3, so the map
    (a, b) -> (z_0, z_1) inverts in closed form.  The labels m are those of
    RationalCoverP1.critical_points, the ones the contour side uses.
    """

    def __init__(self, a, b):
        self.a = complex(a)
        self.b = complex(b)

    def coeffs(self):
        return np.array([self.b, self.a, 0.0, 1.0], dtype=complex)

    def critical_points(self):
        """The labelled critical points w_0, w_1 (w^2 = -a/3)."""
        return RationalCoverP1(self.coeffs()).critical_points

    def critical_values(self):
        """Critical values ordered like RationalCoverP1.critical_points."""
        return self.b - 2.0 * self.critical_points() ** 3

    def move_critical_value(self, m, dz):
        """Coefficients (a, b) after moving z_m by dz with the other critical
        value z_o held fixed: b' = (z_m + dz + z_o) / 2 = b + dz / 2 and
        w_m'^3 = (z_o - z_m - dz) / 4 = w_m^3 - dz / 4, with w_m' the cube
        root nearest w_m and a' = -3 w_m'^2."""
        wm = self.critical_points()[m]
        roots = (wm ** 3 - dz / 4.0) ** (1.0 / 3.0) \
            * np.exp(2j * np.pi * np.arange(3) / 3.0)
        w = roots[np.argmin(np.abs(roots - wm))]
        return np.array([-3.0 * w ** 2, self.b + dz / 2.0], dtype=complex)

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
