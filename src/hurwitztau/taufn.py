"""Bergman tau-function evaluation in all three genus regimes.

Genus 0: biholomorphic-uniformizer product formula plus the two closed-form
families (monic polynomials; rational maps with three simple poles).
Genus 1: the Jacobi-theta product over distinguished-chart leading
coefficients.  Genus >= 2 (hyperelliptic, f = z): the theta-derivative /
prime-form expression assembled from the curve layer.

Every tau is defined only up to a moduli-independent constant; evaluations
therefore return an ingredient decomposition
    ln tau = sum_i c_i ln(u_i) + sum_j (additive terms)
so downstream checks can differentiate in moduli through ingredient ratios
without touching branch cuts of the fractional powers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curves import Genus0Cover, HyperellipticCurve
from .errors import (
    DegenerateCriticalPoint,
    DegenerateInput,
    DomainError,
    LatticeResolutionFailure,
    NormalizationFailure,
)
from .specfun import (
    _rat_derivs,
    poly_normalize,
    poly_roots,
    resultant,
    theta1_prime,
)

__all__ = [
    "TauValue",
    "TauIngredients",
    "DivisorData",
    "RationalCoverP1",
    "tau_polynomial",
    "tau_three_poles",
    "m_polynomial",
    "tau_genus0",
    "tau_genus1",
    "tau_genus2",
]


@dataclass
class TauValue:
    """Complex tau value with the normalization convention made explicit."""

    value: complex
    log_value: complex
    genus: int
    normalization_tag: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def log_abs(self):
        return float(self.log_value.real)


@dataclass
class TauIngredients:
    """ln tau = sum c_i ln(multiplicative_i) + sum additive_j.

    ``multiplicative`` maps name -> (coefficient, complex value);
    ``additive`` maps name -> complex value.  The frozen dict carries the
    discrete choices (lattice vectors, characteristic indices) that must be
    held fixed across finite-difference displacements.
    """

    multiplicative: dict
    additive: dict
    frozen: dict = field(default_factory=dict)

    def log_tau(self):
        out = 0.0 + 0.0j
        for _, (c, u) in self.multiplicative.items():
            out += c * np.log(u)
        for _, v in self.additive.items():
            out += v
        return complex(out)

    def dlog_tau(self, plus, minus, h):
        """Central-difference d ln tau / dz via ingredient ratios."""
        out = 0.0 + 0.0j
        for name, (c, u0) in self.multiplicative.items():
            up = plus.multiplicative[name][1]
            um = minus.multiplicative[name][1]
            out += c * (up - um) / (2 * h * u0)
        for name in self.additive:
            out += (plus.additive[name] - minus.additive[name]) / (2 * h)
        return complex(out)


@dataclass
class DivisorData:
    """Divisor of df: points p_k with orders d_k; degree must be 2g - 2."""

    orders: tuple
    genus: int

    def __post_init__(self):
        if sum(self.orders) != 2 * self.genus - 2:
            raise DegenerateInput(
                f"divisor degree {sum(self.orders)} != 2g-2 = {2*self.genus-2}"
            )


# ---------------------------------------------------------------------------
# Genus-0 closed forms
# ---------------------------------------------------------------------------

def tau_polynomial(coeffs):
    """Example family: monic degree-N polynomial cover.

    tau^24 = prod_k p''(w_k) over the N-1 simple critical points; the
    resultant route R(p', p'') equals the product route times the recorded
    constant lc(p')^(deg p'') = N^(N-2).
    """
    c = poly_normalize(coeffs)
    N = len(c) - 1
    if N < 2:
        raise DegenerateInput("polynomial degree must be >= 2")
    if abs(c[-1] - 1.0) > 1e-12:
        raise DegenerateInput("polynomial must be monic")
    dp = npoly.polyder(c)
    ddp = npoly.polyder(dp)
    wk, mult = poly_roots(dp)
    if np.any(mult > 1):
        raise DegenerateCriticalPoint("critical points must be simple")
    pdd = npoly.polyval(wk, ddp)
    if np.min(np.abs(pdd)) < 1e-12 * max(1.0, float(np.max(np.abs(pdd)))):
        raise DegenerateCriticalPoint("p'' vanishes at a critical point")
    prod_route = complex(np.prod(pdd))
    res_route = resultant(dp, ddp)
    const = float(N) ** (N - 2)
    tau24 = prod_route
    value = np.exp(np.log(tau24) / 24.0)
    return TauValue(
        value=value,
        log_value=np.log(tau24) / 24.0,
        genus=0,
        normalization_tag="tau24=prod p''(w_k); resultant route = N^(N-2) * product route",
        diagnostics={
            "product_route_tau24": prod_route,
            "resultant_route": res_route,
            "recorded_constant": const,
            "critical_points": wk,
        },
    )


def m_polynomial(a, b, c):
    """Closed-form cubic symmetric polynomial of the three-pole family."""
    return (a ** 3 + b ** 3 + c ** 3
            + 3 * a ** 2 * b + 3 * a ** 2 * c
            + 3 * b ** 2 * a + 3 * b ** 2 * c
            + 3 * c ** 2 * a + 3 * c ** 2 * b
            - 21 * a * b * c)


def _three_pole_fg(a, b, c):
    """r'(w) = f/g for r = a w - b/w - c/(w-1) + d."""
    w2 = np.array([0.0, 0.0, 1.0], dtype=complex)
    wm12 = npoly.polymul([-1.0, 1.0], [-1.0, 1.0]).astype(complex)
    f = npoly.polyadd(npoly.polyadd(a * npoly.polymul(w2, wm12), b * wm12), c * w2)
    g = npoly.polymul(w2, wm12)
    return f, g


def tau_three_poles(a, b, c):
    """Example family: rational maps with three simple poles (at inf, 0, 1).

    tau^24 = a^3 b^3 c^3 M(a, b, c)  (closed form), and equals the
    resultant route a b^4 c^4 R(f, f') / (16 R(f, g)) exactly, where
    r' = f / g.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if a == 0 or b == 0 or c == 0:
        raise DegenerateInput("pole coefficients a, b, c must be nonzero")
    f, g = _three_pole_fg(a, b, c)
    fp = npoly.polyder(f)
    wk, mult = poly_roots(f)
    if np.any(mult > 1):
        raise DegenerateCriticalPoint("critical points must be simple")
    m_route = a ** 3 * b ** 3 * c ** 3 * m_polynomial(a, b, c)
    res_route = a * b ** 4 * c ** 4 * resultant(f, fp) / (16.0 * resultant(f, g))
    tau24 = m_route
    return TauValue(
        value=np.exp(np.log(tau24) / 24.0),
        log_value=np.log(tau24) / 24.0,
        genus=0,
        normalization_tag="tau24 = a^3 b^3 c^3 M(a,b,c); resultant route recorded",
        diagnostics={
            "m_route_tau24": m_route,
            "resultant_route_tau24": res_route,
            "M": m_polynomial(a, b, c),
            "critical_points": wk,
        },
    )


# ---------------------------------------------------------------------------
# Genus 0, general uniformizer route
# ---------------------------------------------------------------------------

def _canonical_order(points):
    """Deterministic point ordering, stable under small perturbations of
    well-separated points (lexicographic by rounded real, then imag)."""
    if len(points) == 0:
        return points
    key = np.lexsort((points.imag, points.real))
    return points[key]


class RationalCoverP1:
    """Rational map f = num/den on the w-sphere with its end/critical data.

    Supported normalization: the designated end (infinity_1) is the pole at
    w = infinity (order deg num - deg den >= 1); the uniformizer U is then
    the linear polynomial part of f^(1/k_1).
    """

    def __init__(self, num, den=(1.0,)):
        self.num = poly_normalize(num)
        self.den = poly_normalize(den)
        self.cover = Genus0Cover(self.num, self.den)
        self.k_inf = len(self.num) - len(self.den)
        if self.k_inf < 1:
            raise NormalizationFailure(
                "designated end must be the pole at w = infinity"
            )
        # critical points: roots of num' den - num den' away from poles
        roots, mult = poly_roots(_rat_derivs(self.num, self.den)[0])
        crit = []
        for r, mm in zip(roots, mult):
            if abs(npoly.polyval(r, self.den)) < 1e-8:
                continue
            if mm > 1:
                raise DegenerateCriticalPoint("critical points must be simple")
            crit.append(complex(r))
        self.critical_points = _canonical_order(np.array(crit))
        self.critical_values = np.array([self.cover.f(w) for w in
                                         self.critical_points])
        # finite poles (simple only supported)
        if len(self.den) > 1:
            proots, pmult = poly_roots(self.den)
            if np.any(pmult > 1):
                raise NormalizationFailure("finite poles must be simple here")
            self.finite_poles = _canonical_order(proots)
        else:
            self.finite_poles = np.array([], dtype=complex)

        # U = linear part of f at infinity
        if self.k_inf == 1:
            q, _r = npoly.polydiv(self.num, self.den)
            if len(q) != 2:
                raise NormalizationFailure("expected a linear polynomial part")
            self.U_lin = (complex(q[1]), complex(q[0]))   # alpha w + beta
        else:
            if len(self.den) != 1:
                raise NormalizationFailure(
                    "higher-order end at infinity requires a polynomial map"
                )
            lc = self.num[-1] / self.den[0]
            N = self.k_inf
            alpha = lc ** (1.0 / N)
            beta = alpha * self.num[-2] / (N * lc) if len(self.num) >= 2 else 0.0
            self.U_lin = (alpha, complex(beta))

    def U_deriv(self):
        return self.U_lin[0]

    def f(self, w):
        return self.cover.f(w)

    def fprime(self, w):
        return self.cover.fprime(w)

    def f2(self, w):
        """Second derivative of f at w (exact rational differentiation)."""
        d2n, d2d = _rat_derivs(*_rat_derivs(self.num, self.den))
        return npoly.polyval(w, d2n) / npoly.polyval(w, d2d)

    def pole_residue(self, w_p):
        """Residue of f at a finite simple pole."""
        den1, rem = deflate(self.den, w_p)
        return npoly.polyval(w_p, self.num) / npoly.polyval(w_p, den1)


def deflate(poly, root):
    """poly = (w - root) * q + rem by synthetic division; returns (q, rem)."""
    c = np.asarray(poly, dtype=complex)[::-1]
    q = np.zeros(len(c) - 1, dtype=complex)
    acc = 0.0 + 0.0j
    for i, cc in enumerate(c[:-1]):
        acc = cc + acc * root if i else cc
        q[i] = acc
    rem = c[-1] + acc * root
    return q[::-1], rem


def tau_genus0(cover: RationalCoverP1):
    """Uniformizer-product tau for a genus-0 cover.

    tau = prod_{j >= 2} (dU/dzeta_j)^{(k_j+1)/12} / prod_m (dU/dx_m)^{l_m/12},
    with dU/dx_m = U'(w_m) sqrt(2 / f''(w_m)) at simple critical points and
    dU/dzeta_j = U'(w_p) Res_{w_p} f at finite simple poles.

    The square roots are stored as their squares with halved exponents so
    the ingredient list stays free of principal-branch cuts under moduli
    displacement (tau itself is defined up to a constant phase anyway).
    """
    mult = {}
    alpha = cover.U_deriv()
    n_poles = len(cover.finite_poles)
    n_crit = len(cover.critical_points)
    alpha_exp = 2.0 * n_poles / 12.0 - n_crit / 12.0
    if alpha_exp != 0.0:
        mult["U_slope"] = (alpha_exp, alpha)
    for j, wp in enumerate(cover.finite_poles):
        A = cover.pole_residue(wp)
        mult[f"pole_{j}"] = ((1 + 1) / 12.0, A)
    for m, wm in enumerate(cover.critical_points):
        f2 = cover.f2(wm)
        if abs(f2) < 1e-12:
            raise DegenerateCriticalPoint("f'' vanished at a critical point")
        mult[f"crit_{m}"] = (-1.0 / 24.0, 2.0 / f2)
    ing = TauIngredients(multiplicative=mult, additive={})
    lt = ing.log_tau()
    tv = TauValue(
        value=np.exp(lt),
        log_value=lt,
        genus=0,
        normalization_tag=(
            "uniformizer product, principal branches up to a constant phase"
        ),
        diagnostics={"U_linear": cover.U_lin},
    )
    return tv, ing


# ---------------------------------------------------------------------------
# Genus 1
# ---------------------------------------------------------------------------

def tau_genus1(curve: HyperellipticCurve):
    """Theta-product tau for a genus-1 hyperelliptic cover (f = z).

    tau = theta_1'(0 | B)^(2/3) * prod_j h_j^(1/6) / prod_m f_m^(1/12) with
    f_m, h_j the distinguished-chart leading coefficients of the normalized
    differential at the four branch points and the two simple poles of f.
    """
    if curve.g != 1:
        raise DegenerateInput("genus-1 evaluator needs 4 branch points")
    DivisorData(orders=(1, 1, 1, 1, -2, -2), genus=1)
    mult = {}
    mult["theta1p"] = (2.0 / 3.0, theta1_prime(curve.B.B[0, 0]))
    for j, end in enumerate(curve.infinity_data()):
        mult[f"h_{j}"] = ((1 + 1) / 12.0, complex(end.v_lead[0]))
    for m in range(4):
        mult[f"f_{m}"] = (-1.0 / 12.0, complex(curve.branch_data(m).v_lead[0]))
    ing = TauIngredients(multiplicative=mult, additive={})
    lt = ing.log_tau()
    tv = TauValue(
        value=np.exp(lt),
        log_value=lt,
        genus=1,
        normalization_tag="theta1-product, principal branches",
        diagnostics={"B": curve.B.B[0, 0]},
    )
    return tv, ing


# ---------------------------------------------------------------------------
# Genus >= 2 (hyperelliptic, simple branch points)
# ---------------------------------------------------------------------------

def _divisor_tables(curve):
    """Hub Abel vectors, orders and distinguished-chart leading v-values for
    the divisor of df: all branch points (d = 1) and both ends (d = -2)."""
    n_br = len(curve.e)
    points = []
    for m in range(n_br):
        bd = curve.branch_data(m)
        points.append((f"br{m}", bd.abel, 1, bd.v_lead))
    for j, end in enumerate(curve.infinity_data()):
        points.append((f"inf{j}", end.abel, -2, end.v_lead))
    return points


def tau_genus2(curve: HyperellipticCurve, zeta_z, frozen=None):
    """Theta-derivative / prime-form tau for hyperelliptic genus 2 (f = z).

    Assembled in the z chart at the auxiliary point zeta:

      ln tau = (2/3) ln[(sum_i v_i(zeta) d_i)^g theta(K^zeta)]
             - (2/3) ln W(zeta)
             + (pi i / 6) (4 <K^zeta, Z> - <B Z, Z>)
             + sum_{k<l} (d_k d_l / 6) ln E(p_k, p_l)
             - sum_k ((g-1) d_k / 3) ln E(zeta, p_k)

    where A^zeta((df)) + 2 K^zeta = B Z + Z' fixes the integer vector Z.
    With the certified Riemann-constant representative used here this is
    the combination that is auxiliary-point independent and satisfies the
    governing system (both properties are enforced by the acceptance
    suite); flipping the sign of Z flips the sign of the whole exponent.

    ``frozen`` pins the discrete choices (characteristics per prime-form
    pair, lattice vector Z, half-period index of K) so moduli displacements
    differentiate a single branch; pass the base evaluation's ``frozen``
    when running finite differences.  A frozen half period is certified on
    its probes alone, with no search over the other candidates.
    """
    g = curve.g
    if g < 2:
        raise DegenerateInput("use tau_genus1 for genus 1")
    if not np.isfinite(zeta_z):
        raise DomainError(f"zeta must be finite, got {zeta_z}")
    points = _divisor_tables(curve)
    DivisorData(orders=tuple(d for _, _, d, _ in points), genus=g)
    names = [nm for nm, _, _, _ in points]
    dks = {nm: d for nm, _, d, _ in points}
    abel = {nm: a for nm, a, _, _ in points}
    vlead = {nm: v for nm, _, _, v in points}

    a_zeta, y_zeta = curve.abel_from_hub(zeta_z)
    P_zeta = curve.point(zeta_z)
    v_zeta = curve.v_hat(P_zeta)

    K_zeta, K_resid = curve.riemann_constants(
        zeta_z, half_index=None if frozen is None else frozen.get("K_half"))
    e_vec = sum(dks[nm] * (abel[nm] - a_zeta) for nm in names) + 2 * K_zeta
    Z, Zp, lat_resid = curve.lattice_fit(e_vec)
    if frozen is not None and "Z" in frozen:
        if not np.array_equal(Z, frozen["Z"]):
            raise LatticeResolutionFailure(
                "lattice vector jumped across a moduli displacement"
            )

    om_table = {nm: curve._omega_values(vlead[nm]) for nm in names}
    om_zeta = curve._omega_values(v_zeta)
    if frozen is None:
        char_pairs = {}
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                char_pairs[(names[i], names[j])] = curve._choose_char(
                    om_table[names[i]], om_table[names[j]])
        char_zeta = {nm: curve._choose_char(om_zeta, om_table[nm]) for nm in names}
        # the candidate index that the unfrozen K search above chose
        frozen_out = {"Z": Z, "K_half": curve._lazy_cache["K"][0],
                      "char_pairs": char_pairs, "char_zeta": char_zeta}
    else:
        char_pairs = frozen["char_pairs"]
        char_zeta = frozen["char_zeta"]
        frozen_out = frozen

    odd = curve.odd_char_gradients()

    # prime forms enter as E^2 = theta^2 / (omega omega) with halved
    # exponents: no principal square-root cuts under moduli displacement
    mult = {}
    direction = tuple(v_zeta)
    Dg = curve.theta(K_zeta, derivs=[direction] * g)
    mult["theta_deriv"] = (2.0 / 3.0, Dg)
    mult["wronskian"] = (-2.0 / 3.0, curve.wronskian(P_zeta))
    # each prime form as (ingredient, exponent, characteristic, theta
    # argument, omega rows at both ends); one theta call for all of them
    args = [(f"E2_{a}_{b}", dks[a] * dks[b] / 12.0, char_pairs[(a, b)],
             abel[b] - abel[a], om_table[a], om_table[b])
            for i, a in enumerate(names) for b in names[i + 1:]]
    args += [(f"E2_zeta_{nm}", -(g - 1) * dks[nm] / 6.0, char_zeta[nm],
              abel[nm] - a_zeta, om_zeta, om_table[nm]) for nm in names]
    th = curve.theta_bundle(np.array([arg[3] for arg in args]),
                            char=[odd[arg[2]][0] for arg in args])[:, 0]
    for (key, expo, ci, _, omP, omQ), th_k in zip(args, map(complex, th)):
        mult[key] = (expo, th_k ** 2 / (omP[ci] * omQ[ci]))

    additive = {
        "lattice_exp": (np.pi * 1j / 6.0) * (4 * (K_zeta @ Z) - (Z @ curve.B.B @ Z))
    }
    ing = TauIngredients(multiplicative=mult, additive=additive, frozen=frozen_out)
    lt = ing.log_tau()
    tv = TauValue(
        value=np.exp(lt),
        log_value=lt,
        genus=g,
        normalization_tag=(
            "theta-derivative/prime-form assembly, certified K representative, "
            "principal branches"
        ),
        diagnostics={
            "Z": Z, "Z_prime": Zp, "lattice_residual": lat_resid,
            "K_certificate": K_resid, "zeta": complex(zeta_z),
        },
    )
    return tv, ing
