"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the package internals:
arithmetic-geometric means, q-series, Eisenstein series, ascending Bessel
series, and product-over-roots resultants.  The exceptions use package
primitives:

* ``lift_signs_per_candidate``, the earlier one-candidate-at-a-time
  lift-sign search of the period construction, ``theta_full_box``, the earlier full-box sum of
  ``specfun.riemann_theta_bundle``, and ``abel_paths_per_leg``, the earlier
  one-path-per-leg Abel data of the divisor of df, each kept as the bitwise
  reference of its replacement;
* the z-chart W route (``w_hat`` and ``bergman_sb_z``, with ``abel_between``,
  ``abel_of_point``, ``other_sheet``, ``flip_vec`` and ``cycle_pairs``), an
  independent cross-check of the distinguished-chart theta kernel, whose
  diagonal limit ``h_limit`` takes two Richardson steps
  (``richardson_even``);
* ``cover_to_json``, the inverse of ``covers.cover_from_json`` for the JSON
  round trip.
"""

import numpy as np
import scipy.special as sps

from hurwitztau.cones import ConeCircle, _on_imag_axis
from hurwitztau.curves import (
    CurvePoint,
    _PANEL_DIV,
    _leggauss,
    _log_deriv,
    _tracked_sqrt,
    _w_specs,
)
from hurwitztau.errors import (
    CurveGeometryError,
    DiagonalTooClose,
    DomainError,
    ExtrapolationUnstable,
    IllConditionedPeriods,
    SheetTrackingLoss,
    TruncationFailure,
)
from hurwitztau.specfun import (
    _RADIUS_CAP,
    _THETA_CHUNK,
    _THETA_TOL,
    RiemannMatrix,
    _theta_lattice,
)


# ---------------------------------------------------------------------------
# elliptic integrals / period oracle
# ---------------------------------------------------------------------------

def agm(a, b, iters=60):
    for _ in range(iters):
        a, b = (a + b) / 2, np.sqrt(a * b)
    return a


def K_elliptic(m):
    """Complete elliptic integral K with modulus m (not m^2)."""
    return np.pi / (2 * agm(1.0, np.sqrt(1.0 - m * m)))


def tau_agm(e1, e2, e3, e4):
    """Period ratio for y^2 = prod(z - e_i), real ordered branch points,
    a-cycle around (e1, e2), b-cycle around (e2, e3):
    B = i K(m') / K(m), m^2 = ((e2-e1)(e4-e3)) / ((e3-e1)(e4-e2))."""
    m2 = ((e2 - e1) * (e4 - e3)) / ((e3 - e1) * (e4 - e2))
    m = np.sqrt(m2)
    return 1j * K_elliptic(np.sqrt(1 - m2)) / K_elliptic(m)


# ---------------------------------------------------------------------------
# Jacobi theta q-series
# ---------------------------------------------------------------------------

def theta1_prime_qseries(tau, terms=60):
    """theta_1'(0 | tau) = 2 pi q^{1/8} sum (-1)^n (2n+1) q^{n(n+1)/2},
    q = exp(2 pi i tau)."""
    q = np.exp(2j * np.pi * tau)
    s = sum((-1) ** n * (2 * n + 1) * q ** (n * (n + 1) / 2)
            for n in range(terms))
    return 2 * np.pi * q ** 0.125 * s


# ---------------------------------------------------------------------------
# Weierstrass data via Eisenstein series
# ---------------------------------------------------------------------------

def eisenstein_E(k, tau, terms=200):
    """Normalized Eisenstein series E_k(tau), k even >= 2."""
    from math import comb

    q = np.exp(2j * np.pi * tau)
    # Bernoulli numbers B_k for the needed range
    bern = {2: 1 / 6, 4: -1 / 30, 6: 1 / 42, 8: -1 / 30, 10: 5 / 66,
            12: -691 / 2730, 14: 7 / 6, 16: -3617 / 510, 18: 43867 / 798,
            20: -174611 / 330}
    coef = -2 * k / bern[k]
    s = 0.0 + 0.0j
    for n in range(1, terms):
        sigma = sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        s += sigma * q ** n
    return 1.0 + coef * s


def weierstrass_eta1(tau):
    """eta_1 = zeta_W(1/2) for the lattice Z + tau Z: pi^2 E_2(tau) / 6."""
    return np.pi ** 2 * eisenstein_E(2, tau) / 6.0


def weierstrass_zeta_half_series(tau, kmax=40):
    """zeta_W(1/2) from the Laurent expansion zeta(z) = 1/z - sum G_{2k+2} z^{2k+1}
    with G_{2k} = 2 zeta_R(2k) E_{2k}(tau); independent cross-check of eta_1."""
    from scipy.special import zeta as zeta_R

    z = 0.5
    out = 1.0 / z
    for k in range(1, kmax + 1):
        kk = 2 * k + 2
        if kk <= 20:
            G = 2 * zeta_R(kk) * eisenstein_E(kk, tau)
        else:
            # E_k -> 1 rapidly; tail uses the constant term only
            G = 2 * zeta_R(kk)
        out -= G * z ** (2 * k + 1)
    return out


# ---------------------------------------------------------------------------
# ascending Bessel series
# ---------------------------------------------------------------------------

def besselj_series(nu, z, terms=60):
    """Ascending series for J_nu, real nu >= 0, complex z."""
    from scipy.special import gammaln

    z = complex(z)
    out = 0.0 + 0.0j
    for k in range(terms):
        lg = gammaln(k + 1) + gammaln(nu + k + 1)
        out += (-1) ** k * np.exp(
            (2 * k + nu) * np.log(z / 2.0 + 0j) - lg
        )
    return out


def bessely0_series(z, terms=60):
    """Ascending series for Y_0 via the logarithmic expansion."""
    euler = float(np.euler_gamma)
    z = complex(z)
    j0 = besselj_series(0.0, z, terms)
    s = 0.0 + 0.0j
    h = 0.0
    from math import factorial

    for k in range(1, terms):
        h += 1.0 / k
        s += (-1) ** (k + 1) * h * (z * z / 4.0) ** k / factorial(k) ** 2
    return (2.0 / np.pi) * ((np.log(z / 2.0 + 0j) + euler) * j0 + s)


def hankel1_0_series(z, terms=60):
    return besselj_series(0.0, z, terms) + 1j * bessely0_series(z, terms)


# ---------------------------------------------------------------------------
# product-over-roots resultant oracle
# ---------------------------------------------------------------------------

def resultant_roots_oracle(f, g):
    """R(f, g) = lc(f)^{deg g} prod_{f(a)=0} g(a) via numpy roots."""
    from numpy.polynomial import polynomial as npoly

    f = np.trim_zeros(np.asarray(f, dtype=complex), "b")
    g = np.trim_zeros(np.asarray(g, dtype=complex), "b")
    roots = np.roots(f[::-1]) if len(f) > 1 else np.array([])
    vals = npoly.polyval(roots, g) if len(roots) else np.array([1.0])
    return f[-1] ** (len(g) - 1) * np.prod(vals)


# ---------------------------------------------------------------------------
# naive theta sum over a plain box (independent of the package truncation)
# ---------------------------------------------------------------------------

def theta_box_oracle(t, B, a=None, b=None, R=40):
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    g = B.shape[0]
    t = np.asarray(t, dtype=complex).reshape(g)
    a = np.zeros(g) if a is None else np.asarray(a, float)
    b = np.zeros(g) if b is None else np.asarray(b, float)
    rng = np.arange(-R, R + 1)
    grids = np.meshgrid(*([rng] * g), indexing="ij")
    n = np.stack([gr.ravel() for gr in grids], axis=-1).astype(float)
    q = n + a
    expo = 1j * np.pi * np.einsum("mi,ij,mj->m", q, B, q) \
        + 2j * np.pi * q @ (t + b)
    return complex(np.exp(expo).sum())


def theta_full_box(t, B, char=None, derivs_list=((),)):
    """The earlier ``specfun.riemann_theta_bundle`` (one characteristic per
    call), which exponentiates every point of each chunk's box lattice."""
    if isinstance(B, RiemannMatrix):
        B = B.B
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    g = B.shape[0]
    t = np.asarray(t, dtype=complex)
    batched = t.ndim == 2
    t = t.reshape(-1, g)
    a = np.zeros(g) if char is None else np.asarray(char.a, dtype=float)
    b = np.zeros(g) if char is None else np.asarray(char.b, dtype=float)
    dirs = [[np.asarray(u, dtype=complex).reshape(g) for u in derivs]
            for derivs in derivs_list]
    Y = B.imag
    lam_min = float(np.linalg.eigvalsh(Y).min())
    if lam_min <= 0:
        raise DomainError("Im B must be positive definite")
    # dominant lattice region is centered near -Y^{-1} Im(t); tail bound
    # exp(-pi lam_min (r - r0)^2) <= tol with polynomial safety margin
    center = np.linalg.solve(Y, t.imag.T).T
    r0 = np.linalg.norm(center, axis=1) + float(np.linalg.norm(a)) + 1.0
    s = np.sqrt(max(-np.log(_THETA_TOL) + 8.0, 1.0) / (np.pi * lam_min))
    radius = r0 + s + 2.0
    if len(t) and radius.max() > _RADIUS_CAP:
        raise TruncationFailure(
            f"required lattice radius {radius.max():.1f} exceeds cap {_RADIUS_CAP}"
        )
    out = np.empty((len(t), len(dirs)), dtype=complex)
    for lo in range(0, len(t), _THETA_CHUNK):
        chunk = slice(lo, lo + _THETA_CHUNK)
        q = _theta_lattice(g, int(np.ceil(radius[chunk].max()))) + a
        expo = 1j * np.pi * np.einsum("mi,ij,mj->m", q, B, q) \
            + 2j * np.pi * (q @ (t[chunk] + b).T).T
        # subtract the max for overflow safety; restored at the end
        shift = expo.real.max(axis=1)
        base = np.exp(expo - shift[:, None])
        scale = np.exp(shift)
        for k, derivs in enumerate(dirs):
            vals = base
            for u in derivs:
                vals = vals * (2j * np.pi * (q @ u))
            out[chunk, k] = vals.sum(axis=1) * scale
    return out if batched else [complex(v) for v in out[0]]


# ---------------------------------------------------------------------------
# model-cone modes from SciPy's Bessel products (reference for the split)
# ---------------------------------------------------------------------------

# a mode is left out when one of its Bessel factors lies outside this range.
# Against mpmath, SciPy's products lose digits as the factors move towards
# the ends of the double range: at k = 2, R = 0.3, lambda = 10^-7.1235,
# nu = 25 (J = 1e-224) J_nu H_nu is off by 1.2e-13 and I_nu K_nu by
# 1.0e-13, and I_nu K_nu reaches 1.0e-13 with factors near 1e-135.  Within
# 1e100 the worst of 6,000 random cones of the property test was 5.7e-14.
_SCIPY_FACTOR_RANGE = 1e100


def mode_eps_scipy(cone: ConeCircle, lam, first, last):
    """(eps, good) for the modes first..last from SciPy's Bessel product,
    formed in full at every mode: eps_n = -log(2 nu I K) on the imaginary
    axis, -log(pi nu J H / (-i)) off it; ``good`` marks the products whose
    two factors lie within ``_SCIPY_FACTOR_RANGE`` of 1 in both directions
    (eps is NaN elsewhere)."""
    lam = complex(lam)
    nu = np.arange(first, last + 1) / (cone.k * cone.R)
    eps = np.full(nu.shape, np.nan, dtype=complex)
    axis = _on_imag_axis(lam)
    with np.errstate(all="ignore"):
        if axis:
            tR = lam.imag * cone.R
            f1, f2 = sps.ive(nu, tR), sps.kve(nu, tR)
        else:
            f1, f2 = sps.jv(nu, lam * cone.R), sps.hankel1(nu, lam * cone.R)
        good = np.ones(nu.shape, dtype=bool)
        for f in (f1, f2):
            good &= (np.abs(f) > 1 / _SCIPY_FACTOR_RANGE) \
                & (np.abs(f) < _SCIPY_FACTOR_RANGE)
        prod = f1[good] * f2[good]
        if axis:
            eps[good] = -np.log(2 * nu[good] * prod)
        else:
            eps[good] = -np.log(np.pi * nu[good] * prod / (-1j))
    return eps, good


def jump_mu0_scipy(cone: ConeCircle, lam):
    """mu_0(lambda) of the jump operator from SciPy's Bessel product:
    1 / (R I_0 K_0) on the imaginary axis, -2i / (pi R J_0 H_0) off it."""
    lam = complex(lam)
    if _on_imag_axis(lam):
        tR = lam.imag * cone.R
        return 1.0 / (cone.R * sps.ive(0, tR) * sps.kve(0, tR))
    x = lam * cone.R
    return -2j / (np.pi * cone.R * sps.jv(0, x) * sps.hankel1(0, x))


# ---------------------------------------------------------------------------
# period construction: lift-sign search one candidate at a time
# ---------------------------------------------------------------------------

def lift_signs_per_candidate(curve):
    """(coef, B, a_signs, chain_signs) of the curve's marking from its raw
    pair-loop integrals, by the earlier loop over the 2^g x 2^g lift-sign
    assignments (a-signs outer), assembling and screening one candidate at a
    time with the same thresholds and rejections."""
    g = curve.g
    A, chain = (np.array([curve._pair_loop_integrals(2 * i + s, 2 * i + s + 1)[0]
                          for i in range(g)]) for s in (0, 1))

    def assemble(a_signs, c_signs, which):
        Amat = a_signs[:, None] * A
        C = np.zeros((g, g), dtype=complex)
        for i in range(g):
            for k in range(i, g):
                C[i] += c_signs[k] * chain[k]
        Aeff, Ceff = (Amat, C) if which == "standard" else (C, -Amat)
        condA = np.linalg.cond(Aeff)
        if condA > 1e10:
            raise IllConditionedPeriods(
                f"a-period condition number {condA:.2e}")
        coef = np.linalg.solve(Aeff, np.eye(g)).T
        Braw = Ceff @ coef.T
        sym = float(np.max(np.abs(Braw - Braw.T))
                    / max(1.0, np.max(np.abs(Braw))))
        return coef, Braw, sym

    candidates = []
    for abits in range(2 ** g):
        a_signs = np.array([1.0 if not (abits >> k) & 1 else -1.0
                            for k in range(g)])
        for bits in range(2 ** g):
            c_signs = np.array([1.0 if not (bits >> k) & 1 else -1.0
                                for k in range(g)])
            coef, Braw, sym = assemble(a_signs, c_signs, curve.marking)
            if sym > 1e-7:
                continue
            eigs = np.linalg.eigvalsh(((Braw + Braw.T) / 2).imag)
            if eigs.min() > 0 or eigs.max() < 0:
                Bfix = (Braw + Braw.T) / 2
                if np.linalg.eigvalsh(Bfix.imag).max() < 0:
                    Bfix = -Bfix
                candidates.append((a_signs, c_signs, coef, Braw, Bfix))
    if not candidates:
        raise CurveGeometryError(
            "no lift-sign assignment makes the consecutive-pair marking "
            "symplectic; reorder the branch points")
    B0 = candidates[0][-1]
    for cand in candidates[1:]:
        if np.max(np.abs(cand[-1] - B0)) > 1e-7 * max(1.0, np.max(np.abs(B0))):
            raise CurveGeometryError(
                "ambiguous homology lift signs for this configuration")
    a_signs, c_signs, coef, Braw, _ = candidates[0]
    Bsym = (Braw + Braw.T) / 2
    if np.linalg.eigvalsh(Bsym.imag).max() < 0:
        Bsym, c_signs = -Bsym, -c_signs
    return coef, Bsym, a_signs, c_signs


# ---------------------------------------------------------------------------
# Abel data of the divisor of df, one path per leg (reference for the batch)
# ---------------------------------------------------------------------------

def _graded_edges_per_leg(z0, z1, e):
    """The earlier scalar ``curves._graded_edges``: panel edges of one
    straight path, walked one panel at a time."""
    length = abs(z1 - z0) or 1.0
    edges, s = [0.0], 0.0
    while s < 1.0:
        d = float(np.min(np.abs(z0 + s * (z1 - z0) - e)))
        if d < 1e-12 * length:
            raise SheetTrackingLoss(
                f"straight path from {z0} to {z1} meets a branch point")
        s = min(s + d / (_PANEL_DIV * length), 1.0)
        edges.append(s)
    return np.array(edges)


def _chart_path_per_leg(s0, s1, seed, fiber2, numer, s_edges, ngl):
    """The earlier ``HyperellipticCurve._chart_path``: one start point and
    one row of panel edges shared by every segment."""
    xg, wg = _leggauss(ngl)
    ds = np.diff(s_edges)
    mids = s_edges[:-1, None] + ds[:, None] * (xg[None, :] + 1) / 2
    span = np.asarray(s1, dtype=complex) - s0
    chain = s0 + span[:, None] * np.concatenate(([0.0], mids.ravel(), [1.0]))
    root = _tracked_sqrt(fiber2(chain), seed=seed)
    panels = (len(span),) + mids.shape
    vals = numer(chain[:, 1:-1].reshape(panels)) \
        / root[:, 1:-1].reshape(panels)[..., None]
    vec = np.einsum("sk,nskg,ns->ng", np.broadcast_to(wg, mids.shape), vals,
                    span[:, None] * ds) / 2
    return vec, root[:, -1]


def abel_paths_per_leg(curve):
    """Abel data of the divisor of df by the earlier per-leg paths: each hub
    leg (handoffs, infinity ray, K and transport probes) and each chart leg
    (x charts, 1/z chart) is its own path.  Returns (branch, ends, probes):
    per branch point (abel, sqrt_h, v_lead), per end over infinity (abel,
    sign, v_lead), and {z: Abel vector} for the probe points of genus >= 2."""
    e, g, coef = curve.e, curve.g, curve.coef

    def hub_leg(z1):
        vec, y1 = _chart_path_per_leg(
            curve.hub, [z1], curve.y_hub, curve.fiber2, curve.v_poly,
            _graded_edges_per_leg(curve.hub, z1, e), 16)
        return vec[0], complex(y1[0])

    branch = []
    for m in range(len(e)):
        zm, others = e[m], np.delete(e, m)
        zh = curve.hub + 0.9 * (zm - curve.hub)
        guard = 0
        while np.min(np.abs(zh - others)) < 0.25 * np.min(np.abs(zm - others)) \
                and guard < 30:
            zh = zm + (zh - zm) * 0.8
            guard += 1
        vec, yh = hub_leg(complex(zh))
        x_h = complex(np.sqrt(zh - zm))

        def h(x, zm=zm, others=others):
            return np.prod((zm + x ** 2)[..., None] - others, axis=-1)

        def numer(x, zm=zm):
            return 2.0 * curve.v_poly(zm + x ** 2)

        vec2, s_m = _chart_path_per_leg(x_h, [0.0], yh / x_h, h, numer,
                                        np.linspace(0.0, 1.0, 41), 16)
        s_m = complex(s_m[0])
        branch.append((vec + vec2[0], s_m, 2.0 * curve.v_poly(zm) / s_m))

    d = (1.0 + 0.3j) / abs(1.0 + 0.3j)
    zJ = curve.hub + d * 8.0 * (curve.scale + abs(curve.hub))
    vec_ray, yJ = hub_leg(zJ)
    zetaJ = 1.0 / zJ

    def w2(zeta):
        return np.prod(1.0 - e * zeta[..., None], axis=-1)

    def numer_inf(zeta):
        return -(zeta[..., None] ** (g - 1 - np.arange(g)) @ coef.T)

    vec_leg, s_inf = _chart_path_per_leg(
        zetaJ, [0.0], yJ * zetaJ ** (g + 1), w2, numer_inf,
        np.linspace(0.0, 1.0, 41), 16)
    s_inf = complex(s_inf[0])
    sign = 1.0 if abs(s_inf - 1) < abs(s_inf + 1) else -1.0
    a_first = vec_ray + vec_leg[0]
    ends = [(a_first, sign, -coef[:, g - 1] / sign),
            (2 * branch[0][0] - a_first, -sign, -coef[:, g - 1] / (-sign))]

    probes = {}
    if g >= 2:
        for z in curve._probe_points(17, 3, 0.3, 1.2, 1.5) \
                + curve._probe_points(23, 2, 0.4, 1.3, 1.4):
            probes[z] = hub_leg(z)[0]
    return branch, ends, probes


# ---------------------------------------------------------------------------
# z-chart W: the theta kernel between two curve points in their z charts,
# with Abel vectors from hub paths (cross-check of the distinguished-chart
# kernel, which takes its Abel vectors from chart paths)
# ---------------------------------------------------------------------------

def other_sheet(P):
    return CurvePoint(P.z, -P.y)


def flip_vec(curve):
    """Abel vector from the hub to its involution image: the hub path into
    branch point 0, then that path's involution image back, which gives
    2 A(e_0) since sigma* v = -v."""
    return 2 * curve.branch_data(0).abel


def abel_of_point(curve, P):
    """Hub-based Abel vector of a sheet-resolved point: the straight star
    path on the hub-continued sheet, A(sigma P) = flip_vec - A(P) on the
    other."""
    vec, ytr = curve.abel_from_hub(P.z)
    if abs(P.y - ytr) <= 1e-6 * abs(ytr):
        return vec
    if abs(P.y + ytr) <= 1e-6 * abs(ytr):
        return flip_vec(curve) - vec
    raise SheetTrackingLoss(
        f"point fiber value {P.y} matches neither sheet over z = {P.z}")


def abel_between(curve, P, Q):
    """A(P -> Q) through the hub star (either sheet); nearby same-sheet
    pairs integrate directly along the connecting segment (much tighter
    error than differencing two long hub paths)."""
    sep = abs(P.z - Q.z)
    if 0 < sep < 0.05 * curve.scale \
            and float(np.min(np.abs(P.z - curve.e))) > 4 * sep:
        vec, y_end = curve.abel_segment(P.z, P.y, Q.z)
        if abs(y_end - Q.y) <= 1e-6 * abs(y_end):
            return vec
    return abel_of_point(curve, Q) - abel_of_point(curve, P)


def cycle_pairs(curve, kind, i):
    """Pair-loop indices and pinned lift signs composing the homology cycle
    (standard marking)."""
    if kind == "a":
        return [((2 * i, 2 * i + 1), curve._a_signs[i])]
    return [((2 * k + 1, 2 * k + 2), curve._chain_signs[k])
            for k in range(i, curve.g)]


def w_hat(curve, P, Q):
    """z-chart value W(P, Q)/(dz dz) via -sum L_ij v_j(P) v_i(Q)."""
    if abs(P.z - Q.z) + abs(P.y - Q.y) < 1e-8 * curve.scale:
        raise DiagonalTooClose("bidifferential requested on the diagonal")
    t = abel_between(curve, P, Q)
    L = _log_deriv(curve.theta_bundle(t[None], curve._w_char(),
                                      _w_specs(curve.g)), curve.g)[0]
    return -complex(np.einsum("ij,j,i->", L, curve.v_hat(P), curve.v_hat(Q)))


def richardson_even(h, tol):
    """Limit of an even-in-delta quantity h(delta) -> L + c d^2 + e d^4
    from the samples h = (h(delta), h(delta/2), h(delta/4)) (two
    Richardson levels); the certificate must meet ``tol`` (a NaN
    certificate does not).  Returns (limit, certificate)."""
    e1 = (4 * h[1] - h[0]) / 3
    e2 = (4 * h[2] - h[1]) / 3
    extrap = (16 * e2 - e1) / 15
    cert = abs(e2 - e1)
    if not cert <= tol * max(1.0, abs(extrap)):
        raise ExtrapolationUnstable(
            f"H-limit Richardson certificate {cert:.2e} above tolerance")
    return extrap, cert


def h_limit(curve, w_of_pair, x0, delta, tol):
    """H(x0, x0) = lim W(x0 + d, x0 - d) - (2d)^-2 from d = delta, delta/2,
    delta/4 by two Richardson steps; returns (value, certificate)."""
    def h(d):
        u, v = x0 + d, x0 - d
        return w_of_pair(u, v) - 1.0 / (u - v) ** 2

    return richardson_even(np.array([h(delta), h(delta / 2), h(delta / 4)]),
                           tol)


def bergman_sb_z(curve, P, delta_rel=1e-2):
    """Bergman projective connection S_B in the z chart at P."""
    def wpair(u, v):
        return w_hat(curve, curve.point(u), curve.point(v))

    val, _ = h_limit(curve, wpair, P.z, delta_rel * curve.scale, 1e-4)
    return 6.0 * val


# ---------------------------------------------------------------------------
# cover JSON writer (inverse of covers.cover_from_json)
# ---------------------------------------------------------------------------

def cover_to_json(spec):
    return {
        "degree": spec.degree,
        "sigma_infinity": [list(c) for c in
                           spec.sigma_infinity.cycles(include_fixed=False)],
        "branches": [
            {"value": [w.real, w.imag],
             "sigma": [list(c) for c in p.cycles(include_fixed=False)]}
            for p, w in zip(spec.finite_monodromies, spec.critical_values)
        ],
        "base_point": [spec.base_point.real, spec.base_point.imag],
    }
