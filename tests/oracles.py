"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the package internals:
arithmetic-geometric means, q-series, Eisenstein series, ascending Bessel
series, and product-over-roots resultants.  The three exceptions are
``detzeta_full_scan``, the earlier full-scan mode sum of
``cones.detzeta_N_model``, ``lift_signs_per_candidate``, the earlier
one-candidate-at-a-time lift-sign search of the period construction, and
``theta_full_box``, the earlier full-box sum of
``specfun.riemann_theta_bundle``, each kept as the bitwise reference of its
replacement.
"""

import numpy as np
import scipy.special as sps

from hurwitztau.cones import (
    _TAIL_TOL,
    ConeCircle,
    _log_eps_tail,
    jump_eigenvalue,
    jump_eigenvalue_neg_energy,
)
from hurwitztau.errors import (
    CurveGeometryError,
    DomainError,
    IllConditionedPeriods,
    TailModelMismatch,
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


def theta1_qseries(z, tau, terms=60):
    q = np.exp(1j * np.pi * tau)
    s = sum((-1) ** n * q ** ((n + 0.5) ** 2) * np.sin((2 * n + 1) * np.pi * z)
            for n in range(terms))
    return 2 * s


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
# full-scan model-cone determinant (reference for the block scan)
# ---------------------------------------------------------------------------

def detzeta_full_scan(cone: ConeCircle, lam, n_max=4000):
    """Full-scan mode sum of ``cones.detzeta_N_model``: the Bessel product
    is evaluated for every mode 1..n_max, and ``_log_eps_tail`` overwrites
    the modes where it is not representable.  Bitwise reference for the
    block scan of the package."""
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
