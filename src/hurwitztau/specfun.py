"""Special-function and polynomial-algebra kernel.

Complex Bessel/Hankel functions of real order (scipy-backed, validated),
Riemann theta functions with characteristics and directional derivatives,
resultants, certified polynomial roots, and Schwarzian derivatives of
rational functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    CriticalPointSingularity,
    DegenerateInput,
    DomainError,
    LossOfPrecision,
    NonConvergence,
    TruncationFailure,
)

__all__ = [
    "hankel1",
    "hankel1_deriv",
    "besselj",
    "RiemannMatrix",
    "ThetaCharacteristic",
    "riemann_theta",
    "theta1_prime",
    "resultant",
    "poly_roots",
    "schwarzian",
    "poly_normalize",
]


# ---------------------------------------------------------------------------
# Bessel / Hankel
# ---------------------------------------------------------------------------

def _hankel_contract(name, nu, z, evaluate):
    """Domain contract and precision flag of the Hankel wrappers: DomainError
    for z = 0 or Im z < 0, LossOfPrecision when AMOS signals a partial loss
    of significance (a non-finite value)."""
    z = complex(z)
    if z == 0:
        raise DomainError(f"{name} is singular at z = 0")
    if z.imag < -1e-12 * abs(z):
        raise DomainError(f"argument must satisfy Im z >= 0, got {z}")
    out = complex(evaluate(z))
    if not np.isfinite(out):
        raise LossOfPrecision(f"{name}({nu}, {z}) lost all significance")
    return out


def hankel1(nu, z):
    """Hankel function of the first kind, real order nu >= 0, Im z >= 0, z != 0.

    Backed by scipy's AMOS routines; the domain contract and precision flag
    live in :func:`_hankel_contract`.
    """
    import scipy.special as sps   # deferred: only the Bessel paths need SciPy

    nu = float(nu)
    if nu < 0:
        raise DomainError(f"order must be >= 0, got {nu}")
    return _hankel_contract("hankel1", nu, z, lambda z: sps.hankel1(nu, z))


def hankel1_deriv(nu, z):
    """d/dz H^(1)_nu(z) via the two-sided recurrence (H_{nu-1} - H_{nu+1})/2,
    under the contract of :func:`hankel1`."""
    import scipy.special as sps

    nu = float(nu)
    return _hankel_contract("hankel1_deriv", nu, z, lambda z: (
        sps.hankel1(nu - 1.0, z) - sps.hankel1(nu + 1.0, z)) / 2.0)


def besselj(nu, z):
    """Bessel J of real order at complex argument (scipy-backed)."""
    import scipy.special as sps

    return complex(sps.jv(float(nu), complex(z)))


# ---------------------------------------------------------------------------
# Riemann matrices and theta characteristics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiemannMatrix:
    """Validated g x g period matrix: symmetric, Im B positive definite."""

    B: np.ndarray
    sym_tol: float = 1e-10

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.B, dtype=complex))
        object.__setattr__(self, "B", B)
        if B.shape[0] != B.shape[1]:
            raise DomainError(f"period matrix must be square, got {B.shape}")
        scale = max(1.0, float(np.max(np.abs(B))))
        if np.max(np.abs(B - B.T)) > self.sym_tol * scale:
            raise DomainError("period matrix is not symmetric within tolerance")
        eigs = np.linalg.eigvalsh(B.imag)
        if eigs.min() <= 0:
            raise DomainError(f"Im B is not positive definite (eigs {eigs})")

    @property
    def g(self):
        return self.B.shape[0]


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Half-integer characteristic [a; b], entries in {0, 1/2}."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = tuple(float(x) for x in self.b)
        for v in a + b:
            if v not in (0.0, 0.5):
                raise DomainError(f"characteristic entries must be 0 or 1/2, got {v}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def parity(self):
        """0 for even, 1 for odd: 4<a,b> mod 2."""
        return int(round(4 * np.dot(self.a, self.b))) % 2

    @property
    def is_odd(self):
        return self.parity == 1

    @staticmethod
    def all_characteristics(g):
        out = []
        for bits in range(4 ** g):
            a = [((bits >> (2 * i)) & 1) * 0.5 for i in range(g)]
            b = [((bits >> (2 * i + 1)) & 1) * 0.5 for i in range(g)]
            out.append(ThetaCharacteristic(tuple(a), tuple(b)))
        return out

    @staticmethod
    def odd_characteristics(g):
        return [c for c in ThetaCharacteristic.all_characteristics(g) if c.is_odd]


# ---------------------------------------------------------------------------
# Riemann theta
# ---------------------------------------------------------------------------

_RADIUS_CAP = 120.0
_THETA_TOL = 1e-12    # Gaussian tail relative to the central magnitude
_THETA_CHUNK = 32     # batch arguments per lattice in riemann_theta_bundle
_THETA_SKIP = 80.0    # skip terms below exp(-80) of each row's largest term
_THETA_CANCEL = 2.0 ** -60   # a sum part this small (largest term 1): no skip


@lru_cache(maxsize=32)
def _theta_lattice(g, R):
    """Integer lattice points n with |n_i| <= R, shape ((2R + 1)^g, g)
    (read-only: shared by every chunk and characteristic of that size)."""
    rng = np.arange(-R, R + 1, dtype=float)
    grids = np.meshgrid(*([rng] * g), indexing="ij")
    n = np.stack([gr.ravel() for gr in grids], axis=-1)
    n.flags.writeable = False
    return n


def riemann_theta(t, B, char=None, derivs=()):
    """Riemann theta with characteristics and directional derivatives.

    theta[a,b](t; B) = sum_n exp(i pi <n+a, B(n+a)> + 2 pi i <n+a, t+b>),
    with each entry of ``derivs`` a length-g direction u contributing a
    factor 2 pi i <n+a, u>.  Multi-index derivatives are directional
    derivatives along coordinate vectors.  One spec of
    :func:`riemann_theta_bundle`, which holds the truncation rule.
    """
    return riemann_theta_bundle(t, B, char, (tuple(derivs),))[0]


def riemann_theta_bundle(t, B, char=None, derivs_list=((),)):
    """Evaluate theta for several derivative specs in one lattice pass.

    ``derivs_list`` is a sequence of derivative specs (each a tuple of
    direction vectors, as in :func:`riemann_theta`).  A single argument t of
    shape (g,) returns a list of complex values in spec order; a batch t of
    shape (n, g) returns an (n, len(derivs_list)) array.  ``char`` is one
    characteristic (or None) for every row, or a sequence with one per row
    of a batch; the rows of each characteristic are evaluated exactly as a
    separate call with only those rows would evaluate them.

    The truncation radius of each t is chosen from the smallest eigenvalue
    of pi Im B so the Gaussian tail of the undifferentiated sum is below
    ``_THETA_TOL`` times the central magnitude (derivative factors are not in the
    bound).  A batch is summed in chunks of ``_THETA_CHUNK`` arguments over
    one box lattice each, whose radius is the largest over the chunk.
    TruncationFailure is raised if any radius exceeds the cap, and
    DomainError for a non-finite t or B.

    Chunks of two or more arguments skip terms: only the lattice points
    whose term, derivative factor included, comes within
    exp(-``_THETA_SKIP``) of the largest term of some row are
    exponentiated, and each row sums its kept terms sequentially in lattice
    order, as the full box does.  A skipped term is below a quarter ulp of
    any partial sum of at least ``_THETA_CANCEL`` times the row's largest
    term, so it cannot change a bit of it; a chunk with a sum whose real or
    imaginary part is below that (a part that cancels to rounding noise, as
    the imaginary part of a real theta does) is summed again over the whole
    box.  One-argument chunks always sum the whole box (pairwise, as NumPy
    sums a contiguous row).  The result is ``==`` to the full-box kernel
    (``tests/oracles.theta_full_box``) on every case tested; the check is on
    final sums, so a partial sum that cancels part-way and grows again lies
    outside the argument.
    """
    if isinstance(B, RiemannMatrix):
        B = B.B
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    g = B.shape[0]
    t = np.asarray(t, dtype=complex)
    batched = t.ndim == 2
    t = t.reshape(-1, g)
    if not (np.isfinite(B).all() and np.isfinite(t).all()):
        raise DomainError("theta needs a finite argument t and period matrix B")
    if char is None or isinstance(char, ThetaCharacteristic):
        by_char = {char: slice(None)}
    elif len(char) == len(t):
        by_char = {}
        for row, c in enumerate(char):
            by_char.setdefault(c, []).append(row)
    else:
        raise DomainError(f"{len(char)} characteristics for {len(t)} arguments")
    dirs = [[np.asarray(u, dtype=complex).reshape(g) for u in derivs]
            for derivs in derivs_list]
    Y = B.imag
    lam_min = float(np.linalg.eigvalsh(Y).min())
    if lam_min <= 0:
        raise DomainError("Im B must be positive definite")
    s = np.sqrt(max(-np.log(_THETA_TOL) + 8.0, 1.0) / (np.pi * lam_min))
    groups = []
    for c, rows in by_char.items():
        tc = t[rows]
        a = np.zeros(g) if c is None else np.asarray(c.a, dtype=float)
        b = np.zeros(g) if c is None else np.asarray(c.b, dtype=float)
        # dominant lattice region is centered near -Y^{-1} Im(t); tail bound
        # exp(-pi lam_min (r - r0)^2) <= tol with polynomial safety margin
        center = np.linalg.solve(Y, tc.imag.T).T
        r0 = np.linalg.norm(center, axis=1) + float(np.linalg.norm(a)) + 1.0
        radius = r0 + s + 2.0
        if len(tc) and radius.max() > _RADIUS_CAP:
            raise TruncationFailure(
                f"required lattice radius {radius.max():.1f} exceeds cap {_RADIUS_CAP}"
            )
        groups.append((tc, rows, a, b, radius))
    out = np.empty((len(t), len(dirs)), dtype=complex)
    for tc, rows, a, b, radius in groups:
        vals = np.empty((len(tc), len(dirs)), dtype=complex)
        boxes = {}
        for lo in range(0, len(tc), _THETA_CHUNK):
            chunk = slice(lo, lo + _THETA_CHUNK)
            R = int(np.ceil(radius[chunk].max()))
            if R not in boxes:
                boxes[R] = _theta_box(_theta_lattice(g, R) + a, B, dirs, len(tc) > 1)
            vals[chunk] = _theta_chunk(boxes[R], tc[chunk] + b)
        out[rows] = vals
    return out if batched else [complex(v) for v in out[0]]


def _theta_box(q, B, dirs, skip):
    """The t-free parts of a box lattice q (n + a): the quadratic exponent,
    the derivative factors of each spec and, where terms may be skipped,
    the log of the largest derivative factor of any spec at each point."""
    quad = 1j * np.pi * np.einsum("mi,ij,mj->m", q, B, q)
    factors = [[2j * np.pi * (q @ u) for u in derivs] for derivs in dirs]
    top = None
    if skip:
        with np.errstate(divide="ignore"):
            top = np.max([sum((np.log(np.abs(f)) for f in fs), np.zeros(len(q)))
                          for fs in factors], axis=0)
    return q, quad, factors, top


def _theta_chunk(box, tb):
    """Theta sums of one chunk over a box (see :func:`_theta_box`) for the
    shifted arguments tb (t + b) of shape (n, g); returns (n, specs)."""
    q, quad, factors, top = box
    expo = quad[:, None] + 2j * np.pi * (q @ tb.T)
    # one row per argument, contiguous along the lattice: fast reductions
    re = np.ascontiguousarray(expo.real.T)
    # subtract the max for overflow safety; restored at the end
    shift = re.max(axis=1)
    whole = slice(None)
    if len(tb) == 1:
        sums = _theta_sums(expo, shift, factors, whole)
    else:
        keep = np.flatnonzero((re - shift[:, None]).max(axis=0) + top >= -_THETA_SKIP)
        sums = _theta_sums(expo, shift, factors, keep)
        if len(keep) < len(q) and np.abs(sums.view(float)).min() < _THETA_CANCEL:
            sums = _theta_sums(expo, shift, factors, whole)
    return sums * np.exp(shift)[:, None]


def _theta_sums(expo, shift, factors, keep):
    """Shifted sums over the box points ``keep`` of expo, in lattice order;
    returns (n, specs)."""
    base = np.exp(expo[keep] - shift)
    out = np.empty((len(shift), len(factors)), dtype=complex)
    for k, fs in enumerate(factors):
        vals = base
        for f in fs:
            vals = vals * f[keep, None]
        out[:, k] = vals.sum(axis=0)
    return out


def theta1_prime(tau):
    """theta_1'(0 | tau) for the Jacobi theta function, genus-1 convention.

    theta_1(z|tau) = -theta[1/2,1/2](z; tau); the derivative is with respect
    to z.
    """
    char = ThetaCharacteristic((0.5,), (0.5,))
    val = riemann_theta([0.0], np.array([[complex(tau)]]), char=char,
                        derivs=[[1.0]])
    return -val


# ---------------------------------------------------------------------------
# Polynomial algebra
# ---------------------------------------------------------------------------

def poly_normalize(coeffs):
    """Trim trailing zero leading coefficients; ascending order in, out."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0:
        raise DegenerateInput("empty coefficient list")
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise DegenerateInput("zero polynomial")
    keep = np.nonzero(np.abs(c) > 0.0)[0]
    return c[: keep[-1] + 1]


def resultant(f, g):
    """Resultant of two polynomials via the Sylvester-matrix determinant.

    Coefficients ascending.  Satisfies R(f,g) = lc(f)^deg(g) prod g(roots f).
    """
    f = poly_normalize(f)
    g = poly_normalize(g)
    m, n = len(f) - 1, len(g) - 1
    if m == 0 and n == 0:
        return complex(1.0)
    if m == 0:
        return complex(f[0] ** n)
    if n == 0:
        return complex(g[0] ** m)
    S = np.zeros((m + n, m + n), dtype=complex)
    fr, gr = f[::-1], g[::-1]
    for i in range(n):
        S[i, i : i + m + 1] = fr
    for i in range(m):
        S[n + i, i : i + n + 1] = gr
    return complex(np.linalg.det(S))


def poly_roots(coeffs):
    """All roots of a polynomial with post-hoc residual certification.

    Returns (roots, multiplicities).  Residuals |f(r)| / ||f|| must be below
    1e-10 scaled by local conditioning; multiplicity is detected by
    clustering within 1e-7 times the root magnitude scale.
    """
    c = poly_normalize(coeffs)
    if len(c) < 2:
        raise DegenerateInput("degree must be >= 1")
    r = np.roots(c[::-1])
    norm = float(np.max(np.abs(c)))
    scale = max(1.0, float(np.max(np.abs(r))) if r.size else 1.0)
    vals = npoly.polyval(r, c)
    cond = norm * scale ** (len(c) - 1)
    resid = np.abs(vals) / cond
    if np.any(resid > 1e-10):
        raise NonConvergence(
            f"uncertified roots: max residual {resid.max():.3e} > 1e-10"
        )
    # multiplicity clustering
    used = np.zeros(len(r), dtype=bool)
    roots, mults = [], []
    eps = 1e-7 * scale
    for i in range(len(r)):
        if used[i]:
            continue
        close = np.abs(r - r[i]) < eps
        close &= ~used
        roots.append(complex(np.mean(r[close])))
        mults.append(int(np.sum(close)))
        used |= close
    return np.array(roots), np.array(mults)


def _rat_derivs(num, den):
    """f' of f = num/den as a rational pair (numerator, denominator),
    ascending coefficients; apply again for higher derivatives."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    d1n = npoly.polysub(
        npoly.polymul(npoly.polyder(num), den),
        npoly.polymul(num, npoly.polyder(den)),
    )
    d1d = npoly.polymul(den, den)
    return (d1n, d1d)


def schwarzian(num, den, w):
    """Schwarzian derivative of the rational function f = num/den at w.

    S_f = (f''' f' - (3/2) f''^2) / f'^2, computed by exact rational
    differentiation then evaluation.  Raises CriticalPointSingularity when
    f'(w) = 0 within floating tolerance.
    """
    w = complex(w)
    f1n, f1d = _rat_derivs(num, den)
    f2n, f2d = _rat_derivs(f1n, f1d)
    f3n, f3d = _rat_derivs(f2n, f2d)

    def ev(n, d):
        return npoly.polyval(w, n) / npoly.polyval(w, d)

    n_at_w = npoly.polyval(w, f1n)
    n_scale = float(np.max(np.abs(f1n))) * max(1.0, abs(w)) ** (len(f1n) - 1)
    if abs(n_at_w) < 1e-12 * max(n_scale, 1e-300):
        raise CriticalPointSingularity(f"f'({w}) = 0: Schwarzian is singular")
    fp = ev(f1n, f1d)
    fpp = ev(f2n, f2d)
    fppp = ev(f3n, f3d)
    return (fppp * fp - 1.5 * fpp ** 2) / fp ** 2
