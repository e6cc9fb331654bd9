"""Computational Riemann-surface layer for hyperelliptic models y^2 = prod(z - e_i)
with the covering map f = z.

Implements period matrices, normalized differentials, Abel maps with sheet
tracking, the canonical bidifferential W in the distinguished chart of each
branch point two ways (second log-derivatives of odd theta functions, and
the algebraic Klein-Baker kernel), Bergman and Schiffer projective
connections, the Bergman kernel and Riemann constants.

Conventions (fixed, documented):

* Branch points are taken in the declared input order; cut/pair i is
  (e_{2i}, e_{2i+1}) (0-indexed consecutive pairs).
* a_i is the loop around pair i shrunk onto the segment between its two
  points (z = c + d cos theta); b_i is the chain of such pair loops around
  (e_{2i+1}, e_{2i+2}), (e_{2i+3}, e_{2i+4}), ..., (e_{2g-1}, e_{2g}).
* All Abel integrals run through a star of paths from a common generic hub
  point; sheet 1 at the hub is the principal square root of prod(hub - e_i).
* A pair loop's raw lift takes y from principal roots along its segment, not
  from the hub, so it may sit on either sheet; all lift signs are pinned
  through the Riemann relations (unique assignment giving a symmetric B with
  positive definite Im B, after a global orientation flip).
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CharacteristicSingular,
    ChartBranchInconsistency,
    CurveGeometryError,
    DiagonalTooClose,
    ExtrapolationUnstable,
    IllConditionedPeriods,
    LatticeResolutionFailure,
    PeriodQuadratureFailure,
    SheetTrackingLoss,
)
from .quadrature import trapezoid_doubling as _trapezoid_doubling
from .specfun import (
    RiemannMatrix,
    ThetaCharacteristic,
    riemann_theta_bundle,
    riemann_theta_grid,
)

__all__ = [
    "CurvePoint",
    "BranchChart",
    "InfinityEnd",
    "HyperellipticCurve",
]


@dataclass(frozen=True)
class CurvePoint:
    """Point on the two-sheeted curve: base coordinate z and fiber value y."""

    z: complex
    y: complex


@dataclass(frozen=True)
class BranchChart:
    """Distinguished chart data at a branch point: x = (z - e_m)^(1/2).

    ``sqrt_h`` is the tracked branch of sqrt(prod_{i != m}(e_m - e_i)) that
    fixes the chart (y = x * sqrt_h(z(x)) near the point); ``abel`` is the
    hub-based Abel vector of the branch point; ``v_lead`` holds the leading
    distinguished-chart coefficients of the normalized differentials.
    """

    index: int
    abel: np.ndarray
    sqrt_h: complex
    v_lead: np.ndarray


@dataclass(frozen=True)
class InfinityEnd:
    """One of the two points over z = infinity; chart zeta = 1/z.

    ``sign`` is the sheet marker lim y * zeta^(g+1) in {+1, -1}.
    """

    abel: np.ndarray
    sign: float
    v_lead: np.ndarray


def _tracked_sqrt(vals, seed=None):
    """Continuous branch of sqrt along the last axis of nonzero values.

    Each row (everything but the last axis) is tracked on its own: principal
    square roots are glued by sign flips chosen so consecutive values stay
    within 90 degrees, and the first value of a row matches its ``seed``
    (broadcast over the rows) when given.  Raises SheetTrackingLoss when
    consecutive principal values are nearly perpendicular (tracking
    ambiguous: sampling too coarse) or a seed is not within 60 degrees of
    either root.
    """
    w = np.sqrt(np.asarray(vals, dtype=complex))
    if w.size == 0:
        return w
    dots = np.real(w[..., 1:] * np.conj(w[..., :-1]))
    mags = np.abs(w[..., 1:]) * np.abs(w[..., :-1])
    if np.any(mags == 0):
        raise SheetTrackingLoss("square-root tracking hit a zero of the fiber")
    cosang = dots / mags
    if np.any(np.abs(cosang) < 0.17):   # within ~80 degrees of perpendicular
        raise SheetTrackingLoss(
            "consecutive y values nearly perpendicular: refine the sampling"
        )
    flips = np.where(cosang < 0.0, -1.0, 1.0)
    ones = np.ones(flips.shape[:-1] + (1,))
    out = w * np.concatenate((ones, np.cumprod(flips, axis=-1)), axis=-1)
    if seed is not None:
        ratio = seed / out[..., 0]
        miss = np.abs(np.abs(ratio) - 1.0)
        if np.any(miss > 1e-6):
            worst = np.abs(ratio).flat[np.argmax(miss)]
            raise SheetTrackingLoss(
                f"seed magnitude mismatch in sqrt tracking: |ratio| = {worst}"
            )
        if np.any(np.abs(np.real(ratio)) < 0.5):
            raise SheetTrackingLoss("seed direction ambiguous in sqrt tracking")
        out = np.where((np.real(ratio) < 0)[..., None], -out, out)
    return out


def _cmul(p, q):
    """Complex product p q rounded term by term as Python's complex does,
    (pr qr - pi qi) + (pr qi + pi qr) i: NumPy's complex multiply loops
    round some products differently in the last bit."""
    out = np.empty(np.broadcast(p, q).shape, dtype=complex)
    out.real = p.real * q.real - p.imag * q.imag
    out.imag = p.real * q.imag + p.imag * q.real
    return out


def _graded_edges(z0, z1, e):
    """Panel edges in s, one row per straight path z0 + s (z1[k] - z0), s in
    [0, 1]: a panel starting at distance d from the nearest branch point has
    length d / _PANEL_DIV in z (clipped at s = 1), so all of it stays at least
    twice its length from every branch point; a row done first is padded
    with edges at 1.  A path that ends on or passes through a branch point
    (d below 1e-12 of its length) raises, naming its end point."""
    z1 = np.asarray(z1, dtype=complex)
    span = (z1 - z0)[:, None]
    # builtin abs (hypot): NumPy's complex abs can differ in the last bit
    length = np.array([abs(complex(d)) or 1.0 for d in span[:, 0]])
    s = np.zeros(len(span))
    edges = [s]
    while s.min() < 1.0:
        d = np.abs(z0 + s[:, None] * span - e).min(axis=1)
        hit = (s < 1.0) & (d < 1e-12 * length)
        if hit.any():
            raise SheetTrackingLoss(
                f"straight path from {z0} to {complex(z1[hit][0])} "
                "meets a branch point")
        s = np.minimum(s + d / (_PANEL_DIV * length), 1.0)
        edges.append(s)
    return np.array(edges).T


_odd_characteristics = lru_cache(maxsize=None)(
    ThetaCharacteristic.odd_characteristics)
_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)

_PERIOD_TARGET = 1e-10    # pair-loop period certificate
_PANEL_DIV = 3            # branch-point distance / straight-path panel length

# Curves built in this process, keyed on the branch-point bytes and the final
# hub: an equal key reuses the period data and shares the memo (not the
# instance dict), least recently used entry evicted first.
_CURVE_TABLE = OrderedDict()
_CURVE_TABLE_SIZE = 8


class HyperellipticCurve:
    """Hyperelliptic curve y^2 = prod(z - e_i) with 2g + 2 finite branch
    points and the degree-2 covering map f = z."""

    def __init__(self, branch_points, hub=None):
        e = np.array(branch_points, dtype=complex).ravel()
        if len(e) < 4 or len(e) % 2 != 0:
            raise CurveGeometryError("need an even number >= 4 of branch points")
        if not np.all(np.isfinite(e)):
            raise CurveGeometryError("branch points must be finite")
        scale = float(np.max(np.abs(np.subtract.outer(e, e))))
        gaps = np.abs(np.subtract.outer(e, e)) + np.eye(len(e)) * scale
        if gaps.min() < 1e-8 * scale:
            raise CurveGeometryError("branch points too close together")
        if hub is None:
            hub = e.mean() + 0.37j * (np.ptp(e.real) + 0.2 * scale) \
                + 0.11 * np.ptp(np.abs(e)) + 1.3
        hub = complex(hub)
        if np.min(np.abs(hub - e)) < 0.05 * scale:
            hub += 0.23j * scale
        key = (e.tobytes(), np.complex128(hub).tobytes())
        if key in _CURVE_TABLE:
            _CURVE_TABLE.move_to_end(key)
            self.__dict__.update(_CURVE_TABLE[key])
            return
        e.flags.writeable = False
        self.e = e
        self._others = np.array([np.delete(e, m) for m in range(len(e))])
        self.g = (len(e) - 2) // 2
        self.scale = scale
        self.marking = "standard"
        self.hub = hub
        self.y_hub = complex(np.sqrt(np.prod(self.hub - e)))
        self._memo = {}
        self._build_periods()
        _CURVE_TABLE[key] = dict(self.__dict__)
        if len(_CURVE_TABLE) > _CURVE_TABLE_SIZE:
            _CURVE_TABLE.popitem(last=False)

    def _memoized(self, key, build):
        """Memo value under ``key``: ``build()`` once, kept only if it returns."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # ------------------------------------------------------------------
    # fiber
    # ------------------------------------------------------------------

    def fiber2(self, z):
        """y^2 = prod(z - e_i), vectorized over z."""
        z = np.asarray(z, dtype=complex)
        return np.prod(z[..., None] - self.e, axis=-1)

    def point(self, z):
        """CurvePoint over z on the sheet continued from the hub along a
        straight segment."""
        vec, y = self.abel_from_hub(z)
        return CurvePoint(complex(z), complex(y))

    # ------------------------------------------------------------------
    # pair loops and periods
    # ------------------------------------------------------------------

    def _pair_loop_integrals(self, i, j, n=None):
        """Integrals of z^k dz / y, k < n (default g), over the (i, j) loop.

        The loop is shrunk onto the focal segment, z = c + d cos(theta), with
        y = i d sin(theta) s(z) and s(z) = sqrt(prod(c - e_l)) *
        prod_l sqrt((z - e_l) / (c - e_l)) over the other branch points
        (principal roots: each ratio keeps its argument in (-pi, pi) on the
        segment), so dz / y = i dtheta / s(z) is smooth and periodic; no
        tracking is needed.  A certificate that misses ``_PERIOD_TARGET``
        raises."""
        n = n or self.g

        def build():
            c, d = (self.e[i] + self.e[j]) / 2, (self.e[j] - self.e[i]) / 2
            others = np.delete(self.e, [i, j])
            s_c = np.sqrt(np.prod(c - others))

            def fun(th):
                z = c + d * np.cos(th)
                s = s_c * np.prod(np.sqrt((z[:, None] - others)
                                          / (c - others)), axis=1)
                return 1j * z[:, None] ** np.arange(n) / s[:, None]

            with np.errstate(divide="ignore", invalid="ignore"):
                val, N, cert = _trapezoid_doubling(fun, target=_PERIOD_TARGET)
            if not cert < _PERIOD_TARGET:
                raise PeriodQuadratureFailure(
                    f"pair loop ({i}, {j}): period certificate {cert:.2e} "
                    f"misses {_PERIOD_TARGET:.0e} at {N} nodes: another branch "
                    f"point lies on or near the segment from e_{i} to e_{j}")
            return val, cert
        return self._memoized(("pair", i, j, n), build)

    def _build_periods(self):
        g = self.g
        # raw loop(2i, 2i+1) of each a-cycle, raw loop(2k+1, 2k+2) of each
        # chain member
        loops = [[self._pair_loop_integrals(2 * i + s, 2 * i + s + 1)
                  for i in range(g)] for s in (0, 1)]
        A, chain = (np.array([val for val, _ in row]) for row in loops)
        self.period_certificate = max(c for row in loops for _, c in row)

        # The raw pair-loop lifts of the a-cycles and of the chain members
        # sit on either sheet.  Pin all lift signs through the Riemann
        # relations: sign assignments that make B symmetric with definite
        # Im B all produce the same marking (and the same B after the global
        # orientation flip below); anything else is rejected.  All 4^g
        # assignments are screened as one stack, candidate n having the
        # a-signs of bits g..2g-1 of n (outer) and the chain signs of bits
        # 0..g-1; the first one that passes is taken.
        n = np.arange(4 ** g)[:, None]
        a_signs = 1.0 - 2.0 * ((n >> (g + np.arange(g))) & 1)
        c_signs = 1.0 - 2.0 * ((n >> np.arange(g)) & 1)
        Amat = a_signs[:, :, None] * A
        C = np.zeros((len(n), g, g), dtype=complex)
        for k in range(g):      # row i sums its chain members k >= i in order
            C[:, : k + 1] += (c_signs[:, k, None] * chain[k])[:, None, :]
        Aeff, Ceff = (Amat, C) if self.marking == "standard" else (C, -Amat)
        condA = np.linalg.cond(Aeff)
        if np.any(condA > 1e10):
            raise IllConditionedPeriods(
                f"a-period condition number {condA[condA > 1e10][0]:.2e}")
        inv = np.linalg.solve(Aeff, np.broadcast_to(np.eye(g), Aeff.shape))
        Braw = Ceff @ inv
        sym = np.max(np.abs(Braw - Braw.transpose(0, 2, 1)), axis=(1, 2)) \
            / np.maximum(1.0, np.max(np.abs(Braw), axis=(1, 2)))
        Bsym = (Braw + Braw.transpose(0, 2, 1)) / 2
        eigs = np.linalg.eigvalsh(Bsym.imag)
        flip = eigs.max(axis=1) < 0
        ok = ~(sym > 1e-7) & ((eigs.min(axis=1) > 0) | flip)
        if not ok.any():
            raise CurveGeometryError(
                "no lift-sign assignment makes the consecutive-pair marking "
                "symplectic; reorder the branch points"
            )
        Bfix = np.where(flip[:, None, None], -Bsym, Bsym)[ok]
        if np.any(np.max(np.abs(Bfix[1:] - Bfix[0]), axis=(1, 2))
                  > 1e-7 * max(1.0, np.max(np.abs(Bfix[0])))):
            raise CurveGeometryError(
                "ambiguous homology lift signs for this configuration"
            )
        c = int(np.argmax(ok))
        self.coef = inv[c].T
        self.sym_err = float(sym[c])
        self._a_signs = a_signs[c]
        self._chain_signs = -c_signs[c] if flip[c] else c_signs[c]
        self.B = RiemannMatrix(-Bsym[c] if flip[c] else Bsym[c])

    def swap_marking(self):
        """Curve with (a, b) -> (b, -a); same raw contours, new normalization:
        its memo keeps the pair loops alone, the one marking-free entry."""
        other = copy.copy(self)
        other.marking = "swapped" if self.marking == "standard" else "standard"
        other._memo = {k: v for k, v in self._memo.items()
                       if isinstance(k, tuple) and k[0] == "pair"}
        other._build_periods()
        return other

    # ------------------------------------------------------------------
    # differentials
    # ------------------------------------------------------------------

    def v_poly(self, z):
        """Polynomial parts P_j(z) = sum_k coef[j,k] z^k, shape (..., g)."""
        z = np.asarray(z, dtype=complex)
        mono = z[..., None] ** np.arange(self.g)
        return mono @ self.coef.T

    def v_hat(self, P):
        """Chart values v_j/dz at a curve point."""
        return self.v_poly(P.z) / P.y

    def v_hat_deriv(self, P):
        """d/dz of v_j/dz at a curve point (exact closed form)."""
        z, y = P.z, P.y
        mono_d = np.concatenate(
            ([0.0], np.arange(1, self.g) * z ** np.arange(0, self.g - 1))
        ).astype(complex)
        dP = self.coef @ mono_d
        dy_over_y = 0.5 * np.sum(1.0 / (z - self.e))
        return dP / y - self.v_poly(z) / y * dy_over_y

    def wronskian(self, P):
        """Wronskian of (v_1 .. v_g) in the z chart at P (g <= 2 supported)."""
        if self.g == 1:
            return complex(self.v_hat(P)[0])
        if self.g == 2:
            v = self.v_hat(P)
            dv = self.v_hat_deriv(P)
            return complex(v[0] * dv[1] - v[1] * dv[0])
        raise CurveGeometryError("wronskian implemented for g <= 2")

    # ------------------------------------------------------------------
    # Abel map machinery
    # ------------------------------------------------------------------

    @staticmethod
    def _chart_path(s0, s1, seed, fiber2, numer, s_edges, ngl):
        """Integrals of numer(s) / sqrt(fiber2(s)) ds along the straight chart
        segments from s0 (shared or one per segment) to each end point in s1
        (shape (n,)), on panels of ngl Gauss-Legendre nodes with edges s_edges
        (fractions of the way), one row per segment (shape (n, P + 1)) or one
        shared row.  Edges padded at 1 make zero-width panels, whose weights
        are exactly 0: the padding adds exact zeros.  Row k of the node arrays
        that fiber2 and numer get lies on segment k.

        The square root is tracked from ``seed`` (its value at s0, shared or
        one per segment) along each segment's node chain, which runs in order
        from s0 to its end; returns the (n, g) integrals and the (n,) tracked
        roots at the ends."""
        xg, wg = _leggauss(ngl)
        span = np.asarray(s1, dtype=complex) - s0
        n = len(span)
        edges = np.broadcast_to(s_edges, (n, np.shape(s_edges)[-1]))
        ds = np.diff(edges)
        mids = edges[:, :-1, None] + ds[..., None] * (xg + 1) / 2
        chain = np.asarray(s0)[..., None] + span[:, None] * np.concatenate(
            (np.zeros((n, 1)), mids.reshape(n, -1), np.ones((n, 1))), axis=1)
        root = _tracked_sqrt(fiber2(chain), seed=seed)
        vals = numer(chain[:, 1:-1].reshape(mids.shape)) \
            / root[:, 1:-1].reshape(mids.shape)[..., None]
        vec = np.einsum("sk,nskg,ns->ng", np.broadcast_to(wg, mids.shape[1:]),
                        vals, span[:, None] * ds) / 2
        return vec, root[:, -1]

    def abel_segment(self, z0, y0, z1):
        """Integral of (v_1 .. v_g) along the straight segment z0 -> z1 with
        tracked sheet, on panels of 16 Gauss-Legendre nodes graded by the
        distance to the branch points (:func:`_graded_edges`); returns
        (vector, y at z1)."""
        vec, y1 = self._chart_path(z0, [z1], y0, self.fiber2, self.v_poly,
                                   _graded_edges(z0, [z1], self.e), 16)
        return vec[0], complex(y1[0])

    def abel_from_hub(self, z):
        """Abel vector of the point over z reached by the straight hub path."""
        z = complex(z)
        return self._memoized(("abel", z),
                              lambda: self.abel_segment(self.hub, self.y_hub, z))

    # ------------------------------------------------------------------
    # distinguished charts at branch points and at infinity
    # ------------------------------------------------------------------

    def _x_chart(self, ms):
        """(fiber2, numer) of :meth:`_chart_path`, row k of the nodes in the
        chart x = (z - e_m)^(1/2) at branch point m = ms[k]: y = x sqrt(h) with
        h = prod_{i != m}(z - e_i) and dz = 2x dx, so v = 2 v_poly dx / sqrt(h)."""
        zm, others = self.e[ms][:, None], self._others[ms][:, None]

        def h(x):
            return np.prod((zm + x ** 2)[..., None] - others, axis=-1)

        return h, lambda x: 2.0 * self.v_poly(zm[..., None] + x ** 2)

    def _handoff(self, m):
        """(z, x = (z - e_m)^(1/2)) where the hub path to branch point m hands
        off to its chart: 0.9 of the way, kept clear of the other points."""
        zm, others = self.e[m], self._others[m]
        zh = self.hub + 0.9 * (zm - self.hub)
        guard = 0
        while np.min(np.abs(zh - others)) < 0.25 * np.min(np.abs(zm - others)) \
                and guard < 30:
            zh = zm + (zh - zm) * 0.8
            guard += 1
        x_h = complex(np.sqrt(zh - zm))
        if abs(x_h ** 2 - (zh - zm)) > 1e-9 * abs(zh - zm):
            raise ChartBranchInconsistency(
                "distinguished-chart square root failed to match the handoff")
        return complex(zh), x_h

    def _divisor_abel(self):
        """Memo record "divisor" of the divisor of df ("branch", "inf",
        "probes", "probe_abel"), from two :meth:`_chart_path` calls.  One
        holds every hub leg: each :meth:`_handoff`, the ray towards 1 + 0.3i
        out to 8 (scale + |hub|) and, for g >= 2, the 3 K and 2 transport
        probes of :meth:`riemann_constants` (drawn once).  The other holds
        every chart leg (40 panels of 16 nodes): each handoff to its branch
        point, and the ray's end to zeta = 1/z = 0, where w = y zeta^(g+1)
        has w^2 = prod(1 - e_i zeta) and v = -sum coef zeta^(g-1-k) dzeta/w."""
        e, g, n = self.e, self.g, len(self.e)
        zh, x_h = zip(*map(self._handoff, range(n)))
        d = (1.0 + 0.3j) / abs(1.0 + 0.3j)
        zJ = self.hub + d * 8.0 * (self.scale + abs(self.hub))
        probes = [] if g == 1 else self._probe_points(17, 3, 0.3, 1.2, 1.5) \
            + self._probe_points(23, 2, 0.4, 1.3, 1.4)
        ends = [*zh, zJ, *probes]
        vec, y = self._chart_path(self.hub, ends, self.y_hub, self.fiber2,
                                  self.v_poly,
                                  _graded_edges(self.hub, ends, e), 16)
        y = list(map(complex, y))
        zetaJ = 1.0 / zJ
        h, numer = self._x_chart(np.arange(n))
        leg, root = self._chart_path(
            np.array(x_h + (zetaJ,)), np.zeros(n + 1),
            np.array([a / b for a, b in zip(y, x_h)]
                     + [y[n] * zetaJ ** (g + 1)]),
            lambda s: np.concatenate(
                (h(s[:n]), np.prod(1.0 - e * s[n:, :, None], axis=-1))),
            lambda s: np.concatenate((numer(s[:n]), -(
                s[n:, ..., None] ** (g - 1 - np.arange(g)) @ self.coef.T))),
            np.linspace(0.0, 1.0, 41), 16)
        s_inf = complex(root[n])
        if min(abs(s_inf - 1), abs(s_inf + 1)) > 1e-6:
            raise SheetTrackingLoss(f"infinity sheet marker {s_inf} not near +-1")
        sign = 1.0 if abs(s_inf - 1) < abs(s_inf + 1) else -1.0
        branch = {m: BranchChart(index=m, abel=vec[m] + leg[m], sqrt_h=s_m,
                                 v_lead=2.0 * self.v_poly(e[m]) / s_m)
                  for m, s_m in enumerate(map(complex, root[:n]))}
        a_first = vec[n] + leg[n]
        v_lead = -self.coef[:, g - 1]
        return {"branch": branch, "probes": probes, "probe_abel": vec[n + 1:],
                "inf": (InfinityEnd(abel=a_first, sign=sign,
                                    v_lead=v_lead / sign),
                        InfinityEnd(abel=2 * branch[0].abel - a_first,
                                    sign=-sign, v_lead=v_lead / -sign))}

    def branch_data(self, m):
        """Abel vector of branch point m plus the distinguished-chart branch:
        x = (z - e_m)^(1/2) with y = x sqrt_h, sqrt_h the root of
        prod_{i != m}(z - e_i) tracked along the hub approach.  The first
        request fills every branch point (:meth:`_divisor_abel`)."""
        return self._memoized("divisor", self._divisor_abel)["branch"][m]

    def _chart_points(self, m, xs):
        """(z, y) at the chart values xs (shape (n,)) near branch point m: z =
        e_m + x^2, y = x sqrt_h prod_{i != m} sqrt((z - e_i) / (e_m - e_i)) in
        principal roots.  Each ratio runs straight from 1 along the ray, so it
        meets the cut only at a branch point: an end ratio on the cut raises."""
        sqrt_h, zm, others = self.branch_data(m).sqrt_h, self.e[m], self._others[m]
        z = zm + _cmul(xs, xs)
        r = (z[:, None] - others) / (zm - others)
        if np.any((r.real <= 0) & (np.abs(r.imag) <= 1e-12 * np.abs(r))):
            raise SheetTrackingLoss(f"chart ray from e_{m} meets a branch point")
        return z, _cmul(xs, sqrt_h * np.prod(np.sqrt(r), axis=1))

    def _chart_rows(self, m, xs):
        """(Abel vectors, distinguished-chart differentials), each (n, g), at
        the chart values xs (shape (n,)) near branch point m: one chart path
        from 0 per node (one panel of 24 Gauss-Legendre nodes) from the hub
        through the branch point, and v = 2 v_poly(e_m + x^2) / sqrt_h with
        the root sqrt_h that the path tracks to the node (v_poly on one
        (1, g) row per node)."""
        bd = self.branch_data(m)
        vec, root = self._chart_path(0.0, xs, bd.sqrt_h,
                                     *self._x_chart(np.full(len(xs), m)),
                                     np.linspace(0.0, 1.0, 2), 24)
        z = self.e[m] + _cmul(xs, xs)
        return bd.abel + vec, \
            2.0 * self.v_poly(z[:, None])[:, 0] / root[:, None]

    def branch_chart_point(self, m, x):
        """CurvePoint for chart value x near branch point m (y = x sqrt_h(z))."""
        z, y = self._chart_points(m, np.array([complex(x)]))
        return CurvePoint(complex(z[0]), complex(y[0]))

    def abel_branch_chart(self, m, x):
        """Abel vector from the hub through branch point m to the chart point
        x (chart path, one panel of 24 Gauss-Legendre nodes)."""
        return self._chart_rows(m, np.array([complex(x)]))[0][0]

    def infinity_data(self):
        """Both points over z = infinity with sheet markers +1 and -1: the
        first through a hub ray and a 1/z-chart leg (:meth:`_divisor_abel`), the
        second its involution image, A(sigma P) = 2 A(e_0) - A(P)."""
        return self._memoized("divisor", self._divisor_abel)["inf"]

    # ------------------------------------------------------------------
    # theta layer
    # ------------------------------------------------------------------

    def theta(self, t, char=None, derivs=()):
        return riemann_theta_bundle(t, self.B, char=char, derivs_list=(tuple(derivs),))[0]

    def theta_bundle(self, t, char=None, derivs_list=((),)):
        return riemann_theta_bundle(t, self.B, char=char, derivs_list=derivs_list)

    def odd_char_gradients(self):
        """All odd characteristics with their theta gradients at 0; memoized."""
        def build():
            odd = _odd_characteristics(self.g)
            grads = self.theta_bundle(np.zeros((len(odd), self.g)), char=odd,
                                      derivs_list=_w_specs(self.g)[1:self.g + 1])
            out = list(zip(odd, grads))
            if not any(np.linalg.norm(gr) > 1e-10 for _, gr in out):
                raise CharacteristicSingular("all odd theta gradients vanish")
            return out
        return self._memoized("grad", build)

    def _w_char(self):
        """Fixed odd characteristic for the bidifferential kernel."""
        return _odd_characteristics(self.g)[0]

    # ------------------------------------------------------------------
    # canonical bidifferential and projective connections
    # ------------------------------------------------------------------

    def w_hat_branch_chart(self, m, x1, x2):
        """Distinguished-chart value of W at two chart points x1, x2 near
        branch m: both nodes' rows from one :meth:`_chart_rows` batch, one
        theta call on one row, one contraction."""
        x1, x2 = complex(x1), complex(x2)
        if abs(x1 - x2) < 1e-10 * max(abs(x1), abs(x2), 1e-30):
            raise DiagonalTooClose("bidifferential requested on the diagonal")
        abel, v = self._chart_rows(m, np.array([x1, x2]))
        L = _log_deriv(self.theta_bundle(abel[1:] - abel[:1], self._w_char(),
                                         _w_specs(self.g)), self.g)
        return -complex(np.einsum("nij,nj,ni->n", L, v[:1], v[1:])[0])

    def w_hat_branch_chart_grid(self, m, xs, ys):
        """Distinguished-chart W at every pair (xs_i, ys_j) of chart points
        near branch m, shape (len(xs), len(ys)): each node's rows from
        :meth:`_chart_rows`, one separable theta pass
        (:func:`riemann_theta_grid`) over the chart Abel rows, one
        contraction."""
        xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
        X, Y = xs[:, None], ys[None, :]
        near = np.maximum(np.maximum(np.abs(X), np.abs(Y)), 1e-30)
        if np.any(np.abs(X - Y) < 1e-10 * near):
            raise DiagonalTooClose("bidifferential requested on the diagonal")
        (ax, vx), (ay, vy) = self._chart_rows(m, xs), self._chart_rows(m, ys)
        L = _log_deriv(riemann_theta_grid(ax, ay, self.B, self._w_char(),
                                          _w_specs(self.g)), self.g)
        return -np.einsum("xyij,xj,yi->xy", L, vx, vy)

    def chart_radius(self, m):
        """Distinguished-chart radius at branch point m, the pull-back of 0.1
        times the distance to the nearest other branch point."""
        return np.sqrt(0.1 * float(np.min(np.abs(self._others[m] - self.e[m]))))

    def _torus(self, m, n_fft):
        """(rho1, rho2, xs, ys) of the H-Taylor torus at branch point m: 2 n_fft
        points on each of |x| = 0.33 r and |y| = 0.21 r, r = chart_radius."""
        rho1, rho2 = np.array([0.33, 0.21]) * self.chart_radius(m)
        th = np.arange(2 * n_fft) * np.pi / n_fft
        return rho1, rho2, rho1 * np.exp(1j * th), rho2 * np.exp(1j * th)

    def _klein_baker(self):
        """(lam, kappa), memoized: y^2 = sum lam_k z^k (lam zero past 2g + 2) and
        kappa = -A^-1 I R / 4, I[a, p] the integral of z^p dz / y (p <= 2g)
        over the curve's own a-cycle a, A = I[:, :g], and R[p, q] =
        max(p - q, 0) lam_{p+q+2} Baker's second-kind coefficients:
        (F(x, z) - 2 y^2(x) - (z - x) (y^2)'(x)) / (z - x)^2 = sum R[p, q]
        x^p z^q, the rest of F dx / (4 y (x - z)^2) being exact in x."""
        def build():
            g, n = self.g, 2 * self.g + 1
            if self.marking == "standard":
                I = np.array([self._pair_loop_integrals(2 * i, 2 * i + 1, n)[0]
                              for i in range(g)])
            else:       # a_i is the chain of loops (2k+1, 2k+2), k >= i
                chain = [s * self._pair_loop_integrals(2 * k + 1, 2 * k + 2, n)[0]
                         for k, s in enumerate(self._chain_signs)]
                I = np.array([sum(chain[i:]) for i in range(g)])
            lam = np.concatenate((np.poly(self.e)[::-1], np.zeros(g)))
            p, q = np.arange(n)[:, None], np.arange(g)
            R = np.maximum(p - q, 0) * lam[p + q + 2]
            return lam, -np.linalg.solve(I[:, :g], I @ R) / 4
        return self._memoized("kb", build)

    def _klein_baker_kernel(self, z1, y1, z2, y2):
        """Klein-Baker W / (dz dz) at every pair (z1_i, y1_i), (z2_j, y2_j)
        (H. F. Baker, Abelian Functions, 1897, ch. X): (2 y1 y2 + F) /
        (4 y1 y2 (z1 - z2)^2) + sum kappa_pq z1^p z2^q / (y1 y2), with F(x, z) =
        sum_k (x z)^k (2 lam_2k + lam_2k+1 (x + z)) the Kleinian 2-polar."""
        lam, kappa = self._klein_baker()
        X, Z, Y = z1[:, None], z2[None, :], y1[:, None] * y2[None, :]
        k, mono = np.arange(self.g + 2), np.arange(self.g)
        powers = (X * Z)[..., None] ** k
        F = powers @ (2 * lam[2 * k]) + (X + Z) * (powers @ lam[2 * k + 1])
        poly = z1[:, None] ** mono @ kappa @ (z2[:, None] ** mono).T
        return (2 * Y + F) / (4 * Y * (X - Z) ** 2) + poly / Y

    def bergman_sb_branch(self, m):
        """S_B = 6 H(0, 0) at branch point m, the clue identity's right side:
        the Klein-Baker kernel on the torus of :meth:`h_taylor_branch`, read
        the same way, from (z, y) at the nodes alone (W is unchanged when the
        chart's sign flips): no theta function and no chart Abel row.
        Returns (value, grid-doubling certificate)."""
        rho1, rho2, xs, ys = self._torus(m, 16)
        (z1, y1), (z2, y2) = self._chart_points(m, xs), self._chart_points(m, ys)
        W = self._klein_baker_kernel(z1, y1, z2, y2) * 4 * xs[:, None] * ys
        H, cert = h_taylor_torus(W - 1.0 / (xs[:, None] - ys) ** 2, rho1, rho2, 1)
        return 6.0 * complex(H[0, 0]), cert

    def h_taylor_branch(self, m, order=1, n_fft=16):
        """Taylor coefficients H_{pq} (p, q < order) of H(x, y) = W(x, y) -
        (x - y)^{-2} at branch point m, W from the theta kernel on the torus
        of :meth:`_torus`, read by :func:`h_taylor_torus`.  Every order is
        read from one grid per (m, n_fft), memoized."""
        rho1, rho2, xs, ys = self._torus(m, n_fft)
        grid = self._memoized(("h_grid", m, n_fft), lambda: (
            self.w_hat_branch_chart_grid(m, xs, ys) - 1.0 / (xs[:, None] - ys) ** 2))
        return h_taylor_torus(grid, rho1, rho2, order)

    def imB_inv(self):
        return np.linalg.inv(self.B.B.imag)

    def schiffer_sb_term(self, v_values):
        """6 pi sum (Im B)^{-1}_{ij} v_i v_j for chart values v."""
        Yi = self.imB_inv()
        return 6.0 * np.pi * complex(v_values @ Yi @ v_values)

    def schiffer_branch_origin(self, m):
        """Schiffer connection at x = 0 in the distinguished chart at branch
        m, with the grid certificate of its H(0, 0) (:meth:`h_taylor_branch`):
        returns (value, certificate)."""
        H, cert = self.h_taylor_branch(m, order=1)
        vlead = self.branch_data(m).v_lead
        return 6.0 * complex(H[0, 0]) - self.schiffer_sb_term(vlead), cert

    def bergman_kernel(self, v_values):
        """B(x, xbar) = sum (Im B)^{-1}_{ij} v_i conj(v_j) for chart values."""
        Yi = self.imB_inv()
        return complex(v_values @ Yi @ np.conj(v_values))

    # ------------------------------------------------------------------
    # odd characteristics of the prime forms (tau_genus2)
    # ------------------------------------------------------------------

    def _choose_char(self, om_a, om_b):
        """Pick the odd characteristic with the largest min |omega| at the
        two endpoints; reject if everything is singular."""
        chars = self.odd_char_gradients()
        scores = [min(abs(om_a[i]), abs(om_b[i])) for i in range(len(chars))]
        ci = int(np.argmax(scores))
        if scores[ci] < 1e-10:
            raise CharacteristicSingular(
                "no odd characteristic is nonsingular at both endpoints")
        return ci

    def _omega_values(self, v_values):
        return np.array([gr @ v_values for _, gr in self.odd_char_gradients()])

    # ------------------------------------------------------------------
    # Riemann constants
    # ------------------------------------------------------------------

    def _probe_points(self, seed, count, lo, hi, span):
        """``count`` probe points above the branch points from a fixed seed,
        drawn until each sits at least 0.15 scale from every branch point."""
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            zc = complex(rng.uniform(-span, span) * self.scale,
                         rng.uniform(lo, hi) * self.scale) + self.e.mean()
            if np.min(np.abs(zc - self.e)) > 0.15 * self.scale:
                out.append(zc)
        return out

    def _theta_over_reference(self, t):
        """|theta(t_k)| / |theta(ref)| for the rows of t, one batched call
        (the reference argument rides as the first row)."""
        ref_t = np.full((1, self.g), 0.13 + 0.07j)
        vals = np.abs(self.theta_bundle(np.vstack([ref_t, t]))[:, 0])
        return vals[1:] / vals[0]

    def _half_period_K(self, index=None,
                       extra=lambda K: np.zeros((0, len(K)))):
        """K at the basepoint 'branch point 0' as a half period, identified by
        the theta-divisor vanishing property and certified.

        All 4^g candidates times all probes go through one batched theta
        call; a candidate's residual is its worst probe.  Candidate k has
        alpha_i, beta_i as bits 2i, 2i + 1 of k.  With ``index`` (a candidate
        frozen at a base configuration) that the search has not already
        chosen, only that candidate is certified on the probes, a residual
        above 1e-6 raises, and the search is left unrun.  The rows
        ``extra(K)`` are certified too (their worst residual joins K's), in
        a frozen candidate's call or else in one of their own.  Returns
        (K, residual)."""
        g, div = self.g, self._memoized("divisor", self._divisor_abel)
        bits = np.arange(4 ** g)[:, None] >> (2 * np.arange(g))
        Kc = (bits & 1) @ self.B.B.T / 2 + ((bits >> 1) & 1) / 2
        offsets = np.zeros((1, g)) if g == 1 else \
            div["probe_abel"][:3] - div["branch"][0].abel
        if index not in (None, self._memo.get("K", (None,))[0]):
            vals = self._theta_over_reference(
                np.vstack([offsets + Kc[index], extra(Kc[index])]))
            resid = float(vals[:len(offsets)].max())
            if not resid <= 1e-6:
                raise LatticeResolutionFailure(
                    f"frozen half period {index} no longer satisfies the "
                    f"vanishing property (residual {resid:.2e})")
            return Kc[index], float(vals.max())

        def search():       # (index, K, residual) of the best candidate
            t = (offsets[None, :, :] + Kc[:, None, :]).reshape(-1, g)
            worst = self._theta_over_reference(t).reshape(len(Kc), -1) \
                .max(axis=1)
            order = np.argsort(worst, kind="stable")
            K, resid = Kc[order[0]], float(worst[order[0]])
            if resid > 1e-6:
                raise LatticeResolutionFailure(
                    f"no half period satisfies the vanishing property "
                    f"(best residual {resid:.2e})")
            if worst[order[1]] < 10 * resid:
                raise LatticeResolutionFailure(
                    "half-period identification ambiguous")
            return int(order[0]), K, resid
        _, K, resid = self._memoized("K", search)
        t = extra(K)
        if len(t):
            resid = max(resid, float(self._theta_over_reference(t).max()))
        return K, resid

    def half_period_index(self):
        """Index of the half period that the K search chooses."""
        self._half_period_K()
        return self._memo["K"][0]

    def riemann_constants(self, z_base=None, half_index=None):
        """Vector of Riemann constants for the given basepoint.

        Identified through the theta-divisor vanishing property at a branch
        basepoint (a half period, exact classical structure) and transported
        by K^y = K^x + (g - 1) A^x(y).  ``half_index`` certifies that frozen
        half-period candidate instead of searching all 4^g, in one theta call
        with the transport probes.  Returns (K, certificate); for g >= 2 the
        certificate also covers the vanishing at two admissible probe points.
        """
        if z_base is None:
            return self._half_period_K(half_index)
        a_base = self.abel_from_hub(z_base)[0]
        div = self._memoized("divisor", self._divisor_abel)
        shift = (self.g - 1) * (a_base - div["branch"][0].abel)
        K0, resid = self._half_period_K(half_index, lambda K: (
            div["probe_abel"][3:] - a_base + (K + shift)))
        return K0 + shift, resid

    def unfrozen_tau(self, zeta, build):
        """Unfrozen :func:`taufn.tau_genus2` at zeta, ``build()`` run once."""
        return self._memoized(("tau", complex(zeta)), build)

    def lattice_fit(self, vec, tol=1e-6):
        """Nearest lattice vector B Z + Z' to vec; raises when the residual
        exceeds tolerance or is NaN."""
        B = self.B.B
        Zr = np.linalg.solve(B.imag, np.asarray(vec).imag)
        Z = np.round(Zr)
        Zp = np.round((np.asarray(vec) - B @ Z).real)
        resid = float(np.max(np.abs(vec - B @ Z - Zp)))
        if not resid <= tol:
            raise LatticeResolutionFailure(
                f"lattice identification residual {resid:.2e} > {tol}")
        return Z.astype(int), Zp.astype(int), resid


@lru_cache(maxsize=8)
def _w_specs(g):
    """Theta specs of the bidifferential kernel: value, gradient, and the
    Hessian entries (i, j), i <= j, along the coordinate axes."""
    basis = [tuple(np.eye(g)[i]) for i in range(g)]
    return tuple([()] + [(b,) for b in basis]
                 + [(basis[i], basis[j]) for i, j in zip(*np.triu_indices(g))])


def _log_deriv(vals, g):
    """L_ij = theta_ij/theta - theta_i theta_j / theta^2 from theta values
    in the spec order of :func:`_w_specs` along the last axis (the Hessian
    mirrored from its upper triangle); returns the leading shape + (g, g)."""
    th = vals[..., 0, None, None]
    if np.any(th == 0):
        raise DiagonalTooClose("theta vanished in the bidifferential kernel")
    grad = vals[..., 1 : 1 + g]
    i, j = np.triu_indices(g)
    pos = np.empty((g, g), dtype=int)
    pos[i, j] = pos[j, i] = 1 + g + np.arange(len(i))
    return vals[..., pos] / th - grad[..., :, None] * grad[..., None, :] / th ** 2


def h_taylor_torus(vals, rho1, rho2, order):
    """Taylor coefficients H_{pq} (p, q < order) of the regular part
    H(x, y) = W(x, y) - (x - y)^{-2} of a bidifferential by 2-D Fourier
    extraction on the torus |x| = rho1, |y| = rho2; ``vals`` holds H at
    every pair (x_i, y_j) of the points at the angles 2 pi i / N, N even,
    from either kernel of :class:`HyperellipticCurve` (theta or Klein-Baker).

    Distinct radii keep the diagonal away from the sampling torus, so no
    small-separation amplification occurs.  The even-index subgrid is the
    N / 2 grid (same nodes), and the grid-doubling certificate must stay at
    or below 1e-7 (a NaN certificate fails it).
    Returns (coefficients, certificate).
    """
    def taylor(v):
        n = v.shape[0]
        idx = (-np.arange(order)) % n
        p = np.arange(order)
        return (np.fft.fft2(v) / n ** 2)[np.ix_(idx, idx)] \
            / (rho1 ** p[:, None] * rho2 ** p[None, :])

    out = taylor(vals)
    coarse = taylor(vals[::2, ::2])
    cert = float(np.max(np.abs(coarse - out)) / max(1.0, np.max(np.abs(out))))
    if not cert <= 1e-7:
        raise ExtrapolationUnstable(
            f"H Taylor grid-doubling certificate {cert:.2e}")
    return out, cert

