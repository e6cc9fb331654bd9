"""Computational Riemann-surface layer for hyperelliptic models y^2 = prod(z - e_i)
with the covering map f = z, plus the genus-0 rational-curve counterpart.

Implements period matrices, normalized differentials, Abel maps with sheet
tracking, the canonical bidifferential W (via second log-derivatives of odd
theta functions), Bergman and Schiffer projective connections, the Bergman
kernel, prime forms, Riemann constants, and distinguished local parameters.

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

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

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
    WrongOrder,
)
from .specfun import (
    RiemannMatrix,
    ThetaCharacteristic,
    _rat_derivs,
    riemann_theta_bundle,
)

__all__ = [
    "CurvePoint",
    "BranchChart",
    "InfinityEnd",
    "DistinguishedParameter",
    "HyperellipticCurve",
    "Genus0Cover",
    "distinguished_parameter",
    "distinguished_parameter_exponent",
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


def distinguished_parameter_exponent(d_k):
    """Chart exponent 1/(d_k + 1) for a divisor point of df of order d_k."""
    if d_k == -1:
        raise WrongOrder("d_k = -1 does not occur for a meromorphic differential")
    return 1.0 / (d_k + 1)


@dataclass(frozen=True)
class DistinguishedParameter:
    """Distinguished chart at a divisor point of df.

    ``kind`` is "zero" (x = (f - f(p))^(1/(d+1))) or "pole"
    (x = f^(1/(d+1))); ``branch`` records the square-root/sheet choice that
    fixes the chart.
    """

    kind: str
    center: complex
    order: int
    exponent: float
    branch: complex


def distinguished_parameter(curve, kind, index):
    """Distinguished chart data for a divisor point of df on the curve.

    kind="zero": branch point ``index`` (d_k = 1, chart x = (z - e_m)^(1/2));
    kind="pole": infinity end ``index`` (d_k = -2, chart x = 1/z).
    """
    if kind == "zero":
        bd = curve.branch_data(index)
        return DistinguishedParameter(
            kind="zero", center=complex(curve.e[index]), order=1,
            exponent=distinguished_parameter_exponent(1), branch=bd.sqrt_h,
        )
    if kind == "pole":
        end = curve.infinity_data()[index]
        return DistinguishedParameter(
            kind="pole", center=complex(np.inf), order=-2,
            exponent=distinguished_parameter_exponent(-2), branch=end.sign,
        )
    raise WrongOrder(f"unknown divisor point kind {kind!r}")


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
    """Panel edges in s for the straight path z0 + s (z1 - z0), s in [0, 1]:
    a panel starting at distance d from the nearest branch point has length
    d / _PANEL_DIV in z (clipped at s = 1), so all of it stays at least twice
    its length from every branch point.  A path that ends on or passes
    through a branch point (d below 1e-12 of its length) raises."""
    length = abs(z1 - z0) or 1.0       # a zero-length path: any panels do
    edges, s = [0.0], 0.0
    while s < 1.0:
        d = float(np.min(np.abs(z0 + s * (z1 - z0) - e)))
        if d < 1e-12 * length:
            raise SheetTrackingLoss(
                f"straight path from {z0} to {z1} meets a branch point")
        s = min(s + d / (_PANEL_DIV * length), 1.0)
        edges.append(s)
    return np.array(edges)


_odd_characteristics = lru_cache(maxsize=None)(
    ThetaCharacteristic.odd_characteristics)
_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)

_PERIOD_TARGET = 1e-10    # pair-loop period certificate
_PANEL_DIV = 3            # branch-point distance / straight-path panel length

# Curves built in this process, keyed on the branch-point bytes and the final
# hub: an equal key reuses the period data and shares every cache container
# (not the instance dict), least recently used entry evicted first.
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
        self._others = [np.delete(e, m) for m in range(len(e))]
        self.g = (len(e) - 2) // 2
        self.scale = scale
        self.marking = "standard"
        self.hub = hub
        self.y_hub = complex(np.sqrt(np.prod(self.hub - e)))
        self._abel_cache = {}
        self._branch_cache = {}
        self._pair_cache = {}
        self._chart_cache = {}
        self._lazy_cache = {}     # "grad", "inf", "K": one value each
        self._build_periods()
        _CURVE_TABLE[key] = dict(self.__dict__)
        if len(_CURVE_TABLE) > _CURVE_TABLE_SIZE:
            _CURVE_TABLE.popitem(last=False)

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

    def other_sheet(self, P):
        return CurvePoint(P.z, -P.y)

    # ------------------------------------------------------------------
    # pair loops and periods
    # ------------------------------------------------------------------

    def _pair_loop_integrals(self, i, j):
        """Integrals of z^k dz / y over the (i, j) pair loop (cached).

        The loop is shrunk onto the focal segment, z = c + d cos(theta), with
        y = i d sin(theta) s(z) and s(z) = sqrt(prod(c - e_l)) *
        prod_l sqrt((z - e_l) / (c - e_l)) over the other branch points
        (principal roots: each ratio keeps its argument in (-pi, pi) on the
        segment), so dz / y = i dtheta / s(z) is smooth and periodic; no
        tracking is needed.  A certificate that misses ``_PERIOD_TARGET``
        raises."""
        key = (i, j)
        if key not in self._pair_cache:
            c, d = (self.e[i] + self.e[j]) / 2, (self.e[j] - self.e[i]) / 2
            others = np.delete(self.e, [i, j])
            s_c = np.sqrt(np.prod(c - others))

            def fun(th):
                z = c + d * np.cos(th)
                s = s_c * np.prod(np.sqrt((z[:, None] - others)
                                          / (c - others)), axis=1)
                return 1j * z[:, None] ** np.arange(self.g) / s[:, None]

            with np.errstate(divide="ignore", invalid="ignore"):
                val, N, cert = _trapezoid_doubling(fun, target=_PERIOD_TARGET)
            if not cert < _PERIOD_TARGET:
                raise PeriodQuadratureFailure(
                    f"pair loop ({i}, {j}): period certificate {cert:.2e} "
                    f"misses {_PERIOD_TARGET:.0e} at {N} nodes: another branch "
                    f"point lies on or near the segment from e_{i} to e_{j}")
            self._pair_cache[key] = (val, cert)
        return self._pair_cache[key]

    def _cycle_pairs(self, kind, i):
        """Pair-loop indices composing the homology cycle (standard marking).

        Cycle members carry the lift signs pinned during period
        construction (the raw pair-loop lift of a member may sit on either
        sheet)."""
        if kind == "a":
            return [((2 * i, 2 * i + 1), self._a_signs[i])]
        return [((2 * k + 1, 2 * k + 2), self._chain_signs[k])
                for k in range(i, self.g)]

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
        """Curve with (a, b) -> (b, -a); same raw contours, new normalization."""
        other = HyperellipticCurve.__new__(HyperellipticCurve)
        other.__dict__.update({
            "e": self.e, "_others": self._others, "g": self.g,
            "scale": self.scale,
            "hub": self.hub, "y_hub": self.y_hub,
            "marking": "swapped" if self.marking == "standard" else "standard",
            "_pair_cache": self._pair_cache,
            "_abel_cache": {},
            "_branch_cache": {}, "_chart_cache": {}, "_lazy_cache": {},
        })
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
        segments from s0 to each end point in s1 (shape (n,)), on panels of
        ngl Gauss-Legendre nodes with edges s_edges (fractions of the way).

        The square root is tracked from ``seed`` (its value at s0, shared or
        one per segment) along each segment's node chain, which runs in order
        from s0 to its end; returns the (n, g) integrals and the (n,) tracked
        roots at the ends."""
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

    def abel_segment(self, z0, y0, z1):
        """Integral of (v_1 .. v_g) along the straight segment z0 -> z1 with
        tracked sheet, on panels of 16 Gauss-Legendre nodes graded by the
        distance to the branch points (:func:`_graded_edges`); returns
        (vector, y at z1)."""
        vec, y1 = self._chart_path(z0, [z1], y0, self.fiber2, self.v_poly,
                                   _graded_edges(z0, z1, self.e), 16)
        return vec[0], complex(y1[0])

    def abel_from_hub(self, z):
        """Abel vector of the point over z reached by the straight hub path."""
        key = complex(z)
        if key not in self._abel_cache:
            self._abel_cache[key] = self.abel_segment(self.hub, self.y_hub, key)
        return self._abel_cache[key]

    def abel_of_point(self, P):
        """Hub-based Abel vector of an arbitrary sheet-resolved point.

        Points on the hub-continued sheet use the straight star path; points
        on the other sheet follow the involution rule
        A(sigma P) = 2 A(e_0) - A(P) (see :meth:`flip_vec`)."""
        vec, ytr = self.abel_from_hub(P.z)
        if abs(P.y - ytr) <= 1e-6 * abs(ytr):
            return vec
        if abs(P.y + ytr) <= 1e-6 * abs(ytr):
            return self.flip_vec() - vec
        raise SheetTrackingLoss(
            f"point fiber value {P.y} matches neither sheet over z = {P.z}"
        )

    def abel_between(self, P, Q):
        """A(P -> Q) through the hub star (either sheet); nearby same-sheet
        pairs integrate directly along the connecting segment (much tighter
        error than differencing two long hub paths)."""
        sep = abs(P.z - Q.z)
        if 0 < sep < 0.05 * self.scale \
                and float(np.min(np.abs(P.z - self.e))) > 4 * sep:
            vec, y_end = self.abel_segment(P.z, P.y, Q.z)
            if abs(y_end - Q.y) <= 1e-6 * abs(y_end):
                return vec
        return self.abel_of_point(Q) - self.abel_of_point(P)

    def abel_loop(self, kind, i):
        """Abel vector of a closed homology cycle (normalized differentials)."""
        if self.marking == "swapped":
            raise CurveGeometryError("abel_loop supported on the standard marking")
        raw = np.zeros(self.g, dtype=complex)
        for (u, v), sign in self._cycle_pairs(kind, i):
            raw += sign * self._pair_loop_integrals(u, v)[0]
        return raw @ self.coef.T

    # ------------------------------------------------------------------
    # distinguished charts at branch points and at infinity
    # ------------------------------------------------------------------

    def _x_chart(self, m):
        """(fiber2, numer) of :meth:`_chart_path` in the distinguished chart
        x = (z - e_m)^(1/2) at branch point m: y = x sqrt(h) with
        h = prod_{i != m}(z - e_i) and dz = 2x dx, so v = 2 v_poly dx / sqrt(h)."""
        zm, others = self.e[m], self._others[m]

        def h(x):
            return np.prod((zm + x ** 2)[..., None] - others, axis=-1)

        return h, lambda x: 2.0 * self.v_poly(zm + x ** 2)

    def branch_data(self, m):
        """Abel vector of branch point m plus the distinguished-chart branch.

        The chart x = (z - e_m)^(1/2) is fixed by the tracked square root of
        h(z) = prod_{i != m}(z - e_i) along the hub approach; y = x sqrt_h.
        The hub path hands off to the chart 0.9 of the way to e_m; the chart
        leg runs on 40 panels of 16 Gauss-Legendre nodes.
        """
        if m in self._branch_cache:
            return self._branch_cache[m]
        zm = self.e[m]
        others = self._others[m]
        zh = self.hub + 0.9 * (zm - self.hub)
        # keep the handoff clear of the other branch points
        guard = 0
        while np.min(np.abs(zh - others)) < 0.25 * np.min(np.abs(zm - others)) \
                and guard < 30:
            zh = zm + (zh - zm) * 0.8
            guard += 1
        vec, yh = self.abel_from_hub(zh)
        x_h = complex(np.sqrt(zh - zm))
        if abs(x_h ** 2 - (zh - zm)) > 1e-9 * abs(zh - zm):
            raise ChartBranchInconsistency(
                "distinguished-chart square root failed to match the handoff"
            )
        # x-chart leg: x from x_h to 0 along a straight chart segment
        vec2, s_m = self._chart_path(x_h, [0.0], yh / x_h, *self._x_chart(m),
                                     np.linspace(0.0, 1.0, 41), 16)
        vec2, s_m = vec2[0], complex(s_m[0])
        v_lead = 2.0 * self.v_poly(zm) / s_m
        data = BranchChart(index=m, abel=vec + vec2, sqrt_h=s_m, v_lead=v_lead)
        self._branch_cache[m] = data
        return data

    def _chart_points(self, m, xs):
        """(z, y) at the chart values xs (shape (n,)) near branch point m:
        z = e_m + x^2 and y = x sqrt_h(z), sqrt_h tracked along 24 evenly
        spaced z from e_m, one chain per node."""
        bd = self.branch_data(m)
        zm = self.e[m]
        z = zm + _cmul(xs, xs)
        chain_z = zm + np.linspace(0.0, 1.0, 24) * (z - zm)[:, None]
        hv = np.prod(chain_z[..., None] - self._others[m], axis=-1)
        sq = _tracked_sqrt(hv, seed=bd.sqrt_h)
        return z, _cmul(xs, sq[:, -1])

    def _chart_abel(self, m, xs):
        """Abel vectors (n, g) from the hub through branch point m to the
        chart values xs (shape (n,)): one chart path from 0 per node, one
        panel of 24 Gauss-Legendre nodes."""
        bd = self.branch_data(m)
        vec, _ = self._chart_path(0.0, xs, bd.sqrt_h, *self._x_chart(m),
                                  np.linspace(0.0, 1.0, 2), 24)
        return bd.abel + vec

    def _chart_v(self, m, xs):
        """Distinguished-chart differentials v_hat * 2x (n, g) at the chart
        values xs (shape (n,)); v_poly runs on one (1, g) row per node."""
        z, y = self._chart_points(m, xs)
        return self.v_poly(z[:, None])[:, 0] / y[:, None] * (2.0 * xs)[:, None]

    def branch_chart_point(self, m, x):
        """CurvePoint for chart value x near branch point m (y = x sqrt_h(z))."""
        z, y = self._chart_points(m, np.array([complex(x)]))
        return CurvePoint(complex(z[0]), complex(y[0]))

    def abel_branch_chart(self, m, x):
        """Abel vector from the hub through branch point m to the chart point
        x (chart path, one panel of 24 Gauss-Legendre nodes)."""
        return self._chart_abel(m, np.array([complex(x)]))[0]

    def chart_nodes(self, m, xs, kind):
        """Chart data at the nodes xs near branch point m, shape xs.shape +
        (g,): kind "abel" is :meth:`abel_branch_chart`, kind "v" the
        distinguished-chart differentials v_hat * 2x at
        :meth:`branch_chart_point`.  The distinct nodes missing from the memo
        (keyed by the chart value) run as one batch, and the memo takes them
        only once the whole batch has succeeded."""
        xs = np.asarray(xs, dtype=complex)
        memo = self._chart_cache.setdefault((kind, m), {})
        uniq, inv = np.unique(xs.ravel(), return_inverse=True)
        keys = list(map(complex, uniq))
        missing = np.array([x for x in keys if x not in memo], dtype=complex)
        if len(missing):
            fill = self._chart_abel if kind == "abel" else self._chart_v
            memo.update(zip(map(complex, missing), fill(m, missing)))
        rows = np.array([memo[x] for x in keys])
        return rows[inv].reshape(xs.shape + (self.g,))

    def infinity_data(self):
        """Both points over z = infinity with sheet markers +1 and -1.

        The first end is reached along a straight ray from the hub in the
        direction 1 + 0.3i, out to 8 (scale + |hub|), plus a 1/z-chart leg on
        40 panels of 16 Gauss-Legendre nodes; the second is its involution
        image, A(sigma P) = :meth:`flip_vec` - A(P).
        """
        if "inf" in self._lazy_cache:
            return self._lazy_cache["inf"]
        d = (1.0 + 0.3j) / abs(1.0 + 0.3j)
        zJ = self.hub + d * 8.0 * (self.scale + abs(self.hub))
        vec_ray, yJ = self.abel_segment(self.hub, self.y_hub, zJ)
        zetaJ = 1.0 / zJ
        g = self.g

        # zeta leg: straight from zetaJ to 0, where w = y zeta^(g+1) has
        # w^2 = prod(1 - e_i zeta) and v = -sum coef zeta^(g-1-k) dzeta / w
        def w2(zeta):
            return np.prod(1.0 - self.e * zeta[..., None], axis=-1)

        def numer(zeta):
            return -(zeta[..., None] ** (g - 1 - np.arange(g)) @ self.coef.T)

        vec_leg, s_inf = self._chart_path(zetaJ, [0.0], yJ * zetaJ ** (g + 1),
                                          w2, numer, np.linspace(0.0, 1.0, 41),
                                          16)
        vec_leg, s_inf = vec_leg[0], complex(s_inf[0])
        if min(abs(s_inf - 1), abs(s_inf + 1)) > 1e-6:
            raise SheetTrackingLoss(f"infinity sheet marker {s_inf} not near +-1")
        s_inf = 1.0 if abs(s_inf - 1) < abs(s_inf + 1) else -1.0
        a_first = vec_ray + vec_leg
        end1 = InfinityEnd(abel=a_first, sign=s_inf,
                           v_lead=-self.coef[:, g - 1] / s_inf)
        end2 = InfinityEnd(abel=self.flip_vec() - a_first, sign=-s_inf,
                           v_lead=-self.coef[:, g - 1] / (-s_inf))
        self._lazy_cache["inf"] = (end1, end2)
        return self._lazy_cache["inf"]

    def flip_vec(self):
        """Abel vector from the hub to its involution image: the hub path
        into branch point 0, then that path's involution image back, which
        gives 2 A(e_0) since sigma* v = -v.  Continuation to the other sheet
        over any z costs A(sigma P) = flip_vec - A(P)."""
        return 2 * self.branch_data(0).abel

    # ------------------------------------------------------------------
    # theta layer
    # ------------------------------------------------------------------

    def theta(self, t, char=None, derivs=()):
        return riemann_theta_bundle(t, self.B, char=char, derivs_list=(tuple(derivs),))[0]

    def theta_bundle(self, t, char=None, derivs_list=((),)):
        return riemann_theta_bundle(t, self.B, char=char, derivs_list=derivs_list)

    def odd_char_gradients(self):
        """All odd characteristics with their theta gradients at 0; cached."""
        if "grad" not in self._lazy_cache:
            odd = _odd_characteristics(self.g)
            basis = [tuple(np.eye(self.g)[i]) for i in range(self.g)]
            grads = self.theta_bundle(np.zeros((len(odd), self.g)), char=odd,
                                      derivs_list=[(b,) for b in basis])
            out = list(zip(odd, grads))
            if not any(np.linalg.norm(gr) > 1e-10 for _, gr in out):
                raise CharacteristicSingular("all odd theta gradients vanish")
            self._lazy_cache["grad"] = out
        return self._lazy_cache["grad"]

    def _log_deriv_matrix(self, t, char):
        """L_ij = theta_ij/theta - theta_i theta_j / theta^2 at each row of
        t (shape (n, g)); returns shape (n, g, g)."""
        g = self.g
        basis = [tuple(np.eye(g)[i]) for i in range(g)]
        specs = [()]
        specs += [(b,) for b in basis]
        specs += [(basis[i], basis[j]) for i in range(g) for j in range(g)]
        vals = self.theta_bundle(t, char=char, derivs_list=specs)
        th = vals[:, 0, None, None]
        if np.any(th == 0):
            raise DiagonalTooClose("theta vanished in the bidifferential kernel")
        grad = vals[:, 1 : 1 + g]
        hess = vals[:, 1 + g :].reshape(-1, g, g)
        return hess / th - grad[:, :, None] * grad[:, None, :] / th ** 2

    def _w_char(self):
        """Fixed odd characteristic for the bidifferential kernel."""
        return _odd_characteristics(self.g)[0]

    # ------------------------------------------------------------------
    # canonical bidifferential and projective connections
    # ------------------------------------------------------------------

    def w_hat(self, P, Q):
        """z-chart value W(P, Q)/(dz dz) via -sum L_ij v_j(P) v_i(Q)."""
        if abs(P.z - Q.z) + abs(P.y - Q.y) < 1e-8 * self.scale:
            raise DiagonalTooClose("bidifferential requested on the diagonal")
        t = self.abel_between(P, Q)
        L = self._log_deriv_matrix(t[None], self._w_char())[0]
        return -complex(np.einsum("ij,j,i->", L, self.v_hat(P), self.v_hat(Q)))

    def w_hat_branch_chart(self, m, x1, x2):
        """Distinguished-chart value of W at two chart points near branch m."""
        return complex(self.w_hat_branch_chart_pairs(m, x1, x2))

    def w_hat_branch_chart_pairs(self, m, x1s, x2s):
        """Distinguished-chart W at the chart-point pairs (x1s, x2s) near
        branch m (broadcast arrays): node data from :meth:`chart_nodes`,
        one batched theta call, one contraction."""
        x1s, x2s = np.broadcast_arrays(np.asarray(x1s, dtype=complex),
                                       np.asarray(x2s, dtype=complex))
        near = np.maximum(np.maximum(np.abs(x1s), np.abs(x2s)), 1e-30)
        if np.any(np.abs(x1s - x2s) < 1e-10 * near):
            raise DiagonalTooClose("bidifferential requested on the diagonal")
        t = self.chart_nodes(m, x2s, "abel") - self.chart_nodes(m, x1s, "abel")
        L = self._log_deriv_matrix(t.reshape(-1, self.g), self._w_char())
        v1 = self.chart_nodes(m, x1s, "v").reshape(-1, self.g)
        v2 = self.chart_nodes(m, x2s, "v").reshape(-1, self.g)
        return -np.einsum("nij,nj,ni->n", L, v1, v2).reshape(x1s.shape)

    @staticmethod
    def _richardson_even(h, tol):
        """Limit of an even-in-delta quantity h(delta) -> L + c d^2 + e d^4
        from the samples h = (h(delta), h(delta/2), h(delta/4)), each an
        array over nodes (two Richardson levels); every node's certificate
        must meet ``tol``."""
        e1 = (4 * h[1] - h[0]) / 3
        e2 = (4 * h[2] - h[1]) / 3
        extrap = (16 * e2 - e1) / 15
        cert = np.abs(e2 - e1)
        bad = cert > tol * np.maximum(1.0, np.abs(extrap))
        if np.any(bad):
            raise ExtrapolationUnstable(
                f"H-limit Richardson certificate {np.max(cert[bad]):.2e} "
                "above tolerance"
            )
        return extrap, cert

    def _h_limit(self, w_of_pair, x0, delta, tol):
        """H(x0, x0) by symmetric separation + two Richardson steps."""
        def H(d):
            u, v = x0 + d, x0 - d
            return w_of_pair(u, v) - 1.0 / (u - v) ** 2

        return self._richardson_even(
            np.array([H(delta), H(delta / 2), H(delta / 4)]), tol)

    def bergman_sb_z(self, P, delta_rel=1e-2):
        """Bergman projective connection S_B in the z chart at P."""
        delta = delta_rel * self.scale

        def wpair(u, v):
            Pu = self.point(u)
            Pv = self.point(v)
            return self.w_hat(Pu, Pv)

        val, _ = self._h_limit(wpair, P.z, delta, 1e-4)
        return 6.0 * val

    def bergman_sb_branch(self, m, x0):
        """S_B in the distinguished chart at branch point m, chart point x0
        (a scalar, or an array of nodes sampled in one batched W call)."""
        x0 = np.asarray(x0, dtype=complex)
        delta = 2e-2 * np.maximum(np.abs(x0), np.sqrt(self.scale) * 1e-2)
        d = np.stack([delta, delta / 2, delta / 4])
        u, v = x0 + d, x0 - d
        h = self.w_hat_branch_chart_pairs(m, u, v) - 1.0 / (u - v) ** 2
        val, _ = self._richardson_even(h, 1e-4)
        return 6.0 * val

    def h_taylor_branch(self, m, order=1, n_fft=16):
        """Taylor coefficients H_{pq} (p, q < order) of the regular part
        H(x, y) = W(x, y) - (x - y)^{-2} in the distinguished chart at branch
        point m, by certified Fourier extraction on the torus |x| = 0.33 r0,
        |y| = 0.21 r0 with r0^2 a tenth of the distance to the nearest other
        branch point (see :func:`h_taylor_torus`)."""
        r0 = np.sqrt(0.1 * float(np.min(np.abs(np.delete(self.e, m)
                                               - self.e[m]))))
        return h_taylor_torus(
            lambda x, y: self.w_hat_branch_chart_pairs(m, x, y),
            0.33 * r0, 0.21 * r0, order, n_fft)

    def h_branch_origin(self, m):
        """H(0, 0) in the distinguished chart at branch point m (spectral)."""
        out, _cert = self.h_taylor_branch(m, order=1)
        return complex(out[0, 0])

    def h_branch_origin_richardson(self, m):
        """H(0, 0) at branch point m through the near-diagonal symmetric
        separation limit: an evaluation path independent of the Fourier
        route, used by the identity cross-checks."""
        delta = 0.05 * np.sqrt(
            np.min(np.abs(np.delete(self.e, m) - self.e[m])))
        # one W call, so one theta lattice, per separation: the terms that
        # cancel in W at these pairs reach ~1e7 |W|, so a lattice shared by
        # the three samples moves H(0,0) by up to ~3e-5 through rounding alone
        val, _cert = self._h_limit(
            lambda u, v: self.w_hat_branch_chart(m, u, v), 0.0, delta, 1e-4)
        return val

    def schiffer_branch_origin_richardson(self, m):
        vlead = self.branch_data(m).v_lead
        return 6.0 * self.h_branch_origin_richardson(m) \
            - self.schiffer_sb_term(vlead)

    def imB_inv(self):
        return np.linalg.inv(self.B.B.imag)

    def schiffer_sb_term(self, v_values):
        """6 pi sum (Im B)^{-1}_{ij} v_i v_j for chart values v."""
        Yi = self.imB_inv()
        return 6.0 * np.pi * complex(v_values @ Yi @ v_values)

    def schiffer_branch_origin(self, m):
        """Schiffer connection at x = 0 in the distinguished chart at branch m."""
        vlead = self.branch_data(m).v_lead
        return 6.0 * self.h_branch_origin(m) - self.schiffer_sb_term(vlead)

    def bergman_kernel(self, v_values):
        """B(x, xbar) = sum (Im B)^{-1}_{ij} v_i conj(v_j) for chart values."""
        Yi = self.imB_inv()
        return complex(v_values @ Yi @ np.conj(v_values))

    # ------------------------------------------------------------------
    # prime form
    # ------------------------------------------------------------------

    def _choose_char(self, om_a, om_b):
        """Pick the odd characteristic with the largest min |omega| at the
        two endpoints; reject if everything is singular."""
        chars = self.odd_char_gradients()
        scores = [min(abs(om_a[i]), abs(om_b[i])) for i in range(len(chars))]
        ci = int(np.argmax(scores))
        if scores[ci] < 1e-10:
            raise CharacteristicSingular(
                "no odd characteristic is nonsingular at both endpoints"
            )
        return ci

    def _omega_values(self, v_values):
        return np.array([gr @ v_values for _, gr in self.odd_char_gradients()])

    def prime_form(self, P, Q):
        """Prime form chart value E(P, Q) in the z charts at both points."""
        ci = self._choose_char(self._omega_values(self.v_hat(P)),
                               self._omega_values(self.v_hat(Q)))
        return self.prime_form_fixed_char(P, Q, ci)

    def prime_form_fixed_char(self, P, Q, ci):
        """Prime form chart value E(P, Q) with odd characteristic ``ci``."""
        vP, vQ = self.v_hat(P), self.v_hat(Q)
        omP, omQ = self._omega_values(vP), self._omega_values(vQ)
        ch, _ = self.odd_char_gradients()[ci]
        th = self.theta(self.abel_between(P, Q), char=ch)
        return th / (np.sqrt(omP[ci]) * np.sqrt(omQ[ci]))

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

    def _half_period_K(self, index=None):
        """K at the basepoint 'branch point 0' as a half period, identified by
        the theta-divisor vanishing property and certified.

        All 4^g candidates times all probes go through one batched theta
        call; a candidate's residual is its worst probe.  Candidate k has
        alpha_i, beta_i as bits 2i, 2i + 1 of k.  With ``index`` (a candidate
        frozen at a base configuration) that the search has not already
        chosen, only that candidate is certified on the probes, a residual
        above 1e-6 raises, and the search cache is left unfilled.  Returns
        (K, residual)."""
        cached = self._lazy_cache.get("K")
        if cached is not None and index in (None, cached[0]):
            return cached[1:]
        g = self.g
        a0 = self.branch_data(0).abel
        bits = np.arange(4 ** g)[:, None] >> (2 * np.arange(g))
        Kc = (bits & 1) @ self.B.B.T / 2 + ((bits >> 1) & 1) / 2
        offsets = np.zeros((1, g)) if g == 1 else \
            np.array([self.abel_from_hub(z)[0] - a0
                      for z in self._probe_points(17, 3, 0.3, 1.2, 1.5)])
        if index is not None:
            resid = float(self._theta_over_reference(offsets + Kc[index]).max())
            if not resid <= 1e-6:
                raise LatticeResolutionFailure(
                    f"frozen half period {index} no longer satisfies the "
                    f"vanishing property (residual {resid:.2e})")
            return Kc[index], resid
        t = (offsets[None, :, :] + Kc[:, None, :]).reshape(-1, g)
        worst = self._theta_over_reference(t).reshape(len(Kc), -1).max(axis=1)
        order = np.argsort(worst, kind="stable")
        best, best_resid = Kc[order[0]], float(worst[order[0]])
        if best_resid > 1e-6:
            raise LatticeResolutionFailure(
                f"no half period satisfies the vanishing property "
                f"(best residual {best_resid:.2e})"
            )
        if worst[order[1]] < 10 * best_resid:
            raise LatticeResolutionFailure("half-period identification ambiguous")
        self._lazy_cache["K"] = (int(order[0]), best, best_resid)
        return best, best_resid

    def riemann_constants(self, z_base=None, half_index=None):
        """Vector of Riemann constants for the given basepoint.

        Identified through the theta-divisor vanishing property at a branch
        basepoint (a half period, exact classical structure) and transported
        by K^y = K^x + (g - 1) A^x(y).  ``half_index`` certifies that frozen
        half-period candidate instead of searching all 4^g.  Returns (K,
        certificate); for g >= 2 the certificate also covers the vanishing
        at two admissible probe points.
        """
        K0, resid = self._half_period_K(half_index)
        if z_base is None:
            return K0, resid
        a_base = self.abel_from_hub(z_base)[0]
        K = K0 + (self.g - 1) * (a_base - self.branch_data(0).abel)
        if self.g >= 2:
            t = np.array([self.abel_from_hub(zc)[0] - a_base + K
                          for zc in self._probe_points(23, 2, 0.4, 1.3, 1.4)])
            resid = max(resid, float(self._theta_over_reference(t).max()))
        return K, resid

    def lattice_fit(self, vec, tol=1e-6):
        """Nearest lattice vector B Z + Z' to vec; raises when the residual
        exceeds tolerance."""
        B = self.B.B
        Zr = np.linalg.solve(B.imag, np.asarray(vec).imag)
        Z = np.round(Zr)
        Zp = np.round((np.asarray(vec) - B @ Z).real)
        resid = float(np.max(np.abs(vec - B @ Z - Zp)))
        if resid > tol:
            raise LatticeResolutionFailure(
                f"lattice identification residual {resid:.2e} > {tol}"
            )
        return Z.astype(int), Zp.astype(int), resid


def _trapezoid_doubling(fun, nodes=32, max_doublings=5, target=1e-10):
    """Trapezoid rule (2 pi / N) sum_k f(theta_k), theta_k = 2 pi k / N, for a
    2 pi-periodic integrand, with node doubling.

    ``fun`` maps an array of angles to integrand values, one row per angle
    (scalars or g-vectors).  The 2N rule's even nodes are the N rule's nodes
    (bit-identical), so each doubling evaluates ``fun`` only at the N new odd
    nodes.  Doubling stops once the relative change between consecutive rules
    (the certificate) is below ``target``, else after ``max_doublings`` (with
    ``target=None`` always after ``max_doublings``).  The certificate uses the
    builtin ``abs``, which rounds scalars as the circle callers always have.
    Returns (value, node count, certificate)."""
    N = nodes
    vals = np.asarray(fun(np.arange(N) * 2 * np.pi / N), dtype=complex)
    prev = np.mean(vals, axis=0) * 2 * np.pi
    for _ in range(max_doublings):
        N *= 2
        odd = np.asarray(fun((np.arange(N) * 2 * np.pi / N)[1::2]),
                         dtype=complex)
        vals = np.stack([vals, odd], axis=1).reshape((N,) + vals.shape[1:])
        cur = np.mean(vals, axis=0) * 2 * np.pi
        cert = float(np.max(abs(cur - prev)) / max(np.max(abs(cur)), 1e-300))
        prev = cur
        if target is not None and cert < target:
            break
    return cur, N, cert


def h_taylor_torus(w_pairs, rho1, rho2, order, n_fft=16, certify=True):
    """Taylor coefficients H_{pq} (p, q < order) of the regular part
    H(x, y) = W(x, y) - (x - y)^{-2} of a bidifferential by 2-D Fourier
    extraction on the torus |x| = rho1, |y| = rho2; ``w_pairs(X, Y)`` gives W
    on two equal-shape arrays of chart points.

    Distinct radii keep the diagonal away from the sampling torus, so no
    small-separation amplification occurs.  With ``certify`` the 2N grid is
    sampled once, its even-index subgrid is the N grid (same nodes), and the
    grid-doubling certificate must stay below 1e-7.  Returns (coefficients,
    certificate), the certificate nan when not certified.
    """
    N = 2 * n_fft if certify else n_fft
    th = np.arange(N) * 2 * np.pi / N
    X, Y = np.meshgrid(rho1 * np.exp(1j * th), rho2 * np.exp(1j * th),
                       indexing="ij")
    vals = w_pairs(X, Y) - 1.0 / (X - Y) ** 2

    def taylor(v):
        n = v.shape[0]
        idx = (-np.arange(order)) % n
        p = np.arange(order)
        return (np.fft.fft2(v) / n ** 2)[np.ix_(idx, idx)] \
            / (rho1 ** p[:, None] * rho2 ** p[None, :])

    out = taylor(vals)
    if not certify:
        return out, np.nan
    coarse = taylor(vals[::2, ::2])
    cert = float(np.max(np.abs(coarse - out)) / max(1.0, np.max(np.abs(out))))
    if cert > 1e-7:
        raise ExtrapolationUnstable(
            f"H Taylor grid-doubling certificate {cert:.2e}")
    return out, cert


class Genus0Cover:
    """Rational curve (P^1 with global coordinate w) carrying a degree-N map
    f = num/den; the bidifferential is the exact global-chart double pole."""

    def __init__(self, num, den=(1.0,)):
        self.num = np.asarray(num, dtype=complex)
        self.den = np.asarray(den, dtype=complex)
        self.g = 0

    def f(self, w):
        return npoly.polyval(w, self.num) / npoly.polyval(w, self.den)

    def fprime(self, w):
        d1n, d1d = _rat_derivs(self.num, self.den)
        return npoly.polyval(w, d1n) / npoly.polyval(w, d1d)

    @staticmethod
    def w_hat_global(w1, w2):
        """W in the global chart: 1/(w1 - w2)^2."""
        if w1 == w2:
            raise DiagonalTooClose("bidifferential on the diagonal")
        return 1.0 / (w1 - w2) ** 2
