import numpy as np
import pytest

from hurwitztau import CurvePoint, HyperellipticCurve
from hurwitztau.curves import Genus0Cover, _tracked_sqrt, distinguished_parameter
from hurwitztau.errors import (
    CurveGeometryError,
    DiagonalTooClose,
    PeriodQuadratureFailure,
)
from curve_inputs import load_fixture, random_branch_points
from oracles import (
    tau_agm,
    theta1_qseries,
    theta1_prime_qseries,
    weierstrass_eta1,
    weierstrass_zeta_half_series,
)


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_period_matrix_agm_oracle():
    # the second input has e_2 at 0.05 from the focal segment of pair (0, 1):
    # no ellipse around that pair avoids it, the degenerate loop still does
    k = 0.6
    for e in ([-1 / k, -1.0, 1.0, 1 / k], [-1.0, 1.0, 0.05j, 2.5]):
        cur = HyperellipticCurve(e)
        B = cur.B.B[0, 0]
        oracle = tau_agm(*e)
        assert abs(B - oracle) < 1e-9 * abs(oracle)
        assert cur.period_certificate < 1e-9


def test_period_matrix_real_branch_points_pure_imaginary():
    for k in (0.3, 0.55, 0.8):
        e = [-1 / k, -1.0, 1.0, 1 / k]
        B = HyperellipticCurve(e).B.B[0, 0]
        assert abs(B.real) < 1e-10
        assert B.imag > 0


def test_period_matrix_random_genus12(rng):
    # B symmetric to 1e-9 and Im B > 0 over random admissible configurations
    for g, count in ((1, 4), (2, 6)):
        for _ in range(8):
            pts = random_branch_points(rng, count)
            cur = HyperellipticCurve(pts)
            assert cur.sym_err < 1e-9
            assert np.linalg.eigvalsh(cur.B.B.imag).min() > 0
            assert cur.period_certificate < 1e-9


def test_marking_swap_modular_law(genus2_curve):
    cur = genus2_curve
    sw = cur.swap_marking()
    # (a, b) -> (b, -a) acts as B -> -B^{-1}
    assert np.max(np.abs(sw.B.B + np.linalg.inv(cur.B.B))) < 1e-9
    d1 = np.linalg.det(cur.B.B.imag)
    d2 = np.linalg.det(sw.B.B.imag)
    law = d1 / abs(np.linalg.det(cur.B.B)) ** 2
    assert abs(d2 - law) < 1e-10 * abs(law)


def test_too_close_branch_points_rejected():
    with pytest.raises(CurveGeometryError):
        HyperellipticCurve([0.0, 1e-12, 1.0, 2.0])


@pytest.mark.parametrize("e", [[-1.0, 1.0, 1e-9j, 2.5], [-1.0, 1.0, 0.0, 2.5]])
def test_unmet_period_certificate_is_a_typed_error(e):
    # e_2 next to (certificate ~1) or on (NaN nodes) the segment of pair (0, 1)
    with pytest.raises(PeriodQuadratureFailure, match=r"pair loop \(0, 1\)"):
        HyperellipticCurve(e)




# exact period data of the fixtures, as float.hex pairs (re, im)
_FIXTURE_PERIODS = {
    "curve_genus1": {
        "B": [["-0x1.d1fe1eefd9ba0p-4", "0x1.63db4af3380b2p+0"]],
        "coef": [["0x1.a6b137a2dd79ap-6", "-0x1.88a96e2195f86p-2"]],
        "cert": "0x1.898caed9846e0p-56",
    },
    "curve_genus2": {
        "B": [["-0x1.4f6f0e2a8a334p-4", "0x1.a073914818ad5p+0"],
              ["-0x1.47bbf8eea97b6p-7", "0x1.a6799de0b3e49p-1"],
              ["-0x1.47bbf8eea97b6p-7", "0x1.a6799de0b3e49p-1"],
              ["-0x1.ed88aef5154a9p-4", "0x1.37b790bcdb32fp+0"]],
        "coef": [["-0x1.6c637bab04a73p-4", "0x1.104db26a8761bp-3"],
                 ["0x1.95752100d6e69p-6", "-0x1.0dbe791e5c084p-1"],
                 ["-0x1.11da89c0368b0p-7", "-0x1.75da10c036484p-2"],
                 ["-0x1.1376b7faa4f08p-7", "-0x1.078a738bd1977p-2"]],
        "cert": "0x1.94895a9e2b8dap-51",
    },
}


def _fixture_curve(name):
    return HyperellipticCurve([complex(*p) for p in
                               load_fixture(name)["branch_points"]])


@pytest.mark.parametrize("name", sorted(_FIXTURE_PERIODS))
def test_fixture_periods_bit_exact(name):
    # the hex values were recorded with tracked ellipse pair loops; the
    # degenerate loops reproduce them to rounding
    cur = _fixture_curve(name)
    want = _FIXTURE_PERIODS[name]
    for key in ("B", "coef"):
        vals = (cur.B.B if key == "B" else cur.coef).ravel()
        ref = np.array([complex(float.fromhex(re), float.fromhex(im))
                        for re, im in want[key]])
        assert np.max(np.abs(vals - ref)) < 1e-13
    assert cur.period_certificate < 1e-10


# ---------------------------------------------------------------------------
# Abel map
# ---------------------------------------------------------------------------

def test_abel_basepoint_zero(genus2_curve):
    P = genus2_curve.point(0.9 + 1.7j)
    assert np.max(np.abs(genus2_curve.abel_between(P, P))) < 1e-14


def test_abel_closed_loops(genus2_curve):
    g = genus2_curve.g
    for i in range(g):
        assert np.max(np.abs(genus2_curve.abel_loop("a", i) - np.eye(g)[i])) \
            < 1e-8
        assert np.max(np.abs(genus2_curve.abel_loop("b", i)
                             - genus2_curve.B.B[i])) < 1e-8


def test_abel_sheet_flip_consistency(genus2_curve):
    cur = genus2_curve
    P = cur.point(0.4 + 1.2j)
    sig = cur.other_sheet(P)
    # A(P) + A(sigma P) = flip_vec for every P
    s1 = cur.abel_of_point(P) + cur.abel_of_point(sig)
    Q = cur.point(-1.5 + 0.8j)
    s2 = cur.abel_of_point(Q) + cur.abel_of_point(cur.other_sheet(Q))
    assert np.max(np.abs(s1 - s2)) < 1e-8


def test_flip_vec_matches_fine_flip_circle(fixture_genus2):
    # independent reference: hub -> w1 near e_0, once around e_0 on a circle
    # (the sheet flips, so the trapezoid integrand is anti-periodic and
    # converges only as O(h^2): 16,384 nodes put it near 2e-9), back to the hub
    _, cur = fixture_genus2
    e0 = cur.e[0]
    nearest = float(np.min(np.abs(cur.e[1:] - e0)))
    w1 = e0 + 0.3 * nearest * (cur.hub - e0) / abs(cur.hub - e0)
    vec_in, y1 = cur.abel_segment(cur.hub, cur.y_hub, w1)
    N = 16384
    th = np.angle(w1 - e0) + np.arange(N + 1) * 2 * np.pi / N
    zs = e0 + abs(w1 - e0) * np.exp(1j * th)
    ys = _tracked_sqrt(cur.fiber2(zs), seed=y1)
    assert abs(ys[-1] + y1) < 1e-9 * abs(y1)
    F = cur.v_poly(zs) / ys[:, None] * (1j * (zs - e0))[:, None]
    vec_circle = (F[1:-1].sum(axis=0) + (F[0] + F[-1]) / 2) * 2 * np.pi / N
    vec_out, y_back = cur.abel_segment(w1, ys[-1], cur.hub)
    assert abs(y_back + cur.y_hub) < 1e-9 * abs(cur.y_hub)
    assert np.max(np.abs(cur.flip_vec() - (vec_in + vec_circle + vec_out))) \
        < 1e-8


# ---------------------------------------------------------------------------
# canonical bidifferential
# ---------------------------------------------------------------------------

def test_w_genus0_closed_form():
    assert Genus0Cover.w_hat_global(2.0, 1.0 + 1.0j) == 1.0 / (1.0 - 1.0j) ** 2
    with pytest.raises(DiagonalTooClose):
        Genus0Cover.w_hat_global(1.0, 1.0)


def test_w_symmetry_random_pairs(genus2_curve, rng):
    cur = genus2_curve
    for _ in range(6):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(0.7, 1.8))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(-1.8, -0.7))
        P, Q = cur.point(z1), cur.point(z2)
        w1, w2 = cur.w_hat(P, Q), cur.w_hat(Q, P)
        assert abs(w1 - w2) < 1e-7 * abs(w1)


def _w_cycle_period(cur, kind, i, P, N=192):
    """Cycle integral of W(., P) on the degenerate pair loops
    z = c + d cos(theta), y = i d sin(theta) s(z) of the period construction,
    at the half-shifted nodes theta = 2 pi (k + 1/2) / N (y != 0 at all)."""
    th = (np.arange(N) + 0.5) * 2 * np.pi / N
    out = 0.0 + 0.0j
    for (u, v), sign in cur._cycle_pairs(kind, i):
        c, d = (cur.e[u] + cur.e[v]) / 2, (cur.e[v] - cur.e[u]) / 2
        others = np.delete(cur.e, [u, v])
        zs = c + d * np.cos(th)
        s = np.sqrt(np.prod(c - others)) \
            * np.prod(np.sqrt((zs[:, None] - others) / (c - others)), axis=1)
        ys = 1j * d * np.sin(th) * s
        vals = np.array([cur.w_hat(CurvePoint(zs[j], ys[j]), P)
                         for j in range(N)])
        out += sign * np.mean(vals * -d * np.sin(th)) * 2 * np.pi
    return out


def test_w_periods_genus1(genus1_curve):
    cur = genus1_curve
    P = cur.point(0.3 + 1.9j)
    # a-period of W(., P) vanishes; b-period equals 2 pi i v(P)
    assert abs(_w_cycle_period(cur, "a", 0, P)) < 1e-6
    per = _w_cycle_period(cur, "b", 0, P)
    assert abs(per - 2j * np.pi * cur.v_hat(P)[0]) < 1e-6


def test_w_periods_genus2(genus2_curve):
    cur = genus2_curve
    P = cur.point(0.4 + 2.2j)
    for j in range(2):
        per = _w_cycle_period(cur, "b", j, P)
        assert abs(per - 2j * np.pi * cur.v_hat(P)[j]) < 1e-5


# ---------------------------------------------------------------------------
# projective connections
# ---------------------------------------------------------------------------

def test_sb_genus0_vanishes_globally():
    # H = W - double pole = 0 exactly in the global chart
    for pair in ((0.3, 1.7 + 0.2j), (2.0 - 1.0j, -0.4)):
        H = Genus0Cover.w_hat_global(*pair) - 1.0 / (pair[0] - pair[1]) ** 2
        assert H == 0


def test_sb_genus0_distinguished_chart_schwarzian():
    # at a critical point of p = w^3 - 3w the pulled-back connection equals
    # the chart Schwarzian {w, x}(0) = (9/4)/a^3 with z - z_m = (w - w_m)^2 a
    # and a = w_m + 2 evaluated at the opposite root: -1/12 at w = -1 (m=0)
    # and +1/12 at w = +1 (m=1)
    from hurwitztau.taufn import RationalCoverP1
    from hurwitztau.variational import varodin_rhs_genus0

    cover = RationalCoverP1([0.0, -3.0, 0.0, 1.0])
    for m, expected in ((0, -1.0 / 12.0), (1, 1.0 / 12.0)):
        out = varodin_rhs_genus0(cover, m)
        assert abs(out["schiffer_at_origin"] - expected) < 1e-6


def test_sb_genus1_weierstrass_oracle(genus1_curve):
    # transported to the Abel-map chart u, the Bergman connection equals
    # 12 eta_1(B) at every point of the torus
    cur = genus1_curve
    B = cur.B.B[0, 0]
    target = 12.0 * weierstrass_eta1(B)
    # cross-check the oracle itself through the Laurent zeta series
    assert abs(weierstrass_eta1(B) - weierstrass_zeta_half_series(B)) < 5e-9
    for z0 in (0.5 + 1.3j, -1.2 + 0.9j):
        P = cur.point(z0)
        sb_z = cur.bergman_sb_z(P, delta_rel=5e-3)
        v = cur.v_hat(P)[0]          # du/dz
        # {u, z} from the exact derivatives of v = du/dz on the curve
        dv = cur.v_hat_deriv(P)[0]
        h = 1e-5
        Pp, Pm = cur.point(z0 + h), cur.point(z0 - h)
        ddv = (cur.v_hat_deriv(Pp)[0] - cur.v_hat_deriv(Pm)[0]) / (2 * h)
        schw_uz = ddv / v - 1.5 * (dv / v) ** 2
        sb_u = (sb_z - schw_uz) / v ** 2
        assert abs(sb_u - target) < 1e-5 * max(1.0, abs(target))


def test_sb_cocycle_under_chart_change(genus1_curve, rng):
    # S_B in the nonlinear chart u = (z - a) + c (z - a)^2 versus the cocycle
    # transport of the z-chart value: S_B,u = S_B,z (dz/du)^2 + {z, u} with
    # {z, u} = 6 c^2 / phi'^4 and dz/du = 1 / sqrt(1 + 4 c u)
    cur = genus1_curve
    a = -0.3 + 0.1j
    c = 0.21 - 0.13j

    def z_of_u(u):
        return a + (-1.0 + np.sqrt(1.0 + 4.0 * c * u)) / (2.0 * c)

    for _ in range(3):
        z0 = complex(rng.uniform(-1.2, 1.2), rng.uniform(0.9, 1.6))
        u0 = (z0 - a) + c * (z0 - a) ** 2

        def w_u(u1, u2):
            z1, z2 = z_of_u(u1), z_of_u(u2)
            P1, P2 = cur.point(z1), cur.point(z2)
            dz1 = 1.0 / np.sqrt(1.0 + 4.0 * c * u1)
            dz2 = 1.0 / np.sqrt(1.0 + 4.0 * c * u2)
            return cur.w_hat(P1, P2) * dz1 * dz2

        sb_u, _ = cur._h_limit(w_u, u0, 2e-2 * max(1.0, abs(u0)), tol=1e-3)
        sb_u *= 6.0
        sb_z = cur.bergman_sb_z(cur.point(z0), delta_rel=2e-2)
        phi_p2 = 1.0 + 4.0 * c * u0            # phi'(z0)^2
        transported = sb_z / phi_p2 + 6.0 * c ** 2 / phi_p2 ** 2
        assert abs(sb_u - transported) < 1e-6 * max(1.0, abs(transported))


def test_schiffer_marking_independence(genus2_curve):
    cur = genus2_curve
    sw = cur.swap_marking()
    for m in (0, 3):
        s1 = cur.schiffer_branch_origin(m)
        s2 = sw.schiffer_branch_origin(m)
        assert abs(s1 - s2) < 1e-8 * max(1.0, abs(s1))


def test_schiffer_genus1_specialization(genus1_curve):
    cur = genus1_curve
    m = 1
    s = cur.schiffer_branch_origin(m)
    sb = 6.0 * cur.h_branch_origin(m)
    v = cur.branch_data(m).v_lead[0]
    expected = sb - 6 * np.pi * v * v / cur.B.B.imag[0, 0]
    assert abs(s - expected) < 1e-10 * max(1.0, abs(s))


# ---------------------------------------------------------------------------
# Bergman kernel
# ---------------------------------------------------------------------------

def test_bergman_kernel_nonnegative(genus1_curve, genus2_curve, rng):
    for cur in (genus1_curve, genus2_curve):
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
            val = cur.bergman_kernel(cur.v_hat(cur.point(z)))
            assert abs(val.imag) < 1e-12 * max(1.0, abs(val))
            assert val.real >= 0


def test_bergman_kernel_lemniscatic_normalization():
    # branch configuration with B = i: (Im B)^{-1} = 1 and the kernel
    # reduces to |v|^2
    k = 3.0 - 2.0 * np.sqrt(2.0)
    cur = HyperellipticCurve([-1 / k, -1.0, 1.0, 1 / k])
    assert abs(cur.B.B[0, 0] - 1j) < 1e-9
    P = cur.point(0.4 + 1.1j)
    v = cur.v_hat(P)
    assert abs(cur.bergman_kernel(v) - abs(v[0]) ** 2) < 1e-9 * abs(v[0]) ** 2


def test_bergman_kernel_reproduces_genus(genus1_curve, genus2_curve):
    # area integral of the kernel over the surface equals the genus
    for cur in (genus1_curve, genus2_curve):
        total = _kernel_area_integral(cur)
        assert abs(total - cur.g) < 2e-3 * cur.g


def _kernel_area_integral(cur, n_theta=256, n_r=220, eps=1e-4, rmax=120.0):
    """2 * int_C sum (Im B)^{-1} P_i conj(P_j) / |y|^2 dA, singular disks
    around branch points handled in local polar patches."""
    Yi = cur.imB_inv()

    def density(z):
        # z: array of complex points
        P = cur.v_poly(z)
        y2 = np.abs(cur.fiber2(z))
        val = np.einsum("...i,ij,...j->...", P, Yi, np.conj(P)).real
        return 2.0 * val / y2

    ctr = cur.e.mean()
    rho = 0.3 * min(
        np.min(np.abs(np.subtract.outer(cur.e, cur.e))
               + np.eye(len(cur.e)) * 1e9),
        1.0,
    )
    # global polar grid around ctr, excluding branch-point disks
    th = (np.arange(n_theta) + 0.5) * 2 * np.pi / n_theta
    s = (np.arange(n_r) + 0.5) / n_r
    r = eps + (rmax - eps) * s ** 3          # cubic grading toward center
    dr = np.gradient(r)
    Z = ctr + r[:, None] * np.exp(1j * th)[None, :]
    mask = np.ones(Z.shape, dtype=bool)
    for e in cur.e:
        mask &= np.abs(Z - e) > rho
    vals = np.where(mask, density(Z), 0.0)
    total = np.sum(vals * (r * dr)[:, None]) * (2 * np.pi / n_theta)
    # local polar patches: the 1/|z-e| singularity cancels with the Jacobian
    n_tl, n_rl = 128, 96
    thl = (np.arange(n_tl) + 0.5) * 2 * np.pi / n_tl
    for e in cur.e:
        rl = (np.arange(n_rl) + 0.5) * rho / n_rl
        Zl = e + rl[:, None] * np.exp(1j * thl)[None, :]
        inside = np.abs(Zl - ctr) >= 0   # whole disk
        vl = density(Zl)
        total += np.sum(vl * rl[:, None]) * (rho / n_rl) * (2 * np.pi / n_tl)
    return total


# ---------------------------------------------------------------------------
# Riemann constants
# ---------------------------------------------------------------------------

def test_riemann_constants_genus1(genus1_curve):
    cur = genus1_curve
    K, cert = cur.riemann_constants(0.3 + 1.4j)
    expected = (1.0 + cur.B.B[0, 0]) / 2.0
    mu = np.linalg.solve(cur.B.B.imag, (K - expected).reshape(1).imag)
    nu = (K - expected - cur.B.B @ mu).real
    assert np.allclose(mu, np.round(mu), atol=1e-8)
    assert np.allclose(nu, np.round(nu), atol=1e-8)
    # defining vanishing property at g = 1: theta(K) = 0
    assert abs(cur.theta(K)) < 1e-10


def test_riemann_constants_vanishing_genus2(genus2_curve, rng):
    cur = genus2_curve
    zb = 0.3 + 1.1j
    K, cert = cur.riemann_constants(zb)
    assert cert < 1e-8
    ref = abs(cur.theta(np.array([0.13 + 0.07j, 0.11 - 0.05j])))
    for _ in range(4):
        zq = complex(rng.uniform(-2, 2), rng.uniform(0.6, 1.9))
        aq = cur.abel_from_hub(zq)[0] - cur.abel_from_hub(zb)[0]
        assert abs(cur.theta(aq + K)) / ref < 1e-8


def _scalar_half_period(cur):
    """The half-period search one candidate and one probe at a time: the
    4^g half periods against three seed-17 probes (drawn until each is
    0.15 scale clear of the branch points), worst probe per candidate."""
    g = cur.g
    rng = np.random.default_rng(17)
    probes = []
    while len(probes) < 3:
        zc = complex(rng.uniform(-1.5, 1.5) * cur.scale,
                     rng.uniform(0.3, 1.2) * cur.scale) + cur.e.mean()
        if np.min(np.abs(zc - cur.e)) > 0.15 * cur.scale:
            probes.append(zc)
    a0 = cur.branch_data(0).abel
    ref = abs(cur.theta(np.full(g, 0.13 + 0.07j)))
    resid = []
    for bits in range(4 ** g):
        alpha = np.array([(bits >> (2 * i)) & 1 for i in range(g)], dtype=float)
        beta = np.array([(bits >> (2 * i + 1)) & 1 for i in range(g)], dtype=float)
        Kc = cur.B.B @ alpha / 2 + beta / 2
        args = [Kc] if g == 1 else \
            [cur.abel_from_hub(z)[0] - a0 + Kc for z in probes]
        resid.append((max(abs(cur.theta(t)) / ref for t in args), Kc))
    return min(resid, key=lambda r: r[0])


def test_half_period_batched_matches_scalar_search():
    rng = np.random.default_rng(5)
    base = [complex(*p) for p in load_fixture("curve_genus2")["branch_points"]]
    curves = [_fixture_curve("curve_genus1"), _fixture_curve("curve_genus2")]
    curves += [HyperellipticCurve(np.array(base) + 0.05 * (
        rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6))) for _ in range(3)]
    for cur in curves:
        K, resid = cur._half_period_K()
        want_resid, want_K = _scalar_half_period(cur)
        assert np.array_equal(K, want_K)
        # residuals are |theta| / |theta(ref)|: agreement in units of the
        # reference theta value
        assert abs(resid - want_resid) < 1e-12


def test_certification_probes_are_the_seed_draws(fixture_genus2):
    # on a curve where no draw is rejected the probes are the first two
    # seed-23 draws
    _, cur = fixture_genus2
    rng = np.random.default_rng(23)
    draws = [complex(rng.uniform(-1.4, 1.4) * cur.scale,
                     rng.uniform(0.4, 1.3) * cur.scale) + cur.e.mean()
             for _ in range(2)]
    assert cur._probe_points(23, 2, 0.4, 1.3, 1.4) == draws


def test_certification_replaces_a_rejected_probe(monkeypatch):
    # With six branch points the first seed-23 draws lie more than the
    # curve's scale from the other points' centroid, so none lands near a
    # branch point; a scripted generator puts the first draw on e_5.
    from hurwitztau import curves

    cur = _fixture_curve("curve_genus2")
    cur._half_period_K()
    on_branch = (cur.e[5] - cur.e.mean()) / cur.scale
    real_rng = np.random.default_rng

    class Scripted:
        def __init__(self, seed):
            self.rng = real_rng(seed)
            self.queue = [on_branch.real, on_branch.imag] if seed == 23 else []

        def uniform(self, lo, hi):
            return self.queue.pop(0) if self.queue else self.rng.uniform(lo, hi)

    rows = []
    bundle = curves.riemann_theta_bundle

    def recording(t, *args, **kw):
        rows.append(np.shape(t))
        return bundle(t, *args, **kw)

    monkeypatch.setattr(np.random, "default_rng", Scripted)
    monkeypatch.setattr(curves, "riemann_theta_bundle", recording)
    probes = cur._probe_points(23, 2, 0.4, 1.3, 1.4)
    assert len(probes) == 2 and cur.e[5] not in probes
    K, resid = cur.riemann_constants(0.9 + 1.7j)
    # the reference row plus two probe rows, in one call
    assert rows == [(3, 2)]
    assert resid < 1e-8


def test_canonical_divisor_lattice_membership(genus1_curve, genus2_curve):
    # A^x((df)) + 2 K^x lies in the period lattice (1e-6)
    for cur in (genus1_curve, genus2_curve):
        zb = 0.4 + 1.5j
        K, _ = cur.riemann_constants(zb)
        a_base = cur.abel_from_hub(zb)[0]
        e_vec = 2 * K
        for m in range(len(cur.e)):
            e_vec = e_vec + (cur.branch_data(m).abel - a_base)
        for end in cur.infinity_data():
            e_vec = e_vec - 2 * (end.abel - a_base)
        Z, Zp, resid = cur.lattice_fit(e_vec, tol=1e-6)
        assert resid < 1e-6


# ---------------------------------------------------------------------------
# prime form
# ---------------------------------------------------------------------------

def test_prime_form_antisymmetry(genus2_curve, rng):
    cur = genus2_curve
    for _ in range(6):
        P = cur.point(complex(rng.uniform(-2, 2), rng.uniform(0.6, 1.9)))
        Q = cur.point(complex(rng.uniform(-2, 2), rng.uniform(-1.9, -0.6)))
        E1, E2 = cur.prime_form(P, Q), cur.prime_form(Q, P)
        assert abs(E1 + E2) < 1e-12 * abs(E1)


def test_prime_form_diagonal_slope(genus2_curve):
    cur = genus2_curve
    z0 = 0.4 + 1.2j
    P = cur.point(z0)
    for eps in (1e-3, 1e-4):
        Q = cur.point(z0 + eps)
        slope = abs(cur.prime_form(P, Q)) / eps
        assert abs(slope - 1.0) < 50 * eps


def test_prime_form_delta_independence(genus2_curve):
    cur = genus2_curve
    P = cur.point(0.8 + 1.9j)
    Q = cur.point(-1.1 + 0.9j)
    vals = [cur.prime_form_fixed_char(P, Q, ci)
            for ci in range(len(cur.odd_char_gradients()))]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-9 * abs(vals[0])


def test_prime_form_genus1_theta1_oracle(genus1_curve):
    # |E(P,Q)| = |theta_1(A(P->Q) | B) / theta_1'(0 | B)| * |v(P) v(Q)|^(-1/2)
    cur = genus1_curve
    B = cur.B.B[0, 0]
    P = cur.point(0.5 + 1.5j)
    Q = cur.point(-1.0 + 1.1j)
    E = cur.prime_form(P, Q)
    dA = cur.abel_between(P, Q)[0]
    oracle = abs(theta1_qseries(dA, B) / theta1_prime_qseries(B)) \
        / np.sqrt(abs(cur.v_hat(P)[0]) * abs(cur.v_hat(Q)[0]))
    assert abs(abs(E) - oracle) < 1e-9 * oracle


# ---------------------------------------------------------------------------
# distinguished parameters
# ---------------------------------------------------------------------------

def test_distinguished_parameter_branch(genus1_curve):
    cur = genus1_curve
    dp = distinguished_parameter(cur, "zero", 1)
    assert dp.exponent == 0.5
    # defining property df = (d+1) x^d dx + ... : exact by the chart model
    x = 0.05 + 0.02j
    P = cur.branch_chart_point(1, x)
    assert abs((P.z - cur.e[1]) - x ** 2) < 1e-12
    assert abs(P.y ** 2 - cur.fiber2(P.z)) < 1e-10 * abs(P.y) ** 2


def test_distinguished_parameter_pole(genus1_curve):
    dp = distinguished_parameter(genus1_curve, "pole", 0)
    assert dp.exponent == -1.0
    assert dp.branch in (1.0, -1.0)


def test_quadrature_doubling_certificate(genus2_curve):
    assert genus2_curve.period_certificate < 1e-9


# ---------------------------------------------------------------------------
# batched bidifferential kernel
# ---------------------------------------------------------------------------

def _fixture_genus2_curve():
    data = load_fixture("curve_genus2")
    return HyperellipticCurve([complex(*p) for p in data["branch_points"]])


# recorded on fixtures/curve_genus2.json with the one-pair-at-a-time kernel
# that preceded the batched one
_GOLDEN_H_TAYLOR = {
    0: [[0.45217869495207197 + 0.0037194266209997612j,
         -5.041621863525285e-13 + 4.569655369561077e-13j],
        [-5.488383499226132e-13 + 3.5294863086235334e-13j,
         7.346558627808053e-12 - 1.7257664446339782e-12j]],
    2: [[0.48843503910800246 + 0.18169559781872713j,
         -8.374797501932302e-13 + 3.2261506022663805e-13j],
        [-4.4065126450327106e-13 + 1.8368456757979504e-13j,
         -4.7596228331016495e-12 + 9.414668923223214e-12j]],
}
# re-recorded with the degenerate-loop periods: coef moved by <= 1.3e-16,
# and the route's rounding amplifies that to ~1e-9 (its certificate is ~3e-9)
_GOLDEN_VARDWA = {0: -0.22608935246295658 - 0.001859713920434162j,
                  2: -0.24421751638469083 - 0.09084779824199324j}


@pytest.mark.parametrize("m", [0, 2])
def test_batched_kernel_golden_values(m):
    from hurwitztau.variational import vardwa_rhs_curve

    cur = _fixture_genus2_curve()
    H, cert = cur.h_taylor_branch(m, order=2)
    assert cert < 1e-7
    assert np.max(np.abs(H - np.array(_GOLDEN_H_TAYLOR[m]))) < 1e-9
    assert abs(vardwa_rhs_curve(cur, m).value - _GOLDEN_VARDWA[m]) < 1e-9


def test_w_pairs_match_single_pairs(genus2_curve):
    # well-separated pairs: near the diagonal W cancels terms far larger
    # than itself, and the shared chunk lattice changes their rounding
    cur = genus2_curve
    x1 = np.array([0.2, 0.3j, 0.1 - 0.25j])
    x2 = np.array([-0.25j, -0.3, -0.2 + 0.1j])
    batch = cur.w_hat_branch_chart_pairs(3, x1, x2)
    for w, a, b in zip(batch, x1, x2):
        single = cur.w_hat_branch_chart(3, a, b)
        assert abs(w - single) < 1e-12 * abs(single)
    with pytest.raises(DiagonalTooClose):
        cur.w_hat_branch_chart_pairs(3, x1, np.array([x2[0], x1[1], x2[2]]))


def test_chart_node_data_computed_once_per_node():
    cur = HyperellipticCurve([-1.9, -0.85, 0.6 + 0.25j, 1.7])
    calls = []
    primitive = cur.abel_branch_chart

    def counting(m, x, **kw):
        calls.append(x)
        return primitive(m, x, **kw)

    cur.abel_branch_chart = counting
    cur.h_taylor_branch(1, order=2, n_fft=8)
    # the 16 x 16 certificate grid: 16 nodes on each circle of the torus
    assert len(calls) == len(set(calls)) == 32
    cur.h_taylor_branch(1, order=2, n_fft=8)
    assert len(calls) == 32
