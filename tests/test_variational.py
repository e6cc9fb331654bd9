import numpy as np
import pytest

from hurwitztau import HyperellipticCurve
from hurwitztau import variational as V
from hurwitztau.errors import WrongOrder
from hurwitztau.taufn import RationalCoverP1
from curve_inputs import random_branch_points


@pytest.fixture(scope="module")
def g1():
    pts = [-1.9, -0.85, 0.6 + 0.25j, 1.7]
    hub = HyperellipticCurve(pts).hub
    return pts, hub, (lambda p: HyperellipticCurve(p, hub=hub))


@pytest.fixture(scope="module")
def g2():
    pts = [-2.1, -1.0, -0.2 + 0.3j, 0.7, 1.5 + 0.1j, 2.4]
    hub = HyperellipticCurve(pts).hub
    return pts, hub, (lambda p: HyperellipticCurve(p, hub=hub))


# ---------------------------------------------------------------------------
# Rauch
# ---------------------------------------------------------------------------

def test_rauch_genus1(g1):
    pts, hub, fac = g1
    res = V.rauch_check(fac, pts, 1, 0, 0, h=1e-5)
    assert abs(res["discrepancy"]) < 1e-6
    assert res["certificate"] < 1e-9


def test_rauch_genus2_all_entries(g2):
    pts, hub, fac = g2
    res = V.rauch_check(fac, pts, 3, 0, 1)
    for a in range(2):
        for b in range(2):
            assert abs(res["contour_matrix"][a, b]
                       - res["fd_matrix"][a, b]) < 1e-5
    # integrand symmetric in (alpha, beta) exactly
    assert np.max(np.abs(res["contour_matrix"]
                         - res["contour_matrix"].T)) < 1e-14


def test_rauch_fd_scaling_order(g1):
    # central differences: discrepancy scales as O(h^2)
    pts, hub, fac = g1
    r1 = V.rauch_check(fac, pts, 1, 0, 0, h=2e-4)
    r2 = V.rauch_check(fac, pts, 1, 0, 0, h=1e-4)
    d1 = abs(r1["discrepancy"])
    d2 = abs(r2["discrepancy"])
    assert d2 < d1 / 2.5   # ~4x reduction expected


def test_det_imB_routes(g1):
    pts, hub, fac = g1
    dd = V.det_imB_derivative(fac, pts, 2)
    # trace vs contour: same data, algebraic identity
    assert abs(dd["trace_route"] - dd["contour_route"]) < 1e-8
    # FD route
    assert abs(dd["trace_route"] - dd["fd_route"]) < 1e-5
    # non-holomorphic: antiholomorphic part is the conjugate
    assert abs(dd["fd_antiholomorphic"] - np.conj(dd["fd_route"])) < 1e-5


# ---------------------------------------------------------------------------
# governing system
# ---------------------------------------------------------------------------

def test_vardwa_genus0_closed_form_anchor():
    # p = w^3 - 3w: the closed-form family gives d ln tau/dz_m = -/+ 1/144
    fam = V.CubicFamily(-3.0, 0.0)
    cover = RationalCoverP1(fam.coeffs())
    rhs0 = V.vardwa_rhs_genus0(cover, 0)
    rhs1 = V.vardwa_rhs_genus0(cover, 1)
    assert abs(rhs0.value - 1.0 / 144.0) < 1e-9
    assert abs(rhs1.value + 1.0 / 144.0) < 1e-9
    fd0, _ = fam.dln_tau_fd(0)
    assert abs(fd0 - rhs0.value) < 1e-6


def test_vardwa_genus0_holomorphy(rng):
    # Cauchy-Riemann residual of the fd derivative vanishes
    fam = V.CubicFamily(-2.0 + 0.8j, 0.5 - 0.3j)
    _, anti = fam.dln_tau_fd(0)
    assert abs(anti) < 1e-6


def test_vardwa_genus1(g1):
    pts, hub, fac = g1
    cur = fac(pts)
    for m in (0, 2):
        rhs = V.vardwa_rhs_curve(cur, m)
        fd, anti = V.dln_tau_genus1_fd(pts, m, hub=hub)
        assert abs(fd - rhs.value) < 1e-5
        assert abs(anti) < 1e-6


def test_vardwa_genus2(g2):
    pts, hub, fac = g2
    cur = fac(pts)
    rhs = V.vardwa_rhs_curve(cur, 3)
    fd, anti = V.dln_tau_genus2_fd(pts, 3, 0.9 + 1.7j, hub=hub)
    assert abs(fd - rhs.value) < 1e-4
    assert abs(anti) < 1e-6


def test_dln_tau_genus2_fixture_antiholomorphic_part(fixture_genus2):
    data, cur = fixture_genus2
    _, anti = V.dln_tau_genus2_fd(list(cur.e), 0, complex(*data["zeta"]),
                                  hub=cur.hub)
    assert abs(anti) < 1e-8


def test_vardwa_genus2_second_geometry():
    # fully complex branch configuration
    pts = [-2.4 + 0.1j, -1.3 - 0.2j, -0.1 + 0.25j, 0.8 - 0.15j,
           1.6 + 0.2j, 2.6 - 0.1j]
    cur = HyperellipticCurve(pts)
    rhs = V.vardwa_rhs_curve(cur, 4)
    fd, anti = V.dln_tau_genus2_fd(pts, 4, 0.7 + 1.9j, hub=cur.hub)
    assert abs(fd - rhs.value) < 1e-4
    assert abs(anti) < 1e-5


def test_vardwa_genus2_nontrivial_lift_signs():
    # geometry whose homology marking needs a nontrivial lift-sign
    # assignment; wrong signs would break the governing system by O(1)
    pts = [-0.684 + 0.035j, -0.138 - 0.024j, 0.352 + 0.034j,
           1.102 - 0.166j, 1.512 + 0.235j, 1.994 + 0.234j]
    cur = HyperellipticCurve(pts)
    assert not (np.all(cur._a_signs == 1) and np.all(cur._chain_signs == 1))
    from hurwitztau.taufn import tau_genus2

    tv1, _ = tau_genus2(cur, 0.6 + 1.4j)
    tv2, _ = tau_genus2(cur, -1.2 + 1.0j)
    assert abs(abs(tv1.value) - abs(tv2.value)) < 1e-5 * abs(tv1.value)
    rhs = V.vardwa_rhs_curve(cur, 2)
    fd, _ = V.dln_tau_genus2_fd(pts, 2, 0.6 + 1.4j, hub=cur.hub)
    assert abs(fd - rhs.value) < 1e-4


def test_vardwa_genus1_complex_configuration():
    pts = [-1.7 - 0.2j, -0.5 + 0.3j, 0.7 - 0.25j, 1.8 + 0.15j]
    cur = HyperellipticCurve(pts)
    rhs = V.vardwa_rhs_curve(cur, 3)
    fd, _ = V.dln_tau_genus1_fd(pts, 3, hub=cur.hub)
    assert abs(fd - rhs.value) < 1e-5


def test_vardwa_rhs_holomorphic_in_moduli(g1):
    # the contour right side depends holomorphically on the critical value
    pts, hub, fac = g1
    h = 1e-4

    def rhs_at(dz):
        p = list(pts)
        p[1] = p[1] + dz
        return V.vardwa_rhs_curve(fac(p), 1).value

    dx = (rhs_at(h) - rhs_at(-h)) / (2 * h)
    dy = (rhs_at(1j * h) - rhs_at(-1j * h)) / (2 * h)
    assert abs(dx + 1j * dy) / 2 < 1e-5 * max(1.0, abs(dx))


def test_varodin_chain_identity(g1, g2):
    # varodin = vardwa + d ln det Im B (holomorphic part)
    for pts, hub, fac in (g1, g2):
        cur = fac(pts)
        m = 1
        vr = V.varodin_rhs_curve(cur, m)
        vd = V.vardwa_rhs_curve(cur, m)
        dd = V.det_imB_derivative(fac, pts, m)
        chain = vd.value + dd["trace_route"]
        assert abs(vr["value"] - chain) < 1e-5
        # the opposite-sign convention is reported alongside
        assert abs(vr["sign_flipped"] + vr["value"]) < 1e-14


def test_varodin_genus0_equals_vardwa():
    # at genus 0 there is no det Im B term: the Schiffer form equals the
    # contour form, and both equal the fd of ln tau
    fam = V.CubicFamily(-3.0, 0.0)
    cover = RationalCoverP1(fam.coeffs())
    for m in (0, 1):
        vo = V.varodin_rhs_genus0(cover, m)
        vd = V.vardwa_rhs_genus0(cover, m)
        assert abs(vo["value"] - vd.value) < 1e-7
        fd, _ = fam.dln_tau_fd(m)
        assert abs(vo["value"] - fd) < 1e-6


def test_varodin_simple_point_specialization(g1):
    # l_m = 1: the value is -(1/12) S_Sch(0) in the distinguished chart
    pts, hub, fac = g1
    cur = fac(pts)
    vr = V.varodin_rhs_curve(cur, 1)
    assert abs(vr["value"] - (-vr["schiffer_at_origin"] / 12.0)) < 1e-14


# ---------------------------------------------------------------------------
# S-matrix block and trace identities
# ---------------------------------------------------------------------------

def test_smatrix_hh_l2_equals_schiffer(g1):
    pts, hub, fac = g1
    cur = fac(pts)
    block = V.smatrix_hh_zero(cur, 1, ell=2)
    s = cur.schiffer_branch_origin(1)
    assert abs(block.hh[0, 0] - (-s / 6.0)) < 1e-9
    assert block.symmetry_defect < 1e-12
    ha = block.ha_diag[0]
    assert abs(ha.imag) < 1e-12 and ha.real >= 0


def test_smatrix_genus0_pure_cocycle():
    cover = RationalCoverP1([0.0, -3.0, 0.0, 1.0])
    block = V.smatrix_hh_zero(cover, 1)
    s = V.varodin_rhs_genus0(cover, 1)["schiffer_at_origin"]
    assert abs(block.hh[0, 0] - (-s / 6.0)) < 1e-7
    assert block.ha_diag[0] == 0


@pytest.mark.parametrize("check", [V.smatrix_hh_zero, V.clue_identity_check])
def test_cone_order_other_than_4pi_is_a_typed_error(g1, check):
    # every supported cone is 4 pi (ell = 2): a branch point of a curve and
    # a critical point of a genus-0 cover are both simple
    pts, hub, fac = g1
    for target in (fac(pts), RationalCoverP1([0.0, -3.0, 0.0, 1.0])):
        with pytest.raises(WrongOrder):
            check(target, 1, ell=3)


def test_clue_identity(g1, g2):
    for pts, hub, fac in (g1, g2):
        cur = fac(pts)
        res = V.clue_identity_check(cur, 1, ell=2)
        assert abs(res["discrepancy"]) < 1e-6


def test_amatrix_entries():
    A = V.amatrix(2)
    # 1x1 with the antidiagonal entry sqrt(mu nu)/ell = (1/2)/2
    assert A.entries.shape == (1, 1)
    assert abs(A.entries[0, 0] - 0.25) < 1e-14
    A4 = V.amatrix(4)
    for k in range(1, 4):
        mu, nu = k / 4, 1 - k / 4
        assert abs(A4.entries[k - 1, 4 - k - 1] - np.sqrt(mu * nu) / 4) < 1e-14
    # supported exactly on the antidiagonal
    mask = np.ones((3, 3), dtype=bool)
    for k in range(3):
        mask[k, 2 - k] = False
    assert np.all(A4.entries[mask] == 0)


def test_trace_identity_factor_ell(rng):
    # the two normalization routes differ by the uniform factor ell
    for ell in (2, 3, 5):
        S = rng.normal(size=(ell - 1, ell - 1)) \
            + 1j * rng.normal(size=(ell - 1, ell - 1))
        S = (S + S.T) / 2
        out = V.trace_identity_check(ell, S)
        assert abs(out["ratio"] - ell) < 1e-10


# ---------------------------------------------------------------------------
# Newton moduli motion
# ---------------------------------------------------------------------------

def test_newton_inversion_moves_one_critical_value():
    fam = V.CubicFamily(-2.0 + 0.8j, 0.5 - 0.3j)
    z0 = fam.critical_values()
    dz = 1e-4 + 2e-4j
    a, b = fam.move_critical_value(0, dz)
    z1 = V.CubicFamily(a, b).critical_values()
    assert abs(z1[0] - (z0[0] + dz)) < 1e-12
    assert abs(z1[1] - z0[1]) < 1e-12


def test_contour_certificates_present(g1):
    pts, hub, fac = g1
    cur = fac(pts)
    res = V.vardwa_rhs_curve(cur, 0)
    assert res.certificate < 1e-7
    _, cert, _ = V.rauch_contour(cur, 0)
    assert cert < 1e-9


def _trapezoid_doubling_reference(fun, radius, nodes, max_doublings=3,
                                  target=None):
    """The doubling rule before node reuse: every rule re-evaluates all of
    its nodes one at a time."""
    def quad(N):
        th = np.arange(N) * 2 * np.pi / N
        xs = radius * np.exp(1j * th)
        vals = np.array([fun(x) for x in xs])
        return np.mean(vals * 1j * xs) * 2 * np.pi

    N = nodes
    prev = quad(N)
    for _ in range(max_doublings):
        N *= 2
        cur = quad(N)
        cert = abs(cur - prev) / max(abs(cur), 1e-300)
        if target is None or cert < target:
            return V.ContourIntegralResult(cur, radius, N, cert)
        prev = cur
    return V.ContourIntegralResult(cur, radius, N, cert)


@pytest.mark.parametrize("max_doublings, target", [(1, None), (3, 1e-30)])
def test_trapezoid_doubling_reuses_nodes(max_doublings, target):
    def integrand(x):
        return np.exp(np.sin(3 * x)) / (x - 0.05) + x ** 2 / (2.0 - x)

    evaluated = []

    def batched(xs):
        evaluated.extend(xs)
        return integrand(xs)

    res = V._circle_contour(batched, 0.3, 24, max_doublings, target)
    ref = _trapezoid_doubling_reference(integrand, 0.3, 24, max_doublings,
                                        target)
    # one doubling costs 2N node evaluations, not N + 2N
    assert len(evaluated) == len(set(evaluated)) == res.nodes
    assert res.nodes == ref.nodes == 24 * 2 ** max_doublings
    assert res.value == ref.value and res.certificate == ref.certificate


def test_smatrix_reports_h_taylor_certificate(g1):
    pts, hub, fac = g1
    block = V.smatrix_hh_zero(fac(pts), 1, ell=2)
    assert 0.0 <= block.diagnostics["h_taylor_certificate"] < 1e-7
