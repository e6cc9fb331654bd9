import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from hurwitztau import HyperellipticCurve, taufn
from hurwitztau.errors import (
    DegenerateCriticalPoint,
    DegenerateInput,
    LatticeResolutionFailure,
)
from hurwitztau.taufn import (
    DivisorData,
    RationalCoverP1,
    m_polynomial,
    tau_genus0,
    tau_genus1,
    tau_genus2,
    tau_polynomial,
    tau_three_poles,
)
from oracles import tau_agm, theta1_prime_qseries


# ---------------------------------------------------------------------------
# Example family 1: monic polynomials
# ---------------------------------------------------------------------------

def test_tau_polynomial_quadratic():
    tv = tau_polynomial([0.0, 0.0, 1.0])   # w^2
    # single critical point w=0, p'' = 2: R(p', p'') = R(2w, 2) = 2
    assert abs(tv.diagnostics["resultant_route"] - 2.0) < 1e-12
    assert abs(tv.diagnostics["product_route_tau24"] - 2.0) < 1e-12


def test_tau_polynomial_cubic():
    tv = tau_polynomial([0.0, -3.0, 0.0, 1.0])   # w^3 - 3w
    d = tv.diagnostics
    assert abs(d["product_route_tau24"] - (-36.0)) < 1e-10
    # resultant route = N^(N-2) * product route with N = 3
    assert abs(d["resultant_route"] - 3.0 * (-36.0)) < 1e-9
    assert d["recorded_constant"] == 3.0


def test_tau_polynomial_dual_route_random(rng):
    for _ in range(20):
        N = int(rng.integers(3, 7))
        c = rng.normal(size=N) + 1j * rng.normal(size=N)
        coeffs = np.concatenate([c, [1.0]])
        try:
            tv = tau_polynomial(coeffs)
        except DegenerateCriticalPoint:
            continue
        d = tv.diagnostics
        lhs = float(N) ** (N - 2) * d["product_route_tau24"]
        assert abs(lhs - d["resultant_route"]) < 1e-9 * abs(d["resultant_route"])


def test_tau_polynomial_requires_monic():
    with pytest.raises(DegenerateInput):
        tau_polynomial([0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Example family 2: three simple poles
# ---------------------------------------------------------------------------

def test_m_polynomial_values():
    assert m_polynomial(1.0, 1.0, 1.0) == 0.0
    assert m_polynomial(1.0, 2.0, 3.0) == 54.0


def test_tau_three_poles_dual_route_random(rng):
    ratios = []
    for _ in range(20):
        a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
        tv = tau_three_poles(a, b, c)
        d = tv.diagnostics
        ratios.append(d["m_route_tau24"] / d["resultant_route_tau24"])
    ratios = np.array(ratios)
    # the two routes agree up to one constant (here exactly 1) whose sample
    # variance over the batch certifies moduli independence
    assert np.abs(ratios - ratios.mean()).max() < 1e-8 * abs(ratios.mean())
    assert abs(ratios.mean() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Genus-0 uniformizer route
# ---------------------------------------------------------------------------

def test_tau_genus0_polynomial_matches_closed_form(rng):
    # uniformizer product reduces to the polynomial closed form:
    # |tau_E0|^24 proportional to |prod p''| with one constant per degree
    for N, samples in ((3, 5), (4, 5)):
        ratios = []
        for _ in range(samples):
            c = rng.normal(size=N) + 1j * rng.normal(size=N)
            coeffs = np.concatenate([c, [1.0]])
            try:
                cover = RationalCoverP1(coeffs)
                tv0, _ = tau_genus0(cover)
                tv1 = tau_polynomial(coeffs)
            except DegenerateCriticalPoint:
                continue
            ratios.append(np.exp(24 * tv0.log_value.real)
                          / abs(tv1.diagnostics["product_route_tau24"]))
        ratios = np.array(ratios)
        assert len(ratios) >= 3
        assert np.abs(ratios - ratios.mean()).max() < 1e-9 * abs(ratios.mean())


def test_tau_genus0_three_pole_matches_closed_form(rng):
    # same reduction for the three-pole family, constancy at 1e-8 on tau^24
    ratios = []
    for _ in range(8):
        a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
        num, den = _three_pole_rational(a, b, c)
        cover = RationalCoverP1(num, den)
        tv0, _ = tau_genus0(cover)
        tv = tau_three_poles(a, b, c)
        ratios.append(np.exp(24 * tv0.log_value.real)
                      / abs(tv.diagnostics["m_route_tau24"]))
    ratios = np.array(ratios)
    assert np.abs(ratios - ratios.mean()).max() < 1e-8 * abs(ratios.mean())


def _three_pole_rational(a, b, c, d=0.0):
    """r(w) = a w - b/w - c/(w-1) + d as a numerator/denominator pair."""
    den = npoly.polymul([0.0, 1.0], [-1.0, 1.0])
    num = npoly.polyadd(
        npoly.polyadd(a * npoly.polymul([0.0, 0.0, 1.0], [-1.0, 1.0]),
                      -b * np.atleast_1d([-1.0, 1.0])),
        npoly.polyadd(-c * np.array([0.0, 1.0]), d * den),
    )
    return num, den


def test_tau_genus0_moebius_invariance(rng):
    # reparametrize the cover sphere (affine Moebius maps preserving the
    # designated end at infinity): log-derivative of tau in moduli unchanged
    a, b, c = 1.1 + 0.2j, 0.8 - 0.4j, 1.3 + 0.1j
    h = 1e-6

    def dln_under_scale(num, den):
        # moduli motion: scale all three pole strengths by (1 + t)
        def lt(t):
            cover = RationalCoverP1((1 + t) * np.asarray(num, complex), den)
            _, ing = tau_genus0(cover)
            return ing
        base = lt(0.0)
        return base.dlog_tau(lt(h), lt(-h), h)

    num1, den1 = _three_pole_rational(a, b, c)
    d1 = dln_under_scale(num1, den1)
    for shift, scale in ((0.37 - 0.21j, 1.0), (0.0, 0.7 + 0.2j),
                         (-0.5 + 0.4j, 1.3 - 0.6j)):
        # w -> scale * w + shift: same cover, new presentation
        num2 = _compose_affine(num1, scale, shift)
        den2 = _compose_affine(den1, scale, shift)
        d2 = dln_under_scale(num2, den2)
        assert abs(d1 - d2) < 1e-7 * max(1.0, abs(d1))


def _compose_affine(poly, scale, shift):
    """Coefficients of p(scale * w + shift), ascending."""
    out = np.zeros(1, dtype=complex)
    lin = np.array([shift, scale], dtype=complex)
    power = np.ones(1, dtype=complex)
    for coef in np.asarray(poly, dtype=complex):
        out = npoly.polyadd(out, coef * power)
        power = npoly.polymul(power, lin)
    return out


# ---------------------------------------------------------------------------
# Genus 1
# ---------------------------------------------------------------------------

def test_tau_genus1_symmetric_branch_points():
    k = 0.55
    e = [-1 / k, -1.0, 1.0, 1 / k]
    cur = HyperellipticCurve(e)
    # AGM oracle feeds the theta factor
    B = cur.B.B[0, 0]
    assert abs(B - tau_agm(*e)) < 1e-9
    tv, ing = tau_genus1(cur)
    assert np.isfinite(tv.log_value.real)
    assert abs(tv.value) > 0
    th = ing.multiplicative["theta1p"][1]
    assert abs(th - theta1_prime_qseries(B)) < 1e-10 * abs(th)


def test_tau_genus1_scaling_log_derivative():
    # scaling all branch points by s: d/ds ln tau matches its finite
    # difference through the ingredient route
    base = np.array([-1.9, -0.85, 0.6 + 0.25j, 1.7])
    hub = HyperellipticCurve(list(base)).hub
    h = 1e-6

    def ing_at(s):
        cur = HyperellipticCurve(list((1 + s) * base), hub=hub)
        return tau_genus1(cur)[1]

    b = ing_at(0.0)
    d_fd = b.dlog_tau(ing_at(h), ing_at(-h), h)
    d_fd2 = b.dlog_tau(ing_at(2 * h), ing_at(-2 * h), 2 * h)
    # central differences consistent under step doubling (O(h^2))
    assert abs(d_fd - d_fd2) < 1e-6 * max(1.0, abs(d_fd))


def test_tau_genus1_holomorphy_cauchy_riemann():
    from hurwitztau.variational import dln_tau_genus1_fd

    pts = [-1.9, -0.85, 0.6 + 0.25j, 1.7]
    _, anti = dln_tau_genus1_fd(pts, 2)
    assert abs(anti) < 1e-5


def test_divisor_degree_bookkeeping():
    with pytest.raises(DegenerateInput):
        DivisorData(orders=(1, 1, 1, -2, -2), genus=1)
    DivisorData(orders=(1,) * 6 + (-2, -2), genus=2)


# ---------------------------------------------------------------------------
# Genus 2
# ---------------------------------------------------------------------------

def test_tau_genus2_zeta_independence(genus2_curve):
    tvs = [tau_genus2(genus2_curve, z)[0]
           for z in (0.9 + 1.7j, -1.4 + 1.1j, 3.1 + 0.9j)]
    base = abs(tvs[0].value)
    for tv in tvs[1:]:
        assert abs(abs(tv.value) - base) < 1e-5 * base


def test_tau_genus2_nonzero_separated_points():
    # well-separated branch points: tau evaluates finite and nonzero
    e = [-2.0, -1.2, -0.3, 0.5, 1.4, 2.2]
    cur = HyperellipticCurve(e)
    tv, _ = tau_genus2(cur, 0.8 + 1.5j)
    assert np.isfinite(tv.log_value.real)
    assert abs(tv.value) > 1e-8


def test_tau_genus2_fixture_lattice_residual(fixture_genus2):
    data, cur = fixture_genus2
    tv, _ = tau_genus2(cur, complex(*data["zeta"]))
    assert tv.diagnostics["lattice_residual"] < 1e-12


def test_tau_genus2_fixture_zeta_independence(fixture_genus2):
    data, cur = fixture_genus2
    base = abs(tau_genus2(cur, complex(*data["zeta"]))[0].value)
    other = abs(tau_genus2(cur, -1.4 + 1.1j)[0].value)
    assert abs(other - base) < 1e-8 * base


def test_tau_genus2_lattice_certificates(genus2_curve):
    tv, _ = tau_genus2(genus2_curve, 0.9 + 1.7j)
    assert tv.diagnostics["lattice_residual"] < 1e-6
    assert tv.diagnostics["K_certificate"] < 1e-8


def test_tau_genus2_prime_forms_match_per_pair_theta(fixture_genus2):
    # the batched prime-form thetas against one curve.theta per argument
    data, cur = fixture_genus2
    zeta = complex(*data["zeta"])
    _, ing = tau_genus2(cur, zeta)
    odd = cur.odd_char_gradients()
    table = {nm: (a, v) for nm, a, _, v in taufn._divisor_tables(cur)}
    a_zeta = cur.abel_from_hub(zeta)[0]
    om_zeta = cur._omega_values(cur.v_hat(cur.point(zeta)))
    want = {}
    for (p, q), ci in ing.frozen["char_pairs"].items():
        th = cur.theta(table[q][0] - table[p][0], char=odd[ci][0])
        want[f"E2_{p}_{q}"] = th ** 2 / (cur._omega_values(table[p][1])[ci]
                                         * cur._omega_values(table[q][1])[ci])
    for nm, ci in ing.frozen["char_zeta"].items():
        th = cur.theta(table[nm][0] - a_zeta, char=odd[ci][0])
        want[f"E2_zeta_{nm}"] = th ** 2 / (
            om_zeta[ci] * cur._omega_values(table[nm][1])[ci])
    got = {k: v for k, (_, v) in ing.multiplicative.items()
           if k.startswith("E2_")}
    assert got.keys() == want.keys() and len(got) == 36
    for k, v in want.items():
        assert abs(got[k] - v) <= 1e-12 * abs(v)


def test_tau_genus2_one_theta_call_for_all_prime_forms(monkeypatch):
    from hurwitztau import curves

    cur = HyperellipticCurve([-2.1, -1.0, -0.2 + 0.3j, 0.7, 1.5 + 0.1j, 2.4])
    _, ing = tau_genus2(cur, 0.9 + 1.7j)   # fills the per-curve caches
    chars = []
    bundle = curves.riemann_theta_bundle

    def recording(t, B, char=None, **kw):
        chars.append(char)
        return bundle(t, B, char=char, **kw)

    monkeypatch.setattr(curves, "riemann_theta_bundle", recording)
    tau_genus2(cur, -1.4 + 1.1j, frozen=ing.frozen)
    odd = cur.odd_char_gradients()
    # one characteristic per prime form, pairs first, in assembly order
    want = [odd[ci][0] for ci in list(ing.frozen["char_pairs"].values())
            + list(ing.frozen["char_zeta"].values())]
    assert [c for c in chars if c is not None] == [want]
    assert len(set(want)) > 1
    # fixed calls: the theta derivative at K and the two K certification
    # probes (with the reference row)
    assert chars.count(None) == 2


# ---------------------------------------------------------------------------
# frozen half period of K across moduli displacements
# ---------------------------------------------------------------------------

_G2_POINTS = [-2.1, -1.0, -0.2 + 0.3j, 0.7, 1.5 + 0.1j, 2.4]


def _theta_rows(monkeypatch):
    """Records the argument count of every theta call of the curve layer."""
    from hurwitztau import curves

    rows = []
    bundle = curves.riemann_theta_bundle

    def recording(t, *args, **kw):
        rows.append(len(np.atleast_2d(t)))
        return bundle(t, *args, **kw)

    monkeypatch.setattr(curves, "riemann_theta_bundle", recording)
    return rows


def _moved_curve(base, dz):
    pts = list(_G2_POINTS)
    pts[2] += dz
    return HyperellipticCurve(pts, hub=base.hub)


def test_frozen_half_period_that_no_longer_vanishes_raises():
    base = HyperellipticCurve(_G2_POINTS)
    _, ing = tau_genus2(base, 0.9 + 1.7j)
    moved = _moved_curve(base, 1e-5j)
    tau_genus2(moved, 0.9 + 1.7j, frozen=ing.frozen)
    # a half period that is not a zero of theta on the moved curve
    wrong = dict(ing.frozen, K_half=(ing.frozen["K_half"] + 1) % 16)
    with pytest.raises(LatticeResolutionFailure, match="frozen half period"):
        tau_genus2(moved, 0.9 + 1.7j, frozen=wrong)
    assert "K" not in moved._lazy_cache


def test_unfrozen_search_runs_after_a_frozen_call(monkeypatch):
    base = HyperellipticCurve(_G2_POINTS)
    k = tau_genus2(base, 0.9 + 1.7j)[1].frozen["K_half"]
    moved = _moved_curve(base, -1e-5)
    rows = _theta_rows(monkeypatch)
    K_frozen, _ = moved.riemann_constants(0.9 + 1.7j, half_index=k)
    # one call: the reference row, the frozen candidate on the three probes
    # and the two transport probes
    assert rows == [6]
    assert "K" not in moved._lazy_cache
    K, _ = moved.riemann_constants(0.9 + 1.7j)
    # all 4^g candidates on the three probes plus the reference row, then
    # the two transport probes plus the reference row
    assert rows == [6, 49, 3]
    assert moved._lazy_cache["K"][0] == k
    assert K.tobytes() == K_frozen.tobytes()
