import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitztau import cones
from hurwitztau.cones import ConeCircle
from hurwitztau.errors import (
    DomainError,
    FitUnstable,
    LossOfPrecision,
    PhaseUnwrappingFailure,
    TruncationFailure,
)
from oracles import hankel1_0_series, jump_mu0_scipy, mode_eps_scipy


def test_dtn_zero_spectrum_plane():
    cone = ConeCircle(k=1, R=1.0)
    n, mu, mult = cones.dtn_zero_spectrum(cone, n_last=3)
    assert list(mu) == [0.0, 1.0, 2.0, 3.0]
    assert list(mult) == [1, 2, 2, 2]


def test_dtn_zero_spectrum_halved_spacing():
    cone = ConeCircle(k=2, R=1.0)
    _, mu, _ = cones.dtn_zero_spectrum(cone, n_last=2)
    assert np.allclose(mu, [0.0, 0.5, 1.0])


def test_dtn_limit_matches_zero_spectrum():
    # the approach rate is O(lambda^(2 nu)): tiny t exhibits the 1e-8 limit
    # agreement even for the smallest orders (K-Bessel route stays stable)
    for k in (1, 2, 3):
        cone = ConeCircle(k=k, R=1.3)
        for n in (1, 2, 5):
            mu = cones.dtn_exterior_eigenvalue(n, cone, 1e-20j)
            assert abs(mu - n / (k * 1.3 ** 2)) < 1e-8


def test_dtn_mu0_leading_log_law():
    cone = ConeCircle(k=1, R=1.0)
    for t in (1e-3, 1e-5):
        mu0 = cones.dtn_exterior_eigenvalue(0, cone, 1j * t)
        target = -1.0 / np.log(1j * t)
        assert abs(mu0 / target - 1.0) < 2.0 / abs(np.log(t))


def test_dtn_mu0_k_independence():
    # the radius convention makes mu_0 independent of the cone order
    vals = [cones.dtn_exterior_eigenvalue(0, ConeCircle(k=k, R=1.0), 1e-4j)
            for k in (1, 2, 3)]
    assert abs(vals[0] - vals[1]) < 1e-14
    assert abs(vals[0] - vals[2]) < 1e-14


def test_dtn_reality_negative_energy():
    cone = ConeCircle(k=2, R=0.8)
    for n in (0, 1, 4):
        mu = cones.dtn_exterior_eigenvalue(n, cone, 0.7j)
        assert abs(mu.imag) < 1e-12 * max(1.0, abs(mu))
        assert mu.real > 0


def test_dtn_symmetry_in_n():
    cone = ConeCircle(k=2, R=1.1)
    lam = 0.3 + 0.2j
    assert cones.dtn_exterior_eigenvalue(3, cone, lam) \
        == cones.dtn_exterior_eigenvalue(-3, cone, lam)


def test_dtn_hankel_route_matches_series():
    # exterior eigenvalue through the Hankel ratio at generic complex
    # lambda, cross-checked with the ascending-series oracle at nu = 0; as
    # lambda -> 0, H_0(z) ~ (2i/pi) log z gives mu_0 ~ -1 / (R log lambda R)
    cone = ConeCircle(k=1, R=1.0)
    h = 1e-6
    for lam in [0.31 + 0.17j] + [t * cmath.exp(0.3j) for t in (1e-2, 1e-4)]:
        mu = cones.dtn_exterior_eigenvalue(0, cone, lam)
        H = hankel1_0_series(lam)
        dH = (hankel1_0_series(lam * (1 + h))
              - hankel1_0_series(lam * (1 - h))) / (2 * lam * h)
        oracle = -lam * dH / H
        assert abs(mu - oracle) < 1e-6 * abs(oracle)
        if abs(lam) < 0.1:
            assert abs(mu * -np.log(lam) - 1.0) < 2.5 / abs(np.log(abs(lam)))


def test_dtn_half_integer_order_closed_form():
    # nu = 1/2: H_{1/2}(z) = -i sqrt(2 / (pi z)) e^{iz}, so the exterior DtN
    # eigenvalue is 1/(2R) - i lambda exactly
    cone = ConeCircle(k=1, R=2.0)
    for lam in (0.35, 1.0 + 0.5j, 2.5 + 0.1j):
        mu = cones.dtn_exterior_eigenvalue(1, cone, lam)
        closed = 1.0 / (2 * cone.R) - 1j * lam
        assert abs(mu - closed) < 1e-12 * abs(closed)


def test_dtn_hankel_overflow_is_loss_of_precision():
    # H_800 overflows at |lambda R| ~ 1e-8: a typed error, never a NaN
    with pytest.raises(LossOfPrecision):
        cones.dtn_exterior_eigenvalue(800, ConeCircle(k=1, R=1.0),
                                      1e-8 * (1 + 1j))


@pytest.mark.parametrize("n", [106, 299])
def test_dtn_ratio_recurrence_matches_mpmath(n):
    # K_106(0.1) overflows a double; the ratio recurrence forms none
    import mpmath as mp

    t, cone = 0.1, ConeCircle(k=1, R=1.0)
    mu = cones.dtn_exterior_eigenvalue(n, cone, 1j * t)
    with mp.workdps(30):
        x = mp.mpf(t * cone.R)
        K = mp.besselk(n, x)
        dK = -(mp.besselk(n - 1, x) + mp.besselk(n + 1, x)) / 2
        want = float(-t * dK / K)
    assert mu.imag == 0
    assert abs(mu.real - want) <= 1e-14 * want


def test_dtn_fractional_order_recurrence_matches_mpmath():
    import mpmath as mp

    cone = ConeCircle(k=3, R=0.77)
    for n, t in ((1, 0.1), (7, 1e-3), (250, 0.05), (40, 3.0)):
        mu = cones.dtn_exterior_eigenvalue(n, cone, 1j * t)
        with mp.workdps(30):
            nu, x = mp.mpf(cone.nu(n)), mp.mpf(t * cone.R)
            want = float(t * (mp.besselk(nu - 1, x) / mp.besselk(nu, x) + nu / x))
        assert abs(mu.real - want) <= 1e-14 * want


@pytest.mark.parametrize("f", [0.0, 0.01, 0.37, 0.5, 0.99])
def test_k_ratio_matches_mpmath(f):
    # the fractional-order start K_{1-f}(x) / K_f(x) of the DtN recurrence;
    # f = 0 past x = 1/2 is where the integer orders leave the series
    import mpmath as mp

    for x in (1e-20, 1e-8, 1e-4, 0.2, 0.7, 2.31, 50.0):
        r, cert = cones._k_ratio(f, x)
        with mp.workdps(30):
            want = float(mp.besselk(1 - f, x) / mp.besselk(f, x))
        assert abs(r - want) <= 1e-14 * want, (f, x)
        assert 0.0 <= cert < cones._K_TARGET


def test_dtn_integer_order_past_the_series_matches_mpmath():
    # mu_0(i t) = t K_1(x) / K_0(x) and mu_1 = t (1/x + K_0(x) / K_1(x)) at
    # x = t R > 1/2, both from the trapezoid start at f = 0
    import mpmath as mp

    cone, t = ConeCircle(k=1, R=1.0), 0.7
    with mp.workdps(30):
        k0, k1 = mp.besselk(0, t), mp.besselk(1, t)
        want = [float(t * k1 / k0), float(t * (1 / mp.mpf(t) + k0 / k1))]
    for n in (0, 1):
        mu = cones.dtn_exterior_eigenvalue(n, cone, 1j * t)
        assert mu.imag == 0 and abs(mu.real - want[n]) <= 1e-14 * want[n]


def test_k_ratio_too_few_doublings_raises(monkeypatch):
    # at x = 1e-8 the K_nu integrals need 512 nodes; one doubling from 32
    # misses the certificate, and no ratio, eigenvalue or row comes back
    rule = cones.trapezoid_doubling
    monkeypatch.setattr(cones, "trapezoid_doubling",
                        lambda fun, **kw: rule(fun, max_doublings=1, **kw))
    with pytest.raises(LossOfPrecision, match="certificates"):
        cones._k_ratio(0.37, 1e-8)
    cone = ConeCircle(k=3, R=0.77)
    with pytest.raises(LossOfPrecision):
        cones.dtn_exterior_eigenvalue(1, cone, 1e-8j)
    with pytest.raises(LossOfPrecision):
        cones.dtn_table(cone, [1e-4j], range(3))


def test_detstar_closed_forms():
    assert abs(cones.detstar_N0_model(ConeCircle(1, 1.0)) - 2 * np.pi) < 1e-12
    assert abs(cones.detstar_N0_model(ConeCircle(2, 1.0)) - 4 * np.pi) < 1e-12
    assert abs(cones.detstar_N0_model(ConeCircle(1, 1.0), family="full")
               - np.pi) < 1e-12


def test_detstar_scaling_law():
    base = cones.detstar_N0_model(ConeCircle(1, 1.0))
    for k, R in ((2, 1.0), (3, 1.7), (5, 0.4)):
        val = cones.detstar_N0_model(ConeCircle(k, R))
        assert val == pytest.approx(k * R * R * base, rel=1e-15)


def test_detzeta_consistency_with_detstar():
    # det N(lambda) (-R log lambda) approaches det* N(0) within the
    # O(1/log lambda) envelope set by the subleading constant
    cone = ConeCircle(k=1, R=1.0)
    target = cones.detstar_N0_model(cone, family="full")
    for t in (1e-5, 1e-7):
        ld, diag = cones.detzeta_N_model(cone, 1j * t)
        val = np.exp(ld) * (-cone.R * np.log(1j * t))
        envelope = 2.5 / abs(np.log(t))
        assert abs(val / target - 1.0) < envelope


def test_detzeta_monotone_negative_axis():
    cone = ConeCircle(k=1, R=1.0)
    ts = [0.0625, 0.125, 0.25, 0.5]
    vals = [cones.detzeta_N_model(cone, 1j * t)[0].real for t in ts]
    diffs = np.diff(vals)
    assert np.all(diffs > 0)


def test_detzeta_real_for_negative_energy():
    cone = ConeCircle(k=2, R=1.0)
    ld, _ = cones.detzeta_N_model(cone, 0.37j)
    assert abs(ld.imag) < 1e-12


def test_detzeta_flat_plane_structure():
    # k = 1: the jump operator splits into the disk and plane parts; the
    # mode-sum eigenvalues (mu_0 of jump_eigenvalue, and mu_n = 2 nu / (R P_n)
    # with P_n = exp(-eps_n) of _series_eps) must match an independent
    # direct sum of the two DtN maps
    import scipy.special as sps

    cone = ConeCircle(k=1, R=1.0)
    t = 0.5
    eps = cones._series_eps(cones._cone_orders(cone.k * cone.R, 3),
                            [1j * t * cone.R], True)[0][0]
    for n in (0, 1, 3):
        closed = cones.jump_eigenvalue(0, cone, 1j * t) if n == 0 \
            else 2 * cone.nu(n) / (cone.R * np.exp(-eps[n - 1]))
        iv = sps.iv(n, t)
        kv = sps.kv(n, t)
        interior = t * sps.ivp(n, t) / iv
        exterior = -t * sps.kvp(n, t) / kv
        assert abs(closed - (interior + exterior)) < 1e-10 * abs(closed)


# per-mode agreement of the series split with SciPy's product; no looser
# than the mp oracle check of test_cone_modes_match_mp_oracle
SERIES_TOL = 1e-13


def _assert_is_the_full_scan(cone, lam):
    """At or below |lambda R| = _SERIES_X each mode of the split agrees with
    SciPy's product formed in full at every mode (``mode_eps_scipy``)
    wherever that is representable, log det is the sum of SciPy's modes
    there and of the split elsewhere, and mu_0 is SciPy's; past it the mode
    sum raises DomainError."""
    lam = complex(lam)
    axis = cones._on_imag_axis(lam)
    x = 1j * lam.imag * cone.R if axis else lam * cone.R
    if abs(x) > cones._SERIES_X:
        with pytest.raises(DomainError):
            cones.detzeta_N_model(cone, lam)
        return
    log_det, diag = cones.detzeta_N_model(cone, lam)
    N = diag["modes"]
    series = cones._series_eps(cones._cone_orders(cone.k * cone.R, N), [x],
                               axis)[0][0]
    scipy_eps, good = mode_eps_scipy(cone, lam, 1, N)
    assert good.any()
    assert np.max(np.abs(series[good] - scipy_eps[good])) <= SERIES_TOL
    mu0 = jump_mu0_scipy(cone, lam)
    assert abs(diag["mu0"] - mu0) <= 1e-14 * abs(mu0)
    want = np.log(diag["mu0"]) + np.log(np.pi * cone.k * cone.R ** 2) \
        + 2 * (np.sum(np.where(good, scipy_eps, series)) + diag["tail"])
    assert abs(log_det - want) <= 2 * good.sum() * SERIES_TOL


@pytest.mark.parametrize("R", [0.5, 0.8, 1.3, 2.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_detzeta_block_scan_is_bitwise_the_full_scan(k, R):
    # the split per mode against SciPy's product at |lambda R| <= _SERIES_X,
    # DomainError past it
    cone = ConeCircle(k, R)
    for a in (10.0, 1.0, 1e-1, 1e-3, 1e-7):
        for lam in (a, 1j * a, a * (1 + 0.3j)):
            _assert_is_the_full_scan(cone, lam)


# the ends of each k's R band in the cone benchmark
BAND_CONES = [(1, 1.12), (1, 1.47), (2, 0.92), (2, 1.06),
              (3, 0.75), (3, 0.83), (4, 0.63), (4, 0.69)]
# spectral parameters with |lambda R| <= _SERIES_X on every band cone, and
# past it
SERIES_LAMS = [10.0 ** -j for j in range(1, 8)] \
    + [1j * 10.0 ** -j for j in range(1, 5)]
PAST_LAMS = [1.0, 1j, 0.9 + 0.27j]


@pytest.mark.parametrize("k,R", BAND_CONES)
def test_detzeta_direct_modes_stay_within_four_blocks(k, R):
    # on the band cones every mode takes the split, with a tail bound far
    # below rounding; past _SERIES_X the mode sum is not defined
    cone = ConeCircle(k, R)
    for lam in SERIES_LAMS:
        _assert_is_the_full_scan(cone, lam)
        _, diag = cones.detzeta_N_model(cone, lam)
        assert "direct_modes" not in diag
        assert diag["modes"] == cones._tail_start(k * R)
        assert diag["series_x"] == cones._SERIES_X
        assert 0 <= diag["tail_bound"] < 1e-15
    for lam in PAST_LAMS:
        _assert_is_the_full_scan(cone, lam)


def _lam_on_ray(a, ray):
    return {"real": complex(a), "imag": 1j * a, "tilted": cmath.rect(a, 0.3)}[ray]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(k=st.integers(1, 4), R=st.floats(0.3, 3.0),
       log_a=st.floats(-8.0, float(np.log10(20.0))),
       ray=st.sampled_from(["real", "imag", "tilted"]))
# a draw where SciPy's reference, not the split, is off by 1e-13 at its
# highest modes (every ray): those modes are left out by mode_eps_scipy
@example(k=2, R=0.3, log_a=-7.1235, ray="real")
@example(k=2, R=0.3, log_a=-7.1235, ray="imag")
@example(k=2, R=0.3, log_a=-7.1235, ray="tilted")
def test_detzeta_is_the_full_scan_on_random_cones(k, R, log_a, ray):
    _assert_is_the_full_scan(ConeCircle(k, R), _lam_on_ray(10.0 ** log_a, ray))


@pytest.mark.parametrize("ray", ["real", "imag", "tilted"])
def test_detzeta_range_ends_at_series_x(ray):
    # |lambda R| = 1/2 is the last value of the range, on every ray
    for k in (1, 3):
        for R in (0.5, 1.0, 2.0):
            cone = ConeCircle(k, R)
            lam = _lam_on_ray(cones._SERIES_X / R, ray)
            _, diag = cones.detzeta_N_model(cone, lam)
            assert diag["series_x"] == cones._SERIES_X
            with pytest.raises(DomainError):
                cones.detzeta_N_model(cone, lam * (1 + 1e-12))


# cones of the mp oracle check: band ends, integer orders (k R = 2), and
# nu_1 = 1 + delta on both sides of an integer
MP_CONES = [(1, 1.12), (1, 1.47), (4, 0.63), (4, 0.69), (2, 1.0)] \
    + [(1, 1.0 / (1.0 + d)) for d in (1e-12, -1e-12, 1e-9, -1e-9,
                                      1e-6, -1e-6, 1e-3, -1e-3)]
MP_LAMS = [0.1j, 1e-4j, 1e-2, 1e-7, 1e-3 * cmath.exp(0.3j)]
MP_MODES = 64


@pytest.fixture(scope="module")
def mp_cone_eps():
    """30-digit eps_n, n <= MP_MODES, per (k, R, lambda) of the check."""
    from mp_oracles import cone_eps_mp

    return {(k, R, lam): cone_eps_mp(k, R, lam, MP_MODES)
            for k, R in MP_CONES for lam in MP_LAMS}


@pytest.mark.parametrize("k,R", MP_CONES)
def test_cone_modes_match_mp_oracle(k, R, mp_cone_eps):
    # every mode summed term by term, the near-integer circle route included
    cone = ConeCircle(k, R)
    for lam in MP_LAMS:
        axis = cones._on_imag_axis(complex(lam))
        x = 1j * lam.imag * R if axis else lam * R
        N = min(cones.detzeta_N_model(cone, lam)[1]["modes"], MP_MODES)
        (eps,), (cert,) = cones._series_eps(cones._cone_orders(k * R, N), [x],
                                            axis)
        want = np.array(mp_cone_eps[(k, R, lam)][:N])
        assert np.max(np.abs(eps - want)) <= 1e-13
        assert cert <= 1e-13


@pytest.mark.parametrize("k,R", MP_CONES)
def test_cone_log_det_within_tail_bound_of_mp_oracle(k, R, mp_cone_eps):
    from mp_oracles import cone_log_det_mp

    for lam in MP_LAMS:
        log_det, diag = cones.detzeta_N_model(ConeCircle(k, R), lam)
        want = cone_log_det_mp(k, R, lam, mp_cone_eps[(k, R, lam)])
        assert abs(log_det - want) <= diag["tail_bound"] + 1e-13


def test_tail_bound_over_tolerance_is_typed(monkeypatch):
    cone = ConeCircle(k=1, R=1.3)
    _, diag = cones.detzeta_N_model(cone, 0.1)
    assert 0 < diag["tail_bound"] < 1e-20
    monkeypatch.setattr(cones, "_TAIL_TOL", diag["tail_bound"] / 2)
    with pytest.raises(TruncationFailure):
        cones.detzeta_N_model(cone, 0.1)


@pytest.mark.parametrize("R", [1e-31, 1e-100, 1e-200])
def test_tail_at_huge_orders_underflows(R):
    # nu_1 = 1 / (k R) up to 1e200: the bound's powers underflow to 0
    # instead of overflowing, and the log-det stays finite
    (tail,), (bound,) = cones._tail([1e-4], R, 1)
    assert np.isfinite(tail) and 0 <= bound < 1e-20
    # the mode sum too, on both axes, with no RuntimeWarning: nu^2 would
    # overflow past nu ~ 1e154, and pi k R^2 underflow below R ~ 1e-154
    for lam in (1e-2j, 1e-2):
        log_det, diag = cones.detzeta_N_model(ConeCircle(1, R), lam)
        assert cmath.isfinite(log_det) and diag["tail_bound"] < 1e-20


# the samples of the shift fit, lambda = 10^-j, j = 2..7
SHIFT_LAMS = np.array([10.0 ** -j for j in range(2, 8)])


def _assert_vector_is_the_scalar_calls(cone, lams):
    """One call over ``lams`` gives, bitwise, what one call per lambda does."""
    log_dets, diag = cones.detzeta_N_model(cone, lams)
    assert log_dets.shape == np.shape(lams) and log_dets.dtype == complex
    for i, lam in enumerate(lams):
        log_det, one = cones.detzeta_N_model(cone, lam)
        assert type(log_det) is complex and log_det == log_dets[i]
        for key in ("mu0", "tail", "tail_bound", "near_integer_certificate"):
            assert one[key] == diag[key][i], key
        assert one["modes"] == diag["modes"] and one["series_x"] == diag["series_x"]


@pytest.mark.parametrize("R", [0.5, 0.77, 1.06, 1.47])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_vector_call_is_the_scalar_calls_bitwise(k, R):
    # every sample of the shift fit, one call per axis
    for lams in (SHIFT_LAMS, 1j * SHIFT_LAMS):
        _assert_vector_is_the_scalar_calls(ConeCircle(k, R), lams)


@pytest.mark.parametrize("R, circle", [
    (1.2, [True] * 5),                          # nu_6 = 5: every lambda
    (1 / 1.01, [True, False, False, False, False]),   # nu_1 = 1.01: 0.4 alone
])
def test_vector_call_with_circle_lambdas_is_the_scalar_calls(R, circle):
    # the near-integer circle runs at the lambda whose orders need it, and
    # a vector holding such lambda and others equals the scalar calls
    cone = ConeCircle(1, R)
    lams = np.array([0.4, 0.1, 1e-2, 1e-3, 1e-5])
    for axis in (lams, 1j * lams):
        _, diag = cones.detzeta_N_model(cone, axis)
        assert list(diag["near_integer_certificate"] > 0) == circle
        _assert_vector_is_the_scalar_calls(cone, axis)


def test_vector_call_mixes_axes_and_blocks(monkeypatch):
    # lambda on both axes in one vector, and passes of one lambda each
    cone = ConeCircle(3, 0.77)
    lams = np.array([1e-2, 1e-2j, 1e-3j, 1e-3, 0.3 * cmath.exp(0.4j)])
    _assert_vector_is_the_scalar_calls(cone, lams)
    log_dets, diag = cones.detzeta_N_model(cone, lams.reshape(5, 1))
    assert log_dets.shape == diag["tail_bound"].shape == (5, 1)
    monkeypatch.setattr(cones, "_BLOCK", 1)
    assert np.array_equal(cones.detzeta_N_model(cone, lams)[0], log_dets[:, 0])


def test_vector_tail_bound_miss_names_the_lambda(monkeypatch):
    cone = ConeCircle(1, 1.3)
    lams = np.array([1e-3, 0.1, 1e-2])
    _, diag = cones.detzeta_N_model(cone, lams)
    bound = diag["tail_bound"]
    assert 0 < bound[0] < bound[2] < bound[1]
    # only lambda = 0.1 misses
    monkeypatch.setattr(cones, "_TAIL_TOL", (bound[1] + bound[2]) / 2)
    with pytest.raises(TruncationFailure, match=r"at lambda = \(0\.1\+0j\)"):
        cones.detzeta_N_model(cone, lams)
    cones.detzeta_N_model(cone, lams[[0, 2]])


def test_mu0_fit_adjudicates_subleading():
    for k, R in ((1, 1.0), (2, 1.0), (1, 1.8)):
        fit = cones.mu0_asymptotic_fit(ConeCircle(k, R))
        lam_min = abs(fit["lambda_min"])
        assert abs(fit["leading"] - 1.0) < 1.0 / abs(np.log(lam_min))
        # the Bessel-series-derived constant (plain Euler gamma) wins
        assert fit["selected"] == "gamma"
        assert fit["dist_gamma"] < 1e-10
        assert fit["dist_pi_gamma_half"] > 0.1


def test_mu0_fit_k_independent():
    f1 = cones.mu0_asymptotic_fit(ConeCircle(1, 1.0))
    f2 = cones.mu0_asymptotic_fit(ConeCircle(2, 1.0))
    f3 = cones.mu0_asymptotic_fit(ConeCircle(3, 1.0))
    assert abs(f1["subleading_sharp"] - f2["subleading_sharp"]) < 1e-12
    assert abs(f1["subleading_sharp"] - f3["subleading_sharp"]) < 1e-12


def test_spectral_shift_leading():
    cone = ConeCircle(k=1, R=1.0)
    fit = cones.spectral_shift_asymptotic(cone)
    assert abs(fit["leading"] - 1.0) < 0.1
    # pointwise at lambda^2 = 1e-6
    xi = fit["samples"][1e-3]
    assert abs(xi * np.log(1e-6) - 1.0) < 0.1


def test_spectral_shift_leading_higher_cone_order():
    # the leading log law is independent of the cone order
    fit = cones.spectral_shift_asymptotic(ConeCircle(k=2, R=1.0))
    assert abs(fit["leading"] - 1.0) < 0.1


def test_spectral_shift_vanishes_negative_energy():
    cone = ConeCircle(k=1, R=1.0)
    ld, _ = cones.detzeta_N_model(cone, 1j * 1e-3)
    assert abs(ld.imag) < 1e-13


def test_spectral_shift_cone_additivity():
    # three distinct band cones through the API: each xi sample is the sum
    # of the three determinant phases over pi, and the leading law adds up
    circles = [ConeCircle(1, 1.3), ConeCircle(2, 1.0), ConeCircle(3, 0.8)]
    fit = cones.spectral_shift_asymptotic(circles)
    assert fit["expected"] == 3.0
    for lam, xi in fit["samples"].items():
        phases = sum(cones.detzeta_N_model(c, complex(lam))[0].imag
                     for c in circles)
        assert abs(xi - phases / np.pi) < 1e-14
    assert abs(fit["leading"] - 3.0) < 0.3


@pytest.mark.parametrize("phases, raises", [
    ((2.0, 2.0), False),     # each phase within (-pi, pi], the sum not
    ((3.5, -3.0), True),     # the sum within, one phase not
])
def test_shift_fit_unwraps_each_cone_phase(monkeypatch, phases, raises):
    circles = [ConeCircle(1, 1.0 + i) for i in range(len(phases))]
    by_cone = dict(zip(circles, phases))
    # one call per cone with every sample, as the fit makes it
    diag = {"tail_bound": 0.0, "near_integer_certificate": 0.0, "modes": 1}
    monkeypatch.setattr(cones, "detzeta_N_model",
                        lambda c, lam: (np.full(np.shape(lam),
                                                complex(0.0, by_cone[c])), diag))
    if raises:
        with pytest.raises(PhaseUnwrappingFailure):
            cones.spectral_shift_asymptotic(circles)
    else:
        fit = cones.spectral_shift_asymptotic(circles)
        assert set(fit["samples"].values()) == {sum(phases) / np.pi}


def test_shift_fit_rejects_degenerate_exponents():
    cone = ConeCircle(1, 1.0)
    with pytest.raises(FitUnstable):
        cones.spectral_shift_asymptotic(cone, exponents=[3])
    with pytest.raises(FitUnstable):
        cones.spectral_shift_asymptotic(cone, exponents=[])
    # lambda = 1 would put 1 / log lambda^2 at infinity
    with pytest.raises(DomainError):
        cones.spectral_shift_asymptotic(ConeCircle(1, 0.5), exponents=range(0, 4))


def test_spectral_shift_additivity_over_distinct_cones():
    # three different cones, each R inside the band of its k where the
    # single-cone shift fit holds; the phases of their determinants are
    # summed, not one phase multiplied by 3
    circles = [ConeCircle(1, 1.3), ConeCircle(2, 1.0), ConeCircle(3, 0.8)]
    lams = np.array([10.0 ** (-j) for j in range(2, 8)])
    xi = [sum(cones.detzeta_N_model(c, complex(lm))[0].imag
              for c in circles) / np.pi for lm in lams]
    V = np.vander(1.0 / np.log(lams ** 2), 2, increasing=True)
    sol, *_ = np.linalg.lstsq(V, np.array(xi), rcond=None)
    assert abs(sol[1] - 3.0) < 0.3


def test_cone_validation():
    # an order not positive, or past the float range (where 2 pi k would
    # raise OverflowError)
    for k in (0, 10 ** 400):
        with pytest.raises(DomainError):
            ConeCircle(k=k, R=1.0)
    with pytest.raises(DomainError):
        ConeCircle(k=1, R=-1.0)
    # a non-finite R, or a 2 pi k R^2 past the float range
    for k, R in ((1, float("nan")), (1, float("inf")), (1, 1e160),
                 (4, 1e154)):
        with pytest.raises(DomainError):
            ConeCircle(k=k, R=R)
    with pytest.raises(DomainError):
        cones.dtn_exterior_eigenvalue(0, ConeCircle(1, 1.0), 0.0)
    with pytest.raises(DomainError):
        cones.dtn_exterior_eigenvalue(1, ConeCircle(1, 2.0), 0.5 - 0.5j)
    with pytest.raises(DomainError):
        cones.jump_eigenvalue(0, ConeCircle(1, 1.0), 0.0)
    # Im lambda < 0 is outside the convention of every cone routine
    for lam in (0.1 - 0.05j, -0.1j):
        with pytest.raises(DomainError):
            cones.jump_eigenvalue(0, ConeCircle(2, 1.0), lam)
        with pytest.raises(DomainError):
            cones.detzeta_N_model(ConeCircle(2, 1.0), lam)
        with pytest.raises(DomainError):
            cones.dtn_exterior_eigenvalue(1, ConeCircle(2, 1.0), lam)
    # jump_eigenvalue holds mu_0 inside the series range only
    with pytest.raises(DomainError):
        cones.jump_eigenvalue(1, ConeCircle(2, 1.0), 0.1j)
    with pytest.raises(DomainError):
        cones.jump_eigenvalue(0, ConeCircle(2, 1.0), 0.6j)


def test_dtn_table_rows():
    cone = ConeCircle(k=1, R=1.0)
    rows, cert = cones.dtn_table(cone, [1e-2j], range(3))
    assert len(rows) == 3
    n, lam, mu = rows[1]
    assert n == 1 and abs(mu - 1.0) < 1e-3
    # integer orders at x <= 1/2 start from the series: no certificate
    assert cert == 0.0
