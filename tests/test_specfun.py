import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.special import gamma as cgamma

from hurwitztau import specfun
from hurwitztau.errors import (
    CriticalPointSingularity,
    DegenerateInput,
    DomainError,
    TruncationFailure,
)
from mp_oracles import theta_mp
from oracles import (
    hankel1_0_series,
    resultant_roots_oracle,
    theta1_prime_qseries,
    theta_box_oracle,
    theta_full_box,
)


# ---------------------------------------------------------------------------
# Hankel / Bessel
# ---------------------------------------------------------------------------

def test_hankel1_small_argument_log_behavior():
    # H_0(i t) ~ (2i/pi) log t as t -> 0+, checked against the series oracle
    for t in (1e-2, 1e-3, 1e-4):
        z = 1j * t
        val = specfun.hankel1(0.0, z)
        oracle = hankel1_0_series(z)
        assert abs(val - oracle) < 1e-10 * abs(oracle)
        assert abs(val / ((2j / np.pi) * np.log(t)) - 1.0) < 2.5 / abs(np.log(t))


def test_hankel1_half_integer_closed_form():
    for z in (0.7, 2.0 + 1.0j, 5.0 + 0.2j):
        z = complex(z)
        val = specfun.hankel1(0.5, z)
        closed = np.sqrt(2.0 / (np.pi * z)) * (np.sin(z) - 1j * np.cos(z))
        assert abs(val - closed) < 1e-12 * abs(closed)
        jval = specfun.besselj(0.5, z)
        jclosed = np.sqrt(2.0 / (np.pi * z)) * np.sin(z)
        assert abs(jval - jclosed) < 1e-12 * abs(jclosed)


def test_bessel_wronskian_identity_grid():
    # J_nu Y'_nu - J'_nu Y_nu = 2/(pi z) across a (nu, z) grid
    import scipy.special as sps

    for nu in (0.0, 0.3, 0.5, 1.0, 1.7, 3.2):
        for z in (0.3, 1.0, 4.0, 11.0, 30.0):
            J, Jp = sps.jv(nu, z), sps.jvp(nu, z)
            Y, Yp = sps.yv(nu, z), sps.yvp(nu, z)
            lhs = J * Yp - Jp * Y
            assert abs(lhs - 2 / (np.pi * z)) < 1e-9 * abs(2 / (np.pi * z))


def test_hankel1_domain_errors():
    with pytest.raises(DomainError):
        specfun.hankel1(0.5, 0.0)
    with pytest.raises(DomainError):
        specfun.hankel1(0.5, 1.0 - 1.0j)
    with pytest.raises(DomainError):
        specfun.hankel1(-1.0, 1.0)


def test_hankel1_loss_of_precision_flagged():
    from hurwitztau.errors import LossOfPrecision

    with pytest.raises(LossOfPrecision):
        specfun.hankel1(800.0, 1e-8j)


def test_theta_truncation_cap():
    from hurwitztau.errors import TruncationFailure

    with pytest.raises(TruncationFailure):
        specfun.riemann_theta([0.0 + 4000.0j], [[0.01j]])


def test_hankel1_deriv_domain_error():
    with pytest.raises(DomainError):
        specfun.hankel1_deriv(0.5, 1.0 - 1.0j)
    with pytest.raises(DomainError):
        specfun.hankel1_deriv(0.5, 0.0)


def test_hankel1_deriv_loss_of_precision_flagged():
    from hurwitztau.errors import LossOfPrecision

    with pytest.raises(LossOfPrecision):
        specfun.hankel1_deriv(800.0, 1e-8j)


def test_hankel1_deriv_vs_fd():
    for nu in (0.0, 0.37, 1.5):
        z = 2.0 + 0.5j
        h = 1e-6
        fd = (specfun.hankel1(nu, z + h) - specfun.hankel1(nu, z - h)) / (2 * h)
        assert abs(specfun.hankel1_deriv(nu, z) - fd) < 1e-8 * abs(fd)


# ---------------------------------------------------------------------------
# Riemann theta
# ---------------------------------------------------------------------------

def test_theta_odd_char_vanishes_at_origin():
    char = specfun.ThetaCharacteristic((0.5,), (0.5,))
    val = specfun.riemann_theta([0.0], [[1j]], char=char)
    assert abs(val) < 1e-13


def test_theta1_prime_lemniscatic():
    eta_i = cgamma(0.25) / (2 * np.pi ** 0.75)
    val = specfun.theta1_prime(1j)
    assert abs(val - 2 * np.pi * eta_i ** 3) < 1e-10


def test_theta1_prime_qseries_oracle():
    for tau in (1j, 0.3 + 0.8j, -0.4 + 1.2j):
        assert abs(specfun.theta1_prime(tau) - theta1_prime_qseries(tau)) \
            < 1e-12 * abs(theta1_prime_qseries(tau))


def test_theta_genus2_block_diagonal_factorizes():
    B = np.array([[1.1j, 0.0], [0.0, 0.8j]])
    t = np.array([0.21 - 0.11j, -0.14 + 0.05j])
    v2 = specfun.riemann_theta(t, B)
    v11 = specfun.riemann_theta([t[0]], [[1.1j]])
    v12 = specfun.riemann_theta([t[1]], [[0.8j]])
    assert abs(v2 - v11 * v12) < 1e-12 * abs(v2)


def test_theta_genus3_block_diagonal_factorizes():
    # desk-scale cap is g = 3
    B = np.array([[1.1j, 0.0, 0.0], [0.0, 0.8j, 0.0], [0.0, 0.0, 1.4j]])
    t = np.array([0.21 - 0.11j, -0.14 + 0.05j, 0.05 + 0.03j])
    v3 = specfun.riemann_theta(t, B)
    parts = [specfun.riemann_theta([t[i]], [[B[i, i]]]) for i in range(3)]
    assert abs(v3 - np.prod(parts)) < 1e-12 * abs(v3)


def test_theta_against_box_oracle():
    B = np.array([[1.2j, 0.3 + 0.1j], [0.3 + 0.1j, 0.9j]])
    t = np.array([0.21 - 0.11j, -0.34 + 0.27j])
    char = specfun.ThetaCharacteristic((0.5, 0.0), (0.5, 0.0))
    mine = specfun.riemann_theta(t, B, char=char)
    oracle = theta_box_oracle(t, B, a=char.a, b=char.b)
    assert abs(mine - oracle) < 1e-12 * abs(oracle)


def test_theta_quasi_periodicity_random(rng):
    B = np.array([[1.2j, 0.3 + 0.1j], [0.3 + 0.1j, 0.9j]])
    for _ in range(100):
        t = rng.normal(size=2) + 1j * rng.normal(size=2) * 0.3
        m = rng.integers(-2, 3, size=2).astype(float)
        n = rng.integers(-2, 3, size=2).astype(float)
        lhs = specfun.riemann_theta(t + B @ m + n, B)
        rhs = np.exp(-1j * np.pi * m @ B @ m - 2j * np.pi * m @ t) \
            * specfun.riemann_theta(t, B)
        assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)


def test_theta_derivative_vs_fd():
    B = np.array([[1.2j, 0.3 + 0.1j], [0.3 + 0.1j, 0.9j]])
    t = np.array([0.21 - 0.11j, -0.34 + 0.27j])
    u = np.array([0.7, -0.4])
    h = 1e-6
    fd = (specfun.riemann_theta(t + h * u, B)
          - specfun.riemann_theta(t - h * u, B)) / (2 * h)
    dv = specfun.riemann_theta(t, B, derivs=[u])
    assert abs(dv - fd) < 1e-7 * max(1.0, abs(fd))


def _theta_specs(g):
    """Value, gradient and Hessian specs along the coordinate axes."""
    basis = [tuple(np.eye(g)[i]) for i in range(g)]
    return [()] + [(u,) for u in basis] + [(u, v) for u in basis for v in basis]


@pytest.mark.parametrize("B", [
    np.array([[0.3 + 1.1j]]),
    np.array([[1.2j, 0.3 + 0.1j], [0.3 + 0.1j, 0.9j]]),
])
def test_theta_batch_matches_scalar_calls(B, rng):
    g = B.shape[0]
    specs = _theta_specs(g)
    t = rng.normal(size=(9, g)) * 0.4 + 1j * rng.normal(size=(9, g)) * 0.3
    for char in specfun.ThetaCharacteristic.all_characteristics(g):
        batch = specfun.riemann_theta_bundle(t, B, char=char, derivs_list=specs)
        assert batch.shape == (len(t), len(specs))
        for row, tk in zip(batch, t):
            single = np.array(specfun.riemann_theta_bundle(
                tk, B, char=char, derivs_list=specs))
            assert np.all(np.abs(row - single) <= 1e-12 * np.abs(single))


def test_theta_batch_chunk_remainder(rng, monkeypatch):
    # 37 arguments: one full chunk of 32 plus a remainder of 5
    B = np.array([[1.2j, 0.3 + 0.1j], [0.3 + 0.1j, 0.9j]])
    specs = _theta_specs(2)
    t = rng.normal(size=(37, 2)) * 0.4 + 1j * rng.normal(size=(37, 2)) * 0.3
    char = specfun.ThetaCharacteristic((0.5, 0.0), (0.5, 0.5))
    chunked = specfun.riemann_theta_bundle(t, B, char=char, derivs_list=specs)
    monkeypatch.setattr(specfun, "_THETA_CHUNK", len(t))
    whole = specfun.riemann_theta_bundle(t, B, char=char, derivs_list=specs)
    assert np.all(np.abs(chunked - whole) <= 1e-12 * np.abs(whole))


def test_theta_lattice_cached_bit_exact(rng, monkeypatch):
    # the cached integer lattice gives theta values identical to the bit
    # to a lattice built afresh for every chunk
    B = np.array([[1.2j, 0.3 + 0.1j], [0.3 + 0.1j, 0.9j]])
    char = specfun.ThetaCharacteristic((0.5, 0.0), (0.5, 0.5))
    t = rng.normal(size=(40, 2)) * 0.4 + 1j * rng.normal(size=(40, 2)) * 0.3
    grid = specfun._theta_lattice(2, 7)
    assert grid is specfun._theta_lattice(2, 7) and not grid.flags.writeable
    cached = specfun.riemann_theta_bundle(t, B, char=char,
                                          derivs_list=_theta_specs(2))

    def fresh_lattice(g, R):
        rng1 = np.arange(-R, R + 1, dtype=float)
        grids = np.meshgrid(*([rng1] * g), indexing="ij")
        return np.stack([gr.ravel() for gr in grids], axis=-1)

    monkeypatch.setattr(specfun, "_theta_lattice", fresh_lattice)
    fresh = specfun.riemann_theta_bundle(t, B, char=char,
                                         derivs_list=_theta_specs(2))
    assert np.array_equal(cached, fresh)


def test_theta_batch_truncation_cap_any_argument():
    from hurwitztau.errors import TruncationFailure

    B = np.array([[0.01j]])
    t = np.zeros((40, 1), dtype=complex)
    t[33, 0] = 4000.0j
    with pytest.raises(TruncationFailure):
        specfun.riemann_theta_bundle(t, B)
    assert specfun.riemann_theta_bundle(np.delete(t, 33, axis=0), B).shape \
        == (39, 1)


def _random_B(rng, g, lam):
    """A symmetric g x g matrix with Re B of order 1 and Im B positive
    definite with smallest eigenvalue about ``lam``."""
    X = rng.normal(size=(g, g)) * 0.4
    Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    Y = Q @ np.diag(lam * (1.0 + 1.5 * np.arange(g))) @ Q.T
    return (X + X.T) / 2 + 1j * (Y + Y.T) / 2


@pytest.mark.parametrize("g", [1, 2, 3])
def test_theta_skip_is_bitwise_the_full_box(g, monkeypatch):
    # the skipping kernel against the full-box kernel it replaced, value for
    # value: every characteristic and every spec up to order 2, with one-
    # argument tail chunks (33 = 32 + 1), far-off centres and, at g <= 2, a
    # radius near the cap
    kept = []
    sums = specfun._theta_sums

    def recording(expo, shift, factors, keep):
        kept.append(len(expo[keep]) / len(expo))
        return sums(expo, shift, factors, keep)

    monkeypatch.setattr(specfun, "_theta_sums", recording)
    rng = np.random.default_rng(1300 + g)
    specs = _theta_specs(g)
    chars = specfun.ThetaCharacteristic.all_characteristics(g)
    B = _random_B(rng, g, 0.8 if g < 3 else 2.0)
    sizes = (1, 2, 32, 33, 37)
    far = 4.0 if g < 3 else 1.5
    by_char = {}
    for k, char in enumerate(chars):
        # at g = 3 the first five of the 64 characteristics take one size
        # each, the others 1 to 3 arguments
        n = sum(sizes) if g < 3 else sizes[k] if k < len(sizes) else 1 + k % 3
        t = rng.normal(size=(n, g)) * 0.6 + 1j * rng.normal(size=(n, g)) * 0.4
        if k % 3 == 1:
            t += 1j * rng.normal(size=g) * far          # far-off centre
        lo = 0
        for size in sizes if g < 3 else (n,):
            block = t[lo:lo + size]
            got = specfun.riemann_theta_bundle(block, B, char=char, derivs_list=specs)
            assert np.all(got == theta_full_box(block, B, char=char, derivs_list=specs))
            lo += size
        by_char[char] = t
    # all characteristics in one call, rows interleaved: the rows of each
    # characteristic come out exactly as a call with only those rows would
    order = rng.permutation(sum(map(len, by_char.values())))
    t = np.vstack(list(by_char.values()))[order]
    row_chars = [[c for c, tc in by_char.items() for _ in tc][i] for i in order]
    got = specfun.riemann_theta_bundle(t, B, char=row_chars, derivs_list=specs)
    for char in by_char:
        rows = [i for i, c in enumerate(row_chars) if c == char]
        assert np.all(got[rows] == specfun.riemann_theta_bundle(
            t[rows], B, char=char, derivs_list=specs))
    if g < 3:
        # a centre 85 steps out along Im B's eigenvalue 0.02: radius ~113,
        # and 10% further out exceeds the cap of 120
        B = np.diag([0.02j, 1.0j][:g]) + 0.1
        t = np.array([[0.3 - 1.7j, 0.2 + 0.1j][:g], [-0.4 - 1.69j, 0.1j][:g]])
        for char in chars[:: 7 if g == 2 else 1]:
            got = specfun.riemann_theta_bundle(t, B, char=char, derivs_list=specs)
            assert np.all(got == theta_full_box(t, B, char=char, derivs_list=specs))
        with pytest.raises(TruncationFailure):
            specfun.riemann_theta_bundle(1.1 * t, B)
    # real theta (Re B = 0, real t): the imaginary parts cancel to rounding
    # noise, which the skipped terms could move, so these sum the whole box
    B = 1j * _random_B(rng, g, 0.8).imag
    t = rng.normal(size=(33, g)) + 0j
    for char in chars[:4]:
        got = specfun.riemann_theta_bundle(t, B, char=char, derivs_list=specs)
        assert np.all(got == theta_full_box(t, B, char=char, derivs_list=specs))
    assert min(kept) < 0.5 and max(kept) == 1.0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_theta_matches_mp_oracle(g):
    # every spec up to order 2 against a 40-digit lattice sum carried until
    # the terms fall below 1e-35, to the rounding of the double sum
    rng = np.random.default_rng(1400 + g)
    B = _random_B(rng, g, 0.9 if g < 3 else 1.5)
    specs = _theta_specs(g)
    chars = specfun.ThetaCharacteristic.all_characteristics(g)
    t = rng.normal(size=(2, g)) * 0.5 + 1j * rng.normal(size=(2, g)) * 0.5
    for char, tk in zip([chars[1], chars[-1]], t):
        got = specfun.riemann_theta_bundle(tk, B, char=char, derivs_list=specs)
        want, scale = theta_mp(tk, B, char.a, char.b, specs)
        err = np.abs(np.array(got) - want) / np.array(scale)
        assert err.max() < 1e-14, err.max()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("where", ["Re t", "Im t", "B"])
def test_theta_non_finite_input_is_a_domain_error(where, bad):
    B = np.array([[1.2j, 0.3 + 0.1j], [0.3 + 0.1j, 0.9j]])
    t = np.zeros((3, 2), dtype=complex)
    if where == "B":
        B[0, 1] = B[1, 0] = bad
    else:
        t[1, 0] = bad if where == "Re t" else 1j * bad
    with pytest.raises(DomainError, match="finite"):
        specfun.riemann_theta_bundle(t, B)


def test_theta_characteristic_per_row_count_must_match():
    B = np.array([[1.2j, 0.3 + 0.1j], [0.3 + 0.1j, 0.9j]])
    odd = specfun.ThetaCharacteristic.odd_characteristics(2)
    with pytest.raises(DomainError, match="6 characteristics for 3 arguments"):
        specfun.riemann_theta_bundle(np.zeros((3, 2)), B, char=odd)


def test_riemann_matrix_validation():
    with pytest.raises(DomainError):
        specfun.RiemannMatrix(np.array([[1.0 + 0j, 0.5], [0.4, 1j]]))
    with pytest.raises(DomainError):
        specfun.RiemannMatrix(np.array([[-1j]]))
    rm = specfun.RiemannMatrix(np.array([[1j]]))
    assert rm.g == 1


def test_characteristic_parity():
    odd = specfun.ThetaCharacteristic((0.5,), (0.5,))
    even = specfun.ThetaCharacteristic((0.5,), (0.0,))
    assert odd.is_odd and not even.is_odd
    odd2 = specfun.ThetaCharacteristic.odd_characteristics(2)
    assert len(odd2) == 6


# ---------------------------------------------------------------------------
# resultants and roots
# ---------------------------------------------------------------------------

def test_resultant_basic():
    # R(2w, 2) = 2
    assert abs(specfun.resultant([0, 2], [2]) - 2.0) < 1e-14


def test_resultant_symmetry_property(rng):
    for _ in range(30):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = rng.normal(size=3) + 1j * rng.normal(size=3)
        rfg = specfun.resultant(f, g)
        rgf = specfun.resultant(g, f)
        sign = (-1) ** ((len(f) - 1) * (len(g) - 1))
        assert abs(rfg - sign * rgf) < 1e-10 * max(abs(rfg), 1.0)


def test_resultant_roots_oracle(rng):
    for _ in range(20):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        p = np.array([b, a, 0.0, 1.0])   # w^3 + a w + b
        dp = npoly.polyder(p)
        ddp = npoly.polyder(dp)
        mine = specfun.resultant(dp, ddp)
        oracle = resultant_roots_oracle(dp, ddp)
        assert abs(mine - oracle) < 1e-9 * max(abs(oracle), 1.0)


def test_resultant_common_root_vanishes():
    # f and g share the root w = 2
    f = npoly.polymul([-2, 1], [1, 1])
    g = npoly.polymul([-2, 1], [3, 0, 1])
    assert abs(specfun.resultant(f, g)) < 1e-10


def test_poly_roots_basic():
    r, m = specfun.poly_roots([1, 0, 1])   # w^2 + 1
    assert sorted(np.round(r.imag, 8)) == [-1.0, 1.0]
    r, m = specfun.poly_roots(npoly.polyder([0, -3, 0, 1]))   # p' of w^3-3w
    assert np.allclose(sorted(r.real), [-1.0, 1.0], atol=1e-10)
    assert np.all(m == 1)


def test_poly_roots_wilkinson_stress():
    # degree-8 Wilkinson-style polynomial: residual certification still holds
    c = np.array([1.0])
    for k in range(1, 9):
        c = npoly.polymul(c, [-k, 1.0])
    r, m = specfun.poly_roots(c)
    assert len(r) == 8
    assert np.allclose(sorted(r.real), range(1, 9), atol=1e-5)


def test_poly_roots_rejects_zero_poly():
    with pytest.raises(DegenerateInput):
        specfun.poly_roots([0.0, 0.0])


# ---------------------------------------------------------------------------
# Schwarzian
# ---------------------------------------------------------------------------

def test_schwarzian_moebius_vanishes(rng):
    for _ in range(10):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = complex(rng.normal(), rng.normal())
        val = specfun.schwarzian([b, a], [d, c], w)
        assert abs(val) < 1e-9


def test_schwarzian_cube():
    # f = w^3: S_f = -4/w^2
    for w in (0.7, 1.3 - 0.4j):
        val = specfun.schwarzian([0, 0, 0, 1], [1], w)
        assert abs(val - (-4.0 / w ** 2)) < 1e-10 * abs(4 / w ** 2)


def test_schwarzian_cocycle_property(rng):
    # S_{f o g} = (S_f o g) g'^2 + S_g for f, g polynomials at random points
    for _ in range(100):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        gc = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = complex(rng.normal(), rng.normal()) * 0.5
        comp = npoly.polyadd(
            npoly.polyadd(f[0:1],
                          f[1] * gc if len(f) > 1 else [0]),
            npoly.polyadd(f[2] * npoly.polypow(gc, 2) if len(f) > 2 else [0],
                          f[3] * npoly.polypow(gc, 3) if len(f) > 3 else [0]),
        )
        gw = npoly.polyval(w, gc)
        gpw = npoly.polyval(w, npoly.polyder(gc))
        try:
            lhs = specfun.schwarzian(comp, [1], w)
            rhs = specfun.schwarzian(f, [1], gw) * gpw ** 2 \
                + specfun.schwarzian(gc, [1], w)
        except CriticalPointSingularity:
            continue
        assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))


def test_schwarzian_critical_point_raises():
    with pytest.raises(CriticalPointSingularity):
        specfun.schwarzian([0, -3, 0, 1], [1], 1.0)   # p' (1) = 0
