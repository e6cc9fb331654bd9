"""The Klein-Baker kernel behind ``bergman_sb_branch`` (the clue identity's
right side): its H(0, 0) against the theta kernel's torus value, its
normalization, its independence from the theta layer, and a fault in it
that ``verify clue`` must see."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hurwitztau import HyperellipticCurve, cli, curves
from hurwitztau.quadrature import trapezoid_doubling
from curve_inputs import admissible_branch_points, load_fixture


def _fixture_path(name):
    return os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        name + ".json")


def _fixture_curve(name):
    data = load_fixture(name)
    return HyperellipticCurve([complex(*p) for p in data["branch_points"]])


def _worst_h00_gap(cur):
    """Largest |H(0, 0)| difference between the two kernels over every
    branch index."""
    return max(abs(cur.bergman_sb_branch(m)[0] / 6.0
                   - cur.h_taylor_branch(m, order=1)[0][0, 0])
               for m in range(len(cur.e)))


@pytest.mark.parametrize("swap", [False, True], ids=["standard", "swapped"])
@pytest.mark.parametrize("name", ["curve_genus1", "curve_genus2"])
def test_klein_baker_h00_matches_torus_on_fixtures(name, swap):
    cur = _fixture_curve(name)
    if swap:
        cur = cur.swap_marking()
    assert _worst_h00_gap(cur) <= 1e-9


@pytest.mark.parametrize("g", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_klein_baker_h00_matches_torus_on_random_curves(g, data):
    cur = HyperellipticCurve(data.draw(admissible_branch_points(g)))
    m = data.draw(st.integers(0, 2 * g + 1))
    gap = abs(cur.bergman_sb_branch(m)[0] / 6.0
              - cur.h_taylor_branch(m, order=1)[0][0, 0])
    assert gap <= 1e-9


@pytest.mark.parametrize("g", [1, 2, 3])
def test_second_kind_coefficients_are_the_exact_quotient(g, rng):
    # sum R[p, q] x^p z^q (z - x)^2 = F(x, z) - 2 f(x) - (z - x) f'(x),
    # compared coefficient by coefficient as polynomials in x and z
    from numpy.polynomial import polynomial as P

    cur = HyperellipticCurve(np.sort(rng.uniform(-2, 2, 2 * g + 2))
                             + 0.1j * rng.uniform(-1, 1, 2 * g + 2))
    lam, kappa = cur._klein_baker()
    n = 2 * g + 3
    f = lam[: 2 * g + 3]
    F = np.zeros((n, n), dtype=complex)        # F[i, j]: x^i z^j
    for k in range(g + 2):
        F[k, k] += 2 * lam[2 * k]
        F[k + 1, k] += lam[2 * k + 1]
        F[k, k + 1] += lam[2 * k + 1]
    rest = F.copy()
    rest[:, 0] -= 2 * f
    df = P.polyder(f)
    rest[: len(df), 1] -= df                   # - z f'(x)
    rest[1 : len(df) + 1, 0] += df             # + x f'(x)
    p, q = np.arange(2 * g + 1)[:, None], np.arange(g)
    R = np.maximum(p - q, 0) * lam[p + q + 2]
    square = np.zeros((3, 3))                  # (z - x)^2
    square[0, 2], square[1, 1], square[2, 0] = 1.0, -2.0, 1.0
    prod = np.zeros((n, n), dtype=complex)
    for (i, j), r in np.ndenumerate(R):
        prod[i : i + 3, j : j + 3] += r * square
    assert np.max(np.abs(prod - rest)) <= 1e-13 * np.max(np.abs(rest))
    # and the kernel's kappa is -A^-1 I R / 4 with this R
    I = np.array([cur._pair_loop_integrals(2 * i, 2 * i + 1, 2 * g + 1)[0]
                  for i in range(g)])
    assert np.max(np.abs(kappa + np.linalg.solve(I[:, :g], I @ R) / 4)) \
        <= 1e-13 * np.max(np.abs(kappa))


@pytest.mark.parametrize("swap", [False, True], ids=["standard", "swapped"])
def test_kappa_symmetric_and_a_periods_vanish(genus2_curve, swap):
    cur = genus2_curve.swap_marking() if swap else genus2_curve
    _, kappa = cur._klein_baker()
    assert np.max(np.abs(kappa - kappa.T)) <= 1e-12 * np.max(np.abs(kappa))
    # the a-periods of W(., Q) at a fixed Q off the cycles, on the degenerate
    # pair loops z = c + d cos(theta), y = i d sin(theta) s(z) of the period
    # rule, at angles shifted off the end points (y != 0)
    Q = cur.point(0.4 + 2.2j)
    g = cur.g

    def loop_period(u, v):
        c, d = (cur.e[u] + cur.e[v]) / 2, (cur.e[v] - cur.e[u]) / 2
        others = np.delete(cur.e, [u, v])

        def fun(th):
            th = th + 0.1
            z = c + d * np.cos(th)
            s = np.sqrt(np.prod(c - others)) \
                * np.prod(np.sqrt((z[:, None] - others) / (c - others)), axis=1)
            W = cur._klein_baker_kernel(z, 1j * d * np.sin(th) * s,
                                        np.array([Q.z]), np.array([Q.y]))
            return W[:, 0] * -d * np.sin(th)

        # the period vanishes, so the rule's relative certificate measures
        # rounding: take the full five doublings (1,024 nodes)
        return trapezoid_doubling(fun, target=None)[0]

    chain = [s * loop_period(2 * k + 1, 2 * k + 2)
             for k, s in enumerate(cur._chain_signs)]
    chain_sums = np.array([sum(chain[i:]) for i in range(g)])
    v = cur.v_hat(Q)
    if swap:
        assert np.max(np.abs(chain_sums)) <= 1e-10 * np.max(np.abs(v))
    else:
        a = np.array([loop_period(2 * i, 2 * i + 1) for i in range(g)])
        assert np.max(np.abs(a)) <= 1e-10 * np.max(np.abs(v))
        # and the b-periods are 2 pi i v(Q), as for the theta kernel
        assert np.max(np.abs(chain_sums - 2j * np.pi * v)) \
            <= 1e-9 * np.max(np.abs(v))


def test_bergman_sb_branch_reads_no_theta_and_no_chart_abel(monkeypatch):
    cur = _fixture_curve("curve_genus2")
    want = [cur.bergman_sb_branch(m) for m in range(6)]

    def fail(*args, **kw):
        raise AssertionError("the Klein-Baker route reached the theta layer")

    curves._CURVE_TABLE.clear()
    monkeypatch.setattr(curves, "riemann_theta_bundle", fail)
    monkeypatch.setattr(curves, "riemann_theta_grid", fail)
    monkeypatch.setattr(HyperellipticCurve, "_chart_rows", fail)
    fresh = _fixture_curve("curve_genus2")
    assert [fresh.bergman_sb_branch(m) for m in range(6)] == want


# the smallest relative fault in kappa that makes `verify clue` exit 1 on
# each fixture, found by bisection: 1.6095e-4 (genus 2, branch index 3) and
# 2.4859e-5 (genus 1, branch index 1)
_KAPPA_FAULT = {"curve_genus2": 1.6095e-4, "curve_genus1": 2.4859e-5}


@pytest.mark.parametrize("name", sorted(_KAPPA_FAULT))
def test_verify_clue_sees_a_kappa_fault(name, monkeypatch, tmp_path):
    exact = HyperellipticCurve._klein_baker
    path = str(tmp_path / "report.json")

    def clue_exit(fault):
        def faulty(self):
            lam, kappa = exact(self)
            return lam, kappa * (1.0 + fault)

        monkeypatch.setattr(HyperellipticCurve, "_klein_baker", faulty)
        return cli.main(["verify", "clue", "--input", _fixture_path(name),
                         "--out", path])

    assert clue_exit(_KAPPA_FAULT[name] / 10) == 0
    assert clue_exit(10 * _KAPPA_FAULT[name]) == 1
