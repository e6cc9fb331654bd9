"""Period construction: property tests over random admissible curves of
genus 1-3 (derandomized, so every run draws the same examples), and the
batched lift-sign screen against the per-candidate search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hurwitztau import HyperellipticCurve
from hurwitztau.errors import CurveGeometryError
from curve_inputs import admissible_branch_points, load_fixture
from oracles import lift_signs_per_candidate


@pytest.mark.parametrize("g", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_periods_on_admissible_curves(g, data):
    cur = HyperellipticCurve(data.draw(admissible_branch_points(g)))
    assert cur.sym_err < 1e-9
    assert np.linalg.eigvalsh(cur.B.B.imag).min() > 0
    assert cur.period_certificate < 1e-10


def assert_same_marking_bits(cur):
    """B, coef and lift signs of the stacked screen are bitwise those of the
    one-candidate-at-a-time search on the same pair-loop integrals."""
    coef, B, a_signs, c_signs = lift_signs_per_candidate(cur)
    for got, want in ((cur.coef, coef), (cur.B.B, B),
                      (cur._a_signs, a_signs), (cur._chain_signs, c_signs)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("g", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_stacked_screen_on_admissible_curves(g, data):
    # the batched lift-sign screen against the per-candidate search
    assert_same_marking_bits(
        HyperellipticCurve(data.draw(admissible_branch_points(g))))


@pytest.mark.parametrize("name", ["curve_genus1", "curve_genus2"])
def test_stacked_lift_sign_screen_is_the_per_candidate_search(name):
    cur = HyperellipticCurve([complex(*p) for p in
                              load_fixture(name)["branch_points"]])
    assert_same_marking_bits(cur)
    assert_same_marking_bits(cur.swap_marking())


def test_no_symplectic_lift_signs_is_rejected():
    # no sign assignment gives a symmetric B with definite Im B for this
    # order of the branch points; the per-candidate search agrees
    pts = [(0.609 + 0.896j), (-0.365 - 1.298j), (-0.152 - 1.201j),
           (0.242 - 1.282j), (0.103 + 0.967j), (-0.865 - 0.361j)]
    with pytest.raises(CurveGeometryError, match="no lift-sign assignment .* "
                       "reorder the branch points"):
        HyperellipticCurve(pts)
    cur = HyperellipticCurve.__new__(HyperellipticCurve)
    cur.e, cur.g, cur.marking, cur._pair_cache = np.array(pts), 2, "standard", {}
    with pytest.raises(CurveGeometryError, match="no lift-sign assignment"):
        lift_signs_per_candidate(cur)
