"""Property tests of the period construction over random admissible curves
of genus 1-3 (derandomized, so every run draws the same examples)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hurwitztau import HyperellipticCurve
from curve_inputs import admissible_branch_points


@pytest.mark.parametrize("g", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_periods_on_admissible_curves(g, data):
    cur = HyperellipticCurve(data.draw(admissible_branch_points(g)))
    assert cur.sym_err < 1e-9
    assert np.linalg.eigvalsh(cur.B.B.imag).min() > 0
    assert cur.period_certificate < 1e-10
    for i in range(g):
        assert np.max(np.abs(cur.abel_loop("a", i) - np.eye(g)[i])) < 1e-8
        assert np.max(np.abs(cur.abel_loop("b", i) - cur.B.B[i])) < 1e-8
