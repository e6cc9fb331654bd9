"""Property test of the batched chart-node data over random admissible
curves of genus 1-3 and random node sets inside the chart radius
(derandomized, so every run draws the same examples)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hurwitztau import HyperellipticCurve
from chart_reference import chart_rows_per_node
from curve_inputs import admissible_branch_points


@pytest.mark.parametrize("g", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_chart_rows_match_per_node_reference(g, data):
    cur = HyperellipticCurve(data.draw(admissible_branch_points(g)))
    m = data.draw(st.integers(0, 2 * g + 1))
    # radius of the vardwa contour: z within a tenth of the nearest other
    # branch point
    r = np.sqrt(0.1 * float(np.min(np.abs(np.delete(cur.e, m) - cur.e[m]))))
    polar = data.draw(st.lists(
        st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 2 * np.pi)),
        min_size=1, max_size=12))
    xs = np.array([r * rho * np.exp(1j * th) for rho, th in polar])
    abel, v = chart_rows_per_node(cur, m, xs)
    rows = cur._chart_rows(m, xs)
    assert np.array_equal(rows[0], abel)
    assert np.array_equal(rows[1], v)
