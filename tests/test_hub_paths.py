"""Straight hub paths on graded Gauss-Legendre panels: degenerate paths end in
a typed error, points near a branch point agree with the distinguished
chart, and the rule gives the same numbers at half the panel length."""

import json
from collections import OrderedDict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hurwitztau import HyperellipticCurve, cli, curves
from hurwitztau.errors import SheetTrackingLoss
from hurwitztau.taufn import tau_genus2
from curve_inputs import admissible_branch_points, load_fixture


@lru_cache(maxsize=None)
def _fixture_curve(name):
    data = load_fixture(name)
    return HyperellipticCurve([complex(*p) for p in data["branch_points"]])


def test_path_ending_on_a_branch_point_raises(fixture_genus2):
    _, cur = fixture_genus2
    for m in range(len(cur.e)):
        with pytest.raises(SheetTrackingLoss):
            cur.abel_segment(cur.hub, cur.y_hub, cur.e[m])


def test_path_through_a_branch_point_raises(fixture_genus2):
    _, cur = fixture_genus2
    for m in range(len(cur.e)):
        beyond = cur.hub + 1.5 * (cur.e[m] - cur.hub)
        with pytest.raises(SheetTrackingLoss):
            cur.abel_segment(cur.hub, cur.y_hub, beyond)


def test_zeta_on_a_branch_point_exits_1(tmp_path):
    data = load_fixture("curve_genus2")
    data["zeta"] = data["branch_points"][3]
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert cli.main(["--input", str(inp), "tau-genus2", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["error"] == "SheetTrackingLoss"


@pytest.mark.parametrize("name", ["curve_genus1", "curve_genus2"])
@pytest.mark.parametrize("d", [1e-9, 1e-7, 1e-5, 1e-3])
def test_hub_abel_near_branch_point_matches_chart(name, d):
    # the straight hub path to e_m + d e^{i phi} against the chart path
    # from e_m on the sheet whose fiber value matches
    cur = _fixture_curve(name)
    for m in range(len(cur.e)):
        for phi in (0.4, 2.5, 4.6):
            z = cur.e[m] + d * np.exp(1j * phi)
            vec, y = cur.abel_from_hub(z)
            x = np.sqrt(z - cur.e[m])
            if abs(cur.branch_chart_point(m, x).y - y) > 1e-6 * abs(y):
                x = -x
            assert abs(cur.branch_chart_point(m, x).y - y) <= 1e-6 * abs(y)
            assert np.max(np.abs(cur.abel_branch_chart(m, x) - vec)) < 1e-11


@pytest.mark.parametrize("m", [1, 3, 4])
def test_tau_genus2_zeta_near_a_branch_point(fixture_genus2, m):
    data, cur = fixture_genus2
    base = abs(tau_genus2(cur, complex(*data["zeta"]))[0].value)
    for d in (1e-5, 1e-7):
        near = abs(tau_genus2(cur, cur.e[m] + d * np.exp(0.7j))[0].value)
        assert abs(near - base) < 1e-5 * base


def _hub_numbers(cur):
    probe = cur.e.mean() + 0.6j * cur.scale
    return (np.array([cur.branch_data(m).abel for m in range(len(cur.e))]),
            np.array([end.abel for end in cur.infinity_data()]),
            cur.abel_from_hub(probe)[0])


@pytest.mark.parametrize("g", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_graded_panels_agree_at_half_the_panel_length(g, data):
    points = data.draw(admissible_branch_points(g))
    coarse = HyperellipticCurve(points)
    ref = _hub_numbers(coarse)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "_PANEL_DIV", 2 * curves._PANEL_DIV)
        # an empty curve table: the fine pass builds and fills its own memo
        # instead of sharing the coarse curve's
        mp.setattr(curves, "_CURVE_TABLE", OrderedDict())
        fine_cur = HyperellipticCurve(points)
        fine = _hub_numbers(fine_cur)
    assert fine_cur._memo is not coarse._memo
    for a, b in zip(ref, fine):
        assert np.max(np.abs(a - b)) < 1e-14
