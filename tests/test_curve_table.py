"""The process-wide table of built curves: an equal key (branch-point bytes
and final hub) shares the period data and the memo, anything else builds
afresh, and the table holds at most ``_CURVE_TABLE_SIZE`` curves."""

import numpy as np
import pytest

from hurwitztau import HyperellipticCurve, curves, tau_genus2
from hurwitztau.errors import CurveGeometryError

PTS = [-2.1, -1.0, -0.2 + 0.3j, 0.7, 1.5 + 0.1j, 2.4]


@pytest.fixture
def quadratures(monkeypatch):
    """Counts the pair-loop quadratures run from now on."""
    calls = []
    rule = curves._trapezoid_doubling

    def counting(*args, **kw):
        calls.append(1)
        return rule(*args, **kw)

    monkeypatch.setattr(curves, "_trapezoid_doubling", counting)
    return calls


def test_equal_key_runs_no_second_quadrature(quadratures, monkeypatch):
    first = HyperellipticCurve(PTS)
    assert len(quadratures) == 4          # two pair loops per row at g = 2
    # the hub that the first build chose, passed explicitly, is the same key
    again = HyperellipticCurve(np.array(PTS), hub=first.hub)
    assert len(quadratures) == 4
    assert again is not first and again.B is first.B
    # lazily filled memo entries are shared both ways
    ends = first.infinity_data()
    assert again.infinity_data() is ends
    assert again.branch_data(2) is first.branch_data(2)
    # kappa runs the two a-cycle loops at n = 2g + 1 once
    kappa = again._klein_baker()
    assert len(quadratures) == 6
    assert first._klein_baker() is kappa and len(quadratures) == 6
    H = first.h_taylor_branch(1)[0]
    tau = tau_genus2(again, 0.9 + 1.7j)
    monkeypatch.setattr(HyperellipticCurve, "w_hat_branch_chart_grid",
                        lambda *args: pytest.fail("torus sampled twice"))
    assert again.h_taylor_branch(1)[0].tobytes() == H.tobytes()
    assert tau_genus2(first, 0.9 + 1.7j) is tau


def test_moved_point_or_other_hub_builds_afresh(quadratures):
    first = HyperellipticCurve(PTS)
    moved = list(PTS)
    moved[3] = np.nextafter(moved[3], np.inf)          # one ulp
    HyperellipticCurve(moved, hub=first.hub)
    assert len(quadratures) == 8
    other = HyperellipticCurve(PTS, hub=first.hub + 0.25)
    assert len(quadratures) == 12
    assert other.hub != first.hub and other.B is not first.B
    assert len(curves._CURVE_TABLE) == 3


def test_table_holds_at_most_eight_curves(quadratures):
    built = [HyperellipticCurve(PTS, hub=0.3 + (1.5 + 0.1 * k) * 1j)
             for k in range(curves._CURVE_TABLE_SIZE + 3)]
    assert curves._CURVE_TABLE_SIZE == 8
    assert len(curves._CURVE_TABLE) == 8
    # the three least recently used were evicted: the first builds afresh,
    # the last is still shared
    n = len(quadratures)
    assert HyperellipticCurve(PTS, hub=built[-1].hub).B is built[-1].B
    assert len(quadratures) == n
    assert HyperellipticCurve(PTS, hub=built[0].hub).B is not built[0].B
    assert len(quadratures) == n + 4
    assert len(curves._CURVE_TABLE) == 8


def test_instance_attribute_does_not_leak():
    first = HyperellipticCurve(PTS)
    first._chart_rows = lambda m, xs: pytest.fail("patched primitive reached")
    first.marking = "patched"
    again = HyperellipticCurve(PTS)
    assert "_chart_rows" not in vars(again) and again.marking == "standard"
    again.abel_branch_chart(1, 0.05)
    # a second fresh instance still sees the table's own entry
    assert HyperellipticCurve(PTS).marking == "standard"


def test_swap_marking_is_unaffected():
    fresh = HyperellipticCurve(PTS).swap_marking()
    curves._CURVE_TABLE.clear()
    base = HyperellipticCurve(PTS)
    shared = HyperellipticCurve(PTS)
    for fill in (base.infinity_data, base.odd_char_gradients,
                 base._klein_baker):
        fill()
    swapped = shared.swap_marking()
    assert swapped.marking == "swapped" and base.marking == "standard"
    assert swapped.B.B.tobytes() == fresh.B.B.tobytes()
    assert swapped.coef.tobytes() == fresh.coef.tobytes()
    # the swapped curve has its own memo, which starts with the shared
    # configuration's pair loops alone, and never enters the table
    assert swapped._memo is not base._memo
    loops = {key for key in base._memo if key[0] == "pair"}
    assert set(swapped._memo) == loops and len(loops) < len(base._memo)
    assert all(swapped._memo[key] is base._memo[key] for key in loops)
    assert len(curves._CURVE_TABLE) == 1
    assert HyperellipticCurve(PTS).B is base.B


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_branch_point_is_rejected_first(bad, quadratures):
    with pytest.raises(CurveGeometryError, match="branch points must be finite"):
        HyperellipticCurve([bad, 1.0, 1j, 2.0 + 1j])
    assert quadratures == [] and len(curves._CURVE_TABLE) == 0

