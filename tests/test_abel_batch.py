"""The Abel data of the divisor of df comes from one batch per configuration
(every hub leg in one chart-path call, every chart leg in another): its
numbers are bitwise those of one path per leg, a failed batch leaves no memo
entry, and unfrozen genus-2 tau values are kept per configuration and zeta."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hurwitztau import HyperellipticCurve, curves
from hurwitztau.errors import SheetTrackingLoss
from hurwitztau.taufn import tau_genus2
from curve_inputs import admissible_branch_points, load_fixture
from oracles import abel_paths_per_leg

_G2_POINTS = [-2.1, -1.0, -0.2 + 0.3j, 0.7, 1.5 + 0.1j, 2.4]


def _assert_batch_is_per_leg(cur):
    branch, ends, probes = abel_paths_per_leg(cur)
    for m, (abel, sqrt_h, v_lead) in enumerate(branch):
        bd = cur.branch_data(m)
        assert np.array_equal(bd.abel, abel)
        assert bd.sqrt_h == sqrt_h
        assert np.array_equal(bd.v_lead, v_lead)
    for end, (abel, sign, v_lead) in zip(cur.infinity_data(), ends):
        assert np.array_equal(end.abel, abel)
        assert end.sign == sign
        assert np.array_equal(end.v_lead, v_lead)
    assert len(probes) == (0 if cur.g == 1 else 5)
    record = cur._memo["divisor"]
    assert record["probes"] == list(probes)
    for row, vec in zip(record["probe_abel"], probes.values()):
        assert np.array_equal(row, vec)


@pytest.mark.parametrize("name", ["curve_genus1", "curve_genus2"])
def test_abel_batch_is_bitwise_the_per_leg_paths(name):
    _assert_batch_is_per_leg(HyperellipticCurve(
        [complex(*p) for p in load_fixture(name)["branch_points"]]))


@pytest.mark.parametrize("g", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_abel_batch_is_bitwise_the_per_leg_paths_random(g, data):
    curves._CURVE_TABLE.clear()
    _assert_batch_is_per_leg(
        HyperellipticCurve(data.draw(admissible_branch_points(g))))


def test_abel_batch_is_bitwise_the_per_leg_paths_uneven_legs():
    # the hub leg to e_0's handoff passes 1e-4 from e_1, so it takes about
    # ten times the panels of the other legs: their rows are padded
    cur = HyperellipticCurve([-2.0, -1.0 + 0.5j + 1e-4, 0.5, 1.5], hub=1j)
    ends = [cur._handoff(m)[0] for m in range(len(cur.e))]
    panels = [len(curves._graded_edges(cur.hub, [z], cur.e)[0]) - 1
              for z in ends]
    assert max(panels) > 8 * min(panels)
    _assert_batch_is_per_leg(cur)


def _collinear_curve():
    # from a hub on the real axis, the hub leg to e_0's handoff runs
    # through e_1, e_2 and e_3
    return HyperellipticCurve([-2.0, -1.0, 0.5, 1.5], hub=3.0)


def test_batch_leg_through_a_branch_point_names_its_end_point():
    cur = _collinear_curve()
    zh = cur._handoff(0)[0]
    with pytest.raises(SheetTrackingLoss, match="meets a branch point") as err:
        cur.branch_data(1)
    assert str(zh) in str(err.value)


def test_failed_batch_leaves_no_memo_entry():
    cur = _collinear_curve()
    for request in (lambda: cur.branch_data(0), cur.infinity_data,
                    cur.riemann_constants):
        with pytest.raises(SheetTrackingLoss):
            request()
        # the pair loops of the periods alone: no Abel row, no divisor record
        assert all(key[0] == "pair" for key in cur._memo)


def test_probe_points_drawn_once_per_configuration(monkeypatch):
    cur = HyperellipticCurve(_G2_POINTS)
    draws = []
    probe_points = HyperellipticCurve._probe_points

    def recording(self, *args):
        draws.append(args)
        return probe_points(self, *args)

    monkeypatch.setattr(HyperellipticCurve, "_probe_points", recording)
    tau_genus2(cur, 0.9 + 1.7j)
    cur.riemann_constants(-1.4 + 1.1j)
    assert len(draws) == 2      # the K probes and the transport probes


def test_batch_replaces_a_rejected_transport_probe(monkeypatch):
    # a scripted generator puts the first seed-23 draw on e_5 before the
    # batch draws the probes: the kept probes and the certificate of
    # riemann_constants use its replacement
    points = [complex(*p) for p in load_fixture("curve_genus2")["branch_points"]]
    e = np.array(points)
    scale = float(np.max(np.abs(np.subtract.outer(e, e))))
    on_branch = (e[5] - e.mean()) / scale
    real_rng = np.random.default_rng

    class Scripted:
        def __init__(self, seed):
            self.rng = real_rng(seed)
            self.queue = [on_branch.real, on_branch.imag] if seed == 23 else []

        def uniform(self, lo, hi):
            return self.queue.pop(0) if self.queue else self.rng.uniform(lo, hi)

    monkeypatch.setattr(np.random, "default_rng", Scripted)
    cur = HyperellipticCurve(points)
    cur.branch_data(0)
    transport = cur._memo["divisor"]["probes"][3:]
    assert len(transport) == 2 and cur.e[5] not in transport
    assert np.min(np.abs(np.subtract.outer(transport, cur.e))) > 0.15 * scale
    K, resid = cur.riemann_constants(0.9 + 1.7j)
    assert resid < 1e-8


def _theta_calls(monkeypatch):
    calls = []
    bundle = curves.riemann_theta_bundle

    def recording(*args, **kw):
        calls.append(args[0])
        return bundle(*args, **kw)

    monkeypatch.setattr(curves, "riemann_theta_bundle", recording)
    return calls


def test_repeated_unfrozen_tau_is_a_lookup(monkeypatch):
    tv, ing = tau_genus2(HyperellipticCurve(_G2_POINTS), 0.9 + 1.7j)
    calls = _theta_calls(monkeypatch)
    # a new instance of the same configuration shares the memo
    tv2, ing2 = tau_genus2(HyperellipticCurve(_G2_POINTS), 0.9 + 1.7j)
    assert calls == []
    # and the memo holds what a cold evaluation gives
    curves._CURVE_TABLE.clear()
    cold, cold_ing = tau_genus2(HyperellipticCurve(_G2_POINTS), 0.9 + 1.7j)
    assert calls
    assert tv2.log_value == tv.log_value == cold.log_value
    assert ing2.multiplicative == ing.multiplicative == cold_ing.multiplicative


def test_other_zeta_and_frozen_calls_are_evaluated(monkeypatch):
    cur = HyperellipticCurve(_G2_POINTS)
    tv, ing = tau_genus2(cur, 0.9 + 1.7j)
    calls = _theta_calls(monkeypatch)
    other, _ = tau_genus2(cur, -1.4 + 1.1j)
    assert calls and other.diagnostics["zeta"] == -1.4 + 1.1j
    del calls[:]
    frozen, frozen_ing = tau_genus2(cur, 0.9 + 1.7j, frozen=ing.frozen)
    assert calls and frozen_ing is not ing
    # frozen at the configuration's own choices: the same value
    assert abs(frozen.log_value - tv.log_value) < 1e-12
    # a frozen call does not enter the memo either
    assert tau_genus2(cur, 0.9 + 1.7j)[1] is ing
