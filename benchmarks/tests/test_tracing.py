import math

import pytest

from tracing import Tracer, install, layer_metrics, self_times


def span(name, t0, t1, parent, op=0):
    return [name, t0, t1, parent, op]


def test_self_time_on_a_synthetic_tree():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("curves.w_hat_branch_chart", 1.0, 4.0, 0),
        span("specfun.riemann_theta_bundle", 2.0, 3.0, 1),
        span("curves.abel_branch_chart", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_child_intervals_are_clipped_and_merged():
    spans = [
        span("a", 0.0, 4.0, -1),
        span("b", 1.0, 3.0, 0),
        span("c", 2.0, 6.0, 0),     # overlaps b and runs past its parent
    ]
    # the children cover [1, 4] of the parent
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_account_for_the_op_wall():
    spans = [
        span("op", 0.0, 10.0, -1, 0),
        span("curves.w_hat_branch_chart", 1.0, 4.0, 0, 0),
        span("specfun.riemann_theta_bundle", 2.0, 3.0, 1, 0),
        span("op", 10.0, 12.0, -1, 1),
        span("cones.detzeta_N_model", 10.5, 11.5, 3, 1),
    ]
    m = layer_metrics(spans, {"cones.detzeta_N_model.modes": 8000.0}, n_ops=2)
    assert m["curves.w_hat_branch_chart.calls"] == 0.5
    assert m["curves.w_hat_branch_chart.self_s"] == pytest.approx(1.0)
    assert m["specfun.self_s"] == pytest.approx(0.5)
    assert m["cones.detzeta_N_model.modes"] == 4000.0
    assert m["bench.self_s"] == pytest.approx((7.0 + 1.0) / 2)
    assert m["trace.op_wall_s"] == pytest.approx(6.0)
    assert math.isclose(m["trace.accounted_frac"], 1.0)


def test_install_reaches_from_import_bindings_and_undoes():
    from hurwitztau import curves, specfun

    original = specfun.riemann_theta_bundle
    tracer = Tracer()
    undo = install(tracer)
    try:
        assert curves.riemann_theta_bundle is specfun.riemann_theta_bundle
        assert curves.riemann_theta_bundle is not original
        curve = curves.HyperellipticCurve([-1.9, -0.85, 0.6 + 0.25j, 1.7])
        curve.theta([0.0])
    finally:
        undo()
    assert specfun.riemann_theta_bundle is original
    assert curves.riemann_theta_bundle is original
    names = [s[0] for s in tracer.spans]
    assert "curves.HyperellipticCurve" in names
    assert "specfun.riemann_theta_bundle" in names
    assert tracer.counters["specfun.riemann_theta_bundle.specs"] >= 1
