"""BENCHMARK.json lists exactly the metrics the benchmark prints."""

import json
import os

from conftest import ROOT
import run
from tracing import layer_metrics


def record(i, wall, **extra):
    return {"index": i, "wall_s": wall, "t0": float(i), "t1": i + 0.5, "ok": True, "reasons": [],
            "worst_ratio": 0.1, "unflagged": False, **extra}


def fake_result():
    recs = [record(i, 0.5 + 0.01 * i, process_wall_s=0.6,
                   report_elapsed_s=0.01) for i in range(12)]
    spans = [["op", 0.0, 1.0, -1, 0]]
    return {"records": recs, "refs": [(-0.5, 0.007), (12.5, 0.008)],
            "elapsed_s": 6.0, "peak_rss_mb": 60.0,
            "traced": {"records": recs, "elapsed_s": 6.1},
            "layers": layer_metrics(spans, {}, 1)}


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def test_end_to_end_metrics_match():
    metrics, _ = run.end_to_end([1.0, 1.1, 0.9], fake_result())
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())


def test_per_layer_metrics_match():
    probe = {"import.hurwitztau_s": (0.5, "s"),
             "import.modules_loaded": (430.0, "count"),
             "import.scipy_special_loaded": (1.0, "count")}
    metrics = run.per_layer(fake_result(), probe)
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")


def test_tail_is_the_order_statistic_with_ten_beyond():
    walls = [float(i) for i in range(1, 31)]
    value, pct, n = run.tail(walls)
    assert (value, n) == (20.0, 30)
    assert sum(w > value for w in walls) == 10
    assert round(pct) == 67
