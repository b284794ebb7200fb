import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "instances_per_s", "better": "higher", "bound": 0.25},
           {"name": "latency_p50_ms", "better": "lower", "bound": 0.2},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def _runs(parent, change, metric):
    return ([{"pair": i, "side": "parent", metric: v} for i, v in enumerate(parent)]
            + [{"pair": i, "side": "change", metric: v} for i, v in enumerate(change)])


def test_summary_reads_each_metrics_direction():
    runs = (_runs([100.0, 102.0, 98.0, 101.0], [120.0, 119.0, 97.0, 101.0], "instances_per_s")
            + _runs([2.0, 2.0, 2.0, 2.0], [1.5, 2.5, 1.0, 1.9], "latency_p50_ms"))
    s = bench_pairs.summarize(runs, METRICS)
    assert "peak_rss_mb" not in s  # no run measured it
    ips = s["instances_per_s"]
    # pair 3 is a tie, which neither side wins
    assert ips["wins"] == {"parent": 1, "change": 2} and ips["pairs"] == 4
    assert ips["parent_median"] == 100.5 and ips["change_median"] == 110.0
    assert ips["parent_quartiles"] == [99.5, 101.25] and ips["parent_iqr"] == 1.75
    assert ips["gain"] == 9.5 and ips["worsening"] == pytest.approx(-9.5 / 100.5)
    assert ips["bound"] == 0.25 and ips["better"] == "higher"
    lat = s["latency_p50_ms"]
    assert lat["wins"] == {"parent": 1, "change": 3}
    assert lat["change_median"] == 1.7 and lat["worsening"] == pytest.approx(-0.15)


def test_a_claim_needs_nine_wins_in_ten_and_a_gain_beyond_the_spread():
    parent = [100.0 + i % 3 for i in range(10)]
    won = bench_pairs.summarize(_runs(parent, [v + 5.0 for v in parent], "instances_per_s"),
                                METRICS)["instances_per_s"]
    assert bench_pairs.claim(won)["met"] and bench_pairs.claim(won)["pairs_change_better"] == \
        "10 of 10"
    # eight wins in ten fall short however large the gain
    change = [v + 50.0 for v in parent[:8]] + parent[8:]
    eight = bench_pairs.summarize(_runs(parent, change, "instances_per_s"), METRICS)
    assert not bench_pairs.claim(eight["instances_per_s"])["met"]
    # every pair won, but by less than the parent's interquartile range
    small = bench_pairs.summarize(_runs(parent, [v + 1.0 for v in parent], "instances_per_s"),
                                  METRICS)["instances_per_s"]
    assert small["parent_iqr"] == 1.75 and not bench_pairs.claim(small)["met"]
