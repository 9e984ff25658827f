"""scripts/bench_pairs.py: the summary of alternating parent/change runs
takes each metric's direction and bound from BENCHMARK.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(**values):
    return {"metrics": {name: {"unit": "", "value": v}
                        for name, v in values.items()}}


# two made-up pairs: the change's median throughput is 10 % lower (90 vs
# 100 img/s) and its median peak RSS 12 % higher (56 vs 50 MB)
PAIRS = [{"parent": _run(img_per_s=100.0, peak_rss_mb=50.0),
          "change": _run(img_per_s=110.0, peak_rss_mb=60.0)},
         {"parent": _run(img_per_s=100.0, peak_rss_mb=50.0),
          "change": _run(img_per_s=70.0, peak_rss_mb=52.0)}]


def test_summary_holds_the_benchmark_rules_and_bound_checks(bench_pairs):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in benchmark["end_to_end"]}
    out = bench_pairs.summarize(PAIRS, benchmark)
    assert sorted(out) == ["img_per_s", "peak_rss_mb"]
    for name, s in out.items():
        assert (s["better"], s["bound"]) == (rules[name]["better"],
                                              rules[name]["bound"])
        assert s["pairs"] == 2
    img, rss = out["img_per_s"], out["peak_rss_mb"]
    assert (img["parent"]["median"], img["change"]["median"]) == (100, 90)
    assert img["change_wins"] == 1 and rss["change_wins"] == 0
    assert img["rel_change"] == pytest.approx(-0.10)
    assert rss["rel_change"] == pytest.approx(0.12)
    # img/s: higher is better, 10 % down within 25 %;
    # peak RSS: lower is better, 12 % up beyond 10 %
    assert img["within_bound"] and not rss["within_bound"]


def test_summary_follows_the_benchmark_it_is_given(bench_pairs):
    benchmark = {"end_to_end": [
        {"name": "img_per_s", "better": "lower", "bound": 0.05},
        {"name": "peak_rss_mb", "better": "higher", "bound": 0.1}]}
    out = bench_pairs.summarize(PAIRS, benchmark)
    assert out["img_per_s"]["change_wins"] == 1  # 70 < 100
    assert out["peak_rss_mb"]["change_wins"] == 2
    assert out["img_per_s"]["within_bound"]
    assert out["peak_rss_mb"]["within_bound"]
    benchmark["end_to_end"][1]["better"] = "lower"
    assert not bench_pairs.summarize(PAIRS, benchmark)["peak_rss_mb"][
        "within_bound"]
