import json

import pytest

from conftest import ROOT
from ledger import (
    load_spec,
    tail_percentile,
    validate_metrics,
    validate_name,
)


@pytest.mark.parametrize(
    "samples, expected",
    [
        (20, 50.0),          # 10 beyond the median exactly
        (99, 50.0),          # 9.9 beyond p90: not enough
        (100, 90.0),
        (1_000, 99.0),
        (10_000, 99.9),
        (1_258_672, 99.999),  # the serve_zipf op phase: 12.6 beyond p99.999
        (10_000_000, 99.9999),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    p = tail_percentile(samples)
    assert p == expected
    assert samples * (100 - p) / 100 >= 10 - 1e-9


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError, match="19 samples"):
        tail_percentile(19)


@pytest.mark.parametrize("name", ["wall_s", "core.ring.sample_s", "a-b.c_d", "9lives", "x" * 64])
def test_validate_name_accepts(name):
    assert validate_name(name) == name


@pytest.mark.parametrize("name", ["", "_wall", ".x", "wall s", "wall/s", "é", "x" * 65, None])
def test_validate_name_rejects(name):
    with pytest.raises(ValueError):
        validate_name(name)


DECLARED = [{"name": "wall_s", "unit": "s"}, {"name": "setup_s", "unit": "s"}]


def test_validate_metrics_builds_result_entries():
    out = validate_metrics({"wall_s": 1.5, "setup_s": 0.25}, DECLARED)
    assert out == {"wall_s": {"value": 1.5, "unit": "s"},
                   "setup_s": {"value": 0.25, "unit": "s"}}


@pytest.mark.parametrize("values", [
    {"wall_s": 1.0},                                   # missing
    {"wall_s": 1.0, "setup_s": 1.0, "extra": 2.0},     # undeclared
    {"wall_s": float("nan"), "setup_s": 1.0},          # not finite
])
def test_validate_metrics_refuses(values):
    with pytest.raises(ValueError):
        validate_metrics(values, DECLARED)


def test_spec_and_benchmark_json_agree():
    spec = load_spec()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w["name"], w["why"]) for w in spec["workloads"]]
    assert bench["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")}
        for m in spec["end_to_end"]]
    assert bench["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]}
        for m in spec["per_layer"]]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_spec_workloads_match_registry():
    from workloads import WORKLOADS

    assert [w["name"] for w in load_spec()["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_maps_to_a_reported_metric():
    spec = load_spec()
    known = {m["name"] for m in spec["end_to_end"] + spec["reported"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for m in spec["per_layer"]:
        assert m["moves"], m["name"]
        for move in m["moves"]:
            assert move["metric"] in known, (m["name"], move)
            assert move["workload"] in workloads, (m["name"], move)
