"""Tests of the benchmark itself, on a seconds-long smoke scan."""

from __future__ import annotations

import copy
import json
import time

import pytest

import gate
import run
import spans

SMOKE = {"kind": "scan", "D": -4, "epsilon": "gaussian_epsilon", "P": [5], "c_max": 5, "tol": 1e-8}


@pytest.fixture(scope="module")
def traced_smoke():
    deadline = time.monotonic() + run.RUN_LIMIT_S
    return [run.run_worker(SMOKE, deadline, trace=True) for _ in range(2)]


def test_every_layer_is_found(traced_smoke):
    assert all(rep["missing_layers"] == [] for rep in traced_smoke)


def test_layer_counts_repeat_exactly(traced_smoke):
    first, second = (rep["layers"] for rep in traced_smoke)
    counts = [name for name in first if name.rsplit(".", 1)[1] in spans.COUNT_STATS]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["quadfield.enumerate_ideals.calls"] > 0
    assert first["lseries.theta_coeffs.coeffs"] > 0


def test_self_times_fit_inside_wall(traced_smoke):
    for rep in traced_smoke:
        self_times = [v for n, v in rep["layers"].items() if n.endswith(".self_s")]
        assert all(t >= 0 for t in self_times)
        assert sum(self_times) <= rep["wall_s"]


def test_gate_accepts_result_and_rejects_perturbed_scan(traced_smoke):
    reference = traced_smoke[0]["result"]
    result = traced_smoke[1]["result"]
    assert gate.check("scan", reference, result) == []

    bad_w = copy.deepcopy(reference)
    record = next(r for r in bad_w["records"] if r["W"] != 0)
    record["W"] = -record["W"]
    assert gate.check("scan", bad_w, result)

    bad_lv = copy.deepcopy(reference)
    bad_lv["records"][0]["Lv"] = repr(float(bad_lv["records"][0]["Lv"]) + 10 * SMOKE["tol"])
    assert gate.check("scan", bad_lv, result)


def test_gate_rejects_perturbed_twist():
    reference = json.loads((run.HERE / "reference" / "twist-deep.json").read_text())
    result = copy.deepcopy(reference)
    result["twists"].reverse()
    assert gate.check("twists", reference, result) == []

    bad_w = copy.deepcopy(reference)
    bad_w["twists"][0]["W"] = -1
    assert gate.check("twists", bad_w, result)

    bad_l = copy.deepcopy(reference)
    bad_l["twists"][1]["L"] += 10 * reference["tol"]
    assert gate.check("twists", bad_l, result)


def test_seed_orders_inputs_reproducibly():
    for name in run.WORKLOADS:
        assert run.workload_spec(name, 7) == run.workload_spec(name, 7)
        spec = run.workload_spec(name, 7)
        key = "P" if spec["kind"] == "scan" else "twists"
        assert sorted(spec[key]) == sorted(run.WORKLOADS[name][key])


def test_benchmark_json_names_the_reported_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [f"{layer}.{stat}" for layer, stats in spans.LAYERS.items() for stat in stats]
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert per_layer == {
        **{name: run.unit_of(name) for name in layer_names},
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    }
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.BENCHMARKED)
    assert set(run.BENCHMARKED) <= set(run.WORKLOADS)
