"""Smoke test of the benchmark on scaled-down inputs.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_workloads_match_benchmark_json():
    run.import_sfft()
    import workloads

    assert list(workloads.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_reports_every_metric_with_its_unit(workload, trace):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--small"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    info = json.loads(info_line)["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, info
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in expected}
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    for key in ("nproc", "python", "numpy", "scipy", "threads"):
        assert key in info
    assert set(info["threads"].values()) == {"1"}


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-d6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_layer_that_never_fires_is_reported_missing():
    bench = run.Bench("single-d4", 3, small=True)
    bench.workload = replace(bench.workload, layers=bench.workload.layers | {"invert_multiple"})
    metrics, details = run.measure(bench, 0, trace=True)
    assert details["missing"] == ["invert_multiple"]
    assert not any(name.startswith("transform.invert.") for name in metrics)
    assert "construct.busy_s" in metrics


def test_tracing_restores_the_engine_functions():
    run.import_sfft()
    import sfft.detect
    import spans

    before = {name: getattr(sfft.detect, name) for name in spans.LAYER_FUNCTIONS}
    with spans.traced(spans.Tracer()):
        assert sfft.detect.lattice_nodes is not before["lattice_nodes"]
    assert {name: getattr(sfft.detect, name) for name in spans.LAYER_FUNCTIONS} == before


def test_oracle_proxy_forwards_unknown_attributes():
    run.import_sfft()
    import spans

    class Oracle:
        dim = 2
        later_capability = "plan"

        def __call__(self, points):
            return points[:, 0] + 0j

    tracer = spans.Tracer()
    proxy = spans.TracedOracle(Oracle(), tracer)
    assert (proxy.dim, proxy.later_capability) == (2, "plan")
    proxy(np.array([[0.5, 0.0]]))
    assert [(s.name, s.attrs["points"]) for s in tracer.spans] == [(spans.ORACLE, 1)]


def test_failed_solves_are_counted_not_dropped():
    bench = run.Bench("exact-d6", 3, small=True)
    import sfft

    case = bench.workload.cases[0]
    dim = case.signal.dim

    def boom(points):
        raise RuntimeError("boom")

    broken = (replace(case, signal=sfft.SignalOracle(dim, boom)),
              replace(case, signal=sfft.SignalOracle(dim, lambda p: np.zeros(len(p)))))
    bench.workload = replace(bench.workload, cases=broken)
    metrics, details = run.measure(bench, 0, trace=False)
    assert (details["attempted"], details["failed"]) == (2, 2)
    assert "boom" in details["failures"][0]
    assert "support differs" in details["failures"][1]
    assert metrics["solved_frac"] == 0.0
