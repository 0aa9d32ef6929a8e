"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_traced_and_untraced_reports_match(name, tmp_path):
    workload = TINY[name]
    instances = workload.prepare(tmp_path)
    plain = worker.measure(workload, instances, seed=3, seconds=0, trace=False, workdir=tmp_path)
    traced = worker.measure(workload, instances, seed=3, seconds=0, trace=True, workdir=tmp_path)
    assert plain["failed"] == 0, plain["problems"]
    assert traced["failed"] == 0, traced["problems"]
    assert len(plain["rounds"]) == worker.MIN_ROUNDS and len(traced["rounds"]) == 1
    assert len(plain["reports"]) == worker.MIN_ROUNDS * len(instances)
    assert traced["reports"] == {k: v for k, v in plain["reports"].items() if k.endswith("/0")}
    layers = traced["layers"]
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared == {name: unit for name, (_, unit) in layers.items()}
    assert layers["cli.main_s"][0] > 0
    if name == "certify_zigzag":
        assert layers["zigzag.members"][0] == 16
    else:
        assert layers["zigzag.build_s"][0] == 0


def test_counts_repeat_whatever_the_number_of_rounds(tmp_path):
    workload = TINY["haar_t3"]
    instances = workload.prepare(tmp_path)
    one = worker.measure(workload, instances, seed=5, seconds=0, trace=True, workdir=tmp_path)
    # A traced round pair takes about twice the untraced round; allow for about three pairs.
    seconds = 6 * sum(one["rounds"][0])
    more = worker.measure(workload, instances, seed=5, seconds=seconds, trace=True, workdir=tmp_path)
    assert len(one["rounds"]) == 1 < len(more["rounds"])
    assert more["failed"] == 0, more["problems"]
    for key in ("moments.applies", "linalg.iterations", "moments.apply_flops"):
        assert one["layers"][key] == more["layers"][key]
    assert one["layers"]["moments.applies"][0] > 0


def test_every_wrapped_function_is_restored(tmp_path):
    before = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in tracer.targets()]
    workload = TINY["certify_zigzag"]
    worker.measure(workload, workload.prepare(tmp_path), seed=0, seconds=0, trace=True, workdir=tmp_path)
    with pytest.raises(RuntimeError):
        with tracer.Tracing(tracer.Recorder()):
            assert all(vars(owner)[attr] is not original for owner, attr, original in before)
            raise RuntimeError
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_self_time_subtracts_direct_children():
    rec = tracer.Recorder()
    rec.spans = [
        tracer.Span("cli.main", 0.0, 10.0, None, 0),
        tracer.Span("moments.lambda", 1.0, 9.0, 0, 0),
        tracer.Span("linalg.spectral", 2.0, 8.0, 1, 0, {"iterations": 4}),
        tracer.Span("moments.apply", 3.0, 4.0, 2, 0, {"flops": 100, "bytes": 50}),
        tracer.Span("moments.apply", 5.0, 7.0, 2, 0, {"flops": 100, "bytes": 50}),
    ]
    m = tracer.layer_metrics(rec, calls=2)
    assert m["cli.self_s"][0] == pytest.approx(1.0)
    assert m["linalg.solver_self_s"][0] == pytest.approx(1.5)
    assert m["moments.applies"][0] == 1
    assert m["moments.apply_ms"][0] == pytest.approx(1500.0)
    assert m["moments.apply_flops"][0] == 100
    assert m["linalg.iterations"][0] == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(40)])
    assert (pct, value) == (75.0, 29.0)


def test_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert list(TINY) == list(WORKLOADS)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "haar_t1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
