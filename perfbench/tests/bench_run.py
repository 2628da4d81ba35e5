"""Tests of the benchmark itself: contract, smoke runs, seeds, checks."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from voxseg import checkpoint, model

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    info = next(json.loads(line)["info"] for line in lines if line.startswith('{"info"'))
    return info, json.loads(lines[-1])


@pytest.fixture(scope="module")
def bench():
    """Cached benchmark runs keyed by (workload, seed, trace)."""
    cache = {}

    def get(workload, seed=1, trace=0):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = _run(*key)
        return cache[key]

    return get


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][0] == "python3"
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    every = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in every)
    metric_names = every[len(names):]
    assert len(set(metric_names)) == len(metric_names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_each_workload_reports_every_metric_with_its_unit(bench, workload, trace):
    _info, result = bench(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for name, v in result["metrics"].items():
        assert set(v) == {"value", "unit"} and np.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name


def test_inference_runs_no_backward_and_graph_size_repeats(bench):
    _info, infer = bench("infer_desk", trace=1)
    for name in ("autodiff.backward_s", "autodiff.graph_nodes", "optim.step_s"):
        assert infer["metrics"][name]["value"] == 0
    _info, first = bench("train_tiny", trace=1)
    _info, again = bench("train_tiny", seed=2, trace=1)
    assert first["metrics"]["autodiff.graph_nodes"]["value"] > 0
    assert (first["metrics"]["autodiff.graph_nodes"]["value"]
            == again["metrics"]["autodiff.graph_nodes"]["value"])


def test_seed_changes_inputs_but_not_the_metric_set(bench):
    info1, res1 = bench("train_tiny", seed=1)
    info2, res2 = bench("train_tiny", seed=2)
    info1_again, _ = bench("train_tiny", seed=1, trace=1)
    assert info1["inputs"] != info2["inputs"]
    assert info1["inputs"] == info1_again["inputs"]
    assert set(res1["metrics"]) == set(res2["metrics"])
    assert res1["metrics"]["loss_end"] != res2["metrics"]["loss_end"]
    assert info1["threads"] == info1["nproc"] and info1["git"] and info1["blas"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_tiny",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and '"correct"' not in out.stdout


def test_corrupted_checkpoint_is_counted_as_failed(tmp_path, monkeypatch):
    load = checkpoint.load_checkpoint

    def corrupted(path):
        step, lines, entries, moments = load(path)
        name, frozen, arr = entries[-1]
        entries[-1] = (name, frozen, arr + np.float32(1.0))
        return step, lines, entries, moments

    monkeypatch.setattr(checkpoint, "load_checkpoint", corrupted)
    payload = workloads.run_workload("train_tiny", 1, 0.01, False, str(tmp_path))
    assert payload["failed"] == 1
    assert payload["failures"] == ["last.ckpt does not restore the trained store bit for bit"]


def test_probabilities_out_of_range_are_counted_as_failed(tmp_path, monkeypatch):
    forward = model.forward

    def corrupted(*args, **kwargs):
        prob = forward(*args, **kwargs)
        prob.data = prob.data * np.float32(1.5)
        return prob

    monkeypatch.setattr(model, "forward", corrupted)
    payload = workloads.run_workload("infer_desk", 1, 0.01, False, str(tmp_path))
    assert payload["failed"] >= 1
    assert any("outside [0, 1]" in f for f in payload["failures"])
