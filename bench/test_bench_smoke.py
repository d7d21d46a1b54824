"""Smoke test of the benchmark itself, at a tiny size (about 15 s in all).

    python3 -m pytest -q bench/test_bench_smoke.py

Checks the metric names and units against BENCHMARK.json, the seed-0
output digests, the naive-scan oracle gate, the digest gate and that passes
ignore a disk cache named by PURESEXTIC_CACHE.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import types as pytypes

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT, env=None) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def _units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    with open(run.DIGESTS) as fh:
        assert f"{workload}/tiny/0" in json.load(fh)  # so the digest gate below is not vacuous
    proc, result = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = proc.stdout.splitlines()
    for name, unit in workloads.END_TO_END:
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines)


def test_traced_run_prints_every_per_layer_metric():
    proc, result = _run("--workload", "verify-corpus", "--seed", "0", "--seconds", "1",
                        "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert _units(result) == {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["algebra.char_poly_calls"] == 20 * 6  # one field per Type, six basis elements
    assert metrics["algebra.integrality_s"] > 0 and metrics["densities.n3_count_s"] == 0


def test_passes_ignore_a_disk_cache(tmp_path):
    cache = tmp_path / "cache"
    proc, result = _run("--workload", "equidist-C", "--seed", "0", "--seconds", "1",
                        "--trace", "1", "--size", "tiny",
                        env=dict(os.environ, PURESEXTIC_CACHE=str(cache)))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # the traced pass is the second one: it still computes its density tables
    assert result["metrics"]["densities.n3_count_calls"]["value"] > 0
    assert not cache.exists()


def _package():
    from puresextic import geometry, harness, types
    return pytypes.SimpleNamespace(geometry=geometry, harness=harness, types=types)


def test_oracle_gate_flags_a_dropped_tuple(monkeypatch):
    pkg = _package()
    inputs = workloads.make_inputs("equidist-T", 0, "tiny")
    assert workloads.oracle_pass(pkg, inputs)["failures"] == []
    enumerate_t = pkg.harness.enumerate_T
    monkeypatch.setattr(pkg.harness, "enumerate_T", lambda spec, workers=1: enumerate_t(spec)[1:])
    assert len(workloads.oracle_pass(pkg, inputs)["failures"]) == 1


def test_digest_gate_flags_a_changed_output(tmp_path, monkeypatch):
    reference = tmp_path / "digests.json"
    reference.write_text(json.dumps({"equidist-T/tiny/0": "0" * 64}))
    monkeypatch.setattr(run, "DIGESTS", str(reference))
    args = argparse.Namespace(workload="equidist-T", size="tiny", seed=0)
    assert len(run.check_digests(args, [{"digest": "a" * 64}, {"digest": "a" * 64}])) == 2
    args.seed = 1  # no recorded digest: the passes must still agree with each other
    assert len(run.check_digests(args, [{"digest": "a" * 64}, {"digest": "b" * 64}])) == 1


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, result = _run("--workload", "equidist-T", "--seed", "0", "--seconds", "1",
                        "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0 and result is None
