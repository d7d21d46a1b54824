"""Benchmark of the puresextic package: one workload, end to end or traced.

    python3 bench/run.py --workload verify-corpus --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Each pass is a fresh single-threaded process (bench/worker.py), because
every command-line user pays for cold in-memory caches. Passes repeat until
the next one would end after `--seconds`; there is always at least one
(with `--trace 1`, at least one untraced and one traced). The run then
starts set-up-only processes until it has MIN_SETUPS set-up samples, and
for the equidist workloads runs the naive-scan oracle in its own process.

Every metric is printed as `name value unit`; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. A failed check,
a digest mismatch or an oracle mismatch makes the exit code 1.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")
MIN_SETUPS = 5
BUDGET_S = 150  # no new pass would end after this
DEADLINE_S = 175  # every process is stopped by then, so a run ends within 180 s

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class WorkerFailed(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one job in a fresh worker process, killed if it runs past `deadline`."""
    job = dict(job, spawned=time.time())
    proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise WorkerFailed(f"{job['kind']} process exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(xs)
    k = (len(xs) - 1) * q / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def provenance(versions: dict) -> dict:
    """Which code and versions produced the numbers."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "puresextic", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    commit, dirty = "unknown", None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                                        capture_output=True, text=True, timeout=30).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "src_dirty": dirty, "src_sha256": h.hexdigest(), **versions}


def run_passes(args, inputs: dict, started: float) -> list[dict]:
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        run_id = f"{args.workload}-seed{args.seed}-pass{len(passes)}"
        job = {"kind": "pass", "trace": traced, "run_id": run_id, "inputs": inputs,
               "spans_path": os.path.join(OUT_DIR, f"spans-{run_id}.jsonl")}
        t0 = time.perf_counter()
        passes.append(spawn(job, started + DEADLINE_S))
        passes[-1]["traced"] = traced
        now = time.perf_counter()
        last = now - t0
        if args.trace and len(passes) < 2:
            continue
        if now - started + last > min(args.seconds, BUDGET_S):
            return passes


def check_digests(args, passes: list[dict]) -> list[dict]:
    """Every pass must give the same output, and the recorded one if there is one."""
    key = f"{args.workload}/{args.size}/{args.seed}"
    with open(DIGESTS) as fh:
        want = json.load(fh).get(key)
    failures = []
    for i, p in enumerate(passes):
        if p["digest"] != passes[0]["digest"] or (want and p["digest"] != want):
            failures.append({"check": "digest", "key": key, "pass": i, "got": p["digest"],
                             "want": want or passes[0]["digest"]})
    return failures


def end_to_end(inputs: dict, passes: list[dict], setups: list[float]) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in untraced)
    fields = untraced[0]["fields"]
    if inputs["workload"] == "verify-corpus":
        field_ms = [x * 1000 for p in untraced for x in p["latencies"]]
    else:  # derived from wall_s: every workload must report every end-to-end metric
        field_ms = [p["wall_s"] * 1000 / p["fields"] for p in untraced]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "fields_per_s": fields / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "field_ms.p50": percentile(field_ms, 50),
        "field_ms.p98": percentile(field_ms, 98),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    out = {}
    for name, unit in workloads.PER_LAYER:
        values = [p["layers"][name] for p in traced]
        out[name] = values[0] if unit == "count" else statistics.median(values)
    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_pct"] = 100 * (out["trace.wall_s"] / untraced - 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few-second version of the workload for the smoke test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "puresextic", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'puresextic')}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    try:
        passes = run_passes(args, inputs, started)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(spawn({"kind": "setup", "inputs": inputs},
                                started + DEADLINE_S)["setup_s"])
        oracle = (spawn({"kind": "oracle", "inputs": inputs}, started + DEADLINE_S)
                  if "family" in inputs else None)
    except (WorkerFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    failures = [f for p in passes for f in p["failures"]] + check_digests(args, passes)
    attempted = sum(p["attempted"] for p in passes) + len(passes)
    if oracle:
        failures += oracle["failures"]
        attempted += oracle["attempted"]
    metrics = per_layer(passes) if args.trace else end_to_end(inputs, passes, setups)
    units = dict(workloads.PER_LAYER if args.trace else workloads.END_TO_END)

    prov = provenance(passes[0]["versions"])
    recorded_inputs = dict(inputs, corpus=passes[0]["output"].get("corpus"))
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"inputs {json.dumps(recorded_inputs)}")
    print(f"passes {len(passes)} walls_s {[round(p['wall_s'], 3) for p in passes]}"
          f" traced {[p['traced'] for p in passes]}")
    if oracle:
        print(f"oracle {json.dumps(oracle['output'])}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"fail_ratio {len(failures) / attempted!r} ({len(failures)}/{attempted})")
    for f in failures[:20]:
        print(f"FAILED {json.dumps(f)}")

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    path = os.path.join(OUT_DIR, f"{args.workload}-{args.size}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "provenance": prov, "inputs": recorded_inputs,
                   "failures": failures, "oracle": oracle and oracle["output"],
                   "passes": [{k: p[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "fields",
                                                 "digest", "traced", "output")}
                              for p in passes],
                   "setups_s": setups}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
