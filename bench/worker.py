"""One fresh process: set up, run one job, print its result as one JSON line.

    python3 bench/worker.py '<job json>'

Jobs are made by run.py. `kind` is "pass" (one workload pass, traced or
not), "setup" (set up and exit) or "oracle" (the naive-scan oracle).
`spawned` is the parent's wall clock just before it started this process,
so setup_s covers interpreter start, imports and input construction.
"""

import json
import os
import resource
import sys
import time
import types as pytypes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy  # noqa: E402

from puresextic import (__version__, algebra, basis, densities, field, general,  # noqa: E402
                        geometry, gram, harness, types)

import tracer  # noqa: E402
import workloads  # noqa: E402

# Every pass is cold: with a disk cache (named by PURESEXTIC_CACHE) later
# passes would load the density tables instead of computing them.
densities.set_cache_dir(None)

PKG = pytypes.SimpleNamespace(algebra=algebra, basis=basis, densities=densities, field=field,
                              general=general, geometry=geometry, gram=gram, harness=harness,
                              types=types)


def run_pass(job: dict, inputs: dict) -> dict:
    trace = None
    if job["trace"]:
        trace = tracer.Tracer(job["run_id"], dict(zip(inputs.get("ladder", []),
                                                       inputs.get("labels", []))))
        trace.install(PKG)
    t0 = time.perf_counter()
    try:
        if inputs["workload"] == "verify-corpus":
            res = workloads.verify_pass(PKG, inputs, trace.call if trace else workloads.direct)
        else:
            res = workloads.equidist_pass(PKG, inputs)
    finally:
        wall = time.perf_counter() - t0
        if trace:
            trace.restore()
    res["wall_s"] = wall
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        res["layers"] = layer_metrics(trace, inputs, wall)
        trace.write(job["spans_path"])
    return res


def layer_metrics(trace: tracer.Tracer, inputs: dict, wall: float) -> dict:
    """Every per-layer metric of the pass; layers the workload does not use read 0."""
    out = {name: 0.0 if unit != "count" else 0 for name, unit in workloads.PER_LAYER}
    selfs = trace.self_times()
    for key, value in selfs.items():
        if key in out:
            out[key] = value
    out.update({k: v for k, v in trace.counts.items() if k in out})
    misses = 0
    for k in workloads.DENSITY_KERNELS:
        calls = sum(1 for s in trace.spans if s[0] == f"densities.{k}")
        out[f"densities.{k}_calls"] = calls
        misses += calls
    out["densities.table_misses"] = misses
    out["densities.table_hits"] = trace.counts["densities.table_lookups"] - misses
    if "family" in inputs:
        fam = inputs["family"]
        all_cells = set(workloads.box_cells(inputs))
        for label in inputs["labels"]:
            tuples = trace.results.get((f"harness.enumerate_{fam}", label), [])
            points = trace.results.get((f"geometry.raw_count_{fam}", label), 0)
            out[f"harness.tuples.{label}"] = len(tuples)
            out[f"geometry.lattice_points.{label}"] = points
            out[f"harness.kept_ratio.{label}"] = len(tuples) / points if points else 0.0
            out[f"harness.empty_cells.{label}"] = len(all_cells - {(a[1], a[3]) for a in tuples})
    out["trace.wall_s"] = wall
    out["trace.attributed_pct"] = 100 * sum(selfs.values()) / wall
    out["trace.spans"] = len(trace.spans)
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    inputs = job["inputs"]
    if "family" in inputs:
        workloads.equidist_args(PKG, inputs)  # input construction is part of set-up
    ready = time.time()
    res = {"setup_s": ready - job["spawned"]}
    if job["kind"] == "pass":
        res.update(run_pass(job, inputs))
    elif job["kind"] == "oracle":
        res.update(workloads.oracle_pass(PKG, inputs))
    res["versions"] = {"puresextic": __version__, "python": sys.version.split()[0],
                       "numpy": numpy.__version__}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
