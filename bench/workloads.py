"""The benchmark's workloads: seeded inputs, one pass over the package, and checks.

Input generation (`make_inputs`) is pure Python and does not import the
package, so the seed reaches the program only as the inputs it produces.
The pass functions take the imported package modules and a `call` hook:
untraced passes call each step directly, traced passes record a span
around it (see tracer.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

WORKLOADS = ("verify-corpus", "equidist-C", "equidist-T")

# Nominal ladders by decade; a seed other than 0 scales every point (and the
# oracle bound) by the same factor, which keeps Type, sign and box fixed.
DECADES = {"C": range(15, 21), "T": range(15, 23)}
TINY_DECADES = {"C": range(9, 11), "T": range(9, 11)}
ORACLE_N = {"full": 10 ** 7, "tiny": 10 ** 6}
# Boxes as `puresextic equidist --box` takes them: R1',R1,R2',R2,R3',R3.
BOXES = {"C": ("1", "8", "1/8", "8", "1", "6"), "T": ("1", "4", "1", "6", "1", "3")}
TYPE = (1, 1)   # A1,B1
SIGN = 1
PER_TYPE = {"full": 25, "tiny": 1}
START_MAX = 10 ** 5
FACTOR_PERMILLE = (1000, 1200)  # seeded ladder factor in [1, 1.2)

# (name, unit) of every metric, in print order; BENCHMARK.json adds the bounds.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("fields_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("field_ms.p50", "ms"),
    ("field_ms.p98", "ms"),
)

VERIFY_LAYERS = (
    ("types.corpus_s", "s"),
    ("field.sextic_field_s", "s"),
    ("basis.build_basis_s", "s"),
    ("basis.transition_check_s", "s"),
    ("gram.gram6_s", "s"),
    ("gram.table_check_s", "s"),
    ("gram.congruence_s", "s"),
    ("gram.shape_certificate_s", "s"),
    ("algebra.det_s", "s"),
    ("algebra.integrality_s", "s"),
    ("algebra.char_poly_calls", "count"),
    ("general.lattice_check_s", "s"),
)
DENSITY_KERNELS = ("n2_count", "n3_count", "m2_count", "m3_count")
DENSITY_LAYERS = (
    (("densities.integrate_measure_s", "s"),)
    + tuple(m for k in DENSITY_KERNELS
            for m in ((f"densities.{k}_s", "s"), (f"densities.{k}_calls", "count")))
    + (("densities.table_hits", "count"), ("densities.table_misses", "count"),
       ("densities.euler_product_s", "s"))
)
ALL_LABELS = tuple(f"N1e{e}" for e in range(15, 23))
HARNESS_LAYERS = (
    tuple((f"harness.enumerate_{fam}_s.{lab}", "s")
          for fam in ("C", "T") for lab in ALL_LABELS[:len(DECADES[fam])])
    + tuple((f"geometry.raw_count_{fam}_s.{lab}", "s")
            for fam in ("C", "T") for lab in ALL_LABELS[:len(DECADES[fam])])
    + tuple((f"{name}.{lab}", unit)
            for name, unit in (("harness.tuples", "count"),
                               ("geometry.lattice_points", "count"),
                               ("harness.kept_ratio", "ratio"),
                               ("harness.empty_cells", "count"))
            for lab in ALL_LABELS)
    + (("harness.compare_self_s", "s"),)
)
TRACE_LAYERS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
    ("trace.spans", "count"),
)
PER_LAYER = VERIFY_LAYERS + DENSITY_LAYERS + HARNESS_LAYERS + TRACE_LAYERS


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """The workload's inputs as plain JSON data; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-corpus":
        start = 2 if seed == 0 else rng.randint(2, START_MAX)
        return {"workload": workload, "start": start, "per_type": PER_TYPE[size]}
    family = workload[-1]
    permille = FACTOR_PERMILLE[0] if seed == 0 else rng.randrange(*FACTOR_PERMILLE)
    decades = (DECADES if size == "full" else TINY_DECADES)[family]
    return {
        "workload": workload,
        "family": family,
        "type": list(TYPE),
        "sign": SIGN,
        "box": list(BOXES[family]),
        "factor_permille": permille,
        "ladder": [10 ** e * permille // 1000 for e in decades],
        "labels": [f"N1e{e}" for e in decades],
        "oracle_N": ORACLE_N[size] * permille // 1000,
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# verify-corpus: the `verify` checks, the Gram determinant, and the general
# basis lattice for the fields that satisfy the tame-wild assumption
# ---------------------------------------------------------------------------

def direct(name, fn):
    """The untraced `call` hook."""
    return fn()


def verify_pass(pkg, inputs: dict, call=direct) -> dict:
    """One pass over the corpus, timing each field."""
    algebra, basis, field, general, gram, types = (
        pkg.algebra, pkg.basis, pkg.field, pkg.general, pkg.gram, pkg.types)
    per_type, start = inputs["per_type"], inputs["start"]
    corpus = {str(t): types.smallest_m_of_type(t, per_type, start) for t in types.ALL_TYPES}
    fields, failures, latencies, attempted = [], [], [], 0
    for t in types.ALL_TYPES:
        for m in corpus[str(t)]:
            t0 = time.perf_counter()
            f = field.sextic_field(m)
            b = basis.build_basis(f)
            g = gram.gram6(f, b)
            checks = {
                "table": call("gram.table_check", lambda: g == gram.g_table(t, f) * 6),
                "congruence": call("gram.congruence", lambda: g == gram.gram_power(f).congruence(
                    algebra.CubicMatrix.from_rational(
                        m, [list(r) for r in basis.tabulated_transition(t, f).entries]))),
                "transition": call("basis.transition_check", lambda: (
                    basis.derived_transition(b).entries
                    == basis.tabulated_transition(t, f).entries)),
                "integral": call("algebra.integrality", lambda: all(
                    e.is_algebraic_integer() for e in b.elements)),
                "certificate": call("gram.shape_certificate",
                                    lambda: gram.shape_gram(f).certificate_holds()),
            }
            det = call("algebra.det", g.det)
            checks["det_rational"] = det.is_rational()
            try:
                field.check_assumption(6, m)
                tame = True
            except (field.AssumptionViolated, field.NotPowerFree):
                tame = False
            if tame:
                cols = [[b.elements[k].coeffs[s] for k in range(6)] for s in range(6)]
                checks["general"] = call("general.lattice_check", lambda: general.same_lattice(
                    general.general_integral_basis(6, m).matrix(), cols))
            latencies.append(time.perf_counter() - t0)
            attempted += len(checks)
            bad = [k for k, ok in checks.items() if not ok]
            failures += [{"type": str(t), "m": m, "check": k} for k in bad]
            fields.append({"type": str(t), "m": m, "ok": not bad, "tame": tame,
                           "det": [str(c) for c in det.coeffs]})
    ok = Counter(r["type"] for r in fields if r["ok"])
    output = {"corpus": corpus,
              "matrix": {str(t): f"{ok[str(t)]}/{per_type}" for t in types.ALL_TYPES},
              "det": [[r["m"], r["det"]] for r in fields],
              "tame": [r["m"] for r in fields if r["tame"]]}
    return {"output": output, "digest": digest(output), "fields": len(fields),
            "attempted": attempted, "failures": failures, "latencies": latencies}


# ---------------------------------------------------------------------------
# equidist-C / equidist-T: one `compare` over the ladder
# ---------------------------------------------------------------------------

def equidist_args(pkg, inputs: dict):
    t = pkg.types.SexticType(*inputs["type"])
    box = pkg.geometry.Box3(*(Fraction(x) for x in inputs["box"]), kind=inputs["family"])
    return inputs["family"], t, inputs["sign"], box, list(inputs["ladder"])


def equidist_pass(pkg, inputs: dict) -> dict:
    report = pkg.harness.compare(*equidist_args(pkg, inputs))
    return report_result(pkg, report)


def report_result(pkg, report: dict) -> dict:
    """Digest of the report bytes (without `config`) and its row counts."""
    report = {k: v for k, v in report.items() if k != "config"}
    text = pkg.harness.report_to_json(report)
    counts = [r["carefree_count"] for r in report["rows"]]
    raw = [r["raw_count"] for r in report["rows"]]
    failures = []
    if any(c > r for c, r in zip(counts, raw)):
        failures.append({"check": "carefree_count <= raw_count", "counts": counts, "raw": raw})
    if counts != sorted(counts):
        failures.append({"check": "counts grow with N", "counts": counts})
    return {"output": {"counts": counts, "raw_counts": raw,
                       "vs_discrete_strict": [r.get("vs_discrete_strict") for r in report["rows"]]},
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "fields": sum(counts), "attempted": 2, "failures": failures, "latencies": []}


def cells(lo: int, hi: int) -> list[tuple[int, int]]:
    """The (a2, a4) cells of a box: squarefree coprime pairs with lo <= a2*a4 <= hi."""
    out = []
    for n in range(max(lo, 1), hi + 1):
        if any(n % (p * p) == 0 for p in range(2, math.isqrt(n) + 1)):
            continue
        out += [(d, n // d) for d in range(1, n + 1) if n % d == 0]
    return out


def box_cells(inputs: dict) -> list[tuple[int, int]]:
    lo, hi = inputs["box"][4:6] if inputs["family"] == "C" else inputs["box"][2:4]
    return cells(math.ceil(Fraction(lo)), math.floor(Fraction(hi)))


def oracle_pass(pkg, inputs: dict) -> dict:
    """Independent oracle: the structured enumeration equals the naive full scan."""
    family, t, sign, box, _ = equidist_args(pkg, inputs)
    spec = pkg.harness.EnumSpec(inputs["oracle_N"], sign, t, box)
    enumerate_ = pkg.harness.enumerate_C if family == "C" else pkg.harness.enumerate_T
    got, want = enumerate_(spec), pkg.harness.naive_scan(spec)
    failures = [] if got == want else [{"check": "enumerate == naive_scan",
                                        "N": spec.N, "enumerated": len(got),
                                        "naive_scan": len(want)}]
    return {"output": {"N": spec.N, "tuples": len(want)}, "attempted": 1,
            "failures": failures}
