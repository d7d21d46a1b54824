"""Enumeration of carefree tuples by discriminant bound, and the comparison harness.

enumerate_C walks the (lambda1^3, lambda2^3, a2 a4) windows exactly (all
interval endpoints in rational arithmetic, so small-N runs agree with the
naive full scan set-for-set); enumerate_T walks (a5/a1, a2 a4, a3) windows.
compare() assembles counts over an N-ladder, fits the growth exponent, and
reports the empirical constant against every prediction variant.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import densities
from .densities import divisor_pairs
from .field import ceil_root, floor_root, is_irreducible_sextic, is_squarefree
from .geometry import Box3, count_lattice_M2, count_lattice_M3
from .types import SexticType, lookup_tables

Fr = Fraction


@dataclass(frozen=True)
class EnumSpec:
    N: int
    sign: int
    type: SexticType
    box: Box3
    carefree: bool = True  # False: all integer tuples in the region (no local conditions)


def _tuple_ok(a: tuple[int, int, int, int, int], sign: int, t: SexticType) -> bool:
    """Squarefree, pairwise coprime, x^6 - m irreducible, classifies to (sign, t)."""
    for x in (a[0], a[2], a[4]):  # a2, a4 pre-filtered by the caller
        if not is_squarefree(x):
            return False
    for i in range(5):
        for j in range(i + 1, 5):
            if math.gcd(a[i], a[j]) != 1:
                return False
    m = sign * a[0] * a[1] ** 2 * a[2] ** 3 * a[3] ** 4 * a[4] ** 5
    if not is_irreducible_sextic(m):
        return False
    atab, btab = lookup_tables()
    r = m % 46656
    return int(atab[r]) == t.i and int(btab[r]) == t.j


def _enum_c_shard(args) -> list[tuple[int, ...]]:
    spec, a2, a4 = args
    box, N, sign, t = spec.box, Fr(spec.N), spec.sign, spec.type
    out = []
    npair = N / Fr(a2 ** 4 * a4 ** 4)
    l1p = box.r1p * Fr(a2, a4)            # lambda1^3 window: a5^2/a1^2 in [l1p, l1]
    l1 = box.r1 * Fr(a2, a4)
    # a1 cap: a5^2 >= l1p a1^2 and a3^3 >= (a5/a1)/l2 with l2 = R2 a4/a2 give
    # a1^10 <= npair * l2 / l1p^3
    l2 = box.r2 * Fr(a4, a2)
    cap = floor_root(npair, 5)
    if l1p > 0:
        cap = min(cap, floor_root(npair * l2 / l1p ** 3, 10))
    for a1 in range(1, cap + 1):
        lo5 = max(1, ceil_root(l1p * a1 * a1, 2))
        hi5 = floor_root(l1 * a1 * a1, 2)
        for a5 in range(lo5, hi5 + 1):
            # lambda2^3 = a2 a5 / (a1 a3^3 a4) in [r2p, r2]
            lo3 = max(1, ceil_root(Fr(a2 * a5, a1 * a4) / box.r2, 3))
            hi3 = floor_root(Fr(a2 * a5, a1 * a4) / box.r2p, 3) if box.r2p > 0 else None
            bound3 = floor_root(npair / Fr(a1 ** 5 * a5 ** 5), 3)
            hi3 = bound3 if hi3 is None else min(hi3, bound3)
            for a3 in range(lo3, hi3 + 1):
                a = (a1, a2, a3, a4, a5)
                if not spec.carefree or _tuple_ok(a, sign, t):
                    out.append(a)
    return out


def enumerate_C(spec: EnumSpec, workers: int = 1) -> list[tuple[int, ...]]:
    """All tuples of the fixed sign and Type in the lambda-window region.

    The returned tuples are canonically oriented automatically: the box
    requires lambda1^3 >= R1' >= 1 and the boundary lambda1 = 1 is
    unattainable for valid tuples.
    """
    if spec.box.kind != "C":
        raise ValueError("enumerate_C needs a C-family box")
    shards = [(spec, a2, a4) for a2, a4 in
              divisor_pairs(int(spec.box.r3p), int(spec.box.r3), spec.carefree)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_enum_c_shard, shards))
    else:
        parts = [_enum_c_shard(s) for s in shards]
    out = sorted(x for part in parts for x in part)
    return out


def raw_count_C(N: int, box: Box3) -> int:
    """#C(N, box) with no local conditions, via the exact 3d counting kernel."""
    total = 0
    for a2, a4 in divisor_pairs(int(box.r3p), int(box.r3), squarefree=False):
        npair = Fr(N) / Fr(a2 ** 4 * a4 ** 4)
        l1p = _sqrt_frac_lower(box.r1p * Fr(a2, a4))
        l1 = _sqrt_frac_upper(box.r1 * Fr(a2, a4))
        total += count_lattice_M3(npair, l1p, l1, box.r2p * Fr(a4, a2), box.r2 * Fr(a4, a2))
    return total


def _sqrt_frac_lower(q: Fraction, digits: int = 40) -> Fraction:
    """Rational lower bound for sqrt(q), exact when q is a perfect square."""
    num = math.isqrt(q.numerator * q.denominator * 10 ** (2 * digits))
    return Fr(num, q.denominator * 10 ** digits)


def _sqrt_frac_upper(q: Fraction, digits: int = 40) -> Fraction:
    num = math.isqrt(q.numerator * q.denominator * 10 ** (2 * digits))
    exact = Fr(num, q.denominator * 10 ** digits)
    return exact if exact * exact == q else exact + Fr(1, 10 ** digits)


def _enum_t_shard(args) -> list[tuple[int, ...]]:
    spec, a2, a3, a4 = args
    box, sign, t = spec.box, spec.sign, spec.type
    out = []
    npair = Fr(spec.N) / Fr(a2 ** 4 * a3 ** 3 * a4 ** 4)
    mcap = floor_root(npair, 5)  # a1 a5 <= mcap
    if mcap < 1:
        return out
    a1cap = floor_root(mcap / box.r1p, 2)
    for a1 in range(1, a1cap + 1):
        lo5 = max(1, math.ceil(box.r1p * a1))
        hi5 = min(math.floor(box.r1 * a1), mcap // a1)
        for a5 in range(lo5, hi5 + 1):
            if spec.carefree and a1 == a5 and a2 > a4:
                continue  # ratio-1 leaf: keep the canonical orientation (a4 >= a2)
            a = (a1, a2, a3, a4, a5)
            if not spec.carefree or _tuple_ok(a, sign, t):
                out.append(a)
    return out


def enumerate_T(spec: EnumSpec, workers: int = 1) -> list[tuple[int, ...]]:
    """Tuples with (a5/a1, a2*a4, a3) in the box, deduplicated on the ratio-1 leaf."""
    if spec.box.kind != "T":
        raise ValueError("enumerate_T needs a T-family box")
    shards = []
    for a2, a4 in divisor_pairs(int(spec.box.r2p), int(spec.box.r2), spec.carefree):
        for a3 in range(int(spec.box.r3p), int(spec.box.r3) + 1):
            if spec.carefree and (not is_squarefree(a3) or math.gcd(a3, a2 * a4) != 1):
                continue
            shards.append((spec, a2, a3, a4))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_enum_t_shard, shards))
    else:
        parts = [_enum_t_shard(s) for s in shards]
    return sorted(x for part in parts for x in part)


def raw_count_T(N: int, box: Box3) -> int:
    total = 0
    for a2, a4 in divisor_pairs(int(box.r2p), int(box.r2), squarefree=False):
        for a3 in range(int(box.r3p), int(box.r3) + 1):
            mcap = floor_root(Fr(N) / Fr(a2 ** 4 * a3 ** 3 * a4 ** 4), 5)
            total += count_lattice_M2(mcap, box.r1p, box.r1)
    return total


# ---------------------------------------------------------------------------
# Naive full-scan oracle (vectorized over all |m| <= limit)
# ---------------------------------------------------------------------------

def carefree_arrays(limit: int) -> tuple[list[np.ndarray], np.ndarray]:
    """(a1..a5 exponent-class arrays indexed by |m|, sixth-power-free mask)."""
    a = [np.ones(limit + 1, dtype=np.int32) for _ in range(5)]
    valid = np.ones(limit + 1, dtype=bool)
    valid[:2] = False
    for p in densities.primes_up_to(limit):
        p = int(p)
        pe = p
        e = 1
        while pe <= limit:
            if e >= 6:
                valid[pe::pe] = False
                break
            nxt = pe * p
            idx = np.arange(pe, limit + 1, pe)
            if nxt <= limit:
                idx = idx[(idx % nxt) != 0]
            a[e - 1][idx] *= p
            pe = nxt
            e += 1
    return a, valid


def naive_scan(spec: EnumSpec, limit: int | None = None) -> list[tuple[int, ...]]:
    """All tuples meeting the spec by scanning every sixth-power-free |m| <= limit.

    Independent of the structured enumeration: tuples come from exponent-class
    sieving of each m.  limit defaults to N (the bound dominates |m|).
    """
    N = spec.N
    limit = limit or N
    arrs, valid = carefree_arrays(limit)
    a1, a2, a3, a4, a5 = arrs
    idx = np.flatnonzero(valid)
    # cheap per-coordinate caps implied by the discriminant bound
    r5 = int(N ** 0.2) + 1
    r4 = int(N ** 0.25) + 1
    r3 = int(round(N ** (1 / 3))) + 1
    keep = (a1[idx] <= r5) & (a2[idx] <= r4) & (a3[idx] <= r3) & \
        (a4[idx] <= r4) & (a5[idx] <= r5)
    idx = idx[keep]
    out = []
    atab, btab = lookup_tables()
    box = spec.box
    for v in idx:
        v = int(v)
        t5 = (int(a1[v]), int(a2[v]), int(a3[v]), int(a4[v]), int(a5[v]))
        b = t5[0] ** 5 * t5[1] ** 4 * t5[2] ** 3 * t5[3] ** 4 * t5[4] ** 5
        if b > N:
            continue
        m = spec.sign * v
        if not is_irreducible_sextic(m):
            continue
        r = m % 46656
        if int(atab[r]) != spec.type.i or int(btab[r]) != spec.type.j:
            continue
        if box.kind == "C":
            lam13 = Fr(t5[3] * t5[4] ** 2, t5[0] ** 2 * t5[1])
            if not (box.r1p <= lam13 <= box.r1):
                continue
            lam23 = Fr(t5[1] * t5[4], t5[0] * t5[2] ** 3 * t5[3])
            if not (box.r2p <= lam23 <= box.r2):
                continue
            if not (box.r3p <= t5[1] * t5[3] <= box.r3):
                continue
        else:
            ratio = Fr(t5[4], t5[0])
            if not (box.r1p <= ratio <= box.r1):
                continue
            if not (box.r2p <= t5[1] * t5[3] <= box.r2):
                continue
            if not (box.r3p <= t5[2] <= box.r3):
                continue
            if t5[0] == t5[4] and t5[1] > t5[3]:
                continue  # ratio-1 dedup, canonical orientation
        out.append(t5)
    return sorted(out)


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------

def fit_slope(ns: list[int], counts: list[int]) -> float:
    xs = [math.log(n) for n, c in zip(ns, counts) if c > 0]
    ys = [math.log(c) for c in counts if c > 0]
    if len(xs) < 2:
        return float("nan")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def compare(family: str, t: SexticType, sign: int, box: Box3, ladder: list[int],
            workers: int = 1, prime_bound: int = 10 ** 6) -> dict:
    """Empirical counts over the ladder vs every prediction variant.

    For the T family the report carries both the linear-in-N reading of
    Prop T-main and the N^(1/5) reading, and flags which one the data supports.
    """
    kind = "mu" if family == "C" else "nu"
    preds = densities.integrate_measure(kind, t, sign, box, prime_bound)
    rows = []
    for N in ladder:
        spec = EnumSpec(N, sign, t, box, carefree=True)
        tuples = enumerate_C(spec, workers) if family == "C" else enumerate_T(spec, workers)
        cf = len(tuples)
        raw = raw_count_C(N, box) if family == "C" else raw_count_T(N, box)
        row = {
            "N": N,
            "raw_count": raw,
            "carefree_count": cf,
            "ratio_fifth_root": cf / N ** 0.2,
            "ratio_linear": cf / N,
        }
        for name, p in preds.items():
            if p["value"] > 0:
                norm = "ratio_linear" if name.startswith("linear_") else "ratio_fifth_root"
                row[f"vs_{name}"] = row[norm] / p["value"]
        rows.append(row)
    counts = [r["carefree_count"] for r in rows]
    slope = fit_slope(ladder, counts)
    report = {
        "family": family,
        "type": str(t),
        "sign": sign,
        "box": box.to_json(),
        "coordinate_convention": "(lambda1^3, lambda2^3, a2*a4)" if family == "C"
        else "(a5/a1, a2*a4, a3) as in the T-definition; the headline-theorem "
             "ordering (a1/a5, a3, a2*a4) is the reverse/swap of this",
        "ladder": ladder,
        "rows": rows,
        "fitted_slope": slope,
        "predictions": {k: v["value"] for k, v in preds.items()},
        "prediction_tails": {k: v["euler_tail"] for k, v in preds.items()},
    }
    if family == "T":
        report["supported_normalization"] = (
            "N^(1/5)" if abs(slope - 0.2) < abs(slope - 1.0) else "N")
        report["normalization_note"] = (
            "Prop T-main normalises by N; the region constraints force "
            "a1*a5 <= (N/(a2^4 a3^3 a4^4))^(1/5), i.e. N^(1/5)-scale growth. "
            "The fitted exponent arbitrates.")
    if family == "C":
        report["paper_literal_note"] = (
            "the stated constant is not a density (n_{i,j} enters "
            "unnormalised) and rests on the 3d count lemma; see discrete_* "
            "variants for the constants the exact counts follow")
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
