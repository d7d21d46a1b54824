"""Enumeration of carefree tuples by discriminant bound, and the comparison harness.

The cells (a2, a4, a3, S', S) of a box come from geometry.box_cells: each is
the region a1 a5 <= M, (a5/a1)^2 in [S', S] of geometry's one window kernel,
with M = floor((N / K)^(1/5)) and K = (a2 a4)^4 a3^3.  Every cell is one
shard.  The shard function walks its windows (x1, lo, hi) and, if a2, a3, a4
are coprime squarefree, expands them into int64 candidate arrays (a1, a5) and
filters them with one mask, each test on the survivors of the one before:
field.power_free at e = 2 (the squarefree sieve) up to the shard's largest
coordinate, np.gcd for pairwise coprimality, the Type table on m mod 15552
(a5^5 read from a table of fifth powers), and Capelli's irreducibility test
read off the carefree tuple.
enumerate_C/enumerate_T sort the shards' tuples; raw_count_C/raw_count_T sum
the window lengths of every cell at one N.  compare() walks every cell once, at
the largest N of its ladder, and counts each rung from that walk with no tuples:
a cell's windows and kept candidates are the same at every N, cut at
a1 a5 <= M_N.  It fits the growth exponent and reports the empirical constant
against every prediction variant.  The shards run in cell order in one
process, so every result is deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from . import densities
from .field import iroot, is_irreducible_sextic, is_squarefree, power_free
from .geometry import Box3, box_cells, count_slices, windows_M2
from .types import TYPE_MOD, SexticType, classify_array

Fr = Fraction


@dataclass(frozen=True)
class EnumSpec:
    N: int
    sign: int
    type: SexticType
    box: Box3


# A shard's enumeration limits, checked on its walked windows before expansion.
# The largest coordinate sizes the squarefree sieve and keeps products of
# coordinates inside int64.  The candidates (the sum of the window lengths) take
# about 66 bytes each at the arrays' peak; the largest carefree cell of the
# criterion-10 C box and of the T box 1,4,1,6,1,3, (a2, a4, a3) = (1, 1, 1) of
# each, reaches the limit at N = 8.4e32 and 2.0e32.
_COORD_LIMIT = 10 ** 6
_CANDIDATE_LIMIT = 2 * 10 ** 6


def _check_shard(N: int, a2: int, a4: int, a3: int, windows: list[tuple[int, int, int]]) -> None:
    x1, lo, hi = zip(*windows)
    top = max(a2 * a4, a3, max(x1), max(hi))
    if top > _COORD_LIMIT:
        raise ValueError(f"N={N} needs tuple coordinates up to {top}, "
                         f"above the enumeration limit {_COORD_LIMIT}")
    size = sum(hi) - sum(lo) + len(windows)
    if size > _CANDIDATE_LIMIT:
        raise ValueError(f"N={N} needs {size} candidates in one shard, "
                         f"above the enumeration limit {_CANDIDATE_LIMIT}")


def _expand(windows: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(a1, a5) with an entry for every window (a1, lo, hi) and every a5 in [lo, hi],
    in order of window then a5."""
    w = np.fromiter(chain.from_iterable(windows), dtype=np.int64).reshape(len(windows), 3)
    n = w[:, 2] - w[:, 1] + 1
    return np.repeat(w[:, 0], n), np.repeat(w[:, 1] - np.cumsum(n) + n, n) + np.arange(n.sum())


@lru_cache(maxsize=1)
def _fifth_powers() -> np.ndarray:
    """r^5 mod TYPE_MOD for every residue r, as a read-only int64 array."""
    r = np.arange(TYPE_MOD, dtype=np.int64)
    out = (r * r % TYPE_MOD) ** 2 % TYPE_MOD * r % TYPE_MOD
    out.flags.writeable = False
    return out


def _meet(spec: EnumSpec, a1: np.ndarray, a2: int, a3: int, a4: int,
          a5: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a1, a5) of the candidates (a1[k], a2, a3, a4, a5[k]) that meet the spec.

    a2 and a4 are coprime squarefree.  The conditions are tested in turn, each
    on the survivors of the one before: a3 coprime squarefree to a2 a4, a1 and a5
    squarefree, all five pairwise coprime, m of the spec's Type, and x^6 - m
    irreducible.  On such a tuple m = sign a1 a2^2 a3^3 a4^4 a5^5 is a square iff
    sign > 0 and a1 = a3 = a5 = 1, and a cube iff a1 = a2 = a4 = a5 = 1 (Capelli:
    x^6 - m is irreducible iff m is neither).
    """
    if not (len(a1) and _carefree(a2, a4, a3)):
        return a1[:0], a5[:0]
    sf = power_free(0, int(max(a1.max(), a5.max())), 2)
    keep = sf[a1] & sf[a5]
    a1, a5 = a1[keep], a5[keep]
    keep = (np.gcd(a1 * a5, a2 * a3 * a4) == 1) & (np.gcd(a1, a5) == 1)
    a1, a5 = a1[keep], a5[keep]
    # m mod TYPE_MOD, with every array product below TYPE_MOD^2
    const = spec.sign * a2 ** 2 * a3 ** 3 * a4 ** 4 % TYPE_MOD
    acase, bcase = classify_array(const * (a1 % TYPE_MOD) % TYPE_MOD
                                  * _fifth_powers()[a5 % TYPE_MOD])
    keep = (acase == spec.type.i) & (bcase == spec.type.j)
    ones = (a1 == 1) & (a5 == 1)
    if spec.sign > 0 and a3 == 1:
        keep &= ~ones  # a square
    if a2 == a4 == 1:
        keep &= ~ones  # a cube
    return a1[keep], a5[keep]


def _carefree(a2: int, a4: int, a3: int) -> bool:
    """a2, a3, a4 squarefree and pairwise coprime: the cells that can hold a carefree tuple."""
    return is_squarefree(a2 * a3 * a4)


def _a1a5_bound(N: int, a2: int, a4: int, a3: int) -> int:
    """floor((N / K)^(1/5)) with K = (a2 a4)^4 a3^3: the cell's bound on a1 a5 at N."""
    return iroot(N // ((a2 * a4) ** 4 * a3 ** 3), 5)


_NO_CANDIDATES = (np.zeros(0, dtype=np.int64),) * 2


def _shard(spec: EnumSpec, cell: tuple) -> tuple[list[tuple[int, int, int]], tuple[np.ndarray, np.ndarray]]:
    """One cell (a2, a4, a3, S', S) at spec.N, walked once: its windows (x1, lo, hi),
    and (a1, a5) of its candidates that meet the spec if the cell is carefree."""
    a2, a4, a3, Sp, S = cell
    windows = list(windows_M2(_a1a5_bound(spec.N, a2, a4, a3), Sp, S))
    if not (windows and _carefree(a2, a4, a3)):
        return windows, _NO_CANDIDATES
    _check_shard(spec.N, a2, a4, a3, windows)
    a1, a5 = _expand(windows)
    a1, a5 = _meet(spec, a1, a2, a3, a4, a5)
    if a2 > a4:
        # ratio-1 leaf: keep a4 >= a2 (in C, a1 = a5 gives lambda1^3 = a4/a2 >= R1' >= 1)
        keep = a1 != a5
        a1, a5 = a1[keep], a5[keep]
    return windows, (a1, a5)


def _check_family(name: str, box: Box3, kind: str) -> None:
    if box.kind != kind:
        raise ValueError(f"{name}_{kind} needs a {kind}-family box")


def _enumerate(spec: EnumSpec, kind: str) -> list[tuple[int, ...]]:
    """The sorted tuples of the carefree cells' shards."""
    _check_family("enumerate", spec.box, kind)
    tuples = []
    for cell in box_cells(spec.box, spec.N):
        a2, a4, a3 = cell[:3]
        if _carefree(a2, a4, a3):
            a1, a5 = _shard(spec, cell)[1]
            tuples += [(x1, a2, a3, a4, x5) for x1, x5 in zip(a1.tolist(), a5.tolist())]
    return sorted(tuples)


def enumerate_C(spec: EnumSpec) -> list[tuple[int, ...]]:
    """All tuples of the fixed sign and Type in the lambda-window region.

    The returned tuples are canonically oriented automatically: the box
    requires lambda1^3 >= R1' >= 1 and the boundary lambda1 = 1 is
    unattainable for valid tuples.
    """
    return _enumerate(spec, "C")


def enumerate_T(spec: EnumSpec) -> list[tuple[int, ...]]:
    """Tuples with (a5/a1, a2*a4, a3) in the box, deduplicated on the ratio-1 leaf."""
    return _enumerate(spec, "T")


def _raw_count(N: int, box: Box3, kind: str) -> int:
    _check_family("raw_count", box, kind)
    return count_slices((a3, _a1a5_bound(N, a2, a4, a3), Sp, S)
                        for a2, a4, a3, Sp, S in box_cells(box, N))


def raw_count_C(N: int, box: Box3) -> int:
    """#C(N, box) with no local conditions: the lattice points of every C cell."""
    return _raw_count(N, box, "C")


def raw_count_T(N: int, box: Box3) -> int:
    """#T(N, box) with no local conditions: the lattice points of every T cell."""
    return _raw_count(N, box, "T")


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


def naive_scan(spec: EnumSpec) -> list[tuple[int, ...]]:
    """All tuples meeting the spec by scanning every sixth-power-free |m| <= N
    (the bound dominates |m|).

    Independent of the structured enumeration: tuples come from exponent-class
    sieving of each m.
    """
    N = spec.N
    arrs, valid = carefree_arrays(N)
    a1, a2, a3, a4, a5 = arrs
    idx = np.flatnonzero(valid)
    # cheap per-coordinate caps implied by the discriminant bound
    r5 = int(N ** 0.2) + 1
    r4 = int(N ** 0.25) + 1
    r3 = int(round(N ** (1 / 3))) + 1
    keep = (a1[idx] <= r5) & (a2[idx] <= r4) & (a3[idx] <= r3) & \
        (a4[idx] <= r4) & (a5[idx] <= r5)
    acase, bcase = classify_array(spec.sign * idx)
    idx = idx[keep & (acase == spec.type.i) & (bcase == spec.type.j)]
    out = []
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


def _ladder_counts(spec: EnumSpec, ladder: list[int]) -> list[tuple[int, int]]:
    """(raw, carefree) count of every rung N of the ladder, from one walk of the top rung spec.N.

    A cell's ratio window does not depend on N, so its windows at N are those of
    the top rung cut at x5 <= M_N // x1, with M_N = floor((N / K)^(1/5)) and
    K = (a2 a4)^4 a3^3, and a kept candidate is under N iff a1 a5 <= M_N.
    """
    cells = box_cells(spec.box, spec.N)
    shards = [_shard(spec, cell) for cell in cells]
    walked = [windows for windows, _ in shards]
    a1a5 = [a1 * a5 for _, (a1, a5) in shards]
    n = sum(map(len, walked))
    # no count, window end or M_N exceeds the largest M of the top rung
    top = max((_a1a5_bound(spec.N, *c[:3]) for c in cells), default=0)
    dtype = np.int64 if (top + 1) * (n + 1) < 2 ** 63 else object
    x1, lo, hi = np.fromiter(chain.from_iterable(chain.from_iterable(walked)), dtype,
                             3 * n).reshape(n, 3).T
    window_cell = np.repeat(np.arange(len(cells)), list(map(len, walked)))
    kept_cell = np.repeat(np.arange(len(cells)), list(map(len, a1a5)))
    a1a5 = np.concatenate([_NO_CANDIDATES[0], *a1a5])
    counts = []
    for N in ladder:
        M = np.array([_a1a5_bound(N, *c[:3]) for c in cells], dtype=dtype)
        raw = np.maximum(np.minimum(hi, M[window_cell] // x1) - lo + 1, 0).sum()
        counts.append((int(raw), int(np.count_nonzero(a1a5 <= M[kept_cell]))))
    return counts


def compare(family: str, t: SexticType, sign: int, box: Box3, ladder: list[int]) -> dict:
    """Empirical counts over the ladder vs every prediction variant.

    Both counts of every rung come from one walk of the box at the largest N of
    the ladder (see _ladder_counts): the raw count is the lattice points under N,
    raw_count_X(N), and the carefree count the tuples with
    a1^5 a2^4 a3^3 a4^4 a5^5 <= N, len(enumerate_X) at N, since every other
    condition of a cell is the same at every N.  For the T family the report
    carries both the linear-in-N reading of Prop T-main and the N^(1/5)
    reading, and flags which one the data supports.
    """
    _check_family("compare", box, family)
    preds = densities.integrate_measure(t, sign, box)
    counts = _ladder_counts(EnumSpec(max(ladder), sign, t, box), ladder) if ladder else []
    rows = []
    for N, (raw, cf) in zip(ladder, counts):
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
