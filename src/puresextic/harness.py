"""Enumeration of carefree tuples by discriminant bound, and the comparison harness.

Both families cut the box into cells, and each cell into slices (a3, M, S', S):
regions a1 a5 <= M, (a5/a1)^2 in [S', S] of geometry's one window kernel.  A C
cell (a2, a4) is the region (a5/a1)^2 in R1 a2/a4, a5/(a1 a3^3) in R2 a4/a2,
a1^5 a3^3 a5^5 <= N/(a2^4 a4^4), one slice per a3 the windows allow; a T cell
(a2, a3, a4) is one slice, a5/a1 in R1 and a1 a5 <= (N/(a2^4 a3^3 a4^4))^(1/5).
One shard function walks a cell: it takes every slice's windows (x1, lo, hi),
expands the windows of its carefree slices into int64 candidate arrays and
filters them with one mask, each test on the survivors of the one before: a
squarefree sieve sized to the shard's largest coordinate, np.gcd for pairwise
coprimality, the Type table on m mod 15552 (a5^5 read from a table of fifth
powers), and Capelli's irreducibility test read off the carefree tuple.
enumerate_C/enumerate_T sort the shards' tuples; raw_count_C/raw_count_T sum
the window lengths of every cell at one N.  compare() walks every cell once, at
the largest N of its ladder, and counts each rung from that walk with no tuples:
a slice's windows and kept candidates are the same at every N, cut at
a1 a5 <= M_N = floor((N / K)^(1/5)), K = (a2 a4)^4 a3^3.  It fits the growth
exponent and reports the empirical constant against every prediction variant.
With workers > 1 the shards run in a process pool, imported on first use: a
one-worker run never loads multiprocessing.
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
from .densities import divisor_pairs
from .field import iroot, is_irreducible_sextic, is_squarefree
from .geometry import Box3, count_slices, slices_M3, windows_M2
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
# about 66 bytes each at the arrays' peak; the largest carefree C cell of the
# criterion-10 box holds 1.66e6 at N = 2.6e31, a T cell of 1,4,1,6,1,3 ~6.9e5 at M = 10^6.
_COORD_LIMIT = 10 ** 6
_CANDIDATE_LIMIT = 2 * 10 ** 6


def _check_shard(N: int, a2: int, a4: int, windows: list[tuple[int, int, int, int]]) -> None:
    a3, x1, lo, hi = zip(*windows)
    top = max(a2 * a4, max(a3), max(x1), max(hi))
    if top > _COORD_LIMIT:
        raise ValueError(f"N={N} needs tuple coordinates up to {top}, "
                         f"above the enumeration limit {_COORD_LIMIT}")
    size = sum(hi) - sum(lo) + len(windows)
    if size > _CANDIDATE_LIMIT:
        raise ValueError(f"N={N} needs {size} candidates in one shard, "
                         f"above the enumeration limit {_CANDIDATE_LIMIT}")


def _expand(windows: list[tuple[int, int, int, int]]) -> tuple[np.ndarray, ...]:
    """(a3, a1, a5) with an entry for every window (a3, a1, lo, hi) and every a5 in
    [lo, hi], in order of window then a5."""
    w = np.fromiter(chain.from_iterable(windows), dtype=np.int64).reshape(len(windows), 4)
    n = w[:, 3] - w[:, 2] + 1
    return (np.repeat(w[:, 0], n), np.repeat(w[:, 1], n),
            np.repeat(w[:, 2] - np.cumsum(n) + n, n) + np.arange(n.sum()))


def _squarefree_sieve(top: int) -> np.ndarray:
    """sf[n] is True iff n is squarefree, for 0 <= n <= top."""
    sf = np.ones(top + 1, dtype=bool)
    sf[0] = False
    for p in range(2, math.isqrt(top) + 1):
        sf[p * p::p * p] = False
    return sf


@lru_cache(maxsize=1)
def _fifth_powers() -> np.ndarray:
    """r^5 mod TYPE_MOD for every residue r, as a read-only int64 array."""
    r = np.arange(TYPE_MOD, dtype=np.int64)
    out = (r * r % TYPE_MOD) ** 2 % TYPE_MOD * r % TYPE_MOD
    out.flags.writeable = False
    return out


def _meet(spec: EnumSpec, a1: np.ndarray, a2: int, a3, a4: int,
          a5: np.ndarray) -> tuple[np.ndarray, object, np.ndarray]:
    """(a1, a3, a5) of the candidates (a1[k], a2, a3[k], a4, a5[k]) that meet the spec.

    a3 is an array, or one int for every candidate.  The conditions are tested in
    turn, each on the survivors of the one before: a1, a3, a5 squarefree, all five
    pairwise coprime (a2, a4 are coprime squarefree already), m of the spec's
    Type, and x^6 - m irreducible.  On such a tuple m = sign a1 a2^2 a3^3 a4^4 a5^5
    is a square iff sign > 0 and a1 = a3 = a5 = 1, and a cube iff
    a1 = a2 = a4 = a5 = 1 (Capelli: x^6 - m is irreducible iff m is neither).
    """
    def survivors(keep):
        return a1[keep], (a3[keep] if np.ndim(a3) else a3), a5[keep]

    if not len(a1):
        return a1, a3, a5
    sf = _squarefree_sieve(int(max(a1.max(), np.max(a3), a5.max())))
    a1, a3, a5 = survivors(sf[a1] & sf[a3] & sf[a5])
    a24 = a2 * a4
    a1, a3, a5 = survivors((np.gcd(a1 * a5, a3 * a24) == 1) & (np.gcd(a1, a5) == 1)
                           & (np.gcd(a3, a24) == 1))
    # m mod TYPE_MOD with every product below TYPE_MOD^4 < 2^63; a fixed a3 folds
    # into the constant
    const = spec.sign * a2 ** 2 * a4 ** 4 % TYPE_MOD * (a3 % TYPE_MOD) ** 3 % TYPE_MOD
    acase, bcase = classify_array(const * (a1 % TYPE_MOD) % TYPE_MOD
                                  * _fifth_powers()[a5 % TYPE_MOD])
    keep = (acase == spec.type.i) & (bcase == spec.type.j)
    ones = (a1 == 1) & (a5 == 1)
    if spec.sign > 0:
        keep &= ~(ones & (a3 == 1))  # a square
    if a2 == a4 == 1:
        keep &= ~ones  # a cube
    return survivors(keep)


def _select(spec: EnumSpec, a1: np.ndarray, a2: int, a3: np.ndarray, a4: int,
            a5: np.ndarray) -> list[tuple[int, ...]]:
    """The candidates (a1[k], a2, a3[k], a4, a5[k]) that meet the spec (see _meet), as tuples."""
    return _tuples(a2, a4, *_meet(spec, a1, a2, a3, a4, a5))


def _tuples(a2: int, a4: int, a1: np.ndarray, a3: np.ndarray,
            a5: np.ndarray) -> list[tuple[int, ...]]:
    return [(x1, a2, x3, a4, x5) for x1, x3, x5 in zip(a1.tolist(), a3.tolist(), a5.tolist())]


def _carefree(a2: int, a3: int, a4: int) -> bool:
    """a2, a3, a4 squarefree and pairwise coprime: the slices that can hold a carefree tuple."""
    return is_squarefree(a2 * a3 * a4)


def _cells(N: int, box: Box3, carefree: bool):
    """(a2, a4, slices) for each cell of the box that holds a tuple under N, with
    the slices (a3, M, S', S) of the module docstring; with `carefree`, only the
    cells and the a3 of carefree tuples."""
    if box.kind == "C":
        for a2, a4 in divisor_pairs(int(box.r3p), int(box.r3), carefree):
            r = Fr(a2, a4)
            slices = [s for s in slices_M3(N // (a2 ** 4 * a4 ** 4), box.r1p * r, box.r1 * r,
                                           box.r2p / r, box.r2 / r)
                      if not carefree or _carefree(a2, s[0], a4)]
            if slices:
                yield a2, a4, slices
        return
    Sp, S = box.r1p ** 2, box.r1 ** 2
    for a2, a4 in divisor_pairs(int(box.r2p), int(box.r2), carefree):
        for a3 in range(int(box.r3p), int(box.r3) + 1):
            M = iroot(N // (a2 ** 4 * a3 ** 3 * a4 ** 4), 5)
            if M and (not carefree or _carefree(a2, a3, a4)):
                yield a2, a4, [(a3, M, Sp, S)]


_NO_CANDIDATES = (np.zeros(0, dtype=np.int64),) * 3


def _shard(args) -> tuple[list[list[tuple[int, int, int]]], tuple[np.ndarray, ...]]:
    """One cell, walked once: the windows (x1, lo, hi) of each of its slices, and
    (a1, a3, a5) of the candidates in its carefree slices that meet the spec."""
    spec, a2, a4, slices = args
    walked = [list(windows_M2(M, Sp, S)) for _, M, Sp, S in slices]
    care = [(s[0], ws) for s, ws in zip(slices, walked) if ws and _carefree(a2, s[0], a4)]
    if not care:
        return walked, _NO_CANDIDATES
    windows = [(a3, *w) for a3, ws in care for w in ws]
    _check_shard(spec.N, a2, a4, windows)
    a3, a1, a5 = _expand(windows)
    a1, a3, a5 = _meet(spec, a1, a2, care[0][0] if len(care) == 1 else a3, a4, a5)
    a3 = np.broadcast_to(a3, a1.shape)
    if a2 > a4:
        # ratio-1 leaf: keep a4 >= a2 (in C, a1 = a5 gives lambda1^3 = a4/a2 >= R1' >= 1)
        keep = a1 != a5
        a1, a3, a5 = a1[keep], a3[keep], a5[keep]
    return walked, (a1, a3, a5)


def _map_shards(spec: EnumSpec, cells: list, workers: int) -> list:
    """_shard of every cell, in `workers` processes if more than one."""
    shards = [(spec, *cell) for cell in cells]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_shard, shards))
    return list(map(_shard, shards))


def _check_family(name: str, box: Box3, kind: str) -> None:
    if box.kind != kind:
        raise ValueError(f"{name}_{kind} needs a {kind}-family box")


def _enumerate(spec: EnumSpec, kind: str, workers: int) -> list[tuple[int, ...]]:
    """The sorted tuples of the carefree cells' shards."""
    _check_family("enumerate", spec.box, kind)
    cells = list(_cells(spec.N, spec.box, carefree=True))
    tuples = []
    for (a2, a4, _), (_, kept) in zip(cells, _map_shards(spec, cells, workers)):
        tuples += _tuples(a2, a4, *kept)
    return sorted(tuples)


def enumerate_C(spec: EnumSpec, workers: int = 1) -> list[tuple[int, ...]]:
    """All tuples of the fixed sign and Type in the lambda-window region.

    The returned tuples are canonically oriented automatically: the box
    requires lambda1^3 >= R1' >= 1 and the boundary lambda1 = 1 is
    unattainable for valid tuples.
    """
    return _enumerate(spec, "C", workers)


def enumerate_T(spec: EnumSpec, workers: int = 1) -> list[tuple[int, ...]]:
    """Tuples with (a5/a1, a2*a4, a3) in the box, deduplicated on the ratio-1 leaf."""
    return _enumerate(spec, "T", workers)


def _raw_count(N: int, box: Box3, kind: str) -> int:
    _check_family("raw_count", box, kind)
    return sum(count_slices(slices) for *_, slices in _cells(N, box, carefree=False))


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


def _ladder_counts(family: str, spec: EnumSpec, ladder: list[int],
                   workers: int) -> list[tuple[int, int]]:
    """(raw, carefree) count of every rung N of the ladder, from one walk of the top rung spec.N.

    A slice's ratio windows do not depend on N, so its windows at N are those of
    the top rung cut at x5 <= M_N // x1, with M_N = floor((N / K)^(1/5)) and
    K = (a2 a4)^4 a3^3, and a kept candidate is under N iff a1 a5 <= M_N.
    """
    _check_family("compare", spec.box, family)
    cells = list(_cells(spec.N, spec.box, carefree=False))
    K, walked, a1a5, kept_slice = [], [], [_NO_CANDIDATES[0]], [_NO_CANDIDATES[0]]
    for (a2, a4, slices), (windows, (a1, a3, a5)) in zip(cells, _map_shards(spec, cells, workers)):
        a1a5.append(a1 * a5)
        kept_slice.append(len(K) + np.searchsorted([s[0] for s in slices], a3))
        K += [(a2 * a4) ** 4 * s[0] ** 3 for s in slices]
        walked += windows
    n = sum(map(len, walked))
    # no count, window end or M_N exceeds the largest M of the top rung
    top = max((s[1] for *_, slices in cells for s in slices), default=0)
    dtype = np.int64 if (top + 1) * (n + 1) < 2 ** 63 else object
    x1, lo, hi = np.fromiter(chain.from_iterable(chain.from_iterable(walked)), dtype,
                             3 * n).reshape(n, 3).T
    window_slice = np.repeat(np.arange(len(K)), [len(w) for w in walked])
    a1a5, kept_slice = np.concatenate(a1a5), np.concatenate(kept_slice)
    counts = []
    for N in ladder:
        M = np.array([iroot(N // k, 5) for k in K], dtype=dtype)
        raw = np.maximum(np.minimum(hi, M[window_slice] // x1) - lo + 1, 0).sum()
        counts.append((int(raw), int(np.count_nonzero(a1a5 <= M[kept_slice]))))
    return counts


def compare(family: str, t: SexticType, sign: int, box: Box3, ladder: list[int],
            workers: int = 1, prime_bound: int = 10 ** 6) -> dict:
    """Empirical counts over the ladder vs every prediction variant.

    Both counts of every rung come from one walk of the box at the largest N of
    the ladder (see _ladder_counts): the raw count is the lattice points under N,
    raw_count_X(N), and the carefree count the tuples with
    a1^5 a2^4 a3^3 a4^4 a5^5 <= N, len(enumerate_X) at N, since every other
    condition of a cell is the same at every N.  For the T family the report
    carries both the linear-in-N reading of Prop T-main and the N^(1/5)
    reading, and flags which one the data supports.
    """
    kind = "mu" if family == "C" else "nu"
    preds = densities.integrate_measure(kind, t, sign, box, prime_bound)
    counts = _ladder_counts(family, EnumSpec(max(ladder), sign, t, box), ladder,
                            workers) if ladder else []
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
