"""Enumeration of carefree tuples by discriminant bound, and the comparison harness.

Both families walk geometry's window kernels.  A C cell (a2, a4) is the 3d
region of (a1, a3, a5) with (a5/a1)^2 in R1 a2/a4, a5/(a1 a3^3) in R2 a4/a2 and
a1^5 a3^3 a5^5 <= N/(a2^4 a4^4); a T cell (a2, a3, a4) is the 2d region of
(a1, a5) with a5/a1 in R1 and a1 a5 <= (N/(a2^4 a3^3 a4^4))^(1/5).  The raw
counts sum the window lengths of every cell.  The enumeration runs one shard
per carefree cell: it expands the windows into int64 candidate arrays and
filters them with vector masks (a squarefree sieve sized to the shard's largest
coordinate, np.gcd for pairwise coprimality, and the Type table on m mod 46656
built from per-coordinate residues); only the survivors get the exact
irreducibility check.  compare() assembles counts over an N-ladder, fits the
growth exponent, and reports the empirical constant against every prediction
variant.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import densities
from .densities import divisor_pairs
from .field import iroot, is_irreducible_sextic, is_squarefree
from .geometry import Box3, count_lattice_M2, windows_M2, windows_M3
from .types import SexticType, classify_array, lookup_tables

Fr = Fraction


@dataclass(frozen=True)
class EnumSpec:
    N: int
    sign: int
    type: SexticType
    box: Box3


# The largest coordinate a shard may hold.  It sizes the squarefree sieve, keeps
# products of two coordinates far inside int64, and caps a T shard at about
# _COORD_LIMIT / 2 candidates (N up to ~1e30 on the unit cell).
_COORD_LIMIT = 10 ** 6


def _check_coordinates(N: int, top: int) -> None:
    if top > _COORD_LIMIT:
        raise ValueError(f"N={N} needs tuple coordinates up to {top}, "
                         f"above the enumeration limit {_COORD_LIMIT}")


def _expand(windows: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) with a row w[k] and v[k] for every window (*w, lo, hi) and every v in
    [lo, hi], in order of window then v."""
    w = np.fromiter(chain.from_iterable(windows), dtype=np.int64).reshape(len(windows), -1)
    n = w[:, -1] - w[:, -2] + 1
    k = np.repeat(np.arange(len(w)), n)
    return w[k, :-2], w[k, -2] + np.arange(len(k)) - (np.cumsum(n) - n)[k]


def _squarefree_sieve(top: int) -> np.ndarray:
    """sf[n] is True iff n is squarefree, for 0 <= n <= top."""
    sf = np.ones(top + 1, dtype=bool)
    sf[0] = False
    for p in range(2, math.isqrt(top) + 1):
        sf[p * p::p * p] = False
    return sf


_TYPE_MOD = 46656  # the Type is a function of m mod 2^6 3^6


def _type_residues(const: int, a1: np.ndarray, a3: np.ndarray, a5: np.ndarray) -> np.ndarray:
    """const * a1 * a3^3 * a5^5 mod 46656, reduced after every product (no int64 overflow)."""
    r = np.full(len(a1), const % _TYPE_MOD, dtype=np.int64)
    for a, e in ((a1, 1), (a3, 3), (a5, 5)):
        x = a % _TYPE_MOD
        for _ in range(e):
            r = r * x % _TYPE_MOD
    return r


def _select(spec: EnumSpec, a1: np.ndarray, a2: int, a3: np.ndarray, a4: int,
            a5: np.ndarray) -> list[tuple[int, ...]]:
    """The candidates (a1[k], a2, a3[k], a4, a5[k]) that meet the spec, as tuples.

    a1, a3, a5 squarefree, all five pairwise coprime (a2, a4 are coprime
    squarefree already), m of the spec's Type, and x^6 - m irreducible.  The
    vector masks run first; the exact irreducibility check sees only their
    survivors.
    """
    sign = spec.sign
    if len(a1):
        sf = _squarefree_sieve(int(max(a1.max(), a3.max(), a5.max())))
        keep = sf[a1] & sf[a3] & sf[a5]
        a234 = a3 * (a2 * a4)
        keep &= (np.gcd(a1, a234) == 1) & (np.gcd(a5, a234) == 1)
        keep &= (np.gcd(a3, a2 * a4) == 1) & (np.gcd(a1, a5) == 1)
        acase, bcase = classify_array(_type_residues(sign * a2 ** 2 * a4 ** 4, a1, a3, a5))
        keep &= (acase == spec.type.i) & (bcase == spec.type.j)
        a1, a3, a5 = a1[keep], a3[keep], a5[keep]
    c = sign * a2 ** 2 * a4 ** 4
    return [(x1, a2, x3, a4, x5) for x1, x3, x5 in zip(a1.tolist(), a3.tolist(), a5.tolist())
            if is_irreducible_sextic(c * x1 * x3 ** 3 * x5 ** 5)]


def _run_shards(shard_fn, shards: list, workers: int) -> list[tuple[int, ...]]:
    """The sorted union of shard_fn over the shards, in `workers` processes if more than one."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(shard_fn, shards))
    else:
        parts = map(shard_fn, shards)
    return sorted(x for part in parts for x in part)


def _c_cell(N: int, box: Box3, a2: int, a4: int) -> tuple:
    """windows_M3's (n, S', S, L2', L2) for the C cell (a2, a4): lambda1^3 =
    a4 a5^2 / (a1^2 a2) and lambda2^3 = a2 a5 / (a1 a3^3 a4) move R1 by a2/a4 and
    R2 by a4/a2, and a2^4 a4^4 leaves the bound."""
    r = Fr(a2, a4)
    return N // (a2 ** 4 * a4 ** 4), box.r1p * r, box.r1 * r, box.r2p / r, box.r2 / r


def _enum_c_shard(args) -> list[tuple[int, ...]]:
    spec, a2, a4 = args
    windows = list(windows_M3(*_c_cell(spec.N, spec.box, a2, a4)))
    if not windows:
        return []
    _check_coordinates(spec.N, max(a2 * a4, *map(max, windows)))
    a15, a3 = _expand(windows)
    return _select(spec, a15[:, 0], a2, a3, a4, a15[:, 1])


def enumerate_C(spec: EnumSpec, workers: int = 1) -> list[tuple[int, ...]]:
    """All tuples of the fixed sign and Type in the lambda-window region.

    The returned tuples are canonically oriented automatically: the box
    requires lambda1^3 >= R1' >= 1 and the boundary lambda1 = 1 is
    unattainable for valid tuples.
    """
    if spec.box.kind != "C":
        raise ValueError("enumerate_C needs a C-family box")
    shards = [(spec, a2, a4) for a2, a4 in divisor_pairs(int(spec.box.r3p), int(spec.box.r3))]
    return _run_shards(_enum_c_shard, shards, workers)


def raw_count_C(N: int, box: Box3) -> int:
    """#C(N, box) with no local conditions: the lattice points of every C cell."""
    return sum(hi3 - lo3 + 1
               for a2, a4 in divisor_pairs(int(box.r3p), int(box.r3), squarefree=False)
               for _, _, lo3, hi3 in windows_M3(*_c_cell(N, box, a2, a4)))


def _t_cells(N: int, box: Box3, carefree: bool):
    """(a2, a3, a4, bound on a1 a5) for each T cell of the box that holds a tuple
    under N; with `carefree`, the cells of carefree tuples only."""
    for a2, a4 in divisor_pairs(int(box.r2p), int(box.r2), carefree):
        for a3 in range(int(box.r3p), int(box.r3) + 1):
            mcap = iroot(N // (a2 ** 4 * a3 ** 3 * a4 ** 4), 5)
            if mcap and (not carefree or (is_squarefree(a3) and math.gcd(a3, a2 * a4) == 1)):
                yield a2, a3, a4, mcap


def _enum_t_shard(args) -> list[tuple[int, ...]]:
    spec, a2, a3, a4, mcap = args
    _check_coordinates(spec.N, max(mcap, a2 * a3 * a4))
    windows = list(windows_M2(mcap, spec.box.r1p, spec.box.r1))
    if not windows:
        return []
    w, a5 = _expand(windows)
    a1 = w[:, 0]
    if a2 > a4:
        keep = a1 != a5  # ratio-1 leaf: keep the canonical orientation (a4 >= a2)
        a1, a5 = a1[keep], a5[keep]
    return _select(spec, a1, a2, np.full(len(a1), a3, dtype=np.int64), a4, a5)


def enumerate_T(spec: EnumSpec, workers: int = 1) -> list[tuple[int, ...]]:
    """Tuples with (a5/a1, a2*a4, a3) in the box, deduplicated on the ratio-1 leaf."""
    if spec.box.kind != "T":
        raise ValueError("enumerate_T needs a T-family box")
    shards = [(spec, *cell) for cell in _t_cells(spec.N, spec.box, carefree=True)]
    return _run_shards(_enum_t_shard, shards, workers)


def raw_count_T(N: int, box: Box3) -> int:
    """#T(N, box) with no local conditions: the lattice points of every T cell."""
    return sum(count_lattice_M2(mcap, box.r1p, box.r1)
               for *_, mcap in _t_cells(N, box, carefree=False))


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
        spec = EnumSpec(N, sign, t, box)
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
