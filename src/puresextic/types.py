"""Classification of sixth-power-free radicands into the 20 congruence Types.

The A-case is a condition on m mod 64, the B-case on m mod 243 (one B1
sub-condition is usually stated mod 729, but on sixth-power-free
integers it collapses to "m = 0 mod 243", so the pair (m mod 64, m mod 243)
decides).  So the Type of a sixth-power-free m is that of m mod TYPE_MOD =
15552 = 2^6 * 3^5, and one table over Z/TYPE_MOD serves every array consumer:
the vectorized classifier, the corpus scan and the residue counts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import factorize, is_irreducible_sextic, is_prime, sextic_field


class UnclassifiableInput(ValueError):
    """No row matches; m is not sixth-power-free (64 | m or 729 | m)."""


@dataclass(frozen=True, order=True)
class SexticType:
    i: int  # A-case, 1..5
    j: int  # B-case, 1..4

    def __post_init__(self):
        if not (1 <= self.i <= 5 and 1 <= self.j <= 4):
            raise ValueError(f"no such type ({self.i},{self.j})")

    def __str__(self) -> str:
        return f"A{self.i},B{self.j}"

    @staticmethod
    def parse(s: str) -> "SexticType":
        s = s.replace("(", "").replace(")", "").replace("A", "").replace("B", "")
        i, j = s.split(",")
        return SexticType(int(i), int(j))


ALL_TYPES = tuple(SexticType(i, j) for i in range(1, 6) for j in range(1, 5))


def a_case(m: int) -> int:
    """A-row from m mod 64 (None-equivalent: raises if 64 | m)."""
    r = m % 64
    if r == 0:
        raise UnclassifiableInput(f"64 | m (m={m} is not sixth-power-free)")
    if r % 2 == 1:
        return 2 if r % 4 == 1 else 1
    if r % 4 == 2:
        return 1
    r16 = r % 16
    if r16 == 4:
        return 2
    if r16 == 12:
        return 3
    if r16 == 8:
        return 1
    # here v_2(r) >= 4, r in {16, 32, 48}
    if r == 16:
        return 4
    if r == 48:
        return 5
    return 1  # r == 32


def b_case(m: int) -> int:
    """B-row from m mod 243.  m = 0 mod 243 forces v_3(m) = 5 on sixth-power-free m: B1."""
    r = m % 243
    r9 = r % 9
    if r9 != 0:
        return 2 if r9 in (1, 8) else 1
    r27 = r % 27
    if r27 in (9, 18):
        return 1
    # 27 | r
    if r in (27, 216):
        return 3
    if r in (54, 108, 135, 189):
        return 4
    if r in (81, 162):
        return 1
    return 1  # r == 0: v_3 = 5 exactly


def classify(m: int) -> SexticType:
    """The unique Type (Ai, Bj) of a sixth-power-free, non-square, non-cube m.

    Raises UnclassifiableInput when no row matches, and otherwise what
    sextic_field raises for an m that defines no pure sextic field.
    """
    if m == 0:
        raise UnclassifiableInput("m = 0")
    t = SexticType(a_case(m), b_case(m))
    sextic_field(m)
    return t


TYPE_MOD = 15552  # 2^6 * 3^5: a_case reads m mod 64, b_case m mod 243


@lru_cache(maxsize=1)
def type_table() -> tuple[np.ndarray, np.ndarray]:
    """(A-row, B-row) of every residue mod TYPE_MOD, as read-only int8 arrays.

    The A-row is a_case on the residue mod 64 (0 where 64 | r), the B-row
    b_case on the residue mod 243.
    """
    r = np.arange(TYPE_MOD)
    a = np.array([a_case(x) if x else 0 for x in range(64)], dtype=np.int8)[r % 64]
    b = np.array([b_case(x) for x in range(243)], dtype=np.int8)[r % 243]
    a.flags.writeable = b.flags.writeable = False
    return a, b


def classify_array(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A-row, B-row) arrays of sixth-power-free ms; A-row 0 where 64 | m."""
    a, b = type_table()
    idx = np.mod(ms, TYPE_MOD)
    return a[idx], b[idx]


_PARTITION_LIMIT = 10 ** 7  # integers in one scan; each takes a few int64 array slots
_PARTITION_BOUND = 2 ** 62   # |m| below it keeps every int64 product of the scan exact


def type_partition_check(lo: int, hi: int) -> dict:
    """Scan sixth-power-free non-square non-cube m in [lo, hi]; count per-Type matches.

    Every admissible m must match exactly one (Ai, Bj).  Returns a report with
    per-type counts and any violations (there should be none).  A range of more
    than _PARTITION_LIMIT integers, or one reaching |m| >= _PARTITION_BOUND (where
    (r + 1)^2 or the float roots would leave int64), raises ValueError before
    anything is allocated.
    """
    if hi - lo >= _PARTITION_LIMIT:
        raise ValueError(f"[{lo}, {hi}] holds {hi - lo + 1} integers, "
                         f"above the partition limit {_PARTITION_LIMIT}")
    if max(abs(lo), abs(hi)) >= _PARTITION_BOUND:
        raise ValueError(f"[{lo}, {hi}] reaches |m| >= 2^62, the partition bound")
    ms = np.arange(lo, hi + 1, dtype=np.int64)
    ms = ms[ms != 0]
    # sixth-power-free: exclude p^6 | m for every prime p up to max|m|^(1/6)
    keep = np.ones(ms.shape, dtype=bool)
    top = max(abs(lo), abs(hi))
    p = 2
    while p ** 6 <= top:
        keep &= (ms % p ** 6) != 0
        p = _next_prime(p)
    ms = ms[keep]
    # exclude perfect squares and cubes
    sq = np.zeros(ms.shape, dtype=bool)
    pos = ms > 0
    r = np.floor(np.sqrt(ms[pos].astype(np.float64))).astype(np.int64)
    for d in (-1, 0, 1):
        sq[pos] |= (r + d) ** 2 == ms[pos]
    cb = np.zeros(ms.shape, dtype=bool)
    rc = np.cbrt(np.abs(ms).astype(np.float64))
    rc = np.floor(rc).astype(np.int64)
    for d in (-1, 0, 1):
        cb |= np.sign(ms) * (rc + d) ** 3 == ms
    ms = ms[~sq & ~cb]
    acase, bcase = classify_array(ms)
    violations = ms[acase == 0]  # no A-row: 64 | m
    counts: dict[str, int] = {}
    for t in ALL_TYPES:
        counts[str(t)] = int(np.count_nonzero((acase == t.i) & (bcase == t.j)))
    return {
        "range": [lo, hi],
        "scanned": int(ms.size),
        "violations": [int(v) for v in violations[:20]],
        "violation_count": int(violations.size),
        "counts": counts,
    }


def _next_prime(p: int) -> int:
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


# The most fields one corpus may hold: `verify` takes about 25 s on 1000 per Type for
# all 20 Types on a 2-CPU host (about 1.3 ms a field).
_CORPUS_LIMIT = 1000


def smallest_m_of_type(t: SexticType, count: int = 25, start: int = 2) -> list[int]:
    """The `count` smallest sixth-power-free non-square non-cube m >= start of Type t.

    Deterministic test corpus.  The Type of m is that of m mod TYPE_MOD, so the
    scan walks m = base + r over the residues r of Type t in the Type table
    (blocks of TYPE_MOD from the one holding `start`) and tests only those m for
    irreducibility and sixth-power-freeness.  More than _CORPUS_LIMIT fields raise
    ValueError before the scan.
    """
    if count > _CORPUS_LIMIT:
        raise ValueError(f"{count} fields of one Type are above the corpus limit {_CORPUS_LIMIT}")
    a, b = type_table()
    res = np.flatnonzero((a == t.i) & (b == t.j)).tolist()
    out = []
    base = start - start % TYPE_MOD
    first = bisect_left(res, start - base)
    while len(out) < count:
        for r in res[first:]:
            m = base + r
            if is_irreducible_sextic(m) and all(e < 6 for e in factorize(m).values()):
                out.append(m)
                if len(out) == count:
                    break
        base, first = base + TYPE_MOD, 0
    return out
