"""Classification of sixth-power-free radicands into the 20 congruence Types.

The A-case is a condition on m mod 64, the B-case on m mod 243 (one B1
sub-condition is usually stated mod 729, but on sixth-power-free
integers it collapses to "m = 0 mod 243", so the pair (m mod 64, m mod 243)
decides).  So the Type of a sixth-power-free m is that of m mod TYPE_MOD =
15552 = 2^6 * 3^5, and one table over Z/TYPE_MOD serves every array consumer:
the vectorized classifier, the corpus scan, the residue counts and the
partition check, which finds its fields with field.power_free and checks the
table against the scalar rules on every residue class they occupy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import ceil_root, factorize, iroot, is_irreducible_sextic, power_free, sextic_field


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


_PARTITION_LIMIT = 10 ** 7  # integers in one scan: a bool each, two int64 slots per field
# |m| below it keeps the sieve at 1289 strikes or fewer (one per j with j^6 <= |m|);
# the strikes grow as |m|^(1/6), to 10^10 of them at |m| = 10^60
_PARTITION_BOUND = 2 ** 62


def type_partition_check(lo: int, hi: int) -> dict:
    """Scan the sixth-power-free non-square non-cube m in [lo, hi]; count them per Type.

    The fields are power_free(lo, hi, 6) with the squares j^2 and cubes +-j^3 in
    [lo, hi] struck by index; each has the table's Type at its residue mod
    TYPE_MOD, and m itself never enters an array.  The check that can fail: on
    every residue class r the fields occupy, the table's (A, B) must be
    (a_case(r), b_case(r)), the rules build_basis reads through classify (a
    class with 64 | r has no A-row and fails).  `violations` lists the first 20
    fields of failing classes, `violation_count` counts them all.  A range of
    more than _PARTITION_LIMIT integers, or one reaching |m| >= _PARTITION_BOUND,
    raises ValueError before anything is allocated.
    """
    if hi - lo >= _PARTITION_LIMIT:
        raise ValueError(f"[{lo}, {hi}] holds {hi - lo + 1} integers, "
                         f"above the partition limit {_PARTITION_LIMIT}")
    if max(abs(lo), abs(hi)) >= _PARTITION_BOUND:
        raise ValueError(f"[{lo}, {hi}] reaches |m| >= 2^62, the partition bound")
    keep = power_free(lo, hi, 6)
    for sign, k in ((1, 2), (1, 3), (-1, 3)):  # m = sign * j^k, j^k in [bottom, top]
        bottom, top = (lo, hi) if sign > 0 else (-hi, -lo)
        if top >= 0:
            js = range(ceil_root(bottom, k), iroot(top, k) + 1)
            keep[[sign * j ** k - lo for j in js]] = False
    offsets = np.flatnonzero(keep)
    res = offsets + lo % TYPE_MOD
    res %= TYPE_MOD
    per_class = np.bincount(res, minlength=TYPE_MOD)
    a, b = type_table()
    bad = np.zeros(TYPE_MOD, dtype=bool)
    for r in np.flatnonzero(per_class).tolist():
        bad[r] = r % 64 == 0 or (a[r], b[r]) != (a_case(r), b_case(r))
    hits = offsets[bad[res]]
    return {
        "range": [lo, hi],
        "scanned": int(offsets.size),
        "violations": [lo + int(i) for i in hits[:20]],
        "violation_count": int(hits.size),
        "counts": {str(t): int(per_class[(a == t.i) & (b == t.j)].sum()) for t in ALL_TYPES},
    }


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
