import math

import numpy as np
import pytest

from puresextic import types
from puresextic.field import factorize, is_irreducible_sextic, is_prime
from puresextic.types import (ALL_TYPES, TYPE_MOD, SexticType, UnclassifiableInput, a_case,
                              b_case, classify, classify_array, smallest_m_of_type,
                              type_partition_check, type_table)


def test_classify_examples():
    assert classify(112) == SexticType(5, 1)
    assert classify(17) == SexticType(2, 2)
    assert classify(2) == SexticType(1, 1)
    assert classify(45) == SexticType(2, 1)
    assert classify(270) == SexticType(1, 3)
    assert classify(54) == SexticType(1, 4)  # 54 mod 243 = 54


def test_classify_raises_on_64():
    with pytest.raises(UnclassifiableInput):
        classify(64 * 5)


def test_classify_literal_table1_rows():
    """Each Table-1 congruence list maps to its row, on sixth-power-free integers."""
    # A rows
    for m, i in [(6, 1), (3, 1), (8, 1), (32 + 64, 1), (5, 2), (4 + 16, 2),
                 (12, 3), (16 + 64, 4), (48, 5)]:
        assert a_case(m) == i, m
    # B rows: pick sixth-power-free representatives
    for m, j in [(2, 1), (9 + 27, 1), (81, 1), (243, 1), (10, 2), (17, 2),
                 (27 * 10, 3), (216 + 243, 3), (54, 4), (135, 4)]:
        assert b_case(m) == j, m


def test_partition_small_range():
    rep = type_partition_check(-1000, 1000)
    assert rep["violation_count"] == 0


def test_partition_of_a_range_without_nonzero_m_scans_nothing():
    for lo, hi in ((0, 0), (5, 1)):
        rep = type_partition_check(lo, hi)
        assert rep["scanned"] == 0 and rep["violation_count"] == 0
        assert set(rep["counts"].values()) == {0}


def test_partition_flags_a_table_row_that_disagrees_with_the_scalar_rules(monkeypatch):
    """A Type table whose B-row is wrong on one occupied residue (that of the field
    m = 5) is a violation: the check compares the table with a_case and b_case."""
    a, b = types.type_table()
    b = b.copy()
    b[5] = b[5] % 4 + 1
    monkeypatch.setattr(types, "type_table", lambda: (a, b))
    rep = type_partition_check(-1000, 1000)
    assert rep["violation_count"] == 1 and rep["violations"] == [5]


def test_partition_above_the_range_limit_raises_before_allocating(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("allocated")
    for name in ("arange", "ones"):
        monkeypatch.setattr(np, name, forbidden)
    with pytest.raises(ValueError, match="partition limit"):
        type_partition_check(-10 ** 9, 10 ** 9)


def test_partition_just_below_the_int64_bound_matches_integer_arithmetic():
    """Near 2^62 the sieve and the struck squares and cubes agree with the definition,
    also on windows that end exactly on a square j^2, a cube -j^3 or a multiple of k^6."""
    primes = [p for p in range(2, 1300) if is_prime(p)]  # 1300^6 > 2^62
    square, cube = (2 ** 31 - 1) ** 2, 1664510 ** 3  # the largest below 2^62
    sixth = 5 * 811 ** 6
    for lo, hi in ((square - 50, square + 50), (square, square + 50), (square - 50, square),
                   (-cube - 50, -cube + 50), (-cube, -cube + 50), (-cube - 50, -cube),
                   (sixth, sixth + 50), (-sixth - 50, -sixth), (2 ** 62 - 101, 2 ** 62 - 1)):
        expected = sum(1 for m in range(lo, hi + 1)
                       if not any(m % p ** 6 == 0 for p in primes)
                       and not (m > 0 and math.isqrt(m) ** 2 == m)
                       and round(abs(m) ** (1 / 3)) ** 3 != abs(m))
        assert type_partition_check(lo, hi)["scanned"] == expected
    with pytest.raises(ValueError, match="2\\^62"):
        type_partition_check(-2 ** 62, -2 ** 62 + 5)


def test_classify_mod_15552_constancy():
    """On sixth-power-free m the class depends only on m mod 15552."""
    rng = np.random.default_rng(1)
    for m in rng.integers(2, 10 ** 7, size=300):
        m = int(m)
        if any(e >= 6 for e in factorize(m).values()):
            continue
        shifted = m + 15552 * 729  # same class mod 15552
        if any(e >= 6 for e in factorize(shifted).values()):
            continue
        assert classify(m) == classify(shifted)


def test_type_table_matches_the_scalar_rules_on_every_sixth_power_free_residue():
    """On every residue r mod 2^6 3^6 that a sixth-power-free m can have (729 does
    not divide r; where 64 | r the table's A-row is 0), the table at r mod TYPE_MOD
    gives a_case(r) and b_case(r): the Type is constant on classes mod TYPE_MOD."""
    a, b = type_table()
    assert a.shape == b.shape == (TYPE_MOD,)
    assert not (a.flags.writeable or b.flags.writeable)
    for r in range(46656):
        if r % 729:
            assert a[r % TYPE_MOD] == (a_case(r) if r % 64 else 0), r
            assert b[r % TYPE_MOD] == b_case(r), r


def test_classify_array_agrees_with_scalar():
    ms = np.array([2, 17, 45, 112, 270, 54, -2, -17, -112], dtype=np.int64)
    ai, bj = classify_array(ms)
    for k, m in enumerate(ms):
        t = classify(int(m))
        assert (ai[k], bj[k]) == (t.i, t.j)


def smallest_m_by_scalar_scan(t, count, start):
    """Reference corpus: test every m >= start with the scalar a_case/b_case."""
    out = []
    m = start
    while len(out) < count:
        if m % 64 != 0 and a_case(m) == t.i and b_case(m) == t.j:
            if is_irreducible_sextic(m) and all(e < 6 for e in factorize(m).values()):
                out.append(m)
        m += 1
    return out


@pytest.mark.parametrize("start", [2, 63, 64, 46655, 46657, 77777, 99999])
def test_residue_class_corpus_matches_the_scalar_scan(start):
    for t in ALL_TYPES:
        assert smallest_m_of_type(t, 25, start) == smallest_m_by_scalar_scan(t, 25, start), t


def test_smallest_m_corpus():
    ms = smallest_m_of_type(SexticType(1, 1), 5)
    assert ms == [2, 3, 6, 7, 11]
    for m in smallest_m_of_type(SexticType(4, 3), 3):
        assert classify(m) == SexticType(4, 3)
        assert is_irreducible_sextic(m)


def test_negative_m_classification():
    # -2 mod 4 = 2 -> A1; -17 mod 4 = 3 -> A1; -112 mod 64 = 16 -> A4
    assert classify(-2).i == 1
    assert classify(-17).i == 1
    assert classify(-112).i == 4


def test_classify_rejects_m_that_defines_no_pure_sextic_field():
    from puresextic.field import InvalidField, NotPowerFree
    with pytest.raises(NotPowerFree):
        classify(31250)  # 2 * 5^6
    for m in (4, 8):  # a square and a cube: x^6 - m is reducible
        with pytest.raises(InvalidField):
            classify(m)
    with pytest.raises(UnclassifiableInput):  # the residue check comes first
        classify(320)
