import json
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from puresextic.field import decompose, dual, iroot, is_irreducible_sextic, is_squarefree
from puresextic.geometry import Box3, box_cells
from puresextic.harness import (EnumSpec, _meet, compare, enumerate_C, enumerate_T,
                                naive_scan, raw_count_C, raw_count_T, report_to_json)
from puresextic.types import ALL_TYPES, SexticType, classify

T11 = SexticType(1, 1)
T22 = SexticType(2, 2)
BOX_C = Box3(1, 8, Fr(1, 8), 8, 1, 6, kind="C")
BOX_T = Box3(1, 4, 1, 6, 1, 3, kind="T")


@pytest.mark.parametrize("N", [10 ** 4, 10 ** 5, 10 ** 6])
def test_enumerate_c_equals_naive(N):
    spec = EnumSpec(N, 1, T11, BOX_C)
    assert enumerate_C(spec) == naive_scan(spec)


def test_enumerate_c_negative_sign_and_other_type():
    spec = EnumSpec(10 ** 5, -1, T11, BOX_C)
    assert enumerate_C(spec) == naive_scan(spec)
    spec = EnumSpec(10 ** 5, 1, T22, BOX_C)
    assert enumerate_C(spec) == naive_scan(spec)


@pytest.mark.parametrize("N", [10 ** 4, 10 ** 6])
def test_enumerate_t_equals_naive(N):
    spec = EnumSpec(N, 1, T11, BOX_T)
    assert enumerate_T(spec) == naive_scan(spec)


def test_tiny_n_empty():
    assert enumerate_C(EnumSpec(1, 1, T11, BOX_C)) == []


def tuples_under(N, a2a4_max):
    """Every (a1, ..., a5) of positive integers with a2*a4 <= a2a4_max and
    a1^5 a2^4 a3^3 a4^4 a5^5 <= N."""
    def upto(base, e):  # the k >= 1 with base * k^e <= N
        k = 1
        while base * k ** e <= N:
            yield k
            k += 1
    for a2 in range(1, a2a4_max + 1):
        for a4 in range(1, a2a4_max // a2 + 1):
            for a1 in upto(a2 ** 4 * a4 ** 4, 5):
                for a5 in upto(a1 ** 5 * a2 ** 4 * a4 ** 4, 5):
                    for a3 in upto(a1 ** 5 * a2 ** 4 * a4 ** 4 * a5 ** 5, 3):
                        yield a1, a2, a3, a4, a5


def raw_count_by_scan(N, box):
    """The tuples under N whose box coordinates lie in the box: (lambda1^3, lambda2^3,
    a2*a4) for C, (a5/a1, a2*a4, a3) for T."""
    def in_box(a1, a2, a3, a4, a5):
        if box.kind == "C":
            coords = (Fr(a4 * a5 ** 2, a1 ** 2 * a2), Fr(a2 * a5, a1 * a3 ** 3 * a4), a2 * a4)
        else:
            coords = (Fr(a5, a1), a2 * a4, a3)
        return all(lo <= x <= hi for x, lo, hi in
                   zip(coords, (box.r1p, box.r2p, box.r3p), (box.r1, box.r2, box.r3)))
    return sum(in_box(*a) for a in tuples_under(N, int(box.r3 if box.kind == "C" else box.r2)))


def test_raw_counts_match_kernels():
    for N in (10 ** 4, 10 ** 5):
        assert raw_count_C(N, BOX_C) == raw_count_by_scan(N, BOX_C)
        assert raw_count_T(N, BOX_T) == raw_count_by_scan(N, BOX_T)


@pytest.mark.parametrize("kind, other", [("C", BOX_T), ("T", BOX_C)])
def test_a_box_of_the_other_family_raises(kind, other):
    raw, enum = (raw_count_C, enumerate_C) if kind == "C" else (raw_count_T, enumerate_T)
    with pytest.raises(ValueError, match=f"raw_count_{kind} needs a {kind}-family box"):
        raw(10 ** 6, other)
    with pytest.raises(ValueError, match=f"enumerate_{kind} needs a {kind}-family box"):
        enum(EnumSpec(10 ** 6, 1, T11, other))


def test_no_tuple_with_its_dual():
    for fam, box in (("C", BOX_C), ("T", BOX_T)):
        spec = EnumSpec(10 ** 6, 1, T11, box)
        tuples = enumerate_C(spec) if fam == "C" else enumerate_T(spec)
        seen = set(tuples)
        for a in tuples:
            d = tuple(reversed(a))
            assert d == a or d not in seen, (fam, a)


def test_canonical_on_c_family():
    from puresextic.field import CarefreeTuple, is_canonical
    for a in enumerate_C(EnumSpec(10 ** 6, 1, T11, BOX_C)):
        assert is_canonical(CarefreeTuple(1, a))


def test_counts_monotone_in_n_and_box():
    counts = [len(enumerate_C(EnumSpec(N, 1, T11, BOX_C))) for N in (10 ** 4, 10 ** 5, 10 ** 6)]
    assert counts == sorted(counts)
    small_box = Box3(1, 4, Fr(1, 8), 8, 1, 6, kind="C")
    assert len(enumerate_C(EnumSpec(10 ** 6, 1, T11, small_box))) <= counts[-1]


def test_box_additivity():
    left = Box3(1, 3, Fr(1, 8), 8, 1, 6, kind="C")
    right = Box3(3, 8, Fr(1, 8), 8, 1, 6, kind="C")
    full = enumerate_C(EnumSpec(10 ** 6, 1, T11, BOX_C))
    a = enumerate_C(EnumSpec(10 ** 6, 1, T11, left))
    b = enumerate_C(EnumSpec(10 ** 6, 1, T11, right))
    boundary = [x for x in a if x in b]  # lambda1^3 = 3 exactly (measure-zero overlap)
    assert len(full) == len(a) + len(b) - len(boundary)
    assert set(full) == set(a) | set(b)


def test_report_reproducible_bytes():
    """The same bytes on a second run."""
    ladder = [10 ** 6, 10 ** 8]
    r1 = compare("C", T11, 1, BOX_C, ladder)
    r2 = compare("C", T11, 1, BOX_C, ladder)
    assert report_to_json(r1) == report_to_json(r2)


def test_report_fields():
    rep = compare("T", T11, 1, BOX_T, [10 ** 6, 10 ** 8])
    assert rep["supported_normalization"] in ("N", "N^(1/5)")
    row = rep["rows"][0]
    for key in ("N", "raw_count", "carefree_count", "ratio_fifth_root", "ratio_linear"):
        assert key in row
    parsed = json.loads(report_to_json(rep))
    assert parsed["family"] == "T"


rationals = st.builds(Fr, st.integers(1, 40), st.integers(1, 12))
at_least_one = st.builds(lambda x: 1 + x, st.builds(Fr, st.integers(0, 40), st.integers(1, 12)))
types_ = st.one_of(st.just(T11), st.builds(SexticType, st.integers(1, 5), st.integers(1, 4)))
ladder_n = st.integers(10 ** 5, 10 ** 6)


@st.composite
def c_boxes(draw):
    r1p = draw(at_least_one)
    r2p = draw(st.builds(Fr, st.integers(1, 10), st.integers(8, 80)))
    r3p = draw(st.integers(0, 3))
    return Box3(r1p, r1p + draw(rationals), r2p, r2p + draw(rationals), r3p,
                r3p + draw(st.integers(0, 10)), kind="C")


@st.composite
def t_boxes(draw):
    r1p = draw(at_least_one)
    r2p, r3p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return Box3(r1p, r1p + draw(rationals), r2p, r2p + draw(st.integers(0, 10)), r3p,
                r3p + draw(st.integers(0, 5)), kind="T")


@given(ladder_n, st.sampled_from([1, -1]), types_, c_boxes())
@settings(max_examples=15, deadline=None)
def test_enumerate_c_matches_naive_scan_on_rational_boxes(N, sign, t, box):
    spec = EnumSpec(N, sign, t, box)
    assert enumerate_C(spec) == naive_scan(spec)


@given(ladder_n, st.sampled_from([1, -1]), types_, t_boxes())
@settings(max_examples=15, deadline=None)
def test_enumerate_t_matches_naive_scan_on_rational_boxes(N, sign, t, box):
    spec = EnumSpec(N, sign, t, box)
    assert enumerate_T(spec) == naive_scan(spec)


@pytest.mark.parametrize("N", [10 ** 5, 10 ** 7, 3 * 10 ** 8])
def test_raw_counts_match_on_fractional_windows(N):
    """The raw counts are the tuples a direct scan finds in boxes with fractional ends."""
    box_c = Box3(Fr(3, 2), Fr(29, 4), Fr(1, 7), Fr(9, 2), 1, 10, kind="C")
    box_t = Box3(Fr(5, 3), Fr(13, 2), 1, 10, 1, 5, kind="T")
    assert raw_count_C(N, box_c) == raw_count_by_scan(N, box_c)
    assert raw_count_T(N, box_t) == raw_count_by_scan(N, box_t)


def test_ladder_point_beyond_the_coordinate_limit_raises():
    with pytest.raises(ValueError, match="enumeration limit"):
        enumerate_T(EnumSpec(10 ** 40, 1, T11, BOX_T))  # ~6.9 * 10^7 candidates
    # lambda1^3 = a5^2 / a1^2 up to (2 * 10^6)^2: the (a1, a3) = (1, 1) window holds
    # a5 ~ 2 * 10^6, and the shard holds a few thousand candidates
    box = Box3((2 * 10 ** 6 - 10) ** 2, (2 * 10 ** 6) ** 2, Fr(1, 8), 8, 1, 1)
    with pytest.raises(ValueError, match="coordinates up to .* enumeration limit"):
        enumerate_C(EnumSpec(10 ** 40, 1, T11, box))


def test_c_beyond_the_candidate_and_walk_limits_raises_and_n_1e25_still_runs():
    with pytest.raises(ValueError, match="candidates in one shard, above the enumeration limit"):
        enumerate_C(EnumSpec(10 ** 50, 1, T11, BOX_C))
    with pytest.raises(ValueError, match="walk limit"):
        enumerate_C(EnumSpec(10 ** 80, 1, T11, BOX_C))
    # lambda2^3 down to 10^-20 lets a3 run to N^(1/3): refused on the x3 walk
    with pytest.raises(ValueError, match="walk limit"):
        enumerate_C(EnumSpec(10 ** 20, 1, T11, Box3(1, 8, Fr(1, 10 ** 20), 8, 1, 6)))
    assert len(enumerate_C(EnumSpec(10 ** 25, 1, T11, BOX_C))) == 20084


def test_raw_count_c_at_1e30_pinned():
    """A count the scan oracle cannot reach, recorded with the earlier per-(x1, x5) walk."""
    assert raw_count_C(10 ** 30, BOX_C) == 4236517


def reference_type(a, sign):
    """classify(m) of a carefree tuple whose x^6 - m is irreducible, else None: the
    per-tuple scalar filter that the enumeration's vector masks replace."""
    if not all(is_squarefree(x) for x in a):
        return None
    if any(math.gcd(a[i], a[j]) != 1 for i in range(5) for j in range(i + 1, 5)):
        return None
    m = sign * a[0] * a[1] ** 2 * a[2] ** 3 * a[3] ** 4 * a[4] ** 5
    return classify(m) if is_irreducible_sextic(m) else None


@pytest.mark.parametrize("a2,a4,sign,t", [(1, 1, 1, T11), (2, 5, -1, SexticType(3, 2)),
                                          (3, 1, -1, SexticType(2, 1)), (1, 7, -1, SexticType(2, 4)),
                                          (1, 2, 1, SexticType(4, 3)), (5, 2, -1, SexticType(5, 4))])
def test_vector_masks_match_the_scalar_filter(a2, a4, sign, t):
    """Every (a1, a3, a5) in [1, 30]^3: squares, shared primes and every Type occur."""
    got = select(EnumSpec(1, sign, t, BOX_C), a2, a4, 30)
    want = [a for a in grid_tuples(a2, a4, 30) if reference_type(a, sign) == t]
    assert got == want and got


def grid_tuples(a2, a4, top):
    """(a1, a2, a3, a4, a5) for every (a1, a3, a5) in [1, top]^3, in order of a3, a1, a5."""
    r = range(1, top + 1)
    return [(x1, a2, x3, a4, x5) for x3 in r for x1 in r for x5 in r]


def select(spec, a2, a4, top):
    """The tuples of grid_tuples that _meet keeps, one a3 at a time."""
    import numpy as np
    grid = np.arange(1, top + 1, dtype=np.int64)
    a1, a5 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    return [(x1, a2, a3, a4, x5) for a3 in range(1, top + 1)
            for x1, x5 in zip(*(k.tolist() for k in _meet(spec, a1, a2, a3, a4, a5)))]


SMALL_CELLS = [(a2, a4) for a2 in range(1, 7) for a4 in range(1, 6 // a2 + 1)
               if is_squarefree(a2 * a4)]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("a2,a4", SMALL_CELLS)
def test_capelli_mask_matches_the_scalar_filter(a2, a4, sign):
    """Every Type on every (a1, a3, a5) in [1, 20]^3 of the cells a2*a4 <= 6: the
    squares (sign +, a1 = a3 = a5 = 1) and the cubes (a1 = a2 = a4 = a5 = 1) that
    the mask rejects occur among the carefree tuples."""
    tuples = grid_tuples(a2, a4, 20)
    verdicts = [reference_type(a, sign) for a in tuples]
    kept = 0
    for t in ALL_TYPES:
        got = select(EnumSpec(1, sign, t, BOX_C), a2, a4, 20)
        assert got == [a for a, v in zip(tuples, verdicts) if v == t], t
        kept += len(got)
    assert kept == sum(v is not None for v in verdicts) > 0


@pytest.mark.parametrize("t", [T11, SexticType(2, 1)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("family, box", [("C", BOX_C), ("T", BOX_T)])
def test_compare_counts_every_rung_as_its_own_enumeration(family, box, sign, t):
    """One enumeration at the top rung, counted by the discriminant bound, gives
    each rung of an unsorted ladder with a repeat what enumerating it alone gives;
    one rung is the bound a1^5 a2^4 a3^3 a4^4 a5^5 of a tuple, which it counts."""
    enum, raw = (enumerate_C, raw_count_C) if family == "C" else (enumerate_T, raw_count_T)
    edge = max(((a1 * a5) ** 5 * (a2 * a4) ** 4 * a3 ** 3 for a1, a2, a3, a4, a5
                in enum(EnumSpec(3 * 10 ** 7, sign, t, box))), default=3 * 10 ** 7)
    ladder = [10 ** 8, 10 ** 6, edge, 10 ** 6]
    rows = compare(family, t, sign, box, ladder)["rows"]
    assert [r["N"] for r in rows] == ladder
    for r in rows:
        assert r["carefree_count"] == len(enum(EnumSpec(r["N"], sign, t, box)))
        assert r["raw_count"] == raw(r["N"], box)
    assert rows[0]["carefree_count"] > 0


@pytest.mark.parametrize("family, box", [("C", BOX_C), ("T", BOX_T)])
def test_compare_on_an_empty_ladder(family, box):
    rep = compare(family, T11, 1, box, [])
    assert rep["rows"] == [] and math.isnan(rep["fitted_slope"])


def test_compare_walks_each_slice_of_the_top_rung_once(monkeypatch):
    """Every rung is counted from one walk of max(ladder): compare calls neither
    enumerate_T nor raw_count_T, and windows_M2 once per (a2, a4, a3) slice of
    the top rung, carefree or not."""
    from puresextic import harness
    from puresextic.field import iroot

    def refuse(*args, **kwargs):
        raise AssertionError("compare called a per-rung function")

    walked = []
    windows_M2 = harness.windows_M2

    def counting_windows_M2(M, Sp, S):
        walked.append(M)
        return windows_M2(M, Sp, S)

    monkeypatch.setattr(harness, "enumerate_T", refuse)
    monkeypatch.setattr(harness, "raw_count_T", refuse)
    monkeypatch.setattr(harness, "windows_M2", counting_windows_M2)
    ladder = [10 ** 7, 10 ** 9, 10 ** 6, 10 ** 8]
    compare("T", T11, 1, BOX_T, ladder)
    want = [iroot(10 ** 9 // ((a2 * a4) ** 4 * a3 ** 3), 5)
            for n in range(1, 7) for a2 in range(1, n + 1) if n % a2 == 0
            for a4 in [n // a2] for a3 in range(1, 4)]
    assert len(want) == 42 and min(want) > 0
    assert sorted(walked) == sorted(want)


def test_t_report_reproducible_bytes():
    """The same bytes on a second run."""
    ladder = [10 ** 6, 10 ** 9]
    r1 = compare("T", T11, 1, BOX_T, ladder)
    r2 = compare("T", T11, 1, BOX_T, ladder)
    assert report_to_json(r1) == report_to_json(r2)
    assert r1["rows"][0]["carefree_count"] > 0


@pytest.mark.parametrize("family, box", [("C", Box3(1, 8, Fr(1, 8), 8, 7, 7, kind="C")),
                                         ("T", Box3(1, 4, 2, 6, 5, 6, kind="T"))])
def test_rungs_below_every_tuple_bound_count_zero(family, box):
    """Every lattice point of these boxes has a1^5 a2^4 a3^3 a4^4 a5^5 >= 7^4 (C) or
    2^4 5^3 (T), above the rungs 1 and 10^3; the top rung holds tuples."""
    enum, raw = (enumerate_C, raw_count_C) if family == "C" else (enumerate_T, raw_count_T)
    rows = compare(family, T11, 1, box, [1, 10 ** 3, 10 ** 12])["rows"]
    assert [(r["raw_count"], r["carefree_count"]) for r in rows[:2]] == [(0, 0), (0, 0)]
    assert rows[2]["carefree_count"] == len(enum(EnumSpec(10 ** 12, 1, T11, box))) > 0
    assert rows[2]["raw_count"] == raw(10 ** 12, box)


def test_c_rungs_that_lose_top_rung_slices_count_as_their_own_walks():
    """At 10^3..10^5 the (a2, a4) of BOX_C hold fewer a3-cells than at the top rung 10^8."""
    from collections import Counter

    def slices(N):
        return Counter((a2, a4) for a2, a4, *_ in box_cells(BOX_C, N))

    ladder = [10 ** 8, 10 ** 3, 10 ** 4, 10 ** 5]
    assert all(slices(N) != slices(ladder[0]) for N in ladder[1:])
    rows = compare("C", T11, 1, BOX_C, ladder)["rows"]
    for r in rows:
        assert r["raw_count"] == raw_count_C(r["N"], BOX_C)
        assert r["carefree_count"] == len(enumerate_C(EnumSpec(r["N"], 1, T11, BOX_C))) > 0


def test_compare_counts_windows_beyond_int64():
    """No carefree cell (a2 a4 = 4), and the top rung's M = (10^100 / 4^4)^(1/5) is
    above 2^63: the raw counts stay exact."""
    box = Box3(10 ** 12, 10 ** 12 + 1, 4, 4, 1, 1, kind="T")
    ladder = [10 ** 100, 10 ** 80, 10 ** 60]
    rows = compare("T", T11, 1, box, ladder)["rows"]
    assert [r["raw_count"] for r in rows] == [raw_count_T(N, box) for N in ladder]
    assert rows[0]["raw_count"] > 0 and all(r["carefree_count"] == 0 for r in rows)


def test_compare_refuses_a_top_rung_over_the_candidate_limit():
    """The same refusal as enumerate_C at the top rung, raised before a lower rung is counted."""
    with pytest.raises(ValueError, match="candidates in one shard") as want:
        enumerate_C(EnumSpec(10 ** 50, 1, T11, BOX_C))
    with pytest.raises(ValueError, match="candidates in one shard") as got:
        compare("C", T11, 1, BOX_C, [10 ** 6, 10 ** 50])
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"N={10 ** 50} needs ")


def test_a_c_box_whose_a3_cells_fit_one_by_one_is_counted():
    """At 10^32 the a3-cells of (a2, a4) = (1, 1) of BOX_C hold more than
    _CANDIDATE_LIMIT candidates together, and each fits: every a3 is its own shard."""
    from puresextic.geometry import count_slices
    from puresextic.harness import _CANDIDATE_LIMIT
    N = 10 ** 32
    sizes = [count_slices([(a3, iroot(N // a3 ** 3, 5), Sp, S)])
             for a2, a4, a3, Sp, S in box_cells(BOX_C, N) if (a2, a4) == (1, 1)]
    assert max(sizes) <= _CANDIDATE_LIMIT < sum(sizes)
    row, = compare("C", T11, 1, BOX_C, [N])["rows"]
    assert row["carefree_count"] == len(enumerate_C(EnumSpec(N, 1, T11, BOX_C))) == 502764
    assert row["raw_count"] == raw_count_C(N, BOX_C)


def test_compare_sieves_no_primes():
    """The Euler products are literals: a compare never reaches the sieve."""
    from puresextic import densities
    before = densities.primes_up_to.cache_info()
    compare("C", T11, 1, BOX_C, [10 ** 6, 10 ** 8])
    assert densities.primes_up_to.cache_info() == before
