import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from oracles import count_lattice_M2_brute, count_lattice_M3_brute, monte_carlo_volume_M3
from puresextic.field import iroot
from puresextic.geometry import (Box3, _slices_of_M, area_A, count_lattice_M2, count_slices,
                                 error_law_M2, error_law_M3, slices_M3, volume_V, windows_M2)


def count_lattice_M3(N, L1p, L1, L2p, L2) -> int:
    """#{(x1,x3,x5) positive integers in M(N, L1', L1, L2', L2)}: the count error_law_M3 takes."""
    return count_slices(_slices_of_M(N, L1p, L1, L2p, L2))


def test_volume_examples():
    assert volume_V(1, 1, 1, 1, 2) == 0.0  # degenerate u-interval
    v = volume_V(1, 1, 2, 1, 2)
    assert abs(v - 75 / 8 * (2 ** (2 / 15) - 1) * (1 - 2 ** (-2 / 15))) < 1e-15
    assert abs(v - 0.08013) < 5e-5
    assert abs(volume_V(32, 1, 2, 1, 2) / v - 2) < 1e-12  # N^(1/5) homogeneity


def test_area_examples():
    assert area_A(100, 1, 1) == 0.0
    assert abs(area_A(100, 1, math.e ** 2) - 100) < 1e-12
    assert abs(area_A(2 * 7, 1, 3) - 2 * area_A(7, 1, 3)) < 1e-12


@pytest.mark.parametrize("N,l1p,l1,l2p,l2", [
    (10 ** 5, 1, 2, 1, 2),
    (5000, Fr(1, 2), 3, Fr(1, 4), 5),
    (300, 1, 10, Fr(1, 10), 10),
    (1, 1, 2, 1, 2),
    (0, 1, 2, 1, 2),
    (3000, 0, 3, Fr(1, 4), 5),  # L1' <= 0: no lower bound on x5/x1
])
def test_count3_vs_brute(N, l1p, l1, l2p, l2):
    assert count_lattice_M3(N, l1p, l1, l2p, l2) == count_lattice_M3_brute(N, l1p, l1, l2p, l2)


positive = st.builds(Fr, st.integers(1, 64), st.integers(1, 16))
small = st.builds(Fr, st.integers(1, 32), st.integers(4, 32))


nonsquare = st.builds(Fr, st.integers(1, 64), st.integers(1, 16)).filter(
    lambda q: not all(math.isqrt(x) ** 2 == x for x in (q.numerator, q.denominator)))


def windows3_by_scan(n, Sp, S, L2p, L2):
    """(x1, x5, x3) in the 3d kernel's region, by a scan of the cube the bound alone allows."""
    top = iroot(n, 3)
    return [(x1, x5, x3) for x1 in range(1, top + 1) for x5 in range(1, top + 1)
            for x3 in range(1, top + 1)
            if x1 ** 5 * x3 ** 3 * x5 ** 5 <= n and Sp <= Fr(x5, x1) ** 2 <= S
            and L2p <= Fr(x5, x1 * x3 ** 3) <= L2]


@given(st.integers(10 ** 3, 10 ** 5), st.tuples(nonsquare, nonsquare).map(sorted), small,
       positive)
@settings(max_examples=30, deadline=None)
def test_windows3_vs_scan_on_squared_windows(n, squared, l2p, l2w):
    """The squared lambda1 windows raw_count_C passes, none of them a rational square:
    the 2d windows of the x3-slices hold each point of the 3d region once."""
    windows = [(x3, w) for x3, M, Sp, S in slices_M3(n, *squared, l2p, l2p + l2w)
               for w in windows_M2(M, Sp, S)]
    assert all(lo5 <= hi5 for _, (_, lo5, hi5) in windows)
    points = [(x1, x5, x3) for x3, (x1, lo5, hi5) in windows for x5 in range(lo5, hi5 + 1)]
    assert sorted(points) == windows3_by_scan(n, *squared, l2p, l2p + l2w)


def test_count3_at_1e30_pinned():
    """A count the scan oracles cannot reach, recorded with the earlier per-(x1, x5) walk."""
    assert count_lattice_M3(10 ** 30, 1, 2, 1, 2) == 347438


def test_walk_limit_counts_x3_values_and_raises_before_the_first_slice():
    # L2' = 10^-20 lets x3 run to n^(1/3) ~ 4.6 * 10^6 values
    with pytest.raises(ValueError, match="walk limit"):
        slices_M3(10 ** 20, 1, 64, Fr(1, 10 ** 20), 8)
    with pytest.raises(ValueError, match="walk limit"):
        count_lattice_M3(10 ** 61, 1, 2, 1, 2)  # one slice, ~1.26 * 10^6 values of x1
    assert count_lattice_M3(10 ** 39, 1, 2, 1, 2) == 21874091


def test_count3_tiny_region_empty():
    assert count_lattice_M3(Fr(1, 2), 1, 2, 1, 2) == 0


@pytest.mark.parametrize("M,l1p,l1", [(10 ** 4, 1, 2), (500, Fr(1, 3), 7), (1, 1, 1), (0, 1, 2)])
def test_count2_vs_brute(M, l1p, l1):
    assert count_lattice_M2(M, l1p, l1) == count_lattice_M2_brute(M, l1p, l1)


def test_counts_monotone():
    prev = 0
    for N in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        c = count_lattice_M3(N, 1, 2, 1, 2)
        assert c >= prev
        prev = c
    assert count_lattice_M3(10 ** 5, 1, 3, 1, 2) >= count_lattice_M3(10 ** 5, 1, 2, 1, 2)
    assert count_lattice_M2(10 ** 4, 1, 3) >= count_lattice_M2(10 ** 4, 1, 2)


def test_monte_carlo_matches_volume():
    """Deterministic seeded MC agrees with the closed form within 3 sigma."""
    est, se = monte_carlo_volume_M3(10 ** 5, 1, 2, 1, 2, samples=10 ** 6, seed=7)
    v = volume_V(10 ** 5, 1, 2, 1, 2)
    assert abs(est - v) <= 3 * se
    est2, _ = monte_carlo_volume_M3(10 ** 5, 1, 2, 1, 2, samples=10 ** 6, seed=7)
    assert est == est2  # reproducible


def test_monte_carlo_with_no_hit_or_only_hits_keeps_an_interval():
    """One sample: seed 0 misses and seed 5 hits.  Both get the standard error of the
    Laplace estimate 1/3 (resp. 2/3), box * sqrt(2/9), not a degenerate zero."""
    miss, se_miss = monte_carlo_volume_M3(1000, 1, 2, 1, 2, samples=1, seed=0)
    hit, se_hit = monte_carlo_volume_M3(1000, 1, 2, 1, 2, samples=1, seed=5)
    assert miss == 0 < hit
    assert se_miss == se_hit == pytest.approx(hit * math.sqrt(2 / 9))


def test_monte_carlo_is_reproducible_per_seed():
    est, se = monte_carlo_volume_M3(10 ** 6, 1, 2, 1, 2, samples=1000, seed=3)
    assert monte_carlo_volume_M3(10 ** 6, 1, 2, 1, 2, samples=1000, seed=3) == (est, se)
    assert monte_carlo_volume_M3(10 ** 6, 1, 2, 1, 2, samples=1000, seed=4)[0] != est


def test_monte_carlo_without_a_hit_has_an_honest_interval():
    est, se = monte_carlo_volume_M3(1000, 1, 2, 1, 2, samples=1)
    assert est == 0.0
    assert abs(est - volume_V(1000, 1, 2, 1, 2)) <= 2 * se


def test_unbounded_ratio_windows():
    """L1' <= 0 (resp. L2' <= 0) is no lower bound: the 2d area is infinite, the 3d
    volume drops the L1' term (resp. is infinite), and Monte Carlo has no bounded box."""
    assert area_A(100, 0, 2) == area_A(100, -1, 2) == math.inf
    assert area_A(100, -2, -1) == 0.0
    assert volume_V(10 ** 5, -1, 2, 1, 2) == volume_V(10 ** 5, 0, 2, 1, 2) > 0
    assert volume_V(10 ** 5, 1, 2, -1, 2) == volume_V(10 ** 5, 1, 2, 0, 2) == math.inf
    for l1p, l2p in ((0, 1), (1, 0), (-1, 1)):
        with pytest.raises(ValueError, match="^Monte Carlo needs a bounded region"):
            monte_carlo_volume_M3(10 ** 5, l1p, 2, l2p, 2, samples=10)


@pytest.mark.parametrize("l1p, l2p", [(0, 1), (1, 0)], ids=["L1p-0", "L2p-0"])
def test_monte_carlo_on_an_unbounded_region_refuses(l1p, l2p):
    """The criterion-9 box at N = 10^6 with one ratio window opened to 0 has no
    bounded sampling box, so the oracle refuses it rather than estimate."""
    with pytest.raises(ValueError, match="^Monte Carlo needs a bounded region"):
        monte_carlo_volume_M3(10 ** 6, l1p, 2, l2p, 2, samples=1000)


def test_error_law_m2_stable():
    rows = error_law_M2([10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7], 1, 2)
    qs = [r.scaled_error for r in rows]
    assert max(qs) / min(qs) < 2
    # the 2d region is a single slice: its discrete term is the area
    assert [r.discrete_term for r in rows] == [r.volume for r in rows]


def test_error_law_m3_follows_the_discrete_term():
    """On the criterion-9 box (1, 2) x (1, 2) x3 is pinned to a few integers: the
    count is off the volume by a growing multiple of N^(1/10), but off the main
    term summed over those x3-slices by a stable one."""
    rows = error_law_M3([10 ** k for k in range(6, 17, 2)], 1, 2, 1, 2)
    qs = [abs(r.count - r.discrete_term) / r.N ** 0.1 for r in rows]
    assert max(qs) / min(qs) < 2
    assert all(r.discrete_term > 4 * r.volume for r in rows)


def test_box3_validation():
    Box3(1, 8, Fr(1, 8), 8, 1, 6, kind="C")
    with pytest.raises(ValueError):
        Box3(Fr(1, 2), 8, 1, 8, 1, 6, kind="C")   # R1' < 1
    with pytest.raises(ValueError):
        Box3(1, 8, 1, 8, 1, Fr(13, 2), kind="C")  # non-integer R3
    with pytest.raises(ValueError):
        Box3(2, 1, 1, 2, 1, 2, kind="T")          # reversed interval
    b = Box3.parse("1,8,1/8,8,1,6", kind="C")
    assert b.r2p == Fr(1, 8)


@pytest.mark.parametrize("spec", ["1,4,3/2,6,1,3", "1,4,1,13/2,1,3", "1,4,1,6,3/2,3",
                                  "1,4,1,6,1,7/2"])
def test_t_box_needs_integer_a2a4_and_a3_bounds(spec):
    # the T walks step a2*a4 and a3 over integers; a fractional bound was truncated
    with pytest.raises(ValueError):
        Box3.parse(spec, kind="T")
