import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from oracles import check_carefree
from puresextic.field import (AssumptionViolated, CarefreeTuple, NotPowerFree,
                              big_c, ceil_root, decompose, disc_valuations, dual,
                              factorize, floor_root, iroot, is_canonical, is_irreducible_radical,
                              is_irreducible_sextic, is_prime, is_squarefree, power_free,
                              sextic_field)


def test_decompose_examples():
    assert decompose(112) == CarefreeTuple(1, (7, 1, 1, 2, 1))
    assert decompose(-1) == CarefreeTuple(-1, (1, 1, 1, 1, 1))
    with pytest.raises(NotPowerFree):
        decompose(2 ** 6 * 5)


def test_decompose_roundtrip():
    for m in list(range(2, 400)) + [-5, -64 * 3, 99991]:
        try:
            t = decompose(m)
        except NotPowerFree:
            continue
        assert t.m == m
        check_carefree(t)


@given(st.integers(min_value=2, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_decompose_reconstruct_property(m):
    try:
        t = decompose(m)
    except NotPowerFree:
        return
    assert t.m == m
    assert decompose(t.m) == t


def test_factorize_matches_product():
    for n in (2 * 3 * 25 * 49, 10 ** 6 + 3, 2 ** 5 * 3 ** 4, 999966000289):  # last = 999983^2
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            prod *= p ** e
        assert prod == n


def test_factorize_seeds_no_rng_without_a_rho_split(monkeypatch):
    """Trial division that ends past the square root leaves a prime: no primality
    test and no rng; the rng is made only when Brent's rho runs."""
    import random

    from puresextic import field

    def forbidden(*args):
        raise AssertionError("called")
    monkeypatch.setattr(random, "Random", forbidden)
    monkeypatch.setattr(field, "is_prime", forbidden)
    for n in range(1, 10 ** 5):
        fac = factorize(n)
        assert math.prod(p ** e for p, e in fac.items()) == n
        assert all(is_prime(p) for p in fac)
    monkeypatch.setattr(field, "is_prime", is_prime)
    assert factorize(10 ** 12 + 39) == {10 ** 12 + 39: 1}  # above the trial limit: is_prime
    monkeypatch.undo()
    p, q = 1000003, 9999991  # two 7-digit primes: the rho split still runs
    assert factorize(p * q) == {p: 1, q: 1}


def test_irreducibility():
    assert not is_irreducible_sextic(8)       # cube
    assert not is_irreducible_sextic(9)       # square
    assert is_irreducible_sextic(12)
    assert not is_irreducible_sextic(-27)     # (-3)^3
    assert is_irreducible_sextic(-4)          # -4 is not a square or cube
    assert not is_irreducible_sextic(1)


@pytest.mark.parametrize("n, m", [(2, 9), (3, -8), (4, 9), (4, -4), (4, -324), (8, -64),
                                  (8, -4), (12, -4), (6, 8), (6, -27), (6, 0), (5, 32),
                                  (10, -32), (6, 1), (6, -1)])
def test_capelli_reducible(n, m):
    """m a p-th power for a prime p | n, or 4 | n and m = -4k^4."""
    assert not is_irreducible_radical(n, m)


@pytest.mark.parametrize("n, m", [(2, -1), (4, -1), (4, -9), (4, 2), (3, 2), (7, -2),
                                  (6, 2), (6, -4), (6, 12), (9, 4), (10, -4), (16, -8)])
def test_capelli_irreducible(n, m):
    assert is_irreducible_radical(n, m)


def test_dual_examples():
    t = decompose(112)
    assert dual(t).a == (1, 2, 1, 1, 7)
    assert dual(dual(t)) == t
    prod = 1
    for x in t.a:
        prod *= x
    assert t.m * dual(t).m == prod ** 6
    assert dual(decompose(2)).m == 32


def test_canonical_orientation():
    t = decompose(112)
    assert not is_canonical(t)
    assert is_canonical(dual(t))
    # exactly one of the two orientations is canonical for valid fields
    for m in (2, 5, 17, 45, 200, 1372):
        t = decompose(m)
        assert is_canonical(t) != is_canonical(dual(t)) or t == dual(t)


def test_big_c_examples():
    assert big_c(decompose(5)) == (1, 1, 1, 1, 1)
    assert big_c(decompose(12)) == (1, 1, 2, 2, 2)
    assert big_c(decompose(16)) == (1, 2, 4, 4, 8)


def test_sextic_field_validation():
    f = sextic_field(17)
    assert f.big_c == (1, 1, 1, 1, 1) and not f.canonical
    assert sextic_field(32).canonical
    with pytest.raises(Exception):
        sextic_field(64)   # = 2^6
    with pytest.raises(Exception):
        sextic_field(25)   # square


def test_disc_valuations_m5():
    dv = disc_valuations(6, 5)
    assert dv.v == {2: 0, 3: 6}
    assert dv.tame_part == {5: 5}
    assert dv.abs_disc() == 3 ** 6 * 5 ** 5
    assert dv.sign() == 1


def test_disc_valuations_m3():
    dv = disc_valuations(6, 3)
    assert dv.v == {2: 6, 3: 6}
    assert dv.valuation(3) == 11  # wild 6 + tame 5
    assert dv.abs_disc() == 2 ** 6 * 3 ** 11


def test_disc_valuations_m17():
    dv = disc_valuations(6, 17)
    assert dv.v == {2: 0, 3: 2}
    assert dv.abs_disc() == 9 * 17 ** 5


def test_assumption_violated():
    for bad in (2 ** 4 * 7, 27 * 5, 2 * 27 * 5, 2 ** 2 * 3):
        with pytest.raises(AssumptionViolated):
            disc_valuations(6, bad)


def test_disc_sign_negative_m():
    # n = 6: sign(disc) = sgn(m)
    assert disc_valuations(6, -5).sign() == -1
    assert disc_valuations(6, 5).sign() == 1


@given(st.integers(0, 3000), st.integers(1, 60), st.integers(1, 7))
@settings(max_examples=500, deadline=None)
def test_roots_match_brute_force(n, d, k):
    q = Fr(n, d)
    floor_q = max(r for r in range(n + 2) if r ** k <= q)
    ceil_q = min(r for r in range(n + 2) if r ** k >= q)
    assert iroot(n, k) == max(r for r in range(n + 2) if r ** k <= n)
    assert floor_root(q, k) == floor_q
    assert ceil_root(q, k) == ceil_q


@given(st.one_of(st.integers(0, 10 ** 1200),
                 st.builds(lambda x, k, e: x ** k + e,
                           st.integers(1, 10 ** 300), st.integers(2, 9), st.integers(-1, 1))),
       st.integers(1, 40), st.integers(1, 10 ** 30))
@settings(max_examples=300, deadline=None)
def test_roots_bracket_large_inputs(n, k, d):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k
    q = Fr(n, d)
    lo, hi = floor_root(q, k), ceil_root(q, k)
    assert lo ** k <= q < (lo + 1) ** k
    assert hi ** k >= q and (hi == 0 or (hi - 1) ** k < q)


@pytest.mark.parametrize("e", [2, 6])
@pytest.mark.parametrize("lo, hi", [(-400, -1), (-1, 1), (0, 0), (0, 800), (-200, 300),
                                    (5, 1), (10 ** 6 - 400, 10 ** 6)])
def test_power_free_matches_the_definition(lo, hi, e):
    """No j^e with j >= 2 divides lo + i, and 0 (which every j^e divides) is never kept."""
    expected = [m != 0 and all(m % j ** e for j in range(2, math.isqrt(abs(m)) + 1))
                for m in range(lo, hi + 1)]
    assert power_free(lo, hi, e).tolist() == expected
