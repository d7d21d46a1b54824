import math
from fractions import Fraction as Fr

import pytest

from oracles import (euler_product_sieved, local_pair_triple_counts, n_table_direct,
                     omega_count, omega_count_exhaustive, omega_count_strict)
from puresextic import densities as D
from puresextic.geometry import Box3, box_cells
from puresextic.types import SexticType, type_table


def test_omega_count_closed_form_l5():
    assert omega_count(5) == 7_200_000
    assert omega_count_exhaustive(5) == 7_200_000


def test_omega_closed_form_identity():
    for l in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97):
        u = l * l - l
        assert u ** 5 + 5 * l * u ** 4 == l ** 5 * (l - 1) ** 4 * (l + 4)


def test_strict_vs_loose():
    assert omega_count_strict(5) == 6_400_000
    assert omega_count_strict(5) < omega_count(5)


@pytest.mark.parametrize("l", [5, 7, 11, 13])
def test_ratio_laws(l):
    """(l-1)/(l+2) for three free coordinates, (l-1)/(l+1) for two."""
    c30 = local_pair_triple_counts(l, 0, 3)
    c31 = local_pair_triple_counts(l, 1, 3)
    assert Fr(c31, c30) == Fr(l - 1, l + 2)
    c20 = local_pair_triple_counts(l, 0, 2)
    c21 = local_pair_triple_counts(l, 1, 2)
    assert Fr(c21, c20) == Fr(l - 1, l + 1)


def test_n_table_residue_key_soundness():
    """Counts depend only on the residues of (a2, a4) mod 15552."""
    t = SexticType(1, 1)
    assert D.n2_count(1, 1, 1, 1) == D.n2_count(1, 1, 1 + 64, 1 + 64 * 3)
    assert D.n3_count(1, 1, 1, 1) == D.n3_count(1, 1, 1 + 243, 1 + 243 * 2)
    assert D.m2_count(1, 1, 1, 1, 2) == D.m2_count(1, 1, 65, 1, 2 + 128)


def test_n_table_pair_validation():
    with pytest.raises(D.InvalidPair):
        D.n_table(SexticType(1, 1), 1, 2, 2)
    with pytest.raises(D.InvalidPair):
        D.n_table(SexticType(1, 1), 1, 4, 1)


@pytest.mark.parametrize("a2, a3, a4", [(2, 2, 1), (1, 4, 1), (3, 1, 3), (1, 2, 2), (1, 0, 1)])
def test_m_table_triple_validation(a2, a3, a4):
    with pytest.raises(D.InvalidPair):
        D.m_table(SexticType(1, 1), 1, a2, a3, a4)


def test_n_table_zero_on_bad_residues():
    # 4 | a2*a4 at the residue level kills the count
    assert D.n2_count(1, 1, 4, 1) == 0
    assert D.n3_count(1, 1, 9, 1) == 0


def test_m_table_112_instance():
    """m = 112 = 7 * 2^4 is Type (5,1): the pair (a1bar, a5bar) = (7, 1) with
    (a2, a3, a4) = (1, 1, 2) satisfies the defining conditions."""
    from puresextic.types import classify
    t = SexticType(5, 1)
    assert classify(112) == t
    assert D.m_table(t, 1, 1, 1, 2) > 0
    # membership of the concrete pair: residue product reproduces 112's classes
    m_bar = 7 * 2 ** 4 * 1
    a, b = type_table()
    assert a[m_bar % 64] == 5 and b[m_bar % 243] == 1


def test_crt_direct_one_key():
    t = SexticType(1, 1)
    assert n_table_direct(t, 1, 1, 1) == D.n_table(t, 1, 1, 1)


def test_type_marginal_identity():
    """Summing n2 over the A-cases recovers the type-free survivor count mod 64."""
    total = sum(D.n2_count(i, 1, 1, 1) for i in range(1, 6))
    # survivor triples (odd or singly-even coordinates, at most one even)
    odd = 32
    count = odd ** 3 + 3 * 16 * odd ** 2  # 16 residues with v_2 = 1
    assert total == count


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 97, 12345])
def test_primes_up_to_matches_trial_division(n):
    want = [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    got = D.primes_up_to(n)
    assert got.dtype == "int64" and got.tolist() == want
    assert not got.flags.writeable  # one array per n, shared by every caller


def test_euler_basic_closed_form():
    val, tail = euler_product_sieved("basic", 10 ** 6)
    assert abs(val - 9 / math.pi ** 2) < 1e-6
    assert tail < 2e-6


def test_euler_carefree_stability():
    v1, _ = euler_product_sieved("carefree", 10 ** 5)
    v2, _ = euler_product_sieved("carefree", 10 ** 6)
    assert abs(v1 - v2) < 1e-5


@pytest.mark.parametrize("kind", ["carefree", "basic", "carefree_strict"])
def test_euler_literal_is_the_sieve_to_its_bound(kind):
    """Each literal is the float the sieve gives at its bound 10^6, digit for digit."""
    assert D.EULER_PRODUCTS[kind] == euler_product_sieved(kind, D.EULER_PRIME_BOUND)


@pytest.mark.parametrize("kind", ["carefree", "basic", "carefree_strict"])
def test_euler_literal_tail_bound_holds_at_1e7(kind):
    """The product to 10^7, ten times further, lies within the literal's stated tail."""
    value, tail = D.euler_product(kind)
    longer, _ = euler_product_sieved(kind, 10 ** 7)
    assert value * math.exp(-tail) <= longer <= value


def test_alpha_examples():
    t = SexticType(1, 1)
    assert D.alpha_terms(t, 1, 12) == []  # not squarefree
    terms1 = D.alpha_terms(t, 1, 1)
    assert len(terms1) == 1 and terms1[0][1] == 1
    assert terms1[0][0] == Fr(D.n_table(t, 1, 1, 1))
    terms5 = D.alpha_terms(t, 1, 5)
    assert {n1 for _, n1 in terms5} == {1, 5}
    for coef, n1 in terms5:
        n2 = 5 // n1
        assert coef == Fr(4, 7) * Fr(D.n_table(t, 1, n1, n2), n2)


def test_beta_zero_not_squarefree():
    t = SexticType(1, 1)
    assert D.beta_value(t, 1, 2, 2) == 0
    assert D.beta_value(t, 1, 4, 1) == 0


def test_measure_prefactor_identity():
    assert Fr(1, 559872) * 15 * Fr(15, 2) == Fr(25, 124416)


def test_measure_additivity_and_monotonicity():
    t = SexticType(1, 1)
    box = Box3(1, 8, Fr(1, 8), 8, 1, 6, kind="C")
    left = Box3(1, 4, Fr(1, 8), 8, 1, 6, kind="C")
    right = Box3(4, 8, Fr(1, 8), 8, 1, 6, kind="C")
    full = D.mu_box_stated(t, 1, box)["value"]
    a = D.mu_box_stated(t, 1, left)["value"]
    b = D.mu_box_stated(t, 1, right)["value"]
    assert abs(full - (a + b)) < 1e-9 * full
    smaller = Box3(1, 8, Fr(1, 8), 8, 1, 3, kind="C")
    assert D.box_discrete(t, 1, smaller, box_cells(smaller))["value"] <= \
        D.box_discrete(t, 1, box, box_cells(box))["value"]


def test_integrate_measure_variants_present():
    t = SexticType(1, 1)
    box = Box3(1, 8, Fr(1, 8), 8, 1, 2, kind="C")
    out = D.integrate_measure(t, 1, box)
    assert set(out) == {"stated", "volume_loose", "volume_strict",
                        "discrete_loose", "discrete_strict"}
    boxt = Box3(1, 4, 1, 2, 1, 2, kind="T")
    outt = D.integrate_measure(t, 1, boxt)
    assert set(outt) == {"linear_stated", "linear_derived",
                         "discrete_loose", "discrete_strict"}


def test_marginalization_m_over_a3_recovers_n():
    """Summing the pair counts over all a3-residues recovers the triple count."""
    t = SexticType(2, 2)
    for (a2, a4) in [(1, 1), (1, 2), (5, 1)]:
        s2 = sum(D.m2_count(t.i, 1, a2, r3, a4) for r3 in range(64))
        assert s2 == D.n2_count(t.i, 1, a2, a4)
        s3 = sum(D.m3_count(t.j, 1, a2, r3, a4) for r3 in range(243))
        assert s3 == D.n3_count(t.j, 1, a2, a4)


def test_double_counting_against_independent_grid():
    """Sum over a2-residues of the triple count equals an independent 4d grid count."""
    import numpy as np
    i, sign, a4 = 1, 1, 1
    lhs = sum(D.n2_count(i, sign, r2, a4) for r2 in range(64))
    r = np.arange(64, dtype=np.int64)
    adm = (r % 4) != 0
    div = (r % 2) == 0
    p2 = r ** 2 % 64
    p3 = r ** 3 % 64
    p5 = np.array([pow(int(x), 5, 64) for x in r], dtype=np.int64)
    in_set = type_table()[0][:64] == i
    g12 = r[:, None] * p2[None, :] % 64
    g123 = g12[:, :, None] * p3[None, None, :] % 64
    g1235 = g123[:, :, :, None] * p5[None, None, None, :] % 64
    m_bar = (sign % 64) * g1235 % 64 * pow(a4, 4, 64) % 64
    ok = in_set[m_bar]
    d = (div[:, None, None, None].astype(np.int8) + div[None, :, None, None]
         + div[None, None, :, None] + div[None, None, None, :])
    ok &= d + (a4 % 2 == 0) <= 1
    ok &= adm[:, None, None, None] & adm[None, :, None, None] & \
        adm[None, None, :, None] & adm[None, None, None, :]
    assert lhs == int(ok.sum())


def test_omega7_sampled_frequency():
    """Spot-check #Omega_7 = 239600592 by membership frequency on a seeded sample."""
    import numpy as np
    assert omega_count(7) == 239_600_592
    rng = np.random.default_rng(0)
    n = 200_000
    tup = rng.integers(0, 49, size=(n, 5))
    member = (np.sum(tup % 7 == 0, axis=1) <= 1)
    freq = member.mean()
    density = 239_600_592 / 49 ** 5
    assert abs(freq - density) < 4 * math.sqrt(density * (1 - density) / n)


def test_measure_empty_box_zero():
    t = SexticType(1, 1)
    degenerate = Box3(2, 2, Fr(1, 8), 8, 1, 6, kind="C")
    assert D.mu_box_stated(t, 1, degenerate)["value"] == 0.0
    assert D.box_discrete(t, 1, degenerate, box_cells(degenerate))["value"] == 0.0


def test_a_point_window_adds_nothing_to_the_discrete_sum():
    """R1 = R2'^2 / 27: the one cell (a2, a4, a3) = (3, 1, 1) of this box has the
    point window (a5/a1)^2 = 3969/289, where the float width log(beta/alpha) of
    _mu_log_width rounds to one step above 0."""
    box = Box3(1, Fr(1323, 289), Fr(189, 17), Fr(240, 17), 3, 3, kind="C")
    cells = box_cells(box)
    assert cells == [(3, 1, 1, Fr(3969, 289), Fr(3969, 289))]
    assert D._mu_log_width(box, 3, 1, 1) > 0
    for sign in (1, -1):
        for strict in (True, False):
            assert D.box_discrete(SexticType(1, 1), sign, box, cells, strict)["value"] == 0.0


def test_types_sharing_a_row_share_its_memo_entry(monkeypatch):
    """A1,B1 then A1,B2 at one (sign, a2, a4): the A-row count is computed once."""
    calls = {"n2": 0, "n3": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    n2, n3 = D.n2_count, D.n3_count
    monkeypatch.setattr(D, "n2_count", counting("n2", n2))
    monkeypatch.setattr(D, "n3_count", counting("n3", n3))
    monkeypatch.setattr(D, "_CACHE", {})
    assert D.n_table(SexticType(1, 1), 1, 1, 1) == n2(1, 1, 1, 1) * n3(1, 1, 1, 1)
    assert D.n_table(SexticType(1, 2), 1, 1, 1) == n2(1, 1, 1, 1) * n3(2, 1, 1, 1)
    assert calls == {"n2": 1, "n3": 2}


def test_keys_with_one_reduced_pair_share_its_memo_entry(monkeypatch):
    """a4 = 1 and a4 = 485 = 5 * 97 = -1 (mod 243) give one n3 key, 1 * (-1)^4: the
    mod-243 count is computed once.  (Mod 64 they differ: 485^4 = 49.)"""
    calls = []
    n3 = D.n3_count
    monkeypatch.setattr(D, "n3_count", lambda *args: calls.append(args) or n3(*args))
    monkeypatch.setattr(D, "_CACHE", {})
    t = SexticType(1, 1)
    assert D.n_table(t, 1, 1, 1) == D.n2_count(1, 1, 1, 1) * n3(1, 1, 1, 1)
    assert D.n_table(t, 1, 1, 485) == D.n2_count(1, 1, 1, 485) * n3(1, 1, 1, 485)
    assert calls == [(1, 1, 1, 1)]


def count_free_brute(mod, p, psq, powers, const, in_set, budget):
    """The (Z/mod)^k outer-product cube that `_count_free` folds into histograms."""
    import numpy as np
    if budget < 0:
        return 0
    r = np.arange(mod, dtype=np.int64)
    adm, div = (r % psq) != 0, (r % p) == 0
    pw = [np.array([pow(int(x), e, mod) for x in r], dtype=np.int64) for e in powers]
    if len(powers) == 3:
        t01 = np.mod(np.multiply.outer((const * pw[0]) % mod, pw[1]), mod)
        prod = np.mod(np.multiply.outer(t01, pw[2]), mod)
        ok = in_set[prod]
        d = (div[:, None, None].astype(np.int8) + div[None, :, None] + div[None, None, :])
        ok &= d <= budget
        ok &= adm[:, None, None] & adm[None, :, None] & adm[None, None, :]
        return int(ok.sum())
    prod = np.mod(np.multiply.outer((const * pw[0]) % mod, pw[1]), mod)
    ok = in_set[prod]
    d = div[:, None].astype(np.int8) + div[None, :]
    ok &= d <= budget
    ok &= adm[:, None] & adm[None, :]
    return int(ok.sum())


def residue_count_brute(mod, p, fixed, powers, sign, in_set):
    """Survivor count with the fixed (residue, power) coordinates folded in by hand."""
    const, ndiv = sign % mod, 0
    for r, e in fixed:
        if r % (p * p) == 0:
            return 0
        ndiv += r % p == 0
        const = const * pow(r, e, mod) % mod
    return count_free_brute(mod, p, p * p, powers, const, in_set, 1 - ndiv)


@pytest.mark.parametrize("sign", [1, -1])
def test_residue_counts_match_the_brute_force_cube(sign):
    """n2/m2 for every A-case and n3/m3 for every B-case (so all 20 Types),
    on keys with and without a coordinate divisible by 2 or 3."""
    import numpy as np
    from puresextic.types import a_case, b_case
    for i in range(1, 6):
        in_set = np.array([r != 0 and a_case(r) == i for r in range(64)])
        for a2, a4 in ((1, 1), (2, 1), (1, 2), (5, 7), (4, 1)):
            assert D.n2_count(i, sign, a2, a4) == \
                residue_count_brute(64, 2, ((a2, 2), (a4, 4)), (1, 3, 5), sign, in_set)
            for a3 in (1, 2, 3):
                assert D.m2_count(i, sign, a2, a3, a4) == \
                    residue_count_brute(64, 2, ((a2, 2), (a3, 3), (a4, 4)), (1, 5), sign, in_set)
    for j in range(1, 5):
        in_set = np.array([b_case(r) == j for r in range(243)])
        for a2, a4 in ((1, 1), (1, 3)):
            assert D.n3_count(j, sign, a2, a4) == \
                residue_count_brute(243, 3, ((a2, 2), (a4, 4)), (1, 3, 5), sign, in_set)
        for a2, a4 in ((1, 1), (3, 1), (2, 5)):
            for a3 in (1, 3, 5, 9):
                assert D.m3_count(j, sign, a2, a3, a4) == \
                    residue_count_brute(243, 3, ((a2, 2), (a3, 3), (a4, 4)), (1, 5), sign, in_set)
