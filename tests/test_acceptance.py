"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 9's 3d half is expected to fail: the volume-approximation error law
it encodes does not hold on ratio boxes (the count follows a discrete-in-x3
sum, not the volume; see the assertion message and the README).
"""

import math
from fractions import Fraction as Fr

import pytest

from oracles import (euler_product_sieved, mono_power, mono_reduced, n_table_direct,
                     omega_count, omega_count_exhaustive)
from puresextic import densities as D
from puresextic.algebra import CubicMatrix, hermitian_gram
from puresextic.basis import build_basis, derived_transition, tabulated_transition
from puresextic.field import (AssumptionViolated, check_assumption, disc_valuations,
                              factorize, is_irreducible_sextic, sextic_field)
from puresextic.general import general_integral_basis, same_lattice
from puresextic.geometry import Box3, error_law_M2, error_law_M3
from puresextic.gram import g_table, gram6, gram_power, normalized_shape_diag, shape_gram, shape_params
from puresextic.harness import EnumSpec, compare, enumerate_T, naive_scan
from puresextic.types import ALL_TYPES, SexticType, classify, smallest_m_of_type, type_partition_check

_CORPUS: dict = {}


def corpus(t: SexticType, count: int = 25) -> list[int]:
    if t not in _CORPUS:
        _CORPUS[t] = smallest_m_of_type(t, count)
    return _CORPUS[t][:count]


def report(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_gram_identity_suite():
    """gram6 == reference table == C^T G_power C, all 20 Types x 25 smallest m."""
    bad = []
    for t in ALL_TYPES:
        for m in corpus(t):
            f = sextic_field(m)
            g = gram6(f)
            if g != g_table(t, f) * 6:
                bad.append(("table", str(t), m))
            c = CubicMatrix.from_rational(m, [list(r) for r in tabulated_transition(t, f).entries])
            if g != gram_power(f).congruence(c):
                bad.append(("congruence", str(t), m))
    report(1, not bad, f"20 types x 25 fields, exact; failures: {bad or 'none'}")


def test_criterion_2_transition_cross_check():
    bad = []
    for t in ALL_TYPES:
        for m in corpus(t):
            f = sextic_field(m)
            if derived_transition(build_basis(f)).entries != tabulated_transition(t, f).entries:
                bad.append((str(t), m))
    report(2, not bad, f"derived == tabulated transitions, exact; failures: {bad or 'none'}")


def test_criterion_3_integrality_and_discriminant():
    bad = []
    for t in ALL_TYPES:
        for m in corpus(t):
            f = sextic_field(m)
            b = build_basis(f)
            if not all(e.is_algebraic_integer() for e in b.elements):
                bad.append(("integrality", str(t), m))
                continue
            det = gram6(f, b).det()
            assert det.is_rational()
            absdet = abs(det.coeffs[0])
            a = f.tuple.a
            # l-adic valuation away from 2,3: 5 v(a1) + 4 v(a2) + 3 v(a3) + 4 v(a4) + 5 v(a5)
            fac = factorize(absdet.numerator if isinstance(absdet, Fr) else absdet)
            weights = (5, 4, 3, 4, 5)
            for l in set(p for x in a for p in factorize(x)) | set(fac):
                if l in (2, 3):
                    continue
                want = sum(w for w, x in zip(weights, a) if x % l == 0)
                if fac.get(l, 0) != want:
                    bad.append(("l-adic", str(t), m, l))
            try:
                dv = disc_valuations(6, m)
            except AssumptionViolated:
                continue
            if fac.get(2, 0) != dv.valuation(2) or fac.get(3, 0) != dv.valuation(3):
                bad.append(("2,3-adic", str(t), m))
    report(3, not bad, f"char polys integral, |det| valuations exact; failures: {bad or 'none'}")


def test_criterion_4_shape_certificate():
    bad = []
    for t in ALL_TYPES:
        for m in corpus(t):
            f = sextic_field(m)
            sg = shape_gram(f)
            if not sg.certificate_holds():
                bad.append((str(t), m))
    # Type (1,1): normalized diagonal equals (l1, l2, l3, l2^-1/a3^2, l1^-1)
    for m in corpus(SexticType(1, 1)):
        f = sextic_field(m)
        if not f.canonical:
            from puresextic.field import dual
            f = sextic_field(dual(f.tuple).m)
        sp = shape_params(f)
        lams = [sp.lam1, sp.lam2, sp.lam3, sp.lam4, mono_power(sp.lam1, -1)]
        if any(mono_reduced(a) != mono_reduced(b)
               for a, b in zip(normalized_shape_diag(f), lams)):
            bad.append(("diag", m))
    report(4, not bad, f"P = C'^T (216 diag) C' exact on the corpus; failures: {bad or 'none'}")


def test_criterion_5_theorem31_consistency():
    from puresextic.field import NotPowerFree
    checked = 0
    bad = []
    for m in list(range(2, 2001)) + list(range(-2000, -1)):
        if not is_irreducible_sextic(m):
            continue
        try:
            check_assumption(6, m)
        except (AssumptionViolated, NotPowerFree):
            continue
        gb = general_integral_basis(6, m)
        b = build_basis(sextic_field(m))
        cols = [[b.elements[t].coeffs[s] for t in range(6)] for s in range(6)]
        if not same_lattice(gb.matrix(), cols):
            bad.append(m)
        checked += 1
    report(5, checked > 2500 and not bad,
           f"{checked} assumption-satisfying |m| <= 2000, lattices equal; failures: {bad or 'none'}")


def test_criterion_6_type_partition():
    rep = type_partition_check(-10 ** 6, 10 ** 6)
    all_nonempty = all(v > 0 for v in rep["counts"].values())
    report(6, rep["violation_count"] == 0 and all_nonempty,
           f"{rep['scanned']} admissible m, zero violations, all 20 types populated")


def test_criterion_7_local_densities():
    ok_omega = omega_count_exhaustive(5) == 7_200_000 == omega_count(5)
    ok_identity = all(
        (l * l - l) ** 5 + 5 * l * (l * l - l) ** 4 == l ** 5 * (l - 1) ** 4 * (l + 4)
        for l in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                  67, 71, 73, 79, 83, 89, 97))
    keys = [(SexticType(1, 1), 1, 1, 1), (SexticType(5, 1), 1, 1, 2), (SexticType(2, 2), -1, 1, 1)]
    ok_crt = all(n_table_direct(t, s, a2, a4) == D.n_table(t, s, a2, a4)
                 for t, s, a2, a4 in keys)
    report(7, ok_omega and ok_identity and ok_crt,
           f"omega_5 exhaustive = closed form = 7200000: {ok_omega}; "
           f"identity l<=97: {ok_identity}; CRT vs direct mod-15552 on 3 keys: {ok_crt}")


def test_criterion_8_euler_products():
    val, _ = euler_product_sieved("basic", 10 ** 7)
    ok_basic = abs(val - 9 / math.pi ** 2) < 1e-8
    v6, _ = euler_product_sieved("carefree", 10 ** 6)
    v7, _ = euler_product_sieved("carefree", 10 ** 7)
    ok_stable = abs(v6 - v7) < 1e-6
    ok_rational = Fr(1, 559872) * 15 * Fr(15, 2) == Fr(25, 124416)
    report(8, ok_basic and ok_stable and ok_rational,
           f"basic@1e7 vs 9/pi^2: {abs(val - 9 / math.pi ** 2):.2e}; "
           f"carefree 1e6-vs-1e7 drift: {abs(v6 - v7):.2e}; prefactor identity exact: {ok_rational}")


def test_criterion_9_m2_error_law():
    rows = error_law_M2([10 ** 6, 10 ** 8, 10 ** 10, 10 ** 12], 1, 2)
    qs = [r.scaled_error for r in rows]
    report(9, max(qs) / min(qs) < 2,
           f"2d: |count - area|/M^(1/2) = {[f'{q:.4f}' for q in qs]}, max/min = {max(qs)/min(qs):.3f} < 2")


def test_criterion_9_m3_error_law():
    """Faithful to the criterion as stated; fails because with both ratio
    windows bounded, x3 is pinned to finitely many integers, so
    |count - volume| grows like N^(1/5), not N^(1/10) (see README)."""
    rows = error_law_M3([10 ** 6, 10 ** 8, 10 ** 10, 10 ** 12], 1, 2, 1, 2)
    qs = [r.scaled_error for r in rows]
    ratio = max(qs) / min(qs)
    print(f"\nACCEPTANCE CRITERION 9 (3d half): {'PASS' if ratio < 2 else 'FAIL'} - "
          f"|count - V|/N^(1/10) = {[f'{q:.4f}' for q in qs]}, max/min = {ratio:.3f}")
    assert ratio < 2, (
        "the O(N^(1/10)) volume-approximation law fails on ratio boxes: the count follows "
        "(N^(1/5)/2) sum_x3 x3^(-3/5) log(beta/alpha), about 4.3x the volume here, "
        f"so the N^(1/10)-scaled error grows ({[f'{q:.3f}' for q in qs]}); "
        "see decisions ledger / README 'known paper defects'")


def test_criterion_10_equidistribution_c_family():
    box = Box3(1, 8, Fr(1, 8), 8, 1, 6, kind="C")
    ladder = [10 ** 9, 10 ** 10, 10 ** 11, 10 ** 12, 10 ** 13, 10 ** 14, 10 ** 15]
    rep = compare("C", SexticType(1, 1), 1, box, ladder)
    slope = rep["fitted_slope"]
    top = rep["rows"][-1]
    ratio = top["vs_discrete_strict"]
    ok = abs(slope - 0.2) <= 0.02 and abs(ratio - 1) <= 0.25
    report(10, ok,
           f"fitted slope {slope:.4f} (want 0.20 +- 0.02); empirical/predicted at N=1e15: "
           f"{ratio:.3f} (want within 25%; prediction = discrete strict variant, "
           f"paper-literal variant off by ~8e7, flagged in report)")


def test_criterion_11_t_family():
    box = Box3(1, 4, 1, 6, 1, 3, kind="T")
    ladder = [10 ** 9, 10 ** 11, 10 ** 13, 10 ** 15]
    rep = compare("T", SexticType(1, 1), 1, box, ladder)
    flagged = rep["supported_normalization"]
    has_both = "linear_derived" in rep["predictions"] and "discrete_strict" in rep["predictions"]
    spec = EnumSpec(10 ** 7, 1, SexticType(1, 1), box)
    oracle_ok = enumerate_T(spec) == naive_scan(spec)
    ok = flagged == "N^(1/5)" and has_both and oracle_ok
    report(11, ok,
           f"report carries both normalizations, data supports {flagged}; "
           f"naive full-scan set equality at N=1e7: {oracle_ok}")
