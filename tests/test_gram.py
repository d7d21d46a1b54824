from fractions import Fraction as Fr

import pytest

from oracles import is_positive_definite, mono_power, mono_product, mono_reduced
from puresextic.algebra import CubicMatrix, CubicNum
from puresextic.basis import build_basis, derived_transition, tabulated_transition
from puresextic.field import decompose, dual, sextic_field
from puresextic.gram import (Monomial, NotCanonical, g_table, gram6, gram_power,
                             normalized_shape_diag, shape_gram, shape_params)
from puresextic.types import ALL_TYPES, SexticType, classify, smallest_m_of_type


def test_gram6_m2_diagonal():
    g = gram6(sextic_field(2))
    expected = CubicMatrix.diagonal(2, [
        CubicNum.of(2, 6), CubicNum.of(2, 0, 6, 0), CubicNum.of(2, 0, 0, 6),
        CubicNum.of(2, 12), CubicNum.of(2, 0, 12, 0), CubicNum.of(2, 0, 0, 12)])
    assert g == expected


def test_gram6_m17_entries():
    g = g_table(SexticType(2, 2), sextic_field(17))
    assert g.entries[0][3] == CubicNum.of(17, Fr(1, 2))
    assert g.entries[0][4] == CubicNum.of(17, Fr(-1, 3))
    assert gram6(sextic_field(17)) == g * 6


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_three_route_identity_small(t):
    """gram6 == reference table == C^T G_power C, exactly."""
    for m in smallest_m_of_type(t, 4):
        f = sextic_field(m)
        g = gram6(f)
        assert g == g_table(t, f) * 6
        c = CubicMatrix.from_rational(m, [list(r) for r in tabulated_transition(t, f).entries])
        assert g == gram_power(f).congruence(c)


def test_gram_table_corrections_regression():
    """Fields where the uncorrected table variants differ from the correct entries."""
    for m in (8775, 9450):  # Type (1,3) with C3 = 15
        f = sextic_field(m)
        assert gram6(f) == g_table(classify(m), f) * 6
    f45 = sextic_field(45)  # Type (2,1) with C4 = 3: uncorrected (5,5) lacks /C4^2
    assert gram6(f45) == g_table(SexticType(2, 1), f45) * 6


def test_det_equals_disc():
    from puresextic.field import disc_valuations
    for m in (2, 5, 17, 45, 250, -7):
        f = sextic_field(m)
        d = gram6(f).det()
        assert d.is_rational()
        dv = disc_valuations(6, m)
        assert abs(d.coeffs[0]) == dv.abs_disc()


def test_negative_m_positive_definite():
    for m in (-2, -17, -270):
        f = sextic_field(m)
        assert is_positive_definite(gram6(f))
        assert is_positive_definite(shape_gram(f).entries)


def test_shape_certificate_exact():
    for m in (2, 17, 45, 112, 8775, -44):
        sg = shape_gram(sextic_field(m))
        assert sg.certificate_holds()


def test_shape_scale_invariance():
    """Scaling the basis by r scales the perp Gram by r^2 (monomials unchanged)."""
    from oracles import gram_pair, sextic_trace
    f = sextic_field(17)
    b = build_basis(f)
    alphas = [e * Fr(3, 2) for e in b.elements[1:]]
    sg = shape_gram(f)
    for i in range(5):
        for j in range(5):
            direct = gram_pair(alphas[i], alphas[j]) * 36 - CubicNum.of(
                17, 6 * sextic_trace(alphas[i]) * sextic_trace(alphas[j]))
            assert direct == sg.entries.entries[i][j] * Fr(9, 4)


def test_shape_params_values():
    sp = shape_params(sextic_field(32))
    v = sp.values(20)
    assert abs(v[0] - 4 ** (1 / 3)) < 1e-12
    assert abs(v[1] - 2 ** (1 / 3)) < 1e-12
    assert v[2] == 1
    assert abs(v[3] - 2 ** (-1 / 3)) < 1e-12


def test_shape_params_not_canonical():
    with pytest.raises(NotCanonical):
        shape_params(sextic_field(2))


def test_shape_params_dual_112():
    t = dual(decompose(112))
    sp = shape_params(sextic_field(t.m))
    assert mono_reduced(sp.lam1) == {2: Fr(-1, 3), 7: Fr(2, 3)}   # (49/2)^(1/3)
    assert mono_reduced(sp.lam3) == {2: Fr(-1)}                    # 1/2


def test_lam4_lam2_relation():
    for m in (32, 45, 67228):
        f = sextic_field(m)
        if not f.canonical:
            f = sextic_field(dual(f.tuple).m)
        sp = shape_params(f)
        prod = mono_product(sp.lam4, sp.lam2)
        assert mono_reduced(prod) == mono_reduced(
            Monomial(f.tuple.a, (Fr(0), Fr(0), Fr(-2), Fr(0), Fr(0))))
        assert all(e.denominator == 1 for e in prod.exponents)


def test_normalized_diag_type11():
    for m in (3, 32, 99):
        f = sextic_field(m)
        if classify(m) != SexticType(1, 1) or not f.canonical:
            continue
        nd = normalized_shape_diag(f)
        sp = shape_params(f)
        lams = [sp.lam1, sp.lam2, sp.lam3, sp.lam4, mono_power(sp.lam1, -1)]
        assert all(mono_reduced(a) == mono_reduced(b) for a, b in zip(nd, lams))


def test_normalized_diag_dual_reversal():
    for m in (350, 99, 2, 17):
        t = decompose(m)
        nd1 = normalized_shape_diag(sextic_field(t.m))
        nd2 = normalized_shape_diag(sextic_field(dual(t).m))
        assert all(mono_reduced(a) == mono_reduced(b) for a, b in zip(nd1, reversed(nd2)))


def test_monomial_hash_agrees_with_eq():
    four = Monomial((4, 1, 1, 1, 1), (Fr(1), Fr(0), Fr(0), Fr(0), Fr(0)))
    two_squared = Monomial((2, 1, 1, 1, 1), (Fr(2), Fr(0), Fr(0), Fr(0), Fr(0)))
    # one number, so one reduced form: the oracle's equality
    assert mono_reduced(four) == mono_reduced(two_squared) == {2: Fr(2)}
    # two spellings: the package's Monomial compares and hashes its fields
    assert four != two_squared
    assert len({four, two_squared, Monomial(four.bases, four.exponents)}) == 2


def test_shape_certificate_runs_its_congruence_once(monkeypatch):
    """certificate_holds() checks the certificate on its first call and reuses it."""
    calls = []
    congruence = CubicMatrix.congruence

    def counting(self, b):
        calls.append(b)
        return congruence(self, b)

    monkeypatch.setattr(CubicMatrix, "congruence", counting)
    sg = shape_gram(sextic_field(8775))
    assert sg.certificate_holds() and sg.certificate_holds()
    assert len(calls) == 1


@pytest.mark.parametrize("m", (-2, -17, -45, -270))
def test_g_table_refuses_negative_m(m):
    """The reference tables are stated for m > 0 (theta^2 = c); for m < 0 they would
    silently differ from gram6, while the transition matrices hold for both signs."""
    f = sextic_field(m)
    t = classify(m)
    with pytest.raises(ValueError, match="m > 0"):
        g_table(t, f)
    assert derived_transition(build_basis(f)).entries == tabulated_transition(t, f).entries
