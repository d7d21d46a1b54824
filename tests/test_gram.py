from fractions import Fraction as Fr

import pytest

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
        assert gram6(f).is_positive_definite()
        assert shape_gram(f).entries.is_positive_definite()


def test_shape_certificate_exact():
    for m in (2, 17, 45, 112, 8775, -44):
        sg = shape_gram(sextic_field(m))
        assert sg.certificate_holds()


def test_shape_scale_invariance():
    """Scaling the basis by r scales the perp Gram by r^2 (monomials unchanged)."""
    from puresextic.algebra import gram_pair
    f = sextic_field(17)
    b = build_basis(f)
    alphas = [e * Fr(3, 2) for e in b.elements[1:]]
    sg = shape_gram(f)
    for i in range(5):
        for j in range(5):
            direct = gram_pair(alphas[i], alphas[j]) * 36 - CubicNum.of(
                17, 6 * alphas[i].trace() * alphas[j].trace())
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
    assert sp.lam1.reduced() == {2: Fr(-1, 3), 7: Fr(2, 3)}   # (49/2)^(1/3)
    assert sp.lam3.reduced() == {2: Fr(-1)}                    # 1/2


def test_lam4_lam2_relation():
    for m in (32, 45, 67228):
        f = sextic_field(m)
        if not f.canonical:
            f = sextic_field(dual(f.tuple).m)
        sp = shape_params(f)
        prod = sp.lam4 * sp.lam2
        a3 = f.tuple.a[2]
        assert prod == Monomial(f.tuple.a, (Fr(0), Fr(0), Fr(-2), Fr(0), Fr(0)))
        assert all(e.denominator == 1 for e in prod.exponents)


def test_normalized_diag_type11():
    for m in (3, 32, 99):
        f = sextic_field(m)
        if classify(m) != SexticType(1, 1) or not f.canonical:
            continue
        nd = normalized_shape_diag(f)
        sp = shape_params(f)
        lams = [sp.lam1, sp.lam2, sp.lam3, sp.lam4, sp.lam1.inverse()]
        assert all(a == b for a, b in zip(nd, lams))


def test_normalized_diag_dual_reversal():
    for m in (350, 99, 2, 17):
        t = decompose(m)
        nd1 = normalized_shape_diag(sextic_field(t.m))
        nd2 = normalized_shape_diag(sextic_field(dual(t).m))
        assert all(a == b for a, b in zip(nd1, reversed(nd2)))


def test_monomial_hash_agrees_with_eq():
    four = Monomial((4, 1, 1, 1, 1), (Fr(1), Fr(0), Fr(0), Fr(0), Fr(0)))
    two_squared = Monomial((2, 1, 1, 1, 1), (Fr(2), Fr(0), Fr(0), Fr(0), Fr(0)))
    assert four == two_squared
    assert len({four, two_squared}) == 1


def test_shape_certificate_runs_its_congruence_once(monkeypatch):
    """shape_gram checks the certificate on construction; certificate_holds() reuses it."""
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
