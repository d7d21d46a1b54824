from fractions import Fraction as Fr

import pytest

from puresextic.basis import (build_basis, derived_transition, tabulated_transition,
                              power_type_basis)
from puresextic.field import sextic_field
from puresextic.general import same_lattice
from puresextic.types import ALL_TYPES, SexticType, classify, smallest_m_of_type


def test_basis_m2_power_type():
    b = build_basis(sextic_field(2))
    for t, e in enumerate(b.elements):
        assert e.coeffs == tuple(Fr(1) if s == t else Fr(0) for s in range(6))


def test_basis_m17_table_row():
    b = build_basis(sextic_field(17))
    beta, gamma, delta = b.elements[3], b.elements[4], b.elements[5]
    assert beta.coeffs == (Fr(1, 2), 0, 0, Fr(1, 2), 0, 0)
    assert gamma.coeffs == (Fr(-1, 3), Fr(1, 2), Fr(-17, 3), 0, Fr(1, 6), 0)
    assert delta.coeffs == (0, Fr(-1, 3), Fr(1, 2), Fr(-17, 3), 0, Fr(1, 6))


def test_aux_undefined_unreachable_for_valid_types():
    # every B3/B4 field has 27 | m, every A4 field has 8 | C5; constructing a
    # basis never raises AuxUndefined
    for t in ALL_TYPES:
        for m in smallest_m_of_type(t, 3):
            build_basis(sextic_field(m))


def test_transition_type21():
    f = sextic_field(5)
    p = tabulated_transition(SexticType(2, 1), f)
    diag = [p.entries[i][i] for i in range(6)]
    assert diag == [1, 1, 1, Fr(1, 2), Fr(1, 2), Fr(1, 2)]
    assert p.entries[0][3] == Fr(1, 2) and p.entries[1][4] == Fr(1, 2)
    assert p.entries[2][5] == Fr(f.big_c[1], 2)


def test_transition_identity_type11():
    f = sextic_field(2)
    p = tabulated_transition(SexticType(1, 1), f)
    assert all(p.entries[i][j] == (1 if i == j else 0) for i in range(6) for j in range(6))


def test_transition_type22_entry():
    f = sextic_field(17)
    p = tabulated_transition(SexticType(2, 2), f)
    assert p.entries[0][4] == Fr(-1, 3)  # -C4/3 with C4 = 1


def test_transition_type14_diagonal():
    f = sextic_field(54)
    p = tabulated_transition(SexticType(1, 4), f)
    assert [p.entries[i][i] for i in range(6)] == [1, 1, 1, 1, 1, Fr(1, 3)]


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_derived_equals_paper_small(t):
    for m in smallest_m_of_type(t, 5):
        f = sextic_field(m)
        b = build_basis(f)
        assert derived_transition(b).entries == tabulated_transition(t, f).entries


def test_corrected_13_entry_on_large_c3():
    """Regression for the corrected (1,3) transition entry: needs C33 != 1."""
    f = sextic_field(8775)  # 13 * 5^2 * 27, Type (1,3), C3 = 15
    b = build_basis(f)
    d = derived_transition(b)
    assert d.entries[1][3] == Fr(2 * 8775, 27) * 5 ** 2 / 15  # 2 C33^2 m3 / C3, C33 = 5
    assert d.entries == tabulated_transition(b.type, f).entries


def test_integrality_sample():
    for t in ALL_TYPES[:6]:
        for m in smallest_m_of_type(t, 3):
            for e in build_basis(sextic_field(m)).elements:
                assert e.is_algebraic_integer()


def test_unimodular_connection_between_equivalent_bases():
    """Two valid bases of the same O_K connect by an integral unimodular matrix."""
    f = sextic_field(17)
    b = build_basis(f)
    cols = [[b.elements[t].coeffs[s] for t in range(6)] for s in range(6)]
    # shear the basis by an integral unimodular transform
    sheared = [row[:] for row in cols]
    for s in range(6):
        sheared[s][3] += 2 * cols[s][1]
    assert same_lattice(cols, sheared)
    doubled = [row[:3] + [2 * row[3]] + row[4:] for row in cols]  # index 2, not unimodular
    assert not same_lattice(cols, doubled)


def test_index_law():
    """det(transition)^2 * det(G_power) = det(G_basis)."""
    from puresextic.algebra import hermitian_gram, mat_det
    for m in (5, 17, 45, 270):
        f = sextic_field(m)
        b = build_basis(f)
        p = derived_transition(b)
        d = mat_det(p.entries)
        lhs = hermitian_gram(b.elements).det()
        rhs = hermitian_gram(power_type_basis(f)).det() * (d * d)
        assert lhs == rhs
