from fractions import Fraction as Fr

import pytest

from oracles import char_poly_rational, mono_reduced, mult_matrix, radical_char_poly
from puresextic.basis import build_basis
from puresextic.field import AssumptionViolated, check_assumption, is_irreducible_sextic, sextic_field
from puresextic.general import (GeneralBasis, general_integral_basis, general_shape_params,
                                same_lattice, wild_data)
from puresextic.gram import Monomial, shape_params


def is_integral_basis_candidate(gb: GeneralBasis) -> bool:
    """Every element integral (integer char poly)."""
    return all(c.denominator == 1 for v in gb.vectors for c in radical_char_poly(gb.m, v))


def test_wild_set_examples():
    assert wild_data(6, 5).S == (2,)
    assert wild_data(6, 17).S == (2, 3)
    assert wild_data(6, 3).S == ()


def test_wild_data_r_values():
    wd = wild_data(6, 17)
    rs = {wp.p: wp.r for wp in wd.primes}
    assert rs == {2: 3, 3: 1}


def test_highest_delta_power_below_t():
    # asserted inside the construction; instantiate a case with S nonempty
    gb = general_integral_basis(6, 17)
    for t, vec in enumerate(gb.vectors):
        assert all(c == 0 for c in vec[t + 1:])


def test_general_basis_s_empty():
    gb = general_integral_basis(6, 3)
    for t, vec in enumerate(gb.vectors):
        assert vec[t] != 0 and sum(1 for c in vec if c != 0) == 1


def test_general_matches_table2_lattice():
    for m in (5, 17, -11, 45, 99, 1373):
        gb = general_integral_basis(6, m)
        b = build_basis(sextic_field(m))
        cols = [[b.elements[t].coeffs[s] for t in range(6)] for s in range(6)]
        assert same_lattice(gb.matrix(), cols)


def test_quartic_basis_integral():
    gb = general_integral_basis(4, 5)
    assert is_integral_basis_candidate(gb)
    assert gb.vectors[2] == (Fr(1, 2), 0, Fr(1, 2), 0)  # (1 + theta^2)/2


def test_various_degrees_integral():
    for n, m in [(2, 5), (3, 10), (5, 7), (8, 3), (9, 10), (12, 7), (10, 11)]:
        try:
            gb = general_integral_basis(n, m)
        except AssumptionViolated:
            continue
        assert is_integral_basis_candidate(gb), (n, m)


def test_element_char_poly_matches_the_mult_matrix_oracle():
    """The power-sum char polys (radical_char_poly) behind is_integral_basis_candidate equal
    Faddeev-LeVerrier on the multiplication matrix for the n != 6 bases, and for their
    halves (not integral)."""
    for n, m in [(2, 5), (3, 10), (4, 5), (5, 7), (8, 3), (9, 10), (12, 7), (10, 11)]:
        try:
            gb = general_integral_basis(n, m)
        except AssumptionViolated:
            continue
        for v in gb.vectors:
            for w in (list(v), [c / 2 for c in v]):
                assert radical_char_poly(m, w) == char_poly_rational(mult_matrix(m, w)), (n, m)
        half = GeneralBasis(n, m, tuple(tuple(c / 2 for c in v) for v in gb.vectors))
        assert not is_integral_basis_candidate(half)


def test_disc_from_general_basis():
    """|disc| of the general basis equals the valuation-formula value (n=6)."""
    from puresextic.algebra import mat_det
    from puresextic.field import disc_valuations
    for m in (5, 17, 45):
        gb = general_integral_basis(6, m)
        b = build_basis(sextic_field(m))
        cols = [[b.elements[t].coeffs[s] for t in range(6)] for s in range(6)]
        # same lattice => same discriminant; compare index against power basis
        from puresextic.algebra import hermitian_gram
        from puresextic.basis import derived_transition
        g = hermitian_gram(build_basis(sextic_field(m)).elements).det()
        assert abs(g.coeffs[0]) == disc_valuations(6, m).abs_disc()


def test_assumption_violated_cases():
    with pytest.raises(AssumptionViolated):
        general_integral_basis(6, 16 * 3)
    with pytest.raises(AssumptionViolated):
        wild_data(6, 27 * 2)


def test_general_shape_params_n6_match():
    f = sextic_field(67228)
    gs = general_shape_params(6)
    sp = shape_params(f)
    for i, lam in ((1, sp.lam1), (2, sp.lam2), (3, sp.lam3)):
        assert mono_reduced(Monomial(f.tuple.a, gs[i])) == mono_reduced(lam)


def test_general_shape_params_n4_instantiation():
    gs = general_shape_params(4)
    # lambda_1 exponents (2j - 8 floor(j/4) - 4)/4 for j=1..3; lambda_2 = 1/a_2
    assert gs[1] == (Fr(-1, 2), Fr(0), Fr(1, 2))
    assert gs[2] == (Fr(0), Fr(-1), Fr(0))


def test_all_lambda_one_for_trivial_tuple():
    gs = general_shape_params(6)
    for exps in gs.values():
        mono = Monomial((1, 1, 1, 1, 1), exps)
        assert mono_reduced(mono) == {}
