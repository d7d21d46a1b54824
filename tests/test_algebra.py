import itertools
import math
from fractions import Fraction as Fr

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (char_poly_rational, cubic_sign, gram_pair, is_positive_definite,
                     mult_matrix, radical_char_poly, sextic_trace, trace_numeric)
from puresextic.algebra import (CubicMatrix, CubicNum, RadicandMismatch, SexticNum, _imul,
                                hermitian_gram, mat_det, mat_solve)

rat = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def C(m, *q):
    return CubicNum.of(m, *q)


def test_cubic_mul_examples():
    # c * c = c^2, c^2 * c = m, and (1+c)(1-c) = 1 - c^2
    assert C(2, 0, 1, 0) * C(2, 0, 1, 0) == C(2, 0, 0, 1)
    assert C(2, 0, 0, 1) * C(2, 0, 1, 0) == C(2, 2, 0, 0)
    assert C(5, 1, 1, 0) * C(5, 1, -1, 0) == C(5, 1, 0, -1)


def test_cubic_radicand_mismatch():
    with pytest.raises(RadicandMismatch):
        C(2, 1, 0, 0) * C(3, 1, 0, 0)


def test_cubic_sign_norm_vs_numeric():
    for m in (2, 5, -3, -10, 44):
        for coeffs in [(1, 1, 0), (-3, 1, 1), (0, -2, 1), (10, -5, Fr(1, 3))]:
            x = C(m, *coeffs)
            assert cubic_sign(x) == (1 if x.evaluate(60) > 0 else -1)


@given(st.integers(min_value=2, max_value=60), rat, rat, rat, rat, rat, rat)
@settings(max_examples=60, deadline=None)
def test_cubic_ring_axioms(m, a0, a1, a2, b0, b1, b2):
    x = C(m, a0, a1, a2)
    y = C(m, b0, b1, b2)
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y


# The one number format, integer numerators over one positive denominator in
# lowest terms, against Fraction arithmetic on the coefficient view.

@given(st.sampled_from([3, 6]), st.integers(min_value=-60, max_value=60).filter(bool),
       st.data())
@settings(max_examples=150, deadline=None)
def test_one_format_matches_fraction_arithmetic(n, m, data):
    make = (lambda v: CubicNum.of(m, *v)) if n == 3 else (lambda v: SexticNum.of(m, v))
    vector = st.lists(rat, min_size=n, max_size=n)
    a = data.draw(vector)
    k = data.draw(st.integers(min_value=1, max_value=12))
    # the same value reached through a different unreduced intermediate, or another one
    b = a if data.draw(st.booleans()) else data.draw(vector)
    r = data.draw(rat.filter(bool))
    x, y = make(a), make([q * k for q in b]) * Fr(1, k)
    for z in (x, y, x + y, x - y, -x, x * r, r * x, x / r, x * k):
        assert z.den > 0 and math.gcd(z.den, *z.nums) == 1
    assert x.coeffs == tuple(a) and y.coeffs == tuple(b)
    assert (x == y) == (x.coeffs == y.coeffs) == (a == b)
    if x == y:
        assert hash(x) == hash(y)
    assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
    assert (-x).coeffs == tuple(-p for p in a)
    assert (x * r).coeffs == (r * x).coeffs == tuple(p * r for p in a)
    assert (x / r).coeffs == tuple(p / r for p in a)
    assert any(x.nums) == any(a)


def test_sextic_mul_examples():
    th = SexticNum.theta_power
    assert th(12, 1) * th(12, 5) == SexticNum.of(12, (12, 0, 0, 0, 0, 0))
    assert th(-7, 3) * th(-7, 3) == SexticNum.of(-7, (-7, 0, 0, 0, 0, 0))
    x = SexticNum.of(2, (1, 1, 0, 0, 0, 0))
    assert x * x == SexticNum.of(2, (1, 2, 1, 0, 0, 0))


def test_sextic_trace():
    x = SexticNum.of(10, (Fr(3, 2), 1, 2, 3, 4, 5))
    assert sextic_trace(x) == 9
    # numerical trace over all six embeddings agrees to 1e-9 relative
    t = trace_numeric(x, 60)
    assert abs(complex(t.real, t.imag) - 9) < 1e-9
    y = SexticNum.of(-10, (Fr(-7, 3), 1, 0, 2, 0, 1))
    tn = trace_numeric(y, 60)
    assert abs(complex(tn.real, tn.imag) - float(-14)) < 1e-9 * 14


def test_gram_pair_basics():
    one = SexticNum.one(44)
    assert gram_pair(one, one) == CubicNum.of(44, 6)
    th = SexticNum.theta_power(44, 1)
    assert gram_pair(th, th) == CubicNum.of(44, 0, 6, 0)
    # symmetry
    x = SexticNum.of(44, (1, 2, 0, Fr(1, 2), 0, 1))
    y = SexticNum.of(44, (0, 1, 1, 0, Fr(2, 3), 0))
    assert gram_pair(x, y) == gram_pair(y, x)


def test_gram_pair_matches_embeddings_numerically():
    """<J(x), J(y)> = sum_k sigma_k(x) conj(sigma_k(y)) for both signs of m."""
    for m in (7, -7, 12, -44):
        x = SexticNum.of(m, (1, 2, -1, 0, 1, Fr(1, 3)))
        y = SexticNum.of(m, (0, 1, 1, -2, 0, 1))
        exact = gram_pair(x, y).evaluate(60)
        with mpmath.workdps(60):
            r = mpmath.mpf(abs(m)) ** (mpmath.mpf(1) / 6)
            total = mpmath.mpc(0)

            def val(z, th):
                return sum(mpmath.mpf(c.numerator) / c.denominator * th ** t
                           for t, c in enumerate(z.coeffs))

            for k in range(6):
                w = mpmath.e ** (2j * mpmath.pi * k / 6) if m > 0 else \
                    mpmath.e ** (1j * mpmath.pi * (2 * k + 1) / 6)
                th = r * w
                total += val(x, th) * mpmath.conj(val(y, th))
            assert abs(total.imag) < 1e-40
            assert abs(total.real - exact) < 1e-40 * (1 + abs(exact))


def test_gram_positive_definite_both_signs():
    for m in (5, -5, 17, -17):
        basis = [SexticNum.theta_power(m, t) for t in range(6)]
        g = hermitian_gram(basis)
        assert is_positive_definite(g)


@given(st.integers(min_value=2, max_value=30),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=6, max_size=6),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_gram_bilinear_symmetric(m, xs, ys):
    x = SexticNum.of(m, xs)
    y = SexticNum.of(m, ys)
    assert gram_pair(x, y) == gram_pair(y, x)
    if any(x.nums):
        assert cubic_sign(gram_pair(x, x)) == 1


def test_det_examples():
    ident = CubicMatrix.from_rational(2, [[int(i == j) for j in range(6)] for i in range(6)])
    assert ident.det() == CubicNum.of(2, 1)
    # diag(1, c, c^2, m, mc, mc^2) has det m^5
    m = 2
    diag = [C(m, 1, 0, 0), C(m, 0, 1, 0), C(m, 0, 0, 1),
            C(m, m, 0, 0), C(m, 0, m, 0), C(m, 0, 0, m)]
    d = CubicMatrix.diagonal(m, diag)
    assert d.det() == CubicNum.of(m, m ** 5)


def test_det_congruence_rule():
    """det(B^T G B) = det(B)^2 det(G), exactly."""
    m = 5
    g = hermitian_gram([SexticNum.theta_power(m, t) for t in range(6)])
    rows = [[1, 0, 0, Fr(1, 2), 0, 0], [0, 1, 0, 0, Fr(1, 2), 0], [0, 0, 1, 0, 0, Fr(1, 2)],
            [0, 0, 0, Fr(1, 2), 0, 0], [0, 0, 0, 0, Fr(1, 2), 0], [0, 0, 0, 0, 0, Fr(1, 2)]]
    b = CubicMatrix.from_rational(m, rows)
    lhs = g.congruence(b).det()
    detb = mat_det([r[:] for r in rows])
    assert lhs == g.det() * (detb * detb)


def test_gram_congruence_invariance():
    """Gram(B P) = P^T Gram(B) P for a rational change of tuple."""
    m = 7
    basis = [SexticNum.theta_power(m, t) for t in range(6)]
    p_rows = [[1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, Fr(1, 3)], [0, 0, 1, 0, 0, 0],
              [0, 0, 0, 1, 0, 0], [0, 0, 2, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    new_basis = []
    for t in range(6):
        acc = SexticNum.of(m, (0,) * 6)
        for s in range(6):
            acc = acc + basis[s] * p_rows[s][t]
        new_basis.append(acc)
    p = CubicMatrix.from_rational(m, p_rows)
    assert hermitian_gram(new_basis) == hermitian_gram(basis).congruence(p)


def test_char_poly_companion():
    # companion matrix of x^3 - 2 has char poly x^3 - 2
    a = [[Fr(0), Fr(0), Fr(2)], [Fr(1), Fr(0), Fr(0)], [Fr(0), Fr(1), Fr(0)]]
    assert char_poly_rational(a) == [Fr(-2), Fr(0), Fr(0), Fr(1)]


def test_theta_is_integral():
    assert SexticNum.theta_power(12, 1).char_poly() == \
        [Fr(-12), Fr(0), Fr(0), Fr(0), Fr(0), Fr(0), Fr(1)]


def test_theta_over_two_is_not_integral():
    # theta/2 is a root of x^6 - m/64, so it is integral only if 64 | m
    for m in (2, 3, -5, 12, 17):
        x = SexticNum.theta_power(m, 1, Fr(1, 2))
        assert x.char_poly() == [Fr(-m, 64), 0, 0, 0, 0, 0, 1]
        assert not x.is_algebraic_integer()


def test_half_one_plus_theta_cubed_integral_iff_m_is_1_mod_4():
    # x = (1 + theta^3)/2 has (2x - 1)^2 = m, so its char poly is (x^2 - x + (1 - m)/4)^3
    for m in range(-40, 41):
        if m == 0:
            continue
        x = SexticNum.of(m, (Fr(1, 2), 0, 0, Fr(1, 2), 0, 0))
        c = Fr(1 - m, 4)
        assert x.char_poly() == [c ** 3, -3 * c ** 2, 3 * c ** 2 + 3 * c, -1 - 6 * c,
                                 3 + 3 * c, -3, 1]
        assert x.is_algebraic_integer() == (m % 4 == 1), m


def test_integrality_agrees_with_the_char_poly_denominators():
    """is_algebraic_integer is "char_poly has integer coefficients", however it is computed.

    Integral elements with den > 1: beta, gamma, delta (the last three) of the
    bases of Types A1..A5,B3.  Non-integral ones: theta/2, theta^2/3, (1+theta^3)/4."""
    from puresextic.basis import build_basis
    from puresextic.field import sextic_field
    from puresextic.types import SexticType, smallest_m_of_type
    integral = [e for i in range(1, 6)
                for e in build_basis(sextic_field(smallest_m_of_type(SexticType(i, 3), 1)[0]))
                .elements[3:]]
    assert all(x.den > 1 for x in integral)
    others = [x for m in (2, 3, -5, 17, 12) for x in (
        SexticNum.theta_power(m, 1, Fr(1, 2)), SexticNum.theta_power(m, 2, Fr(1, 3)),
        SexticNum.of(m, (Fr(1, 4), 0, 0, Fr(1, 4), 0, 0)))]
    for x in integral + others:
        assert x.is_algebraic_integer() == all(c.denominator == 1 for c in x.char_poly()), x
    assert all(x.is_algebraic_integer() for x in integral)
    assert not any(x.is_algebraic_integer() for x in others)


# The power-sum kernel against its oracle: Faddeev-LeVerrier on the multiplication
# matrix, for any degree n and radicand m (theta^n = m need not define a field).

coefficient = st.one_of(st.just(Fr(0)), st.integers(min_value=-30, max_value=30).map(Fr),
                        st.fractions(min_value=-30, max_value=30, max_denominator=12))
radicand = st.integers(min_value=-10 ** 12, max_value=10 ** 12)
element = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.lists(coefficient, min_size=n, max_size=n))


@given(radicand, element)
@settings(max_examples=200, deadline=None)
def test_radical_char_poly_matches_the_mult_matrix_oracle(m, vec):
    assert radical_char_poly(m, vec) == char_poly_rational(mult_matrix(m, vec))


@given(radicand, st.lists(coefficient, min_size=6, max_size=6),
       st.lists(coefficient, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_sextic_product_is_multiplication_by_the_matrix(m, a, b):
    prod = (SexticNum.of(m, a) * SexticNum.of(m, b)).coeffs
    assert list(prod) == [sum(r * y for r, y in zip(row, b)) for row in mult_matrix(m, a)]


# Oracles for the integer core that do not eliminate: the Leibniz formula, and
# multiplying back.

entry = st.one_of(st.just(Fr(0)), st.fractions(min_value=-20, max_value=20, max_denominator=9))


def square(n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


matrices = st.integers(min_value=1, max_value=6).flatmap(square)


def leibniz_det(a):
    n = len(a)
    total = Fr(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod((a[i][perm[i]] for i in range(n)), start=Fr(1))
    return total


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_det_matches_leibniz(a):
    assert mat_det(a) == leibniz_det(a)


@given(matrices)
@settings(max_examples=25, deadline=None)
def test_char_poly_matches_leibniz(a):
    n = len(a)
    coeffs = char_poly_rational(a)
    for x in range(-n // 2, n // 2 + 2):  # n + 1 points fix a degree-n polynomial
        xi_minus_a = [[(x if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
        assert sum(c * x ** k for k, c in enumerate(coeffs)) == leibniz_det(xi_minus_a)


@given(matrices, st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_multiplies_back(a, k, data):
    n = len(a)
    assume(leibniz_det(a) != 0)
    b = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    x = mat_solve(a, b)
    assert [[sum(a[i][t] * x[t][j] for t in range(n)) for j in range(k)] for i in range(n)] == b


def test_singular_solve_raises_zero_division():
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        mat_solve([[Fr(1), Fr(2)], [Fr(2), Fr(4)]], [[Fr(1)], [Fr(0)]])


def test_congruence_needs_a_rational_matrix():
    g = CubicMatrix.from_rational(5, [[1, 0], [0, 1]])
    b = CubicMatrix(2, 2, [[C(5, 1), C(5, 0, 1, 0)], [C(5, 0), C(5, 1)]], 5)
    with pytest.raises(ValueError, match="rational"):
        g.congruence(b)


# Oracles for the integer-backed CubicMatrix: the Leibniz expansion in CubicNum
# arithmetic, the pairwise Minkowski pairing, and scaling there and back.

non_cube = st.integers(min_value=-40, max_value=40).filter(
    lambda m: round(abs(m) ** (1 / 3)) ** 3 != abs(m))
small = st.one_of(st.just(Fr(0)), st.fractions(min_value=-6, max_value=6, max_denominator=5))


def cubic_rows(m, n):
    cubic = st.one_of(st.just(C(m, 0)), st.tuples(small, small, small).map(lambda q: C(m, *q)))
    return st.lists(st.lists(cubic, min_size=n, max_size=n), min_size=n, max_size=n)


def leibniz_det_cubic(m, a):
    n = len(a)
    total = C(m, 0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = C(m, (-1) ** inversions)
        for i in range(n):
            term = term * a[i][perm[i]]
        total = total + term
    return total


@given(non_cube, st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=80, deadline=None)
def test_cubic_det_matches_leibniz(m, n, data):
    a = data.draw(cubic_rows(m, n))
    shape = data.draw(st.sampled_from(["random", "zero corner", "dependent row"]))
    if shape == "zero corner":  # the first pivot must come from a row swap
        a[0][0] = C(m, 0)
    elif shape == "dependent row" and n > 1:  # singular: row n-1 = q * row 0
        q = data.draw(st.tuples(small, small, small).map(lambda t: C(m, *t)))
        a[n - 1] = [q * x for x in a[0]]
    det = CubicMatrix(n, n, a, m).det()
    assert det == leibniz_det_cubic(m, a)
    if shape == "dependent row" and n > 1:
        assert det == C(m, 0)


sextic = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=6, max_size=6)


@given(st.integers(min_value=-60, max_value=60).filter(lambda m: m != 0),
       st.lists(sextic, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_hermitian_gram_matches_pairwise_gram_pair(m, tuples):
    basis = [SexticNum.of(m, cs) for cs in tuples]
    g = hermitian_gram(basis)
    assert g.rows == g.cols == len(basis)
    assert [list(row) for row in g.entries] == [[gram_pair(x, y) for y in basis] for x in basis]


@given(st.integers(min_value=-60, max_value=60).filter(lambda m: m != 0),
       st.lists(sextic, min_size=1, max_size=6),
       st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(lambda r: r != 0))
@settings(max_examples=60, deadline=None)
def test_scaling_there_and_back_is_equality(m, tuples, r):
    g = hermitian_gram([SexticNum.of(m, cs) for cs in tuples])
    for back in (g * r * (1 / r), (1 / r) * (r * g), g * r.numerator * Fr(1, r.numerator)):
        assert back == g
        assert (back.parts, back.den) == (g.parts, g.den)  # one representation in lowest terms
        assert back.to_json() == g.to_json()
    scaled = g * r
    assert [list(row) for row in scaled.entries] == [[x * r for x in row] for row in g.entries]
    assert scaled == CubicMatrix(g.rows, g.cols, [[x * r for x in row] for row in g.entries], m)


@given(non_cube, st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_positive_definite_iff_leading_minors_positive(m, n, data):
    a = data.draw(cubic_rows(m, n))
    a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    minors = [leibniz_det_cubic(m, [row[:k] for row in a[:k]]) for k in range(1, n + 1)]
    assert is_positive_definite(CubicMatrix(n, n, a, m)) == all(cubic_sign(d) > 0 for d in minors)


def test_positive_definite_needs_every_leading_minor():
    """det [[0, 1], [1, 0]] = -1 and an elimination with row swaps sees pivots 1, 1."""
    swap = CubicMatrix.from_rational(7, [[0, 1], [1, 0]])
    assert not is_positive_definite(swap)
    assert not is_positive_definite(swap * -1)
    assert is_positive_definite(CubicMatrix.from_rational(7, [[2, 1], [1, 2]]))


@st.composite
def int_matrix_pair(draw):
    """(a, b) with a n x k and b k x p; a dense, diagonal, zero, or with zero rows."""
    n, k, p = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(min_value=-10 ** 30, max_value=10 ** 30))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=p, max_size=p), min_size=k, max_size=k))
    kind = draw(st.sampled_from(("dense", "diagonal", "zero", "zero rows")))
    if kind == "diagonal":
        a = [[v if i == j else 0 for j, v in enumerate(row)] for i, row in enumerate(a)]
    elif kind == "zero":
        a = [[0] * k for _ in range(n)]
    elif kind == "zero rows":
        zero = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        a = [[0] * k if i in zero else row for i, row in enumerate(a)]
    return a, b


@given(int_matrix_pair())
@settings(max_examples=200, deadline=None)
def test_imul_skipping_zeros_is_the_dense_product(ab):
    a, b = ab
    dense = [[sum(a[i][s] * b[s][j] for s in range(len(b))) for j in range(len(b[0]))]
             for i in range(len(a))]
    assert _imul(a, b) == dense
    assert _imul([tuple(r) for r in a], tuple(map(tuple, b))) == dense  # tuples, as congruence passes
