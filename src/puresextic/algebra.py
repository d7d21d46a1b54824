"""Exact arithmetic in the cubic and sextic radical rings Q[c]/(c^3-m), Q[t]/(t^6-m).

Every exact number has one format: integer numerators over one positive
denominator, in lowest terms.  A ring element (CubicNum, SexticNum) is
sum nums[t] theta^t / den; a matrix over the cubic field (CubicMatrix) is three
integer matrices over one denominator.  Equal values have equal fields, and
`coeffs`, the `fractions.Fraction` coefficients, is a derived read-only view.
Every JSON output writes a rational as rational_json's {"num", "den"} strings.
A characteristic polynomial (the integrality check) comes from power sums in
Z[theta]/(theta^n - m) and Newton's identities (_power_sum_char_poly); its
independent test oracle, Faddeev-LeVerrier on the multiplication matrix, lives
in tests/oracles.py.  One fraction-free (Bareiss) Gauss-Jordan elimination
gives rational determinants and solves.  Gram products, congruences (integer
matrix products that skip the zero entries of their left factor, so a diagonal
Gram costs little) and determinants (a forward Bareiss elimination over Z[c],
dividing exactly through the norm) never build a Fraction; the reference
tables and the shape certificate (gram) build their entries from integer
numerators with the constructors here.  Numeric evaluation (display,
cross-checks) uses mpmath, imported on first use: exact work never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import mpmath


class RadicandMismatch(ValueError):
    """Raised when mixing elements that live over different radicands."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def rational_json(q) -> dict:
    """The one JSON form of an exact rational (an int or a Fraction)."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


# ---------------------------------------------------------------------------
# Radical numbers: sum nums[t] theta^t / den, theta^n = m
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class _RadicalNum:
    """sum nums[t] theta^t / den in Q[theta]/(theta^n - m), n = len(nums): integer
    numerators over one positive denominator, in lowest terms, so that equal
    elements have equal fields.  The ring operations shared by both degrees."""
    m: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, m: int, nums: Iterable[int], den: int):
        nums = tuple(nums)
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums, den = tuple(v // g for v in nums), den // g
        self.__dict__.update(m=m, nums=nums, den=den)  # frozen: no __setattr__

    @classmethod
    def _of_rationals(cls, m: int, qs: Iterable):
        qs = tuple(_rat(q) for q in qs)
        d = _den(qs)
        x = cls(m, _ints(qs, d), d)
        x.__dict__["coeffs"] = qs  # the view, already built
        return x

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions: a read-only view, built once."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def _check(self, other: "_RadicalNum") -> None:
        if self.m != other.m:
            raise RadicandMismatch(f"radicands differ: {self.m} vs {other.m}")

    def __add__(self, other):
        self._check(other)
        d, e = self.den, other.den
        return type(self)(self.m, [a * e + b * d for a, b in zip(self.nums, other.nums)], d * e)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return type(self)(self.m, [-a for a in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = _rat(other)
            return type(self)(self.m, [a * r.numerator for a in self.nums],
                              self.den * r.denominator)
        self._check(other)
        return type(self)(self.m, _mul_radical(self.nums, other.nums, self.m),
                          self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, r):
        return self * (1 / _rat(r))

    def to_json(self) -> list[dict]:
        return [rational_json(q) for q in self.coeffs]


def _mul_radical(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    """(sum a_i theta^i)(sum b_j theta^j) reduced by theta^n = m, n = len(a) = len(b)."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return [prod[s] + m * prod[s + n] for s in range(n - 1)] + [prod[n - 1]]


# ---------------------------------------------------------------------------
# Cubic numbers: q0 + q1*c + q2*c^2 with c the real cube root of m
# ---------------------------------------------------------------------------

class CubicNum(_RadicalNum):

    def is_rational(self) -> bool:
        return not (self.nums[1] or self.nums[2])

    def evaluate(self, prec: int = 50) -> mpmath.mpf:
        """Numeric value at the real cube root of m."""
        import mpmath
        with mpmath.workdps(prec):
            c = mpmath.cbrt(mpmath.mpf(abs(self.m)))
            if self.m < 0:
                c = -c
            q0, q1, q2 = self.coeffs
            val = _mpf_frac(q0) + _mpf_frac(q1) * c + _mpf_frac(q2) * c * c
            return +val

    def __repr__(self) -> str:
        return f"CubicNum(m={self.m}, {self.coeffs[0]} + {self.coeffs[1]}*c + {self.coeffs[2]}*c^2)"


# Integer arithmetic on coefficient triples (q0, q1, q2) of q0 + q1 c + q2 c^2, c^3 = m:
# the numerators of a CubicNum and the entries of CubicMatrix's elimination.

def _mul3(a: Sequence, b: Sequence, m: int) -> tuple:
    """(a0 + a1 c + a2 c^2)(b0 + b1 c + b2 c^2) reduced by c^3 = m: _mul_radical for
    n = 3, unrolled for the Bareiss inner loop."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a0 * b0 + m * (a1 * b2 + a2 * b1), a0 * b1 + a1 * b0 + m * a2 * b2,
            a0 * b2 + a1 * b1 + a2 * b0)


def _norm3(q: Sequence, m: int):
    """The norm N(q) = q(c) q(wc) q(w^2 c) of q0 + q1 c + q2 c^2, on a triple."""
    q0, q1, q2 = q
    return q0 ** 3 + m * q1 ** 3 + m * m * q2 ** 3 - 3 * m * q0 * q1 * q2


def _adj3(q: Sequence, m: int) -> tuple:
    """The adjugate q' = (q0^2 - m q1 q2) + (m q2^2 - q0 q1) c + (q1^2 - q0 q2) c^2,
    with q * q' = N(q): the product of q's two complex conjugates."""
    q0, q1, q2 = q
    return (q0 * q0 - m * q1 * q2, m * q2 * q2 - q0 * q1, q1 * q1 - q0 * q2)


def _mpf_frac(q: Fraction) -> mpmath.mpf:
    import mpmath
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


# ---------------------------------------------------------------------------
# Sextic numbers: sum of c_t * theta^t, theta^6 = m
# ---------------------------------------------------------------------------

class SexticNum(_RadicalNum):

    @staticmethod
    def of(m: int, coeffs: Iterable) -> "SexticNum":
        x = SexticNum._of_rationals(m, coeffs)
        if len(x.nums) != 6:
            raise ValueError("need 6 coefficients")
        return x

    @staticmethod
    def theta_power(m: int, t: int, scale=1) -> "SexticNum":
        """scale * theta^t for 0 <= t <= 5."""
        r = _rat(scale)
        nums = [0] * 6
        nums[t] = r.numerator
        return SexticNum(m, nums, r.denominator)

    @staticmethod
    def one(m: int) -> "SexticNum":
        return SexticNum.theta_power(m, 0)

    def char_poly(self) -> list[Fraction]:
        """Characteristic polynomial of the multiplication matrix, x^6 + a5 x^5 + ... + a0.

        Returned as [a0, ..., a5, 1], from power sums (_power_sum_char_poly).  Integer
        coefficients certify algebraic integrality.
        """
        return _power_sum_char_poly(self.m, self.nums, self.den)

    def is_algebraic_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.char_poly())


def _power_sum_char_poly(m: int, y: Sequence[int], d: int) -> list[Fraction]:
    """Coefficients [c0, ..., c_{n-1}, 1] of the characteristic polynomial of
    x = sum y[t] theta^t / d in Q[theta]/(theta^n - m), n = len(y), for integer
    numerators y and d > 0.

    Tr(theta^t) = 0 for 0 < t < n, so with y in Z[theta] each power sum p_k = Tr(y^k)
    is n times the constant coefficient of y^k.  Newton's identities
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i give the integer elementary symmetric
    functions e_k of y's conjugates (each division by k is exact), and the
    coefficient of x^(n-k) is (-1)^k e_k / d^k.
    """
    n = len(y)
    q, yk = [n * y[0]], y  # q[i-1] = (-1)^(i-1) p_i
    for i in range(2, n + 1):
        yk = _mul_radical(yk, y, m)
        q.append(n * yk[0] if i % 2 else -n * yk[0])
    e = [1]
    for k in range(1, n + 1):
        ek, r = divmod(sum(map(mul, reversed(e), q)), k)  # e_{k-i} q[i-1], i = 1..k
        assert r == 0, "Newton's identities must divide exactly over Z[theta]"
        e.append(ek)
    return [Fraction(-e[k] if k % 2 else e[k], d ** k) for k in range(n, 0, -1)] + [Fraction(1)]


# ---------------------------------------------------------------------------
# The Minkowski pairing
# ---------------------------------------------------------------------------

def hermitian_gram(basis: Sequence[SexticNum]) -> "CubicMatrix":
    """Gram matrix of a tuple of sextic numbers under the Minkowski pairing.

    <J(x), J(y)> = sum_k sigma_k(x) conj(sigma_k(y)) = 6 sum_t x_t y_t gamma^t, with
    gamma = sign(m) c and gamma^3 = |m|, as integer products: with X the coefficients
    over one denominator D, the c^s-component of the Gram (s = 0, 1, 2) is
    X diag(w) X^T / D^2, where w_t is the c^s-coefficient of 6 gamma^t.  Only gamma^s
    and gamma^(s+3) = |m| gamma^s have one, and it is sign(m)^s.
    """
    m = basis[0].m
    if any(x.m != m for x in basis):
        raise RadicandMismatch(f"radicands differ: {sorted({x.m for x in basis})}")
    d = math.lcm(*(x.den for x in basis))
    xs = [[v * (d // x.den) for v in x.nums] for x in basis]
    sgn = 1 if m > 0 else -1
    parts = []
    for s in range(3):
        w, w3 = 6 * sgn ** s, 6 * sgn ** s * abs(m)
        parts.append([[w * xi[s] * xj[s] + w3 * xi[s + 3] * xj[s + 3] for xj in xs] for xi in xs])
    return CubicMatrix._of(m, parts, d * d)


# ---------------------------------------------------------------------------
# Dense matrices over the cubic field
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class CubicMatrix:
    """The matrix (G0 + G1 c + G2 c^2) / den: three integer matrices (`parts`) and one
    positive denominator, in lowest terms, so that equal matrices have equal fields."""
    rows: int
    cols: int
    m: int
    parts: tuple  # (G0, G1, G2), each a tuple of int rows
    den: int

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[CubicNum]], m: int):
        d = math.lcm(1, *(x.den for row in entries for x in row))
        self._set(rows, cols, m, [[[x.nums[s] * (d // x.den) for x in row] for row in entries]
                                  for s in range(3)], d)

    def _set(self, rows: int, cols: int, m: int, parts, d: int) -> None:
        g = math.gcd(d, *chain.from_iterable(chain.from_iterable(parts)))
        if g > 1:
            parts = [[[v // g for v in row] for row in p] for p in parts]
        for name, value in (("rows", rows), ("cols", cols), ("m", m),
                            ("parts", tuple(tuple(map(tuple, p)) for p in parts)),
                            ("den", d // g)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, m: int, parts, d: int) -> "CubicMatrix":
        """(parts[0] + parts[1] c + parts[2] c^2) / d, for integer matrices and d > 0."""
        out = object.__new__(cls)
        out._set(len(parts[0]), len(parts[0][0]) if parts[0] else 0, m, parts, d)
        return out

    @property
    def entries(self) -> tuple[tuple[CubicNum, ...], ...]:
        """Rows of CubicNum, built on demand; a read-only view of the matrix."""
        return tuple(tuple(CubicNum(self.m, q, self.den) for q in zip(*rows))
                     for rows in zip(*self.parts))

    @staticmethod
    def from_rational(m: int, rows: Sequence[Sequence]) -> "CubicMatrix":
        rows = [[_rat(x) for x in row] for row in rows]
        d = _den(x for row in rows for x in row)
        zero = [[0] * len(row) for row in rows]
        return CubicMatrix._of(m, ([_ints(row, d) for row in rows], zero, zero), d)

    @staticmethod
    def diagonal(m: int, diag: Sequence[CubicNum]) -> "CubicMatrix":
        n = len(diag)
        zero = CubicNum(m, (0, 0, 0), 1)
        ents = [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]
        return CubicMatrix(n, n, ents, m)

    def __mul__(self, other) -> "CubicMatrix":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        r = _rat(other)
        return CubicMatrix._of(self.m, [[[v * r.numerator for v in row] for row in p]
                                        for p in self.parts], self.den * r.denominator)

    __rmul__ = __mul__

    def congruence(self, b: "CubicMatrix") -> "CubicMatrix":
        """b^T * self * b for a rational b: with self = G0 + G1 c + G2 c^2, the sum of
        b^T G_s b * c^s, each an integer product over the denominator den(b)^2 den(G)."""
        if any(v for p in b.parts[1:] for row in p for v in row):
            raise ValueError("congruence needs a rational matrix")
        bi = b.parts[0]
        bt = list(zip(*bi))
        return CubicMatrix._of(self.m, [_imul(bt, _imul(g, bi)) for g in self.parts],
                               b.den * b.den * self.den)

    def _triples(self) -> list[list[tuple[int, int, int]]]:
        """The numerator matrix den * self, as rows of coefficient triples."""
        return [list(zip(*rows)) for rows in zip(*self.parts)]

    def det(self) -> CubicNum:
        """Exact determinant: sign * (last pivot) / den^n of the fraction-free
        elimination over Z[c] of the numerator matrix."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        sign, pivots = _zc_bareiss(self._triples(), self.m)
        last = pivots[-1] if pivots else (1, 0, 0)
        return CubicNum(self.m, [sign * q for q in last], self.den ** self.rows)

    def to_json(self) -> list:
        return [[x.to_json() for x in row] for row in self.entries]


def _zc_bareiss(a: list[list[tuple[int, int, int]]],
                m: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Forward fraction-free (Bareiss 1968) elimination, in place, over Z[c], c^3 = m.

    Step k replaces a[i][j] (i, j > k) by (p a[i][j] - a[i][k] a[k][j]) / prev, with p
    the pivot a[k][k] and prev the pivot before it.  The quotient is a minor of a,
    so it lies in Z[c]: dividing is multiplying by prev's adjugate (prev prev' =
    N(prev)) and then dividing each integer coefficient by N(prev), exactly.
    Returns (sign, pivots) with sign that of the row permutation and sign * pivots[-1]
    = det(a).  A zero pivot, left when no row below has a nonzero entry in its
    column, ends the elimination as the last one returned.
    """
    n = len(a)
    sign, pivots = 1, []
    adj, nrm = (1, 0, 0), 1
    for k in range(n):
        r = next((r for r in range(k, n) if any(a[r][k])), k)
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        p = a[k][k]
        pivots.append(p)
        if not any(p):
            break
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                x, y = _mul3(p, ri[j], m), _mul3(f, rk[j], m)
                q = []
                for v in _mul3((x[0] - y[0], x[1] - y[1], x[2] - y[2]), adj, m):
                    v, rem = divmod(v, nrm)
                    assert rem == 0, "Bareiss division must be exact over Z[c]"
                    q.append(v)
                ri[j] = tuple(q)
        adj, nrm = _adj3(p, m), _norm3(p, m)
    return sign, pivots


# ---------------------------------------------------------------------------
# Rational matrices (plain lists of Fractions) and characteristic polynomials
# ---------------------------------------------------------------------------

def _den(xs: Iterable) -> int:
    """Least common denominator of ints and Fractions."""
    return math.lcm(1, *(x.denominator for x in xs))


def _ints(row: Iterable, d: int) -> list[int]:
    """d * row as ints, for d a multiple of every denominator in row."""
    return [x.numerator * (d // x.denominator) for x in row]


def _imul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """a * b for integer matrices, as a sum of rows of b: a zero entry of a costs
    nothing, so a diagonal a (the Grams of both congruences `verify` runs) is cheap."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b):
            if x:
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(acc)
    return out


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss 1968) Gauss-Jordan elimination, in place, of n integer rows.

    Every entry stays a minor, so each division by the previous pivot is exact.
    Returns (sign, pivot), det = sign * pivot of the leading n x n block; a
    nonzero pivot leaves that block pivot * I and the rest pivot * block^-1 * rest.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return sign, 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        rk = rows[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], rk)]
        prev = p
    return sign, prev


def mat_det(a: Sequence[Sequence[Fraction]]) -> Fraction:
    dens = [_den(row) for row in a]
    sign, p = _bareiss([_ints(row, d) for row, d in zip(a, dens)])
    return Fraction(sign * p, math.prod(dens))


def mat_solve(a: Sequence[Sequence[Fraction]],
              b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Solve a * X = b exactly (a square nonsingular)."""
    n = len(a)
    rows = [_ints(row, _den(row)) for row in ([*ra, *rb] for ra, rb in zip(a, b))]
    _, p = _bareiss(rows)
    if p == 0:
        raise ZeroDivisionError("singular matrix")
    return [[Fraction(x, p) for x in row[n:]] for row in rows]
