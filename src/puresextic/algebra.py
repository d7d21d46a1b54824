"""Exact arithmetic in the cubic and sextic radical rings Q[c]/(c^3-m), Q[t]/(t^6-m).

Ring elements have `fractions.Fraction` coefficients.  The exact linear algebra
runs in Python ints over one common denominator: Faddeev-LeVerrier
characteristic polynomials, one fraction-free (Bareiss) elimination for
rational determinants and solves, and Gram congruences by rational matrices.
Determinants over the cubic field use Gaussian elimination with the
closed-form inverse.  Numeric evaluation (display, cross-checks) uses mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

import mpmath


class RadicandMismatch(ValueError):
    """Raised when mixing elements that live over different radicands."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Cubic numbers: q0 + q1*c + q2*c^2 with c the real cube root of m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicNum:
    m: int
    coeffs: tuple[Fraction, Fraction, Fraction]

    @staticmethod
    def of(m: int, q0=0, q1=0, q2=0) -> "CubicNum":
        return CubicNum(m, (_rat(q0), _rat(q1), _rat(q2)))

    def _check(self, other: "CubicNum") -> None:
        if self.m != other.m:
            raise RadicandMismatch(f"radicands differ: {self.m} vs {other.m}")

    def __add__(self, other: "CubicNum") -> "CubicNum":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return CubicNum(self.m, (a[0] + b[0], a[1] + b[1], a[2] + b[2]))

    def __sub__(self, other: "CubicNum") -> "CubicNum":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return CubicNum(self.m, (a[0] - b[0], a[1] - b[1], a[2] - b[2]))

    def __neg__(self) -> "CubicNum":
        a = self.coeffs
        return CubicNum(self.m, (-a[0], -a[1], -a[2]))

    def __mul__(self, other) -> "CubicNum":
        if isinstance(other, (int, Fraction)):
            r = _rat(other)
            a = self.coeffs
            return CubicNum(self.m, (a[0] * r, a[1] * r, a[2] * r))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        m = self.m
        # (a0 + a1 c + a2 c^2)(b0 + b1 c + b2 c^2) reduced by c^3 = m
        c0 = a[0] * b[0] + m * (a[1] * b[2] + a[2] * b[1])
        c1 = a[0] * b[1] + a[1] * b[0] + m * a[2] * b[2]
        c2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0]
        return CubicNum(m, (c0, c1, c2))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(q == 0 for q in self.coeffs)

    def is_rational(self) -> bool:
        return self.coeffs[1] == 0 and self.coeffs[2] == 0

    def inverse(self) -> "CubicNum":
        """q'/N(q), with q * q' = N(q) for the adjugate
        q' = (q0^2 - m q1 q2) + (m q2^2 - q0 q1) c + (q1^2 - q0 q2) c^2.

        So q is invertible iff its norm is not zero.
        """
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of a cubic number of norm 0")
        q0, q1, q2 = self.coeffs
        m = self.m
        return CubicNum(m, ((q0 * q0 - m * q1 * q2) / n, (m * q2 * q2 - q0 * q1) / n,
                            (q1 * q1 - q0 * q2) / n))

    def __truediv__(self, other) -> "CubicNum":
        if isinstance(other, (int, Fraction)):
            r = _rat(other)
            a = self.coeffs
            return CubicNum(self.m, (a[0] / r, a[1] / r, a[2] / r))
        self._check(other)
        return self * other.inverse()

    def evaluate(self, prec: int = 50) -> mpmath.mpf:
        """Numeric value at the real cube root of m."""
        with mpmath.workdps(prec):
            c = mpmath.cbrt(mpmath.mpf(abs(self.m)))
            if self.m < 0:
                c = -c
            q0, q1, q2 = self.coeffs
            val = _mpf_frac(q0) + _mpf_frac(q1) * c + _mpf_frac(q2) * c * c
            return +val

    def norm(self) -> Fraction:
        """Field norm N(q0 + q1 c + q2 c^2) = q0^3 + m q1^3 + m^2 q2^3 - 3 m q0 q1 q2."""
        q0, q1, q2 = self.coeffs
        m = self.m
        return q0 ** 3 + m * q1 ** 3 + m * m * q2 ** 3 - 3 * m * q0 * q1 * q2

    def sign(self) -> int:
        """Exact sign of the value at the real cube root of m.

        The conjugate pair of complex embeddings contributes the positive
        factor |q(wc)|^2 to the norm, so sign(q(c)) = sign(N(q)).  No floating
        point is involved.
        """
        n = self.norm()
        return (n > 0) - (n < 0)

    def to_json(self) -> list[dict]:
        return [{"num": str(q.numerator), "den": str(q.denominator)} for q in self.coeffs]

    def __repr__(self) -> str:
        return f"CubicNum(m={self.m}, {self.coeffs[0]} + {self.coeffs[1]}*c + {self.coeffs[2]}*c^2)"


def _mpf_frac(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


# ---------------------------------------------------------------------------
# Sextic numbers: sum of c_t * theta^t, theta^6 = m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SexticNum:
    m: int
    coeffs: tuple[Fraction, ...]  # length 6

    @staticmethod
    def of(m: int, coeffs: Iterable) -> "SexticNum":
        cs = tuple(_rat(c) for c in coeffs)
        if len(cs) != 6:
            raise ValueError("need 6 coefficients")
        return SexticNum(m, cs)

    @staticmethod
    def theta_power(m: int, t: int, scale=1) -> "SexticNum":
        """scale * theta^t for 0 <= t <= 5."""
        cs = [Fraction(0)] * 6
        cs[t] = _rat(scale)
        return SexticNum(m, tuple(cs))

    @staticmethod
    def one(m: int) -> "SexticNum":
        return SexticNum.theta_power(m, 0)

    def _check(self, other: "SexticNum") -> None:
        if self.m != other.m:
            raise RadicandMismatch(f"radicands differ: {self.m} vs {other.m}")

    def __add__(self, other: "SexticNum") -> "SexticNum":
        self._check(other)
        return SexticNum(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "SexticNum") -> "SexticNum":
        self._check(other)
        return SexticNum(self.m, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "SexticNum":
        return SexticNum(self.m, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "SexticNum":
        if isinstance(other, (int, Fraction)):
            r = _rat(other)
            return SexticNum(self.m, tuple(a * r for a in self.coeffs))
        self._check(other)
        m = self.m
        prod = [Fraction(0)] * 11
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    prod[i + j] += a * b
        out = list(prod[:6])
        for k in range(6, 11):
            out[k - 6] += m * prod[k]
        return SexticNum(m, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, r) -> "SexticNum":
        r = _rat(r)
        return SexticNum(self.m, tuple(a / r for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def trace(self) -> Fraction:
        # Tr(theta^t) = 0 for 1 <= t <= 5
        return 6 * self.coeffs[0]

    def char_poly(self) -> list[Fraction]:
        """Characteristic polynomial of the multiplication matrix, x^6 + a5 x^5 + ... + a0.

        Returned as [a0, ..., a5, 1].  Integer coefficients certify algebraic
        integrality.
        """
        return char_poly_rational(mult_matrix(self.m, self.coeffs))

    def is_algebraic_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.char_poly())

    def to_json(self) -> list[dict]:
        return [{"num": str(c.numerator), "den": str(c.denominator)} for c in self.coeffs]


def trace_numeric(x: SexticNum, prec: int = 60):
    """Sum of x over all six archimedean embeddings, numerically.

    Cross-checks SexticNum.trace(): the embeddings send theta to |m|^(1/6) * w
    with w running over the sixth roots of sign(m).
    """
    m = x.m
    with mpmath.workdps(prec):
        r = mpmath.mpf(abs(m)) ** (mpmath.mpf(1) / 6)
        total = mpmath.mpc(0)
        for k in range(6):
            if m > 0:
                w = mpmath.e ** (2j * mpmath.pi * k / 6)
            else:
                w = mpmath.e ** (1j * mpmath.pi * (2 * k + 1) / 6)
            th = r * w
            total += sum(_mpf_frac(c) * th ** t for t, c in enumerate(x.coeffs))
        return total


# ---------------------------------------------------------------------------
# The Minkowski pairing
# ---------------------------------------------------------------------------

def gram_pair(x: SexticNum, y: SexticNum) -> CubicNum:
    """<J(x), J(y)> = sum_k sigma_k(x) * conj(sigma_k(y)), exactly.

    Equals 6 * sum_t x_t y_t |m|^(t/3); the powers |m|^(t/3) reduce into the
    cubic ring via gamma = sign(m)*c, gamma^3 = |m|.  For m > 0 this is the
    literal rule 6 * sum_t x_t y_t theta^(2t) with theta^2 = c.
    """
    if x.m != y.m:
        raise RadicandMismatch(f"radicands differ: {x.m} vs {y.m}")
    m = x.m
    s = 1 if m > 0 else -1
    # gamma^t for t = 0..5 on the basis (1, c, c^2)
    am = abs(m)
    gam = [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(s), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(am), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(s * am), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(am)),
    ]
    acc = [Fraction(0), Fraction(0), Fraction(0)]
    for t in range(6):
        w = x.coeffs[t] * y.coeffs[t]
        if w != 0:
            g = gam[t]
            acc[0] += w * g[0]
            acc[1] += w * g[1]
            acc[2] += w * g[2]
    return CubicNum(m, (6 * acc[0], 6 * acc[1], 6 * acc[2]))


def hermitian_gram(basis: Sequence[SexticNum]) -> "CubicMatrix":
    """Gram matrix of a tuple of sextic numbers under the Minkowski pairing."""
    n = len(basis)
    m = basis[0].m
    ents = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g = gram_pair(basis[i], basis[j])
            ents[i][j] = g
            ents[j][i] = g
    return CubicMatrix(n, n, [[ents[i][j] for j in range(n)] for i in range(n)], m)


# ---------------------------------------------------------------------------
# Dense matrices over the cubic field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicMatrix:
    rows: int
    cols: int
    entries: list  # list of rows of CubicNum
    m: int

    @staticmethod
    def from_rational(m: int, rows: Sequence[Sequence]) -> "CubicMatrix":
        ents = [[CubicNum.of(m, _rat(x)) for x in row] for row in rows]
        return CubicMatrix(len(ents), len(ents[0]), ents, m)

    @staticmethod
    def identity(m: int, n: int) -> "CubicMatrix":
        return CubicMatrix.from_rational(m, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(m: int, diag: Sequence[CubicNum]) -> "CubicMatrix":
        n = len(diag)
        zero = CubicNum.of(m)
        ents = [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]
        return CubicMatrix(n, n, ents, m)

    def __mul__(self, other) -> "CubicMatrix":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        ents = [[x * other for x in row] for row in self.entries]
        return CubicMatrix(self.rows, self.cols, ents, self.m)

    __rmul__ = __mul__

    def congruence(self, b: "CubicMatrix") -> "CubicMatrix":
        """b^T * self * b for a rational b: with self = G0 + G1 c + G2 c^2, the sum of
        b^T G_s b * c^s, each an integer product over the denominator den(b)^2 den(G)."""
        if not all(x.is_rational() for row in b.entries for x in row):
            raise ValueError("congruence needs a rational matrix")
        bq = [[x.coeffs[0] for x in row] for row in b.entries]
        db = _den(x for row in bq for x in row)
        dg = _den(q for row in self.entries for x in row for q in x.coeffs)
        bi = [_ints(row, db) for row in bq]
        bt = list(zip(*bi))
        parts = []
        for s in range(3):
            gs = [_ints([x.coeffs[s] for x in row], dg) for row in self.entries]
            parts.append(_imul(bt, _imul(gs, bi)))
        den = db * db * dg
        ents = [[CubicNum(self.m, tuple(Fraction(p[i][j], den) for p in parts))
                 for j in range(b.cols)] for i in range(b.cols)]
        return CubicMatrix(b.cols, b.cols, ents, self.m)

    def det(self) -> CubicNum:
        """Exact determinant via Gaussian elimination over the cubic field."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        a = [row[:] for row in self.entries]
        det = CubicNum.of(self.m, 1)
        sign = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if piv is None:
                return CubicNum.of(self.m)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                sign = -sign
            p = a[col][col]
            det = det * p
            pinv = p.inverse()
            for r in range(col + 1, n):
                if a[r][col].is_zero():
                    continue
                f = a[r][col] * pinv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return det * sign

    def is_positive_definite(self) -> bool:
        """Leading principal minors all positive at the real root (exact signs)."""
        for k in range(1, self.rows + 1):
            sub = CubicMatrix(k, k, [row[:k] for row in self.entries[:k]], self.m)
            if sub.det().sign() <= 0:
                return False
        return True

    def to_json(self) -> list:
        return [[x.to_json() for x in row] for row in self.entries]


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
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


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


def mult_matrix(m: int, vec: Sequence[Fraction]) -> list[list[Fraction]]:
    """Matrix of multiplication by sum vec[t] theta^t on the power basis, theta^n = m:
    column j is the element times theta^j, entry (i, j) vec[i-j] or m vec[i-j+n]."""
    n = len(vec)
    return [[vec[i - j] if i >= j else m * vec[i - j + n] for j in range(n)] for i in range(n)]


def char_poly_rational(a: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Coefficients [c0, ..., c_{n-1}, 1] of det(xI - A), by Faddeev-LeVerrier in ints.

    On B = dA, d the lcm of A's denominators, the coefficients b_k of det(xI - B)
    are integers (each division by k is exact); that of x^(n-k) for A is b_k / d^k.
    """
    n = len(a)
    d = _den(x for row in a for x in row)
    b = [_ints(row, d) for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = _imul(b, mk)  # B * N_k with N_1 = I
        bk, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier division must be exact on an integer matrix"
        coeffs[n - k] = Fraction(bk, d ** k)
        for i in range(n):
            mk[i][i] += bk  # becomes N_{k+1}
    return coeffs
