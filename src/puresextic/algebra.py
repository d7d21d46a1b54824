"""Exact arithmetic in the cubic and sextic radical rings Q[c]/(c^3-m), Q[t]/(t^6-m).

All coefficients are `fractions.Fraction`, so every operation here is exact.
Matrices are dense and tiny (at most 6x6); determinants use exact Gaussian
elimination over the cubic field.  Numeric evaluation (only needed for
positivity checks and display) goes through mpmath with adaptive precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

Rat = Fraction  # exact rational; gcd-reduced with positive denominator by construction


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
        """Multiplicative inverse, via the 3x3 multiplication matrix over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cubic number")
        a0, a1, a2 = self.coeffs
        m = self.m
        # columns: self * c^j expressed on (1, c, c^2)
        rows = [
            [a0, m * a2, m * a1, Fraction(1)],
            [a1, a0, m * a2, Fraction(0)],
            [a2, a1, a0, Fraction(0)],
        ]
        sol = _solve3(rows)
        return CubicNum(m, (sol[0], sol[1], sol[2]))

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


def _solve3(rows: list[list[Fraction]]) -> list[Fraction]:
    """Solve a 3x3 rational system given as augmented rows."""
    a = [row[:] for row in rows]
    n = 3
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


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

    def mult_matrix(self) -> list[list[Fraction]]:
        """6x6 matrix of multiplication by self on the power basis (columns = self*theta^j)."""
        cols = []
        for j in range(6):
            col = (self * SexticNum.theta_power(self.m, j)).coeffs
            cols.append(col)
        return [[cols[j][i] for j in range(6)] for i in range(6)]

    def char_poly(self) -> list[Fraction]:
        """Characteristic polynomial of the multiplication matrix, x^6 + a5 x^5 + ... + a0.

        Returned as [a0, ..., a5, 1].  Integer coefficients certify algebraic
        integrality.
        """
        return char_poly_rational(self.mult_matrix())

    def is_algebraic_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.char_poly())

    def numeric(self, prec: int = 50) -> mpmath.mpf:
        """Value at the real positive |m|^(1/6) (only meaningful for m > 0)."""
        with mpmath.workdps(prec):
            th = mpmath.mpf(self.m) ** (mpmath.mpf(1) / 6)
            return +sum(_mpf_frac(c) * th ** t for t, c in enumerate(self.coeffs))

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

    def transpose(self) -> "CubicMatrix":
        ents = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return CubicMatrix(self.cols, self.rows, ents, self.m)

    def __mul__(self, other) -> "CubicMatrix":
        if isinstance(other, (int, Fraction)):
            ents = [[x * other for x in row] for row in self.entries]
            return CubicMatrix(self.rows, self.cols, ents, self.m)
        if self.cols != other.rows:
            raise ValueError("matrix size mismatch")
        zero = CubicNum.of(self.m)
        ents = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            ents.append(row)
        return CubicMatrix(self.rows, other.cols, ents, self.m)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, CubicMatrix):
            return NotImplemented
        if (self.rows, self.cols, self.m) != (other.rows, other.cols, other.m):
            return False
        return all(self.entries[i][j] == other.entries[i][j]
                   for i in range(self.rows) for j in range(self.cols))

    def congruence(self, b: "CubicMatrix") -> "CubicMatrix":
        """b^T * self * b."""
        return b.transpose() * self * b

    def det(self) -> CubicNum:
        """Exact determinant via Gaussian elimination over the cubic field."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        a = [[self.entries[i][j] for j in range(n)] for i in range(n)]
        det = CubicNum.of(self.m, 1)
        sign = 1
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not a[r][col].is_zero():
                    piv = r
                    break
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

def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_det(a: list[list[Fraction]]) -> Fraction:
    n = len(a)
    a = [row[:] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def mat_solve(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve a * X = b exactly (a square nonsingular)."""
    n = len(a)
    m = len(b[0])
    aug = [a[i][:] + b[i][:] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:n + m] for row in aug]


def char_poly_rational(a: list[list[Fraction]]) -> list[Fraction]:
    """Faddeev-LeVerrier: coefficients [c0, ..., c_{n-1}, 1] of det(xI - A)."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    am = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = mat_mul(a, am)  # A * M_k with M_1 = I
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            am[i][i] += c  # becomes M_{k+1}
    return coeffs
