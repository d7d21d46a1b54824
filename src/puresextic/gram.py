"""Gram matrices of the 20 integral bases, trace-zero projection, shape parameters.

Tables are stored /6-normalised (the pairing of 1 with itself is 6); gram6()
returns the actual Minkowski Gram, i.e. 6x the table.  They are stated for
m > 0 (theta^2 = c), and each entry is a CubicNum built straight from the
integer numerator and denominator of its formula.  The trace-zero shape
Gram comes with an exact factorisation certificate
    P = C'^T * (216 * diag(theta^(2t) / C_t^2)) * C'
where C' is the lower-right 5x5 block of the transition matrix (row/column 1
drops out because 1^perp = 0); the diagonal is the integer triples
216 gamma^t over C_t^2, and C' comes from the field's one derived transition
(memoised in basis).  Shape parameters are kept as monomials in
(a1..a5) with rational exponents, so all shape identities are exact.

Seven entries of the reference tables circulate in a form that only holds
when C3 = 3 (resp. C4 = 1, C2 = 1); this module stores the corrected forms,
which are what the exact pairing reproduces.  Each carries an "# uncorrected:"
comment with the variant it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath

from .algebra import CubicMatrix, CubicNum, SexticNum, hermitian_gram, _mpf_frac
from .basis import Aux, IntegralBasis, aux_constants, build_basis, derived_transition, power_type_basis
from .field import SexticField
from .types import SexticType

Fr = Fraction


class NotCanonical(ValueError):
    """Shape parameters are defined on the orientation with a4*a5^2 >= a1^2*a2."""


# ---------------------------------------------------------------------------
# Monomials in (a1..a5) with rational exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """prod a_j^(e_j); the exact form of every shape quantity."""
    bases: tuple[int, int, int, int, int]
    exponents: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

    def __mul__(self, other: "Monomial") -> "Monomial":
        assert self.bases == other.bases
        return Monomial(self.bases, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        assert self.bases == other.bases
        return Monomial(self.bases, tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, k) -> "Monomial":
        k = Fr(k)
        return Monomial(self.bases, tuple(e * k for e in self.exponents))

    def inverse(self) -> "Monomial":
        return self ** -1

    def reduced(self) -> dict[int, Fraction]:
        """Exponent on each prime factor of the a_i (drops bases equal to 1)."""
        from .field import factorize
        out: dict[int, Fraction] = {}
        for b, e in zip(self.bases, self.exponents):
            if e == 0 or b == 1:
                continue
            for p, k in factorize(b).items():
                out[p] = out.get(p, Fr(0)) + k * e
        return {p: e for p, e in out.items() if e != 0}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.reduced() == other.reduced()

    def __hash__(self) -> int:
        return hash(frozenset(self.reduced().items()))

    def value(self, prec: int = 30) -> mpmath.mpf:
        with mpmath.workdps(prec):
            v = mpmath.mpf(1)
            for b, e in zip(self.bases, self.exponents):
                if e != 0:
                    v *= mpmath.mpf(b) ** _mpf_frac(e)
            return +v

    def to_json(self) -> dict:
        return {
            "bases": list(self.bases),
            "exponents": [{"num": str(e.numerator), "den": str(e.denominator)} for e in self.exponents],
        }


def _mono(a: tuple[int, ...], exps) -> Monomial:
    return Monomial(tuple(a), tuple(Fr(e) for e in exps))


# ---------------------------------------------------------------------------
# Shape parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeParams:
    """lam1 = (a4 a5^2 / a1^2 a2)^(1/3), lam2 = (a2 a5 / a1 a3^3 a4)^(1/3),
    lam3 = 1/(a2 a4), lam4 = lam2^(-1) / a3^2."""
    lam1: Monomial
    lam2: Monomial
    lam3: Monomial
    lam4: Monomial

    def values(self, prec: int = 30) -> list:
        return [self.lam1.value(prec), self.lam2.value(prec), self.lam3.value(prec), self.lam4.value(prec)]

    def to_json(self, digits: int | None = None) -> dict:
        out = {
            "lambda1": self.lam1.to_json(),
            "lambda2": self.lam2.to_json(),
            "lambda3": self.lam3.to_json(),
            "lambda4": self.lam4.to_json(),
        }
        if digits:
            vals = self.values(digits + 10)
            with mpmath.workdps(digits):
                out["decimal"] = [mpmath.nstr(+v, digits) for v in vals]
        return out


def shape_params(f: SexticField) -> ShapeParams:
    if not f.canonical:
        raise NotCanonical(f"m={f.m}: use the dual orientation (a4 a5^2 < a1^2 a2)")
    a = f.tuple.a
    third = Fr(1, 3)
    lam1 = _mono(a, (-2 * third, -third, 0, third, 2 * third))
    lam2 = _mono(a, (-third, third, -1, -third, third))
    lam3 = _mono(a, (0, -1, 0, -1, 0))
    lam4 = lam2.inverse() * _mono(a, (0, 0, -2, 0, 0))
    return ShapeParams(lam1, lam2, lam3, lam4)


def normalized_shape_diag(f: SexticField) -> list[Monomial]:
    """diag entries (gamma^t / C_t^2) / prod(a_i) for t = 1..5, as monomials.

    For the diagonal Type (A1,B1) this is the shape representative
    (lam1, lam2, lam3, lam4, lam1^(-1)).
    """
    a = f.tuple.a
    out = []
    for t in range(1, 6):
        exps = [Fr(t * j, 3) - 2 * ((t * j) // 6) - 1 for j in range(1, 6)]
        out.append(_mono(a, exps))
    return out


# ---------------------------------------------------------------------------
# The reference Gram tables (entries of Gram/6), upper triangle
# ---------------------------------------------------------------------------

def _table_entries(t: SexticType, x: Aux) -> dict[tuple[int, int], CubicNum]:
    m, C2, C3, C4, C5 = x.m, x.C2, x.C3, x.C4, x.C5
    m3, C33, C43, C53, C52 = x.m3, x.C33, x.C43, x.C53, x.C52

    # q is an int or a Fraction; each constructor reads its numerator and denominator.
    def R(q) -> CubicNum:  # rational constant
        return CubicNum(m, (q.numerator, 0, 0), q.denominator)

    def T2(q=1) -> CubicNum:  # q * theta^2
        return CubicNum(m, (0, q.numerator, 0), q.denominator)

    def T4(q=1) -> CubicNum:  # q * theta^4
        return CubicNum(m, (0, 0, q.numerator), q.denominator)

    e: dict[tuple[int, int], CubicNum] = {
        (1, 1): R(1),
        (2, 2): T2(),
        (3, 3): T4(Fr(1, C2 ** 2)),
    }
    key = (t.i, t.j)
    if key == (1, 1):
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(5, 5)] = T2(Fr(m, C4 ** 2))
        e[(6, 6)] = T4(Fr(m, C5 ** 2))
    elif key == (1, 2):
        e[(1, 5)] = R(Fr(C4, 3))
        e[(2, 6)] = T2(Fr(C5, 3))
        e[(3, 5)] = T4(Fr(C4 * m, 3 * C2))
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(4, 6)] = R(Fr(C5 * m * m, 3 * C3))
        e[(5, 5)] = T4(Fr(C4 ** 2 * m * m, 9)) + R(Fr(C4 ** 2, 9)) + T2(Fr(m, 9 * C4 ** 2))
        e[(6, 6)] = R(Fr(C5 ** 2 * m ** 3, 9)) + T4(Fr(m, 9 * C5 ** 2)) + T2(Fr(C5 ** 2, 9))
    elif key == (1, 3):
        e[(1, 5)] = R(3 * C43 ** 2 / C4)
        e[(2, 4)] = T2(2 * C33 ** 2 * m3 / C3)  # uncorrected: 2 m3 / C3 (drops C33^2)
        e[(2, 6)] = T2(3 * C53 ** 2 / C5)
        e[(3, 5)] = T4(C43 ** 2 * m3 / (C2 * C4))
        e[(4, 4)] = R(Fr(m, 9 * C3 ** 2)) + T2(4 * C33 ** 4 * m3 ** 2 / C3 ** 2)  # uncorrected: 36 theta^2 m3^2 (drops C33^4)
        e[(4, 6)] = R(C53 ** 2 * m3 * m / (3 * C3 * C5)) + T2(6 * m3 * C33 ** 2 * C53 ** 2 / (C3 * C5))  # uncorrected: C53^2 m3 (m + 18 C3 th^2)/(3 C3^2 C5)
        e[(5, 5)] = T4(9 * C43 ** 4 * m3 ** 2 / (9 * C4 ** 2)) + R(81 * C43 ** 4 / (9 * C4 ** 2)) + T2(Fr(m, 9 * C4 ** 2))
        e[(6, 6)] = R(9 * m * C53 ** 4 * m3 ** 2 / (9 * C5 ** 2)) + T4(Fr(m, 9 * C5 ** 2)) + T2(81 * C53 ** 4 / (9 * C5 ** 2))  # uncorrected variant carries stray C3^2 factors
    elif key == (1, 4):
        e[(2, 6)] = T2(3 * C53 ** 2 / C5)
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(4, 6)] = R(C53 ** 2 * m * m3 / (C3 * C5))
        e[(5, 5)] = T2(Fr(m, C4 ** 2))
        e[(6, 6)] = R(9 * m * C53 ** 4 * m3 ** 2 / (9 * C5 ** 2)) + T4(Fr(m, 9 * C5 ** 2)) + T2(81 * C53 ** 4 / (9 * C5 ** 2))
    elif key == (2, 1):
        e[(1, 4)] = R(Fr(1, 2))
        e[(2, 5)] = T2(Fr(1, 2))
        e[(3, 6)] = T4(Fr(1, 2 * C2))
        e[(4, 4)] = R(Fr(m + C3 ** 2, 4 * C3 ** 2))
        e[(5, 5)] = T2(Fr(C4 ** 2 + m, 4 * C4 ** 2))  # uncorrected: theta^2 (C4^2+m)/4 (drops /C4^2)
        e[(6, 6)] = T4(Fr(C5 ** 2 + m, 4 * C5 ** 2))
    elif key == (2, 2):
        e[(1, 4)] = R(Fr(1, 2))
        e[(1, 5)] = R(Fr(-C4, 3))
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(Fr(-C5, 3))
        e[(3, 5)] = T4(Fr(-C4 * m, 3 * C2))
        e[(3, 6)] = T4(Fr(1, 2 * C2))
        e[(4, 4)] = R(Fr(m + C3 ** 2, 4 * C3 ** 2))
        e[(4, 5)] = R(Fr(-C4, 6))
        e[(4, 6)] = R(Fr(-C5 * m * m, 6 * C3))
        e[(5, 5)] = T4(Fr(C4 ** 2 * m * m, 9)) + R(Fr(C4 ** 2, 9)) + T2(Fr(m, 36 * C4 ** 2)) + T2(Fr(1, 4))
        e[(5, 6)] = T4(Fr(-C4 * m, 6)) + T2(Fr(-C5, 6))
        e[(6, 6)] = R(Fr(C5 ** 2 * m ** 3, 9)) + T4(Fr(1, 4)) + T4(Fr(m, 36 * C5 ** 2)) + T2(Fr(C5 ** 2, 9))
    elif key == (2, 3):
        e[(1, 4)] = R(Fr(1, 2))
        e[(1, 5)] = R(-3 * C43 ** 2 / C4)
        e[(2, 4)] = T2(-2 * C33 ** 2 * m3 / C3)
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(-3 * C53 ** 2 / C5)
        e[(3, 5)] = T4(-C43 ** 2 * m3 / (C2 * C4))
        e[(3, 6)] = T4(Fr(1, 2 * C2))
        e[(4, 4)] = R(Fr(m, 36 * C3 ** 2)) + T2(4 * C33 ** 4 * m3 ** 2 / C3 ** 2) + R(Fr(1, 4))
        e[(4, 5)] = R(-3 * C43 ** 2 / (2 * C4)) + T2(-C33 ** 2 * m3 / C3)
        e[(4, 6)] = R(-C53 ** 2 * m3 * m / (6 * C3 * C5)) + T2(36 * C33 ** 2 * C53 ** 2 * m3 / (6 * C3 * C5))
        e[(5, 5)] = (T4(36 * C43 ** 4 * m3 ** 2) + R(324 * C43 ** 4) + T2(m) + T2(9 * C4 ** 2)) * Fr(1, 36 * C4 ** 2)
        e[(5, 6)] = T4(-C43 ** 2 * m3 / (2 * C4)) + T2(-3 * C53 ** 2 / (2 * C5))
        e[(6, 6)] = (T4(9 * C5 ** 2) + R(36 * m * C53 ** 4 * m3 ** 2) + T4(m) + T2(324 * C53 ** 4)) * Fr(1, 36 * C5 ** 2)
    elif key == (2, 4):
        e[(1, 4)] = R(Fr(1, 2))
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(-3 * C53 ** 2 / C5)
        e[(3, 6)] = T4(Fr(1, 2 * C2))
        e[(4, 4)] = R(Fr(m + C3 ** 2, 4 * C3 ** 2))  # uncorrected: (m + C3^3)/(4 C3^2)
        e[(4, 6)] = R(-C53 ** 2 * m * m3 / (2 * C3 * C5))
        e[(5, 5)] = T2(Fr(1, 4)) + T2(Fr(m, 4 * C4 ** 2))
        e[(5, 6)] = T2(-3 * C53 ** 2 / (2 * C5))
        e[(6, 6)] = (T4(9 * C5 ** 2) + R(36 * m * C53 ** 4 * m3 ** 2) + T4(m) + T2(324 * C53 ** 4)) * Fr(1, 36 * C5 ** 2)
    elif key == (3, 1):
        e[(3, 6)] = T4(Fr(1, 2 * C2))
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(5, 5)] = T2(Fr(m, C4 ** 2))
        e[(6, 6)] = T4(Fr(C5 ** 2 + m, 4 * C5 ** 2))
    elif key == (3, 2):
        e[(1, 5)] = R(Fr(C4, 3))
        e[(2, 6)] = T2(Fr(-C5, 3))
        e[(3, 5)] = T4(Fr(C4 * m, 3 * C2))
        e[(3, 6)] = T4(Fr(1, 2 * C2))
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(4, 6)] = R(Fr(-C5 * m * m, 3 * C3))
        e[(5, 5)] = T4(Fr(C4 ** 2 * m * m, 9)) + R(Fr(C4 ** 2, 9)) + T2(Fr(m, 9 * C4 ** 2))
        e[(5, 6)] = T4(Fr(C4 * m, 6))
        e[(6, 6)] = R(Fr(C5 ** 2 * m ** 3, 9)) + T4(Fr(1, 4)) + T4(Fr(m, 36 * C5 ** 2)) + T2(Fr(C5 ** 2, 9))
    elif key == (3, 3):
        e[(1, 5)] = R(3 * C43 ** 2 / C4)
        e[(2, 4)] = T2(2 * C33 ** 2 * m3 / C3)
        e[(2, 6)] = T2(-3 * C53 ** 2 / C5)
        e[(3, 5)] = T4(C43 ** 2 * m3 / (C2 * C4))
        e[(3, 6)] = T4(Fr(1, 2 * C2))
        e[(4, 4)] = (R(m) + T2(36 * C33 ** 4 * m3 ** 2)) * Fr(1, 9 * C3 ** 2)
        e[(4, 6)] = (R(-C53 ** 2 * m3 * m) + T2(-18 * C33 ** 2 * C53 ** 2 * m3)) * Fr(1, 3 * C3 * C5)
        e[(5, 5)] = (T4(9 * C43 ** 4 * m3 ** 2) + R(81 * C43 ** 4) + T2(m)) * Fr(1, 9 * C4 ** 2)
        e[(5, 6)] = T4(C43 ** 2 * m3 / (2 * C4))
        e[(6, 6)] = R(C53 ** 4 * m * m3 ** 2 / C5 ** 2) + T2(9 * C53 ** 4 / C5 ** 2) + T4(Fr(9 * C5 ** 2 + m, 36 * C5 ** 2))
    elif key == (3, 4):
        e[(2, 6)] = T2(-3 * C53 ** 2 / C5)
        e[(3, 6)] = T4(Fr(1, 2 * C2))
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(4, 6)] = R(-C53 ** 2 * m * m3 / (C3 * C5))
        e[(5, 5)] = T2(Fr(m, C4 ** 2))
        e[(6, 6)] = R(C53 ** 4 * m * m3 ** 2 / C5 ** 2) + T4(Fr(1, 4)) + T4(Fr(m, 36 * C5 ** 2)) + T2(9 * C53 ** 4 / C5 ** 2)
    elif key == (4, 1):
        e[(1, 4)] = R(Fr(1, 2))
        e[(2, 5)] = T2(Fr(1, 2))
        e[(3, 6)] = T4(2 * C52 / (C2 * C5))
        e[(4, 4)] = R(Fr(m + C3 ** 2, 4 * C3 ** 2))
        e[(5, 5)] = T2(Fr(m + C4 ** 2, 4 * C4 ** 2))  # uncorrected: (th^2 m + th^2 C4^2)/(4 C2^2 C4^2)
        e[(6, 6)] = T4((16 * C52 ** 2 + m) / Fr(4 * C5 ** 2))
    elif key == (4, 2):
        e[(1, 4)] = R(Fr(1, 2))
        e[(1, 5)] = R(Fr(-C4, 3))
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(Fr(-C5, 3))
        e[(3, 5)] = T4(Fr(-C4 * m, 3 * C2))
        e[(3, 6)] = T4(2 * C52 / (C2 * C5))
        e[(4, 4)] = R(Fr(m + C3 ** 2, 4 * C3 ** 2))
        e[(4, 5)] = R(Fr(-C4, 6))
        e[(4, 6)] = R(Fr(-C5 * m * m, 6 * C3))
        e[(5, 5)] = R(Fr(C4 ** 2, 9)) + T4(Fr(C4 ** 2 * m * m, 9)) + T2(Fr(1, 4)) + T2(Fr(m, 36 * C4 ** 2))
        e[(5, 6)] = T4(-2 * C4 * C52 * m / (3 * C5)) + T2(Fr(-C5, 6))
        e[(6, 6)] = R(Fr(C5 ** 2 * m ** 3, 9)) + T2(Fr(C5 ** 2, 9)) + T4(4 * C52 ** 2 / C5 ** 2) + T4(Fr(m, 36 * C5 ** 2))
    elif key == (4, 3):
        e[(1, 4)] = R(Fr(1, 2))
        e[(1, 5)] = R(-3 * C43 ** 2 / C4)
        e[(2, 4)] = T2(-2 * C33 ** 2 * m3 / C3)
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(-3 * C53 ** 2 / C5)
        e[(3, 5)] = T4(-C43 ** 2 * m3 / (C2 * C4))
        e[(3, 6)] = T4(2 * C52 / (C2 * C5))
        e[(4, 4)] = R(Fr(m, 36 * C3 ** 2)) + T2(4 * C33 ** 4 * m3 ** 2 / C3 ** 2) + R(Fr(1, 4))
        e[(4, 5)] = R(-3 * C43 ** 2 / (2 * C4)) + T2(-C33 ** 2 * m3 / C3)
        e[(4, 6)] = R(-C53 ** 2 * m3 * m / (6 * C3 * C5)) + T2(6 * C33 ** 2 * C53 ** 2 * m3 / (C3 * C5))
        e[(5, 5)] = (T4(36 * C43 ** 4 * m3 ** 2) + R(324 * C43 ** 4) + T2(m) + T2(9 * C4 ** 2)) * Fr(1, 36 * C4 ** 2)
        e[(5, 6)] = T4(-4 * C52 * m3 * C43 ** 2 / (2 * C4 * C5)) + T2(-3 * C4 * C53 ** 2 / (2 * C4 * C5))
        e[(6, 6)] = (T4(144 * C52 ** 2) + R(36 * m * C53 ** 4 * m3 ** 2) + T4(m) + T2(324 * C53 ** 4)) * Fr(1, 36 * C5 ** 2)
    elif key == (4, 4):
        e[(1, 4)] = R(Fr(1, 2))
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(-3 * C53 ** 2 / C5)
        e[(3, 6)] = T4(2 * C52 / (C2 * C5))
        e[(4, 4)] = R(Fr(m, 4 * C3 ** 2)) + R(Fr(1, 4))
        e[(4, 6)] = R(-C53 ** 2 * m * m3 / (2 * C3 * C5))
        e[(5, 5)] = T2(Fr(1, 4)) + T2(Fr(m, 4 * C4 ** 2))
        e[(5, 6)] = T2(-3 * C53 ** 2 / (2 * C5))
        e[(6, 6)] = (T4(144 * C52 ** 2) + R(36 * m * C53 ** 4 * m3 ** 2) + T4(m) + T2(324 * C53 ** 4)) * Fr(1, 36 * C5 ** 2)
    elif key == (5, 1):
        e[(2, 5)] = T2(Fr(1, 2))
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(5, 5)] = T2(Fr(1, 4)) + T2(Fr(m, 4 * C4 ** 2))
        e[(6, 6)] = T4(Fr(m, C5 ** 2))
    elif key == (5, 2):
        e[(1, 5)] = R(Fr(-C4, 3))
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(Fr(C5, 3))
        e[(3, 5)] = T4(Fr(-C4 * m, 3 * C2))
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(4, 6)] = R(Fr(C5 * m * m, 3 * C3))
        e[(5, 5)] = T4(Fr(C4 ** 2 * m * m, 9)) + R(Fr(C4 ** 2, 9)) + T2(Fr(m, 36 * C4 ** 2)) + T2(Fr(1, 4))
        e[(5, 6)] = T2(Fr(C5, 6))
        e[(6, 6)] = R(Fr(C5 ** 2 * m ** 3, 9)) + T4(Fr(m, 9 * C5 ** 2)) + T2(Fr(C5 ** 2, 9))
    elif key == (5, 3):
        e[(1, 5)] = R(-3 * C43 ** 2 / C4)
        e[(2, 4)] = T2(2 * C33 ** 2 * m3 / C3)
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(3 * C53 ** 2 / C5)
        e[(3, 5)] = T4(-C43 ** 2 * m3 / (C2 * C4))
        e[(4, 4)] = (R(m) + T2(36 * C33 ** 4 * m3 ** 2)) * Fr(1, 9 * C3 ** 2)
        e[(4, 5)] = T2(C33 ** 2 * m3 / C3)
        e[(4, 6)] = (R(C53 ** 2 * m3 * m) + T2(18 * C33 ** 2 * C53 ** 2 * m3)) * Fr(1, 3 * C3 * C5)
        e[(5, 5)] = (T4(36 * C43 ** 4 * m3 ** 2) + R(324 * C43 ** 4) + T2(m) + T2(9 * C4 ** 2)) * Fr(1, 36 * C4 ** 2)
        e[(5, 6)] = T2(3 * C53 ** 2 / (2 * C5))
        e[(6, 6)] = (R(9 * m * C53 ** 4 * m3 ** 2) + T4(m) + T2(81 * C53 ** 4)) * Fr(1, 9 * C5 ** 2)
    elif key == (5, 4):
        e[(2, 5)] = T2(Fr(1, 2))
        e[(2, 6)] = T2(3 * C53 ** 2 / C5)
        e[(4, 4)] = R(Fr(m, C3 ** 2))
        e[(4, 6)] = R(C53 ** 2 * m * m3 / (C3 * C5))
        e[(5, 5)] = T2(Fr(C4 ** 2 + m, 4 * C4 ** 2))
        e[(5, 6)] = T2(3 * C53 ** 2 / (2 * C5))
        e[(6, 6)] = (R(9 * m * C53 ** 4 * m3 ** 2) + T4(m) + T2(81 * C53 ** 4)) * Fr(1, 9 * C5 ** 2)
    else:
        raise KeyError(key)
    return e


def g_table(t: SexticType, f: SexticField) -> CubicMatrix:
    """The reference Gram/6 table for Type t, instantiated for f (m > 0: theta^2 = c)."""
    if f.m < 0:
        raise ValueError(f"m={f.m}: the reference Gram tables are stated for m > 0")
    x = aux_constants(f, t)
    e = _table_entries(t, x)
    zero = CubicNum(f.m, (0, 0, 0), 1)
    rows = [[zero] * 6 for _ in range(6)]
    for (i, j), v in e.items():
        rows[i - 1][j - 1] = v
        rows[j - 1][i - 1] = v
    return CubicMatrix(6, 6, rows, f.m)


def gram_power(f: SexticField) -> CubicMatrix:
    """Minkowski Gram of the power-type tuple {theta^t / C_t}: 6 diag(gamma^t / C_t^2)."""
    return hermitian_gram(power_type_basis(f))


def gram6(f: SexticField, basis: IntegralBasis | None = None) -> CubicMatrix:
    """Minkowski Gram of the tabulated integral basis (6x the reference table)."""
    b = basis if basis is not None else build_basis(f)
    return hermitian_gram(b.elements)


# ---------------------------------------------------------------------------
# Trace-zero projection and its certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeGram:
    field: SexticField
    type: SexticType
    entries: CubicMatrix                       # 5x5 Gram of {alpha_t^perp}
    cert_c: tuple[tuple[Fraction, ...], ...]   # 5x5 rational factor C'
    cert_scale: int                            # 216

    def certificate_holds(self) -> bool:
        """P == C'^T * (216 diag(gamma^t / C_t^2)) * C', exactly (computed once)."""
        return self._certificate

    @cached_property
    def _certificate(self) -> bool:
        f = self.field
        m = f.m
        s, am = (1 if m > 0 else -1), abs(m)
        gam = [(0, s, 0), (0, 0, 1), (am, 0, 0), (0, s * am, 0), (0, 0, am)]  # gamma^t, t = 1..5
        d = CubicMatrix.diagonal(m, [CubicNum(m, [self.cert_scale * v for v in g], c * c)
                                     for g, c in zip(gam, f.big_c)])
        return d.congruence(CubicMatrix.from_rational(m, self.cert_c)) == self.entries

    def to_json(self) -> dict:
        return {
            "m": self.field.m,
            "type": str(self.type),
            "perp_gram": self.entries.to_json(),
            "certificate": {
                "scale": self.cert_scale,
                "C": [[{"num": str(v.numerator), "den": str(v.denominator)} for v in row]
                      for row in self.cert_c],
            },
        }


def shape_gram(f: SexticField) -> ShapeGram:
    """Gram of {alpha_t^perp}, alpha^perp = 6 alpha - tr(alpha), with exact certificate.

    tr(alpha) = 6 alpha_0, so alpha^perp = 6 (alpha - alpha_0): the perp Gram is 36 x
    the Gram of the alphas with their theta^0 coefficient dropped.  This is the
    identity P_ij = 36 G_ij - 6 tr_i tr_j.  Construction checks it against the
    factorisation through the power-type diagonal, the memoised certificate_holds().
    """
    b = build_basis(f)
    m = f.m
    perp = [SexticNum(m, (0,) + a.nums[1:], a.den) for a in b.elements[1:]]
    trans = derived_transition(b)
    cert_c = tuple(tuple(trans.entries[s][t] for t in range(1, 6)) for s in range(1, 6))
    sg = ShapeGram(f, b.type, hermitian_gram(perp) * 36, cert_c, 216)
    if not sg.certificate_holds():
        raise AssertionError(f"shape certificate failed for m={f.m}")
    return sg
