"""Integral bases of pure sextic fields for the 20 congruence Types.

Each basis is {1, theta, theta^2/C2, beta, gamma, delta}; the last three
elements are stored as symbolic templates (rational functions of m, the C_i
and the auxiliary constants m3 = m/27, C33 = C3/3, C43 = C4/9, C53 = C5/9,
C52 = C5/8) and instantiated per field.  Also here: the tabulated transition
matrices to the power-type basis {theta^t / C_t} and their recomputation
straight from the coefficients' integer numerators, which is the oracle used
by the tests.  A field's basis and both transitions are built once: each
builder remembers its last two results, because the checks of one field ask
for them more than once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import SexticNum
from .field import SexticField
from .types import SexticType, classify


class AuxUndefined(ValueError):
    """A template references m/27, C5/8, ... but the divisibility fails."""


Fr = Fraction


@dataclass(frozen=True)
class Aux:
    """Derived constants of Theorem-level Table 2 for one field."""
    m: int
    C2: int
    C3: int
    C4: int
    C5: int
    m3: Fraction | None
    C33: Fraction | None
    C43: Fraction | None
    C53: Fraction | None
    C52: Fraction | None


def aux_constants(f: SexticField, t: SexticType) -> Aux:
    C1, C2, C3, C4, C5 = f.big_c
    m = f.m
    m3 = C33 = C43 = C53 = C52 = None
    if t.j in (3, 4):
        for name, num, den in (("m3", m, 27), ("C33", C3, 3), ("C43", C4, 9), ("C53", C5, 9)):
            if num % den != 0:
                raise AuxUndefined(f"{name} undefined for m={m}: {den} does not divide {num}")
        m3, C33, C43, C53 = Fr(m, 27), Fr(C3, 3), Fr(C4, 9), Fr(C5, 9)
    if t.i == 4:
        if C5 % 8 != 0:
            raise AuxUndefined(f"C52 undefined for m={m}: 8 does not divide C5={C5}")
        C52 = Fr(C5, 8)
    return Aux(m, C2, C3, C4, C5, m3, C33, C43, C53, C52)


# --- Table 2 templates ------------------------------------------------------
# Each entry maps theta-power -> coefficient, as a function of the Aux block.

def _beta(kind: str, x: Aux) -> dict[int, Fraction]:
    m, C3 = x.m, x.C3
    if kind == "plain":
        return {3: Fr(1, C3)}
    if kind == "half":
        return {3: Fr(1, 2 * C3), 0: Fr(1, 2)}
    if kind == "third":  # (theta^3 + 6 m3 C33^2 theta) / (3 C3)
        return {3: Fr(1, 3 * C3), 1: 6 * x.m3 * x.C33 ** 2 / (3 * C3)}
    if kind == "sixth":  # (theta^3 - 12 m3 C33^2 theta + 3 C3) / (6 C3)
        return {3: Fr(1, 6 * C3), 1: -12 * x.m3 * x.C33 ** 2 / (6 * C3), 0: Fr(1, 2)}
    raise KeyError(kind)


def _gamma(kind: str, x: Aux) -> dict[int, Fraction]:
    m, C4 = x.m, x.C4
    if kind == "plain":
        return {4: Fr(1, C4)}
    if kind == "half":  # (theta^4 + C4 theta) / (2 C4)
        return {4: Fr(1, 2 * C4), 1: Fr(1, 2)}
    if kind == "third":  # (theta^4 + m C4^2 theta^2 + C4^2) / (3 C4)
        return {4: Fr(1, 3 * C4), 2: Fr(m * C4, 3), 0: Fr(C4, 3)}
    if kind == "b3":  # (theta^4 + 3 m3 C43^2 theta^2 + 9 C43^2) / (3 C4)
        return {4: Fr(1, 3 * C4), 2: 3 * x.m3 * x.C43 ** 2 / (3 * C4), 0: 9 * x.C43 ** 2 / (3 * C4)}
    if kind == "sixth":  # (theta^4 - 2 m C4^2 theta^2 + 3 C4 theta - 2 C4^2) / (6 C4)
        return {4: Fr(1, 6 * C4), 2: Fr(-2 * m * C4, 6), 1: Fr(1, 2), 0: Fr(-C4, 3)}
    if kind == "b3_sixth":  # (theta^4 - 6 m3 C43^2 theta^2 + 3 C4 theta - 18 C43^2) / (6 C4)
        return {4: Fr(1, 6 * C4), 2: -6 * x.m3 * x.C43 ** 2 / (6 * C4), 1: Fr(1, 2),
                0: -18 * x.C43 ** 2 / (6 * C4)}
    raise KeyError(kind)


def _delta(kind: str, x: Aux) -> dict[int, Fraction]:
    m, C5 = x.m, x.C5
    if kind == "plain":
        return {5: Fr(1, C5)}
    if kind == "half":  # (theta^5 + C5 theta^2) / (2 C5)
        return {5: Fr(1, 2 * C5), 2: Fr(1, 2)}
    if kind == "third":  # (theta^5 + m C5^2 theta^3 + C5^2 theta) / (3 C5)
        return {5: Fr(1, 3 * C5), 3: Fr(m * C5, 3), 1: Fr(C5, 3)}
    if kind == "b3":  # (theta^5 + 3 m3 C53^2 theta^3 + 9 C53^2 theta) / (3 C5)
        return {5: Fr(1, 3 * C5), 3: 3 * x.m3 * x.C53 ** 2 / (3 * C5), 1: 9 * x.C53 ** 2 / (3 * C5)}
    if kind == "sixth":  # (theta^5 - 2 m C5^2 theta^3 + 3 C5 theta^2 - 2 C5^2 theta) / (6 C5)
        return {5: Fr(1, 6 * C5), 3: Fr(-2 * m * C5, 6), 2: Fr(1, 2), 1: Fr(-C5, 3)}
    if kind == "b3_sixth":  # (theta^5 - 6 m3 C53^2 theta^3 + 3 C5 theta^2 - 18 C53^2 theta) / (6 C5)
        return {5: Fr(1, 6 * C5), 3: -6 * x.m3 * x.C53 ** 2 / (6 * C5), 2: Fr(1, 2),
                1: -18 * x.C53 ** 2 / (6 * C5)}
    if kind == "a4_half":  # (theta^5 + 4 C52 theta^2) / (2 C5)
        return {5: Fr(1, 2 * C5), 2: 4 * x.C52 / (2 * C5)}
    if kind == "a4_sixth":  # (theta^5 - 2 m C5^2 theta^3 + 12 C52 theta^2 - 2 C5^2 theta) / (6 C5)
        return {5: Fr(1, 6 * C5), 3: Fr(-2 * m * C5, 6), 2: 12 * x.C52 / (6 * C5), 1: Fr(-C5, 3)}
    if kind == "a4_b3_sixth":  # (theta^5 - 6 m3 C53^2 theta^3 + 12 C52 theta^2 - 18 C53^2 theta)/(6 C5)
        return {5: Fr(1, 6 * C5), 3: -6 * x.m3 * x.C53 ** 2 / (6 * C5), 2: 12 * x.C52 / (6 * C5),
                1: -18 * x.C53 ** 2 / (6 * C5)}
    raise KeyError(kind)


# (i, j) -> (beta kind, gamma kind, delta kind)
TABLE2: dict[tuple[int, int], tuple[str, str, str]] = {
    (1, 1): ("plain", "plain", "plain"),
    (1, 2): ("plain", "third", "third"),
    (1, 3): ("third", "b3", "b3"),
    (1, 4): ("plain", "plain", "b3"),
    (2, 1): ("half", "half", "half"),
    (2, 2): ("half", "sixth", "sixth"),
    (2, 3): ("sixth", "b3_sixth", "b3_sixth"),
    (2, 4): ("half", "half", "b3_sixth"),
    (3, 1): ("plain", "plain", "half"),
    (3, 2): ("plain", "third", "sixth"),
    (3, 3): ("third", "b3", "b3_sixth"),
    (3, 4): ("plain", "plain", "b3_sixth"),
    (4, 1): ("half", "half", "a4_half"),
    (4, 2): ("half", "sixth", "a4_sixth"),
    (4, 3): ("sixth", "b3_sixth", "a4_b3_sixth"),
    (4, 4): ("half", "half", "a4_b3_sixth"),
    (5, 1): ("plain", "half", "plain"),
    (5, 2): ("plain", "sixth", "third"),
    (5, 3): ("third", "b3_sixth", "b3"),
    (5, 4): ("plain", "half", "b3"),
}


@dataclass(frozen=True)
class IntegralBasis:
    field: SexticField
    type: SexticType
    elements: tuple[SexticNum, ...]  # (1, theta, theta^2/C2, beta, gamma, delta)
    aux: Aux

    def to_json(self) -> dict:
        return {
            "m": self.field.m,
            "type": str(self.type),
            "elements": [e.to_json() for e in self.elements],
        }


@lru_cache(maxsize=2)
def build_basis(f: SexticField) -> IntegralBasis:
    """Instantiate the Table-2 basis as exact coefficient vectors over {1, theta, ..., theta^5}.

    Memoised for the last two calls: the checks of one field ask for its basis
    more than once (`verify`, `shape_gram`), and a small bound keeps memory flat
    over a corpus.
    """
    t = classify(f.m)
    x = aux_constants(f, t)
    bk, gk, dk = TABLE2[(t.i, t.j)]
    m = f.m

    def mk(d: dict[int, Fraction]) -> SexticNum:
        cs = [Fr(0)] * 6
        for p, coef in d.items():
            cs[p] = Fr(coef)
        return SexticNum.of(m, cs)

    elements = (
        SexticNum.one(m),
        SexticNum.theta_power(m, 1),
        SexticNum.theta_power(m, 2, Fr(1, x.C2)),
        mk(_beta(bk, x)),
        mk(_gamma(gk, x)),
        mk(_delta(dk, x)),
    )
    return IntegralBasis(f, t, elements, x)


def power_type_basis(f: SexticField) -> tuple[SexticNum, ...]:
    """{theta^t / C_t}, t = 0..5 (an integral basis exactly in case (A1,B1))."""
    cs = (1,) + f.big_c
    return tuple(SexticNum.theta_power(f.m, t, Fr(1, cs[t])) for t in range(6))


# --- Transition matrices ----------------------------------------------------

@dataclass(frozen=True)
class TransitionMatrix:
    type: SexticType
    entries: tuple[tuple[Fraction, ...], ...]  # 6x6, columns = basis elements over {theta^t/C_t}


@lru_cache(maxsize=2)
def derived_transition(b: IntegralBasis) -> TransitionMatrix:
    """Transition matrix read off the exact coefficients: P[s][t] = coeff_s(elem_t) * C_s,
    from the integer numerators (nums[s] * C_s / den).  Memoised like build_basis."""
    cs = (1,) + b.field.big_c
    rows = [[Fraction(e.nums[s] * cs[s], e.den) for e in b.elements] for s in range(6)]
    return TransitionMatrix(b.type, tuple(map(tuple, rows)))


@lru_cache(maxsize=2)
def tabulated_transition(t: SexticType, f: SexticField) -> TransitionMatrix:
    """The tabulated transition matrix with C-constants and m substituted.

    One commonly tabulated entry (row 2, column 4 of the (1,3) matrix) drops
    a C33^2 factor; it is stored here in the corrected form, which is what
    the coefficient computation yields.  Every entry is a Fraction as written;
    memoised like build_basis.
    """
    x = aux_constants(f, t)
    m, C2, C3, C4, C5 = x.m, x.C2, x.C3, x.C4, x.C5
    h = Fr(1, 2)
    z = Fr(0)
    o = Fr(1)
    th = Fr(1, 3)
    sx = Fr(1, 6)
    key = (t.i, t.j)
    if key == (1, 1):
        rows = [[o, z, z, z, z, z], [z, o, z, z, z, z], [z, z, o, z, z, z],
                [z, z, z, o, z, z], [z, z, z, z, o, z], [z, z, z, z, z, o]]
    elif key == (1, 2):
        rows = [[o, z, z, z, Fr(C4, 3), z],
                [z, o, z, z, z, Fr(C5, 3)],
                [z, z, o, z, Fr(C2 * C4 * m, 3), z],
                [z, z, z, o, z, Fr(C3 * C5 * m, 3)],
                [z, z, z, z, th, z],
                [z, z, z, z, z, th]]
    elif key == (1, 3):
        rows = [[o, z, z, z, 3 * x.C43 ** 2 / C4, z],
                [z, o, z, 2 * x.C33 ** 2 * x.m3 / C3, z, 3 * x.C53 ** 2 / C5],
                [z, z, o, z, C2 * x.C43 ** 2 * x.m3 / C4, z],
                [z, z, z, th, z, C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, th, z],
                [z, z, z, z, z, th]]
    elif key == (1, 4):
        rows = [[o, z, z, z, z, z],
                [z, o, z, z, z, 3 * x.C53 ** 2 / C5],
                [z, z, o, z, z, z],
                [z, z, z, o, z, C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, o, z],
                [z, z, z, z, z, th]]
    elif key == (2, 1):
        rows = [[o, z, z, h, z, z], [z, o, z, z, h, z], [z, z, o, z, z, Fr(C2, 2)],
                [z, z, z, h, z, z], [z, z, z, z, h, z], [z, z, z, z, z, h]]
    elif key == (2, 2):
        rows = [[o, z, z, h, Fr(-C4, 3), z],
                [z, o, z, z, h, Fr(-C5, 3)],
                [z, z, o, z, Fr(-C2 * C4 * m, 3), Fr(C2, 2)],
                [z, z, z, h, z, Fr(-C3 * C5 * m, 3)],
                [z, z, z, z, sx, z],
                [z, z, z, z, z, sx]]
    elif key == (2, 3):
        rows = [[o, z, z, h, -3 * x.C43 ** 2 / C4, z],
                [z, o, z, -2 * x.C33 ** 2 * x.m3 / C3, h, -3 * x.C53 ** 2 / C5],
                [z, z, o, z, -C2 * x.C43 ** 2 * x.m3 / C4, Fr(C2, 2)],
                [z, z, z, sx, z, -C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, sx, z],
                [z, z, z, z, z, sx]]
    elif key == (2, 4):
        rows = [[o, z, z, h, z, z],
                [z, o, z, z, h, -3 * x.C53 ** 2 / C5],
                [z, z, o, z, z, Fr(C2, 2)],
                [z, z, z, h, z, -C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, h, z],
                [z, z, z, z, z, sx]]
    elif key == (3, 1):
        rows = [[o, z, z, z, z, z], [z, o, z, z, z, z], [z, z, o, z, z, Fr(C2, 2)],
                [z, z, z, o, z, z], [z, z, z, z, o, z], [z, z, z, z, z, h]]
    elif key == (3, 2):
        rows = [[o, z, z, z, Fr(C4, 3), z],
                [z, o, z, z, z, Fr(-C5, 3)],
                [z, z, o, z, Fr(C2 * C4 * m, 3), Fr(C2, 2)],
                [z, z, z, o, z, Fr(-C3 * C5 * m, 3)],
                [z, z, z, z, th, z],
                [z, z, z, z, z, sx]]
    elif key == (3, 3):
        rows = [[o, z, z, z, 3 * x.C43 ** 2 / C4, z],
                [z, o, z, 2 * x.C33 ** 2 * x.m3 / C3, z, -3 * x.C53 ** 2 / C5],
                [z, z, o, z, C2 * x.C43 ** 2 * x.m3 / C4, Fr(C2, 2)],
                [z, z, z, th, z, -C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, th, z],
                [z, z, z, z, z, sx]]
    elif key == (3, 4):
        rows = [[o, z, z, z, z, z],
                [z, o, z, z, z, -3 * x.C53 ** 2 / C5],
                [z, z, o, z, z, Fr(C2, 2)],
                [z, z, z, o, z, -C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, o, z],
                [z, z, z, z, z, sx]]
    elif key == (4, 1):
        rows = [[o, z, z, h, z, z],
                [z, o, z, z, h, z],
                [z, z, o, z, z, 2 * C2 * x.C52 / C5],
                [z, z, z, h, z, z],
                [z, z, z, z, h, z],
                [z, z, z, z, z, h]]
    elif key == (4, 2):
        rows = [[o, z, z, h, Fr(-C4, 3), z],
                [z, o, z, z, h, Fr(-C5, 3)],
                [z, z, o, z, Fr(-C2 * C4 * m, 3), 2 * C2 * x.C52 / C5],
                [z, z, z, h, z, Fr(-C3 * C5 * m, 3)],
                [z, z, z, z, sx, z],
                [z, z, z, z, z, sx]]
    elif key == (4, 3):
        rows = [[o, z, z, h, -3 * x.C43 ** 2 / C4, z],
                [z, o, z, -2 * x.C33 ** 2 * x.m3 / C3, h, -3 * x.C53 ** 2 / C5],
                [z, z, o, z, -C2 * x.C43 ** 2 * x.m3 / C4, 2 * C2 * x.C52 / C5],
                [z, z, z, sx, z, -C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, sx, z],
                [z, z, z, z, z, sx]]
    elif key == (4, 4):
        rows = [[o, z, z, h, z, z],
                [z, o, z, z, h, -3 * x.C53 ** 2 / C5],
                [z, z, o, z, z, 2 * C2 * x.C52 / C5],
                [z, z, z, h, z, -C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, h, z],
                [z, z, z, z, z, sx]]
    elif key == (5, 1):
        rows = [[o, z, z, z, z, z], [z, o, z, z, h, z], [z, z, o, z, z, z],
                [z, z, z, o, z, z], [z, z, z, z, h, z], [z, z, z, z, z, o]]
    elif key == (5, 2):
        rows = [[o, z, z, z, Fr(-C4, 3), z],
                [z, o, z, z, h, Fr(C5, 3)],
                [z, z, o, z, Fr(-C2 * C4 * m, 3), z],
                [z, z, z, o, z, Fr(C3 * C5 * m, 3)],
                [z, z, z, z, sx, z],
                [z, z, z, z, z, th]]
    elif key == (5, 3):
        rows = [[o, z, z, z, -3 * x.C43 ** 2 / C4, z],
                [z, o, z, 2 * x.C33 ** 2 * x.m3 / C3, h, 3 * x.C53 ** 2 / C5],
                [z, z, o, z, -C2 * x.C43 ** 2 * x.m3 / C4, z],
                [z, z, z, th, z, C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, sx, z],
                [z, z, z, z, z, th]]
    elif key == (5, 4):
        rows = [[o, z, z, z, z, z],
                [z, o, z, z, h, 3 * x.C53 ** 2 / C5],
                [z, z, o, z, z, z],
                [z, z, z, o, z, C3 * x.C53 ** 2 * x.m3 / C5],
                [z, z, z, z, h, z],
                [z, z, z, z, z, th]]
    else:
        raise KeyError(key)
    return TransitionMatrix(t, tuple(map(tuple, rows)))
