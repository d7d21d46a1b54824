"""Counting geometry: region volumes, lattice window kernels, exact counts, error diagnostics.

The 3d region M(N, L1', L1, L2', L2) = {x1,x3,x5 > 0 : x1^5 x3^3 x5^5 <= N,
x5/x1 in [L1', L1], x5/(x3^3 x1) in [L2', L2]} has volume
(75/8) N^(1/5) (L1^(2/15) - L1'^(2/15)) (L2'^(-2/15) - L2^(-2/15)).  Its lattice
points, and those of the 2d region {x1 x5 <= M, x5/x1 in [L1', L1]}, come from
one window kernel each, the one lattice walk of the C resp. T family: slice x1,
then x5, then an integer cube-root interval for x3 (windows_M3), or slice x1
into an interval for x5 (windows_M2).  Each endpoint is the floor, ceiling or
integer root of a quotient of Python ints, cross-multiplied from the windows'
numerators and denominators, so counts agree bit-for-bit with brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import ceil_root, floor_root, iroot

Fr = Fraction


@dataclass(frozen=True)
class Box3:
    """[R1',R1] x [R2',R2] x [R3',R3]; 'C' boxes hold shape-parameter windows
    (lambda1^3, lambda2^3, a2*a4), 'T' boxes hold (a5/a1, a2*a4, a3)."""
    r1p: Fraction
    r1: Fraction
    r2p: Fraction
    r2: Fraction
    r3p: Fraction
    r3: Fraction
    kind: str = "C"

    def __post_init__(self):
        vals = [Fr(x) for x in (self.r1p, self.r1, self.r2p, self.r2, self.r3p, self.r3)]
        object.__setattr__(self, "r1p", vals[0]); object.__setattr__(self, "r1", vals[1])
        object.__setattr__(self, "r2p", vals[2]); object.__setattr__(self, "r2", vals[3])
        object.__setattr__(self, "r3p", vals[4]); object.__setattr__(self, "r3", vals[5])
        if self.kind not in ("C", "T"):
            raise ValueError("kind must be 'C' or 'T'")
        if not (self.r1p <= self.r1 and self.r2p <= self.r2 and self.r3p <= self.r3):
            raise ValueError("box intervals must satisfy R' <= R")
        if self.kind == "C":
            if self.r1p < 1:
                raise ValueError("C-family boxes need R1' >= 1")
            if self.r2p <= 0:
                raise ValueError("C-family boxes need R2' > 0 (finite lambda2-window)")
            if self.r3p.denominator != 1 or self.r3.denominator != 1:
                raise ValueError("C-family boxes need integer R3', R3")
        else:
            if self.r1p < 1 or self.r2p < 1 or self.r3p < 1:
                raise ValueError("T-family boxes live in [1, inf)^3")
            if any(x.denominator != 1 for x in (self.r2p, self.r2, self.r3p, self.r3)):
                raise ValueError("T-family boxes need integer R2', R2, R3', R3")

    def to_json(self) -> dict:
        def f(x):
            return {"num": str(x.numerator), "den": str(x.denominator)}
        return {"kind": self.kind, "r1": [f(self.r1p), f(self.r1)],
                "r2": [f(self.r2p), f(self.r2)], "r3": [f(self.r3p), f(self.r3)]}

    @staticmethod
    def parse(spec: str, kind: str = "C") -> "Box3":
        parts = [Fr(p) for p in spec.split(",")]
        if len(parts) != 6:
            raise ValueError("box spec needs 6 comma-separated rationals")
        return Box3(*parts, kind=kind)


def volume_V(N, L1p, L1, L2p, L2) -> float:
    """(75/8) N^(1/5) (L1^(2/15) - L1'^(2/15)) (L2'^(-2/15) - L2^(-2/15))."""
    N, L1p, L1, L2p, L2 = map(float, (N, L1p, L1, L2p, L2))
    if N <= 0 or L1p >= L1 or L2p >= L2:
        return 0.0
    if L2p == 0:
        return math.inf
    return (75 / 8) * N ** 0.2 * (L1 ** (2 / 15) - L1p ** (2 / 15)) * \
        (L2p ** (-2 / 15) - L2 ** (-2 / 15))


def area_A(M, L1p, L1) -> float:
    """(M/2) log(L1/L1') -- area of {x1 x5 <= M, x5/x1 in [L1', L1]}."""
    M, L1p, L1 = map(float, (M, L1p, L1))
    if M <= 0 or L1p > L1:
        return 0.0
    if L1p == L1:
        return 0.0
    return (M / 2) * math.log(L1 / L1p)


# --- exact lattice-point counts ---------------------------------------------

# The most Python steps one window walk may take, about 5 s of it on a 2-CPU host:
# (x1, x5) pairs in 3d (an x1 with no x5 counts as one), x1 values in 2d.  A walk
# grows like N^(1/5) (3d) or M^(1/2) (2d); past the limit it could run for hours.
_WALK_LIMIT = 10 ** 6


def windows_M3(n: int, Sp, S, L2p, L2):
    """The nonempty windows (x1, x5, lo3, hi3) of the lattice points of
    {x1^5 x3^3 x5^5 <= n, (x5/x1)^2 in [S', S], x5/(x1 x3^3) in [L2', L2]}.

    Each lattice pair (x1, x5) carries the x3 in [lo3, hi3], in order of x1
    then x5.  n is an int and the windows are ints or Fractions; a nonpositive
    S' is no lower bound.  Every endpoint is the floor, ceiling or integer root
    of a quotient of Python ints.  More than _WALK_LIMIT (x1, x5) steps raise
    ValueError before the first window.
    """
    Sp, S, L2p, L2 = Fr(Sp), Fr(S), Fr(L2p), Fr(L2)
    if L2p <= 0:
        raise ValueError("L2' must be positive for a finite region")
    if n < 1 or S <= 0 or Sp > S or L2p > L2:
        return
    p1, q1, P1, Q1 = Sp.numerator, Sp.denominator, S.numerator, S.denominator
    p2, q2, P2, Q2 = L2p.numerator, L2p.denominator, L2.numerator, L2.denominator
    # x3, x5 >= 1 give x1^5 <= n; if S' > 0 then x5 >= sqrt(S') x1 and
    # x3^3 >= x5/(L2 x1) >= sqrt(S')/L2 force x1^10 <= n L2 / S'^3.
    cap = iroot(n, 5)
    if p1 > 0:
        cap = min(cap, iroot(n * P2 * q1 ** 3 // (Q2 * p1 ** 3), 10))
    rows, walk = [], 0
    for x1 in range(1, cap + 1):
        lo5 = max(1, ceil_root(-(-p1 * x1 * x1 // q1), 2))
        hi5 = min(math.isqrt(P1 * x1 * x1 // Q1), iroot(n // x1 ** 5, 5))
        walk += max(1, hi5 - lo5 + 1)
        if walk > _WALK_LIMIT:
            raise ValueError(f"the region x1^5 x3^3 x5^5 <= {n} needs more than {_WALK_LIMIT} "
                             f"(x1, x5) steps, above the walk limit")
        rows.append((x1, lo5, hi5))
    for x1, lo5, hi5 in rows:
        for x5 in range(lo5, hi5 + 1):
            lo3 = max(1, ceil_root(-(-x5 * Q2 // (x1 * P2)), 3))
            hi3 = min(iroot(x5 * q2 // (x1 * p2), 3), iroot(n // (x1 * x5) ** 5, 3))
            if hi3 >= lo3:
                yield x1, x5, lo3, hi3


def windows_M2(M: int, L1p, L1):
    """The nonempty windows (x1, lo5, hi5) of the lattice points of
    {x1 x5 <= M, x5/x1 in [L1', L1]}: x5 runs over [lo5, hi5], in order of x1.

    M is an int and the window ints or Fractions; a nonpositive L1' is no lower
    bound.  More than _WALK_LIMIT values of x1 raise ValueError before the first
    window.
    """
    L1p, L1 = Fr(L1p), Fr(L1)
    if M < 1 or L1 <= 0 or L1p > L1:
        return
    # x5 >= max(1, L1' x1) and x1 x5 <= M cap x1 at M or sqrt(M / L1')
    cap = M if L1p <= 0 else min(M, floor_root(M / L1p, 2))
    if cap > _WALK_LIMIT:
        raise ValueError(f"the region x1 x5 <= {M} needs more than {_WALK_LIMIT} values of x1, "
                         f"above the walk limit")
    pn, pd, qn, qd = L1p.numerator, L1p.denominator, L1.numerator, L1.denominator
    for x1 in range(1, cap + 1):
        lo = -(-pn * x1 // pd)
        if lo < 1:
            lo = 1
        hi = qn * x1 // qd
        if M // x1 < hi:
            hi = M // x1
        if hi >= lo:
            yield x1, lo, hi


def count_lattice_M3(N, L1p, L1, L2p, L2) -> int:
    """#{(x1,x3,x5) positive integers in M(N, L1', L1, L2', L2)}, exact.

    The arguments are ints or Fractions.  The ratio window x5/x1 in [L1', L1]
    is the squared window [max(L1', 0)^2, max(L1, 0)^2] of windows_M3.
    """
    L1p, L1 = max(Fr(L1p), 0), max(Fr(L1), 0)
    return sum(hi3 - lo3 + 1 for _, _, lo3, hi3 in
               windows_M3(math.floor(Fr(N)), L1p ** 2, L1 ** 2, L2p, L2))


def count_lattice_M3_brute(N, L1p, L1, L2p, L2) -> int:
    """Triple-loop oracle over the full bounding cube (tests only)."""
    N = Fr(N); L1p = Fr(L1p); L1 = Fr(L1); L2p = Fr(L2p); L2 = Fr(L2)
    top = iroot(int(N), 3) + 2
    total = 0
    for x1 in range(1, top + 1):
        for x3 in range(1, top + 1):
            for x5 in range(1, top + 1):
                if Fr(x1) ** 5 * Fr(x3) ** 3 * Fr(x5) ** 5 > N:
                    continue
                r1 = Fr(x5, x1)
                if not (L1p <= r1 <= L1):
                    continue
                r2 = Fr(x5, x3 ** 3 * x1)
                if L2p <= r2 <= L2:
                    total += 1
    return total


def count_lattice_M2(M, L1p, L1) -> int:
    """#{(x1,x5) positive integers : x1 x5 <= M, x5/x1 in [L1', L1]}, exact."""
    return sum(hi - lo + 1 for _, lo, hi in windows_M2(math.floor(Fr(M)), L1p, L1))


def count_lattice_M2_brute(M, L1p, L1) -> int:
    M = Fr(M); L1p = Fr(L1p); L1 = Fr(L1)
    total = 0
    for x1 in range(1, math.floor(M) + 1):
        for x5 in range(1, math.floor(M / x1) + 1):
            if L1p * x1 <= x5 <= L1 * x1:
                total += 1
    return total


# --- Monte Carlo volume check ------------------------------------------------

def monte_carlo_volume_M3(N, L1p, L1, L2p, L2, samples: int = 10 ** 6,
                          seed: int = 0) -> tuple[float, float]:
    """(estimate, standard_error) for vol(M(...)) via a seeded indicator average."""
    N, L1p, L1, L2p, L2 = map(float, (N, L1p, L1, L2p, L2))
    x1_max = (N * L2 / L1p ** 6) ** 0.1
    x3_max = (L1 / L2p) ** (1 / 3)
    x5_max = L1 * x1_max
    box = x1_max * x3_max * x5_max
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    hits_sq = 0
    n_done = 0
    chunk = 1 << 18
    while n_done < samples:
        k = min(chunk, samples - n_done)
        x1 = rng.random(k) * x1_max
        x3 = rng.random(k) * x3_max
        x5 = rng.random(k) * x5_max
        with np.errstate(divide="ignore", invalid="ignore"):
            ind = (x1 ** 5 * x3 ** 3 * x5 ** 5 <= N)
            r1 = x5 / x1
            ind &= (r1 >= L1p) & (r1 <= L1)
            r2 = x5 / (x3 ** 3 * x1)
            ind &= (r2 >= L2p) & (r2 <= L2)
        hits += int(ind.sum())
        n_done += k
    p = hits / samples
    est = box * p
    se = box * math.sqrt(max(p * (1 - p), 1e-300) / samples)
    return est, se


# --- error-law diagnostics ----------------------------------------------------

@dataclass(frozen=True)
class ErrorLawRow:
    N: int
    count: int
    volume: float
    scaled_error: float  # |count - volume| / N^exponent


def error_law_M3(Ns, L1p, L1, L2p, L2, exponent: float = 0.1) -> list[ErrorLawRow]:
    rows = []
    for N in Ns:
        c = count_lattice_M3(N, L1p, L1, L2p, L2)
        v = volume_V(N, L1p, L1, L2p, L2)
        rows.append(ErrorLawRow(N, c, v, abs(c - v) / float(N) ** exponent))
    return rows


def error_law_M2(Ms, L1p, L1, exponent: float = 0.5) -> list[ErrorLawRow]:
    rows = []
    for M in Ms:
        c = count_lattice_M2(M, L1p, L1)
        a = area_A(M, L1p, L1)
        rows.append(ErrorLawRow(M, c, a, abs(c - a) / float(M) ** exponent))
    return rows
