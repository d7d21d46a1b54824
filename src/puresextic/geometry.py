"""Counting geometry: region volumes, exact lattice-point counts, error diagnostics.

The 3d region M(N, L1', L1, L2', L2) = {x1,x3,x5 > 0 : x1^5 x3^3 x5^5 <= N,
x5/x1 in [L1', L1], x5/(x3^3 x1) in [L2', L2]} has volume
(75/8) N^(1/5) (L1^(2/15) - L1'^(2/15)) (L2'^(-2/15) - L2^(-2/15)); its lattice
points are counted exactly by slicing x1, then x5, then an integer cube-root
interval for x3.  Each interval endpoint is the floor, ceiling or integer root
of a quotient of Python ints, cross-multiplied from the numerators and
denominators of N and the windows, so counts agree bit-for-bit with brute force.
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

def count_lattice_M3(N, L1p, L1, L2p, L2, per_x1=None) -> int:
    """#{(x1,x3,x5) positive integers in M(N, L1', L1, L2', L2)}, exact.

    Slices on x1, then x5 in the ratio interval, then counts x3 in an exact
    cube-root interval; O(#pairs) time.  The arguments are ints or Fractions;
    every window endpoint is a floor or ceiling of a cross-multiplied integer
    quotient.
    """
    N = Fr(N); L1p = Fr(L1p); L1 = Fr(L1); L2p = Fr(L2p); L2 = Fr(L2)
    if L2p <= 0:
        raise ValueError("L2' must be positive for a finite region")
    if N < 1 or L1 <= 0 or L1p > L1 or L2p > L2:
        return 0
    n, dn = N.numerator, N.denominator
    p1, q1, P1, Q1 = L1p.numerator, L1p.denominator, L1.numerator, L1.denominator
    p2, q2, P2, Q2 = L2p.numerator, L2p.denominator, L2.numerator, L2.denominator
    # x1 caps: x3, x5 >= 1 give x1^5 <= N; if L1p > 0 then x5 >= L1p x1 and
    # x3^3 >= x5/(L2 x1) >= L1p/L2 force x1^10 <= N L2 / L1p^6.
    cap = iroot(n // dn, 5)
    if p1 > 0:
        cap = min(cap, iroot(n * P2 * q1 ** 6 // (dn * Q2 * p1 ** 6), 10))
    total = 0
    for x1 in range(1, cap + 1):
        lo5 = max(1, -(-p1 * x1 // q1))
        hi5 = min(P1 * x1 // Q1, iroot(n // (dn * x1 ** 5), 5))
        cnt_here = 0
        for x5 in range(lo5, hi5 + 1):
            # x5 / (x1 x3^3) in [L2', L2] and x1^5 x3^3 x5^5 <= N
            lo3 = max(1, ceil_root(-(-x5 * Q2 // (x1 * P2)), 3))
            hi3 = min(iroot(x5 * q2 // (x1 * p2), 3), iroot(n // (dn * (x1 * x5) ** 5), 3))
            if hi3 >= lo3:
                cnt_here += hi3 - lo3 + 1
        total += cnt_here
        if per_x1 is not None:
            per_x1.append((x1, cnt_here))
    return total


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
    M = Fr(M); L1p = Fr(L1p); L1 = Fr(L1)
    if M < 1 or L1 <= 0 or L1p > L1:
        return 0
    # x5 >= max(1, L1p x1) and x1 x5 <= M cap x1 at M or sqrt(M / L1p)
    cap = math.floor(M)
    if L1p > 0:
        cap = min(cap, floor_root(M / L1p, 2))
    pn, pd = L1p.numerator, L1p.denominator
    qn, qd = L1.numerator, L1.denominator
    mn, md = M.numerator, M.denominator
    total = 0
    for x1 in range(1, cap + 1):
        lo = -((-pn * x1) // pd)
        if lo < 1:
            lo = 1
        hi = (qn * x1) // qd
        hyp = mn // (md * x1)
        if hyp < hi:
            hi = hyp
        if hi >= lo:
            total += hi - lo + 1
    return total


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
