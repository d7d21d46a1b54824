"""Degree-n pure fields Q(m^(1/n)): wild-ramification data and the generic integral basis.

Under the assumption that every prime l | n has v_l(m) = 0 or coprime to l,
the ring of integers has an explicit basis {1, (theta^t + beta_t) / (C_t *
prod p_i^(k_{i,t}))} built from truncated geometric sums delta_{i,t}.  For
n = 6 this must span the same lattice as the Table-2 basis, which is one of
the acceptance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import mat_det, mat_solve, rational_json
from .field import (InvalidField, _val, big_c_n, carefree_decompose_n, check_assumption,
                    factorize, is_irreducible_radical)

Fr = Fraction


@dataclass(frozen=True)
class WildPrime:
    """Per-prime data at p | n with r > 0."""
    p: int
    s: int            # v_p(n)
    r: int            # v_p(m^(p-1) - 1) - 1
    d: int            # min(r, s)


@dataclass(frozen=True)
class WildSlot:
    """Quantities attached to a pair (wild prime p, power index t)."""
    p: int
    k: int            # k_{p,t}, 0 <= k <= d
    j: int            # j_{p,t} = t - (n - n/p^k)
    n_t: int          # n / p^k
    b: int | None     # m * b = 1 mod p^(k+1)           (None when k = 0)
    a: int | None     # b^(p^(s-1-k)) mod p^k-adjusted  (None when k = 0)
    w: int | None     # w * C_t * a^(p^k - 1) = 1 mod p^k


@dataclass(frozen=True)
class WildData:
    n: int
    m: int
    primes: tuple[WildPrime, ...]              # indices in S (r > 0)
    slots: dict[tuple[int, int], WildSlot]     # (p, t) -> slot
    C: tuple[int, ...]                         # C_0..C_{n-1}

    @property
    def S(self) -> tuple[int, ...]:
        return tuple(wp.p for wp in self.primes)


# The largest degree: general-basis takes about 2.2-3.7 s at n = 500 on a 2-CPU host
# (1.0 s at n = 240, 6.2 s at n = 720 for m = 5).
_DEGREE_LIMIT = 500


def wild_data(n: int, m: int) -> WildData:
    """All section-level quantities: S, r_i, d_i, k_{i,t}, j_{i,t}, b', a', w."""
    if n < 2:
        raise InvalidField(f"degree n={n} must be at least 2")
    if n > _DEGREE_LIMIT:
        raise InvalidField(f"degree n={n} is above the degree limit {_DEGREE_LIMIT}")
    if not is_irreducible_radical(n, m):
        raise InvalidField(f"x^{n} - ({m}) is reducible")
    check_assumption(n, m)
    C = big_c_n(carefree_decompose_n(n, m))
    primes = []
    for p, s in sorted(factorize(n).items()):
        if m % p == 0:
            continue  # r = -1
        r = _val(m ** (p - 1) - 1, p) - 1
        if r > 0:
            primes.append(WildPrime(p, s, r, min(r, s)))
    slots: dict[tuple[int, int], WildSlot] = {}
    for wp in primes:
        p, s, d = wp.p, wp.s, wp.d
        for t in range(n):
            k = _k_of(n, p, d, t)
            j = t - (n - n // p ** k)
            n_t = n // p ** k
            if k == 0:
                slots[(p, t)] = WildSlot(p, 0, j, n_t, None, None, None)
                continue
            mod_b = p ** (k + 1)
            # any integer = m^(p-2) mod p^(k+1) works; that class is m^(-1) since
            # m^(p-1) = 1 mod p^(r+1) and k <= r
            b = pow(m, -1, mod_b)
            if 1 <= k < s:
                a = pow(b, p ** (s - 1 - k), mod_b)
            else:  # k == s
                a = b
            mod_w = p ** k
            w = pow(C[t] * pow(a, p ** k - 1, mod_w), -1, mod_w)
            slots[(p, t)] = WildSlot(p, k, j, n_t, b, a, w)
    return WildData(n, m, tuple(primes), slots, C)


def _k_of(n: int, p: int, d: int, t: int) -> int:
    """The unique k with t in [n - n/p^k, n - n/p^(k+1)) for k < d, else d."""
    for k in range(d):
        if n - n // p ** k <= t < n - n // p ** (k + 1):
            return k
    return d


@dataclass(frozen=True)
class GeneralBasis:
    n: int
    m: int
    vectors: tuple[tuple[Fraction, ...], ...]  # n columns over {1, theta, ..., theta^(n-1)}

    def matrix(self) -> list[list[Fraction]]:
        """n x n matrix whose columns are the coefficient vectors."""
        return [[self.vectors[t][s] for t in range(self.n)] for s in range(self.n)]

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m,
                "elements": [[rational_json(c) for c in v] for v in self.vectors]}


def _delta(wd: WildData, p: int, t: int) -> list[Fraction]:
    """delta_{p,t} = w * C_t * theta^j * sum_{r=0}^{p^k - 2} (a * theta^(n/p^k))^r, as a vector."""
    slot = wd.slots[(p, t)]
    vec = [Fr(0)] * wd.n
    coef = Fr(slot.w * wd.C[t])
    power = slot.j
    acc = Fr(1)
    for r in range(p ** slot.k - 1):
        # powers stay below t < n, no theta^n reduction occurs
        vec[power] += coef * acc
        acc *= slot.a
        power += slot.n_t
    return vec


def general_integral_basis(n: int, m: int) -> GeneralBasis:
    """The generic integral basis; plain {theta^t / C_t} when S is empty."""
    wd = wild_data(n, m)
    vectors = []
    for t in range(n):
        if t == 0:
            vec = [Fr(1)] + [Fr(0)] * (n - 1)
            vectors.append(tuple(vec))
            continue
        s_t = [wp.p for wp in wd.primes if wd.slots[(wp.p, t)].k >= 1]
        beta = [Fr(0)] * n
        if s_t:
            z = {p: math.prod(q ** wd.slots[(q, t)].k for q in s_t if q != p) for p in s_t}
            u = _bezout(list(z.items()))
            for p in s_t:
                d = _delta(wd, p, t)
                cz = u[p] * z[p]
                for i in range(n):
                    beta[i] += cz * d[i]
        den = wd.C[t] * math.prod(p ** wd.slots[(p, t)].k for p in wd.S)
        vec = [b / den for b in beta]
        vec[t] += Fr(1, den)
        # the highest theta-power inside beta_t is t - n/p^k < t
        assert all(beta[i] == 0 for i in range(t, n)), "delta reaches theta^t"
        vectors.append(tuple(vec))
    return GeneralBasis(n, m, tuple(vectors))


def _bezout(zs: list[tuple[int, int]]) -> dict[int, int]:
    """Integers u_p with sum u_p z_p = 1 (z_p pairwise coprime), deterministically.

    Fold with the extended gcd in sorted prime order; any Bezout solution
    yields the same lattice.
    """
    items = sorted(zs)
    p0, z0 = items[0]
    coeffs = {p0: 1}
    cur = z0
    for p, z in items[1:]:
        g, x, y = _ext_gcd(cur, z)
        assert g == 1
        for q in coeffs:
            coeffs[q] *= x
        coeffs[p] = y
        cur *= z
    return coeffs


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def same_lattice(m1: list[list[Fraction]], m2: list[list[Fraction]]) -> bool:
    """Columns of m1 and m2 span the same Z-lattice: connecting matrix in GL_n(Z)."""
    x = mat_solve(m1, m2)
    if any(v.denominator != 1 for row in x for v in row):
        return False
    return abs(mat_det(x)) == 1


# ---------------------------------------------------------------------------
# Shape parameters for general n with S empty (diagonal case)
# ---------------------------------------------------------------------------

def shape_exponents(n: int, i: int) -> tuple[Fraction, ...]:
    """Exponents of lam_i on a_1..a_{n-1}, the one rule for every shape monomial:
    lam_i = (prod_j a_j^(2ij - 2n floor(ij/n) - n))^(1/n) over j = 1..n-1."""
    return tuple(Fr(2 * i * j - 2 * n * (i * j // n) - n, n) for j in range(1, n))


def general_shape_params(n: int) -> dict:
    """Exponent vectors of lam_1..lam_floor(n/2) on a_1..a_{n-1}; for even n the
    rule gives lam_{n/2} = 1 / (a_2 a_4 ... a_{n-2})."""
    return {i: shape_exponents(n, i) for i in range(1, n // 2 + 1)}
