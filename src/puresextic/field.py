"""Integer arithmetic on radicands: factorisation, exact k-th roots, carefree
decompositions and the generic discriminant formula.

A sixth-power-free m factors uniquely as sign * a1 * a2^2 * a3^3 * a4^4 * a5^5
with the a_i squarefree and pairwise coprime ("strongly carefree").  This
module produces that decomposition (and its degree-n analogue), the C_i
normalising constants, the dual (orientation-reversing) involution, and the
valuation formula for the field discriminant of Q(m^(1/n)) when the wild part
is tame enough.  The floor and ceiling roots here are the only ones the
exact code paths use, and power_free is the one sieve for e-th-power-free
integers (squarefree at e = 2, sixth-power-free at e = 6).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NotPowerFree(ValueError):
    pass


class AssumptionViolated(ValueError):
    """The wild-ramification precondition fails; fall back to the determinant route."""


class InvalidField(ValueError):
    pass


class FactorizationLimit(ValueError):
    """Brent's rho found no factor within _RHO_LIMIT steps."""


# ---------------------------------------------------------------------------
# Factorization: trial division, then Brent's rho with deterministic Miller-Rabin
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 10 ** 6
_RHO_LIMIT = 1 << 20  # rho steps per split; a prime factor p takes ~sqrt(p), so p up to ~10^12

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite odd n, within _RHO_LIMIT steps of the walk."""
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        f = lambda v: (v * v + c) % n
        x, d, q = y, 1, 1
        r = 1
        while d == 1:
            if steps > _RHO_LIMIT:
                raise FactorizationLimit(
                    f"cannot factor {n}: no factor found in {_RHO_LIMIT} Brent rho steps")
            x = y
            for _ in range(r):
                y = f(y)
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = f(y)
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if d == n:
            d = 1
            y = ys
            while d == 1:
                y = f(y)
                d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}."""
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += inc[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    if d * d > n:  # no prime below d is left in n, so n is prime
        out[n] = 1
        return out
    rng = None  # made on the first rho split
    stack = [n]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        # perfect-power shortcut helps rho on squares
        for e in (2, 3, 5):
            r = iroot(v, e)
            if r ** e == v:
                stack.extend([r] * e)
                break
        else:
            if rng is None:
                rng = random.Random(0xC0FFEE)  # deterministic: factorization results are reproducible
            d = _brent_rho(v, rng)
            stack.extend([d, v // d])
    return out


_FLOAT_SEED_BITS = 1000  # below this, n converts to a double without overflow


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for an int n >= 0 of any size.

    Integer Newton iteration from above (Cohen, GTM 138, section 1.7).  Below
    _FLOAT_SEED_BITS a double gives the start; a root under 2^40 is then off
    by at most one and is corrected in integers without a Newton step.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    if n.bit_length() < _FLOAT_SEED_BITS:
        r = round(n ** (1.0 / k))
        if r < 1 << 40:
            while r ** k > n:
                r -= 1
            while (r + 1) ** k <= n:
                r += 1
            return r
        r += (r >> 32) + 1  # above the root: the double is good to ~2^-44
    else:
        r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def power_free(lo: int, hi: int, e: int) -> np.ndarray:
    """The mask of [lo, hi] (Python ints of any size): keep[i] is True iff no j^e
    with j >= 2 divides lo + i.  0, which every j^e divides, is marked even when
    no j runs.

    Strikes keep[(-lo) % j^e :: j^e] for j up to max(|lo|, |hi|)^(1/e); a
    composite j only repeats a strike, so no primes are needed.
    """
    keep = np.ones(max(hi - lo + 1, 0), dtype=bool)
    for j in range(2, iroot(max(abs(lo), abs(hi)), e) + 1):
        q = j ** e
        keep[-lo % q::q] = False
    if lo <= 0 <= hi:
        keep[-lo] = False
    return keep


def floor_root(q, k: int) -> int:
    """Largest integer r >= 0 with r^k <= q, for an int or Fraction q >= 0.

    Exact: for an integer r, r^k <= q iff r^k <= floor(q).
    """
    return iroot(q.numerator // q.denominator, k)


def ceil_root(q, k: int) -> int:
    """Smallest integer r >= 0 with r^k >= q, for an int or Fraction q."""
    c = max(-(-q.numerator // q.denominator), 0)
    r = iroot(c, k)
    return r if r ** k == c else r + 1


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(factorize(n))


def is_irreducible_radical(n: int, m: int) -> bool:
    """Capelli for x^n - m, n >= 2: reducible iff m is a p-th power for a prime
    p | n, or 4 | n and m = -4k^4."""
    a = abs(m)
    for p in _prime_divisors(n):
        if (m >= 0 or p % 2) and iroot(a, p) ** p == a:
            return False
    return not (n % 4 == 0 and m < 0 and 4 * iroot(a // 4, 4) ** 4 == a)


def is_irreducible_sextic(m: int) -> bool:
    """x^6 - m is irreducible iff m is neither a square nor a cube."""
    return is_irreducible_radical(6, m)


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return all(e == 1 for e in factorize(n).values())


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, built prime by prime in factorize's order."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


# ---------------------------------------------------------------------------
# Strongly carefree tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CarefreeTuple:
    sign: int
    a: tuple[int, int, int, int, int]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def m(self) -> int:
        a1, a2, a3, a4, a5 = self.a
        return self.sign * a1 * a2 ** 2 * a3 ** 3 * a4 ** 4 * a5 ** 5


def carefree_decompose_n(n: int, m: int) -> tuple[int, ...]:
    """(a_1, ..., a_{n-1}) with |m| = prod a_j^j, a_j squarefree pairwise coprime."""
    a = [1] * (n - 1)
    for p, e in factorize(m).items():
        if e >= n:
            raise NotPowerFree(f"{p}^{e} divides m={m}: not {n}-th-power-free")
        a[e - 1] *= p
    return tuple(a)


def decompose(m: int) -> CarefreeTuple:
    """Exponent-class decomposition of a sixth-power-free integer."""
    if m == 0:
        raise ValueError("m must be nonzero")
    return CarefreeTuple(1 if m > 0 else -1, carefree_decompose_n(6, m))


def dual(t: CarefreeTuple) -> CarefreeTuple:
    """Reverse the tuple; the associated field is unchanged and m * m' = (prod a_i)^6."""
    return CarefreeTuple(t.sign, tuple(reversed(t.a)))


def is_canonical(t: CarefreeTuple) -> bool:
    """Canonical orientation: a4*a5^2 >= a1^2*a2, lexicographic tie-break.

    Valid tuples never tie with a distinct dual (coprimality forces ties to be
    self-dual, and self-dual m is a cube), but the rule is total anyway.
    """
    a1, a2, _, a4, a5 = t.a
    lhs = a4 * a5 * a5
    rhs = a1 * a1 * a2
    if lhs != rhs:
        return lhs > rhs
    return t.a <= dual(t).a


def big_c_n(a: tuple[int, ...]) -> tuple[int, ...]:
    """C_i = prod_j a_j^floor(i*j/n) for i = 0..n-1 (C_0 = 1), where n = len(a) + 1."""
    n = len(a) + 1
    return tuple(math.prod(a[j - 1] ** ((i * j) // n) for j in range(1, n))
                 for i in range(n))


def big_c(t: CarefreeTuple) -> tuple[int, int, int, int, int]:
    """C_1..C_5 of the sextic tuple; C_1 is always 1."""
    return big_c_n(t.a)[1:]


@dataclass(frozen=True)
class SexticField:
    """Validated descriptor of Q(m^(1/6)) with m sixth-power-free, x^6-m irreducible."""
    m: int
    tuple: CarefreeTuple
    big_c: tuple[int, int, int, int, int]
    canonical: bool


@lru_cache(maxsize=65536)
def sextic_field(m: int) -> SexticField:
    if m == 0:
        raise InvalidField("m must be nonzero")
    if not is_irreducible_sextic(m):
        raise InvalidField(f"x^6 - ({m}) is reducible (perfect square or cube)")
    t = decompose(m)
    return SexticField(m, t, big_c(t), is_canonical(t))


# ---------------------------------------------------------------------------
# Discriminant valuations for Q(m^(1/n)) under the tame-wild assumption
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscValuations:
    """Valuations of disc(Q(m^(1/n))): wild part at p | n, tame part at q | m."""
    n: int
    m: int
    v: dict[int, int]          # p | n  ->  v_p of the wild factor
    tame_part: dict[int, int]  # q | m  ->  n - gcd(n, v_q(m))

    def valuation(self, p: int) -> int:
        return self.v.get(p, 0) + self.tame_part.get(p, 0)

    def abs_disc(self) -> int:
        out = 1
        for p, e in self.v.items():
            out *= p ** e
        for q, e in self.tame_part.items():
            out *= q ** e
        return out

    def sign(self) -> int:
        # (-1)^((n-1)(n-2)/2) * sgn(m^(n-1))
        s = -1 if ((self.n - 1) * (self.n - 2) // 2) % 2 else 1
        if self.m < 0 and (self.n - 1) % 2:
            s = -s
        return s


def check_assumption(n: int, m: int) -> None:
    """Either v_l(m) = 0 or gcd(v_l(m), l) = 1, for every prime l | n; m n-th-power-free."""
    fac_m = factorize(m)
    for p, e in fac_m.items():
        if e >= n:
            raise NotPowerFree(f"{p}^{e} divides m: not {n}-th-power-free")
    for p in factorize(n):
        e = fac_m.get(p, 0)
        if e != 0 and math.gcd(e, p) != 1:
            raise AssumptionViolated(f"v_{p}(m)={e} shares a factor with {p}")


def disc_valuations(n: int, m: int) -> DiscValuations:
    """The exponent data of disc(Q(m^(1/n))) = +- prod p^v_p * prod q^(n - gcd(n, t_q)).

    Requires the assumption above; raises AssumptionViolated otherwise (the
    caller then gets the discriminant as |det| of an exact Gram matrix).
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    if m == 0:
        raise ValueError("m must be nonzero")
    check_assumption(n, m)
    fac_n = factorize(n)
    fac_m = factorize(m)
    v: dict[int, int] = {}
    for p, s in fac_n.items():
        n_i = n // p ** s
        if m % p == 0:
            r = -1
        else:
            r = _val(m ** (p - 1) - 1, p) - 1
        if r > 0:
            d = min(r, s)
            v[p] = n * s - 2 * n_i * sum(p ** (s - j) for j in range(1, d + 1))
        else:
            v[p] = n * s
    tame = {q: n - math.gcd(n, t) for q, t in fac_m.items()}
    return DiscValuations(n, m, v, tame)


def _val(x: int, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of zero")
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e
