"""Local congruence densities and the limiting-measure integrals.

Residue-level counts over Z/64 and Z/243 (CRT-split, memoised per process)
feed the coefficient functions and the box integrals of the limiting measures;
the tests check the split against one sweep over (Z/15552)^3.
Each count folds one free coordinate at a time into a histogram of (number of
p-divisible coordinates, product residue), O(mod^2) per coordinate instead of
a (Z/mod)^k cube.  For primes l >= 5 the carefree survivor set is "at most
one coordinate divisible by l" (the closed-form convention; the strict
squarefree counterpart is also computed since it is what actual
sixth-power-free tuples satisfy).

Measure integrals come in variants:
  stated   -- the closed-form limit constant in its stated, non-density
              normalisation;
  volume   -- the volume-based form with the count normalised as a density
              (n_{i,j}/15552^3 instead of /6^6);
  discrete -- pair-based asymptotics with a discrete a3-sum (the form the
              exact lattice counts actually follow; see notes in the repo
              README about the 3d count lemma), a sum over the carefree
              cells of geometry.box_cells, the cells the counts walk.
Each local flavor is 'loose' (mod-l^2 closed forms) or 'strict' (true local
densities of squarefree pairwise-coprime tuples).  Each variant multiplies by
an Euler product over the primes l >= 5, read from the literal table
EULER_PRODUCTS: the product to 10^6 and a rigorous bound on the rest.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .field import divisors, factorize, is_squarefree
from .geometry import Box3, box_cells, divisor_pairs
from .types import TYPE_MOD, SexticType, type_table

Fr = Fraction


class InvalidPair(ValueError):
    pass


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def primes_up_to(n: int) -> np.ndarray:
    """The primes <= n, sieved once per n per process; the shared array is read-only."""
    if n < 2:
        out = np.zeros(0, dtype=np.int64)
    else:
        odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2 i + 1
        for i in range(1, (math.isqrt(n) + 1) // 2):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2:: p] = False
        out = np.flatnonzero(odd).astype(np.int64, copy=False)
        out *= 2
        out += 1
        out[0] = 2  # odd[0] stands for 1, which is no prime: its slot takes 2
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# The 2/3-part counters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _step(mod: int, p: int, e: int, divisible: bool) -> np.ndarray:
    """step[v, w] = #{r in Z/mod : v_p(r) <= 1, (p | r) == divisible, v * r^e = w};
    the pairwise p^2-free conditions force v_p(r) <= 1."""
    r = np.arange(mod, dtype=np.int64)
    pw = r[(r % (p * p) != 0) & ((r % p == 0) == divisible)] ** e % mod
    step = np.bincount((r[:, None] * mod + r[:, None] * pw % mod).ravel(),
                       minlength=mod * mod).reshape(mod, mod).astype(np.uint8)  # counts <= mod <= 243
    step.flags.writeable = False
    return step


def _count_free(mod: int, p: int, powers: tuple[int, ...], const: int,
                in_set: np.ndarray, budget: int) -> int:
    """Count tuples (r_1..r_k) in (Z/mod)^k, each v_p <= 1, at most `budget`
    divisible by p, with const * prod r_i^powers[i] mod `mod` in `in_set`.

    A histogram fold: hist[d, v] counts the admissible prefixes with d
    p-divisible coordinates and product residue v; each coordinate multiplies
    in through two (mod x mod) transition tables, O(mod^2) per coordinate.
    """
    if budget < 0:
        return 0
    hist = np.zeros((budget + 1, mod), dtype=np.int64)
    hist[0, const % mod] = 1
    for e in powers:
        v = np.flatnonzero(hist.any(axis=0))  # the residues some prefix reaches
        new = hist[:, v] @ _step(mod, p, e, False)[v]
        new[1:] += hist[:-1, v] @ _step(mod, p, e, True)[v]
        hist = new
    return int(hist[:, in_set].sum())


def _fixed_part(p: int, sign: int, fixed: tuple[int, ...],
                weights: tuple[int, ...]) -> tuple[int, int] | None:
    """(sign * prod fixed^weights mod 64 or 243, number of p-divisible fixed
    coordinates), all that a count reads of its fixed coordinates; None if one
    of them is not p^2-free."""
    mod = 64 if p == 2 else 243
    const = sign % mod
    ndiv = 0
    for r, e in zip(fixed, weights):
        if r % (p * p) == 0:
            return None
        if r % p == 0:
            ndiv += 1
        const = const * pow(r, e, mod) % mod
    return const, ndiv


def _local_count(p: int, case: int, sign: int, fixed: tuple[int, ...],
                 weights: tuple[int, ...], free: tuple[int, ...]) -> int:
    """The one 2/3-part count: free residue tuples mod 64 (p = 2) or 243
    (p = 3), every coordinate (fixed ones too) p^2-free and at most one of them
    divisible by p, with sign * prod fixed^weights * prod free^powers in row
    `case` of the Type table at p (the A-rows at 2, the B-rows at 3)."""
    mod = 64 if p == 2 else 243
    part = _fixed_part(p, sign, fixed, weights)
    if part is None:
        return 0
    const, ndiv = part
    return _count_free(mod, p, free, const, type_table()[p - 2][:mod] == case, 1 - ndiv)


def n2_count(i: int, sign: int, a2: int, a4: int) -> int:
    return _local_count(2, i, sign, (a2, a4), (2, 4), (1, 3, 5))


def n3_count(j: int, sign: int, a2: int, a4: int) -> int:
    return _local_count(3, j, sign, (a2, a4), (2, 4), (1, 3, 5))


def m2_count(i: int, sign: int, a2: int, a3: int, a4: int) -> int:
    return _local_count(2, i, sign, (a2, a3, a4), (2, 3, 4), (1, 5))


def m3_count(j: int, sign: int, a2: int, a3: int, a4: int) -> int:
    return _local_count(3, j, sign, (a2, a3, a4), (2, 3, 4), (1, 5))


# ---------------------------------------------------------------------------
# The in-process memo of the 2/3-part counts
# ---------------------------------------------------------------------------

# Keyed by (kind, case, _fixed_part's pair): a count reads its sign and fixed
# coordinates only through that pair, so n3, say, has at most 2 * 243 entries
# for its 243^2 residue pairs (a2, a4).  Types sharing an A-row share their
# n2/m2 entries, Types sharing a B-row their n3/m3 entries.  _table is the one
# place that reads or fills it.
_CACHE: dict[tuple, int] = {}


def set_cache_dir(path: str | None) -> None:
    """No-op.  The counts are memoised in this process only; this stays for
    callers written when they could also be cached on disk."""


def _table(kinds: tuple[str, str], t: SexticType, sign: int, weights: tuple[int, ...],
           coords: tuple[int, ...]) -> int:
    """The mod-64 times the mod-243 count (`kinds`, say ("n2", "n3")) at the fixed
    coordinates, the one of weight w being a_w, each count memoised.  InvalidPair
    unless their product is squarefree (they are squarefree and pairwise coprime).
    A miss calls the kernel named at call time, so a wrapper set on the module
    attribute (a tracer, a test counter) sees every miss."""
    if not is_squarefree(math.prod(coords)):
        raise InvalidPair(", ".join(f"a{w}={v}" for w, v in zip(weights, coords))
                          + " must be coprime squarefree")
    total = 1
    for kind, p, case in zip(kinds, (2, 3), (t.i, t.j)):
        key = (kind, case, _fixed_part(p, sign, coords, weights))
        if key not in _CACHE:
            _CACHE[key] = globals()[kind + "_count"](case, sign, *coords)
        total *= _CACHE[key]
    return total


def n_table(t: SexticType, sign: int, a2: int, a4: int) -> int:
    """#{(a1bar, a3bar, a5bar) in (Z/15552)^3} satisfying the survivor and Type
    conditions, as a product of the mod-64 and mod-243 counts (cached)."""
    return _table(("n2", "n3"), t, sign, (2, 4), (a2, a4))


def m_table(t: SexticType, sign: int, a2: int, a3: int, a4: int) -> int:
    """#{(a1bar, a5bar) in (Z/15552)^2} survivor pairs for fixed (a2, a3, a4)."""
    return _table(("m2", "m3"), t, sign, (2, 3, 4), (a2, a3, a4))


# ---------------------------------------------------------------------------
# Euler products over primes l != 2, 3
# ---------------------------------------------------------------------------

EULER_PRIME_BOUND = 10 ** 6

# kind -> (prod (1 - x_l) over the primes 5 <= l <= B = EULER_PRIME_BOUND, tail bound).
# The true value lies in [value * exp(-tail), value]: each omitted x_l is in
# (0, c/l^2], and sum_{n > B} (c/n^2 + c^2/n^4) < c/B + c^2/(3 B^3).  The floats
# are those a sieve to B gives; tests/oracles.py sieves them again.
EULER_PRODUCTS = {
    "carefree": (0.7742182141925465, 3.0000000000030003e-06),  # 1 - 3/l^2 + 2/l^3, c = 3
    "basic": (0.9118907145850614, 1.0000000000003333e-06),  # 1 - 1/l^2, c = 1
    "carefree_strict": (0.6203740903107079, 6.000000000012e-06),  # 1 - 6/l^2 + 8/l^3 - 3/l^4, c = 6
}


def euler_product(kind: str) -> tuple[float, float]:
    """(value, tail bound) of the Euler product `kind`, from EULER_PRODUCTS."""
    return EULER_PRODUCTS[kind]


# ---------------------------------------------------------------------------
# Coefficient functions alpha(n), beta(m, n)
# ---------------------------------------------------------------------------

def _exact_weight(n: int, num: int, den: int) -> Fraction:
    """prod over primes l >= 5 dividing n of (l + num)/(l + den), exactly."""
    w = Fr(1)
    for l in factorize(n):
        if l not in (2, 3):
            w *= Fr(l + num, l + den)
    return w


def alpha_terms(t: SexticType, sign: int, n: int) -> list[tuple[Fraction, int]]:
    """alpha(n) as exact terms [(coef, n1)] with value sum coef * n1^(-3/5);
    zero terms list when n is not squarefree."""
    if n < 1 or not is_squarefree(n):
        return []
    w = _exact_weight(n, -1, 2)
    out = []
    for n1 in sorted(divisors(n)):
        n2 = n // n1
        cnt = n_table(t, sign, n1, n2)
        if cnt:
            out.append((w * Fr(cnt, n2), n1))
    return out


def alpha_value(t: SexticType, sign: int, n: int) -> float:
    return float(sum(float(c) * n1 ** -0.6 for c, n1 in alpha_terms(t, sign, n)))


def beta_value(t: SexticType, sign: int, m: int, n: int,
               stated_weight: bool = False) -> Fraction:
    """beta(m, n): the proof/definition weight (l-1)/(l+1) by default; pass
    stated_weight=True for the alternative (l-1)/(l+2) weighting."""
    if m < 1 or n < 1 or not is_squarefree(m * n):
        return Fr(0)
    w = _exact_weight(m * n, -1, 2 if stated_weight else 1)
    total = Fr(0)
    for n1 in sorted(divisors(n)):
        n2 = n // n1
        total += Fr(m_table(t, sign, n1, m, n2), n ** 4 * m ** 3)
    return w * total


# ---------------------------------------------------------------------------
# Box integrals of the limiting measures
# ---------------------------------------------------------------------------

def _weight(n_product: int, num, den) -> float:
    """prod over primes l >= 5 dividing n_product of (l + num)/(l + den)."""
    w = 1.0
    for l in factorize(n_product):
        if l not in (2, 3):
            w *= (l + num) / (l + den)
    return w


def mu_box_stated(t: SexticType, sign: int, box: Box3) -> dict:
    """The stated closed-form constant: 25/124416 * prod(1-3/l^2+2/l^3)
    * (R1^(1/15)-R1'^(1/15)) * (R2'^(-2/15)-R2^(-2/15)) * sum alpha-style."""
    ep, tail = euler_product("carefree")
    i1 = float(box.r1) ** (1 / 15) - float(box.r1p) ** (1 / 15)
    i2 = float(box.r2p) ** (-2 / 15) - float(box.r2) ** (-2 / 15)
    s3 = 0.0
    for n in range(int(box.r3p), int(box.r3) + 1):
        s3 += alpha_value(t, sign, n)
    val = 25 / 124416 * ep * i1 * i2 * s3
    return {"value": val, "euler_tail": tail}


def mu_box_volume(t: SexticType, sign: int, box: Box3, strict: bool = False) -> dict:
    """Volume-based form with the density normalisation n_{i,j}/15552^3.

    loose: local factors (1-3/l^2+2/l^3), weight (l-1)/(l+2) on l | a2 a4;
    strict: (1-1/l)^3 (1+3/l), weight l/(l+3) -- the true triple densities.
    """
    kind = "carefree_strict" if strict else "carefree"
    ep, tail = euler_product(kind)
    i1 = float(box.r1) ** (1 / 15) - float(box.r1p) ** (1 / 15)
    i2 = float(box.r2p) ** (-2 / 15) - float(box.r2) ** (-2 / 15)
    s = 0.0
    for a2, a4 in divisor_pairs(int(box.r3p), int(box.r3)):
        cnt = n_table(t, sign, a2, a4)
        if not cnt:
            continue
        w = _weight(a2 * a4, 0, 3) if strict else _weight(a2 * a4, -1, 2)
        s += cnt / TYPE_MOD ** 3 * w / (a2 ** 0.6 * a4)
    val = (75 / 8) * ep * i1 * i2 * s
    return {"value": val, "euler_tail": tail}


def _mu_log_width(box: Box3, a2: int, a4: int, a3: int) -> float:
    """log(beta/alpha)_+ for the (a1, a5)-wedge cut out by the C-box at (a2, a4, a3)."""
    l1p = math.sqrt(float(box.r1p) * a2 / a4)
    l1 = math.sqrt(float(box.r1) * a2 / a4)
    lo = max(l1p, float(box.r2p) * a3 ** 3 * a4 / a2)
    hi = min(l1, float(box.r2) * a3 ** 3 * a4 / a2)
    return math.log(hi / lo) if hi > lo else 0.0


def nu_box_linear(t: SexticType, sign: int, box: Box3, cells: list,
                  stated_weight: bool = False) -> dict:
    """The stated linear-in-N closed form for the ratio-window family.

    sum of beta(a3, a2*a4) over the T box's cells (box_cells); default weight
    (l-1)/(l+1) per the beta definition and the proof, stated_weight=True for
    the alternative (l-1)/(l+2) weighting.
    """
    ep, tail = euler_product("basic")
    # beta(a3, n) sums over the divisors of n = a2 a4 itself: one term per (n, a3), at a2 = 1
    s = sum((beta_value(t, sign, a3, a4, stated_weight=stated_weight)
             for a2, a4, a3, _, _ in cells if a2 == 1), Fr(0))
    val = 1 / 2592 * math.log(float(box.r1) / float(box.r1p)) * ep * float(s)
    return {"value": val, "euler_tail": tail}


def box_discrete(t: SexticType, sign: int, box: Box3, cells: list, strict: bool = True) -> dict:
    """Pair-based asymptotic constant lim #C_cf / N^(1/5) or lim #T_cf / N^(1/5)
    (discrete a3-sum), over the carefree cells of the box's cells (box_cells).

    This is the form exact lattice counting follows; 'strict' uses the true
    pair densities of squarefree coprime tuples (note the strict pair density
    (1-1/l)^2(1+2/l) equals the loose triple density 1-3/l^2+2/l^3).  A C cell
    weighs its (a1, a5)-wedge by its float width log(beta/alpha)_+; a T cell
    has width 1, its log(R1/R1') is in the constant.
    """
    kind = "carefree" if strict else "basic"
    ep, tail = euler_product(kind)
    s = 0.0
    for a2, a4, a3, Sp, S in cells:
        if Sp == S or not is_squarefree(a2 * a3 * a4):
            continue  # a point window, or no carefree tuple
        width = _mu_log_width(box, a2, a4, a3) if box.kind == "C" else 1.0
        if width <= 0:
            continue
        cnt = m_table(t, sign, a2, a3, a4)
        if not cnt:
            continue
        w = _weight(a2 * a3 * a4, 0, 2) if strict else _weight(a2 * a3 * a4, -1, 1)
        s += cnt / TYPE_MOD ** 2 * w * width / (a2 ** 0.8 * a3 ** 0.6 * a4 ** 0.8)
    scale = 0.5 if box.kind == "C" else 0.5 * math.log(float(box.r1) / float(box.r1p))
    return {"value": (scale * ep) * s, "euler_tail": tail}


def integrate_measure(t: SexticType, sign: int, box: Box3) -> dict:
    """All prediction variants for the box's family: mu (C, lambda windows) or
    nu (T, ratio windows).  The box's cells are listed once, first, so a box
    with too many of them is refused before any variant is computed."""
    cells = box_cells(box)
    if box.kind == "C":
        return {
            "stated": mu_box_stated(t, sign, box),
            "volume_loose": mu_box_volume(t, sign, box, False),
            "volume_strict": mu_box_volume(t, sign, box, True),
            "discrete_loose": box_discrete(t, sign, box, cells, False),
            "discrete_strict": box_discrete(t, sign, box, cells, True),
        }
    return {
        "linear_stated": nu_box_linear(t, sign, box, cells, True),
        "linear_derived": nu_box_linear(t, sign, box, cells, False),
        "discrete_loose": box_discrete(t, sign, box, cells, False),
        "discrete_strict": box_discrete(t, sign, box, cells, True),
    }
