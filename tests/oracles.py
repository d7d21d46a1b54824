"""Test-side oracles: independent ways to compute what the package computes.

Each function here checks a package function by a different route: numeric
embeddings against the exact trace, the pairing entry by entry against the
integer Gram products, Faddeev-LeVerrier on the multiplication matrix against
power sums, loops over the bounding box against the slice and window walks, a
seeded Monte Carlo average against the closed-form volume, brute-force
residue loops against the closed-form local counts and the CRT split of the
2/3-part counts, and a sieve against the Euler-product literals.  Nothing in
the package, the CLI or the bench calls them; tests import them with
`from oracles import ...` (pytest puts this directory on sys.path).
radical_char_poly is no oracle: it is the package's power-sum char poly at any
degree n, which only tests ask for (SexticNum.char_poly runs it at n = 6).
is_positive_definite is no oracle either: the tests of gram6 and the shape Gram
read positive definiteness off det() on the leading corners, and cubic_num,
cubic_sign, sextic_trace, check_carefree and the monomial algebra are likewise
what only tests ask of the package's values.
"""

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from puresextic.algebra import (CubicMatrix, CubicNum, SexticNum, _den, _imul, _ints,
                                _mpf_frac, _norm3, _power_sum_char_poly)
from puresextic.densities import primes_up_to
from puresextic.field import CarefreeTuple, factorize, iroot, is_squarefree
from puresextic.gram import Monomial
from puresextic.types import TYPE_MOD, SexticType, type_table

Fr = Fraction


# ---------------------------------------------------------------------------
# algebra: the numeric trace, the pairing, and the char poly of the matrix
# ---------------------------------------------------------------------------

def cubic_num(m: int, q0=0, q1=0, q2=0) -> CubicNum:
    """q0 + q1 c + q2 c^2, c the real cube root of m, from rationals."""
    return CubicNum._of_rationals(m, (q0, q1, q2))


def trace_numeric(x: SexticNum, prec: int = 60):
    """Sum of x over all six archimedean embeddings, numerically.

    Cross-checks sextic_trace(): the embeddings send theta to |m|^(1/6) * w
    with w running over the sixth roots of sign(m).
    """
    import mpmath
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


def gram_pair(x: SexticNum, y: SexticNum) -> CubicNum:
    """<J(x), J(y)> = sum_k sigma_k(x) * conj(sigma_k(y)), exactly.

    Equals 6 * sum_t x_t y_t |m|^(t/3); the powers |m|^(t/3) reduce into the
    cubic ring via gamma = sign(m)*c, gamma^3 = |m|.  For m > 0 this is the
    literal rule 6 * sum_t x_t y_t theta^(2t) with theta^2 = c.
    """
    x._check(y)
    m = x.m
    s, am = (1 if m > 0 else -1), abs(m)
    # gamma^t for t = 0..5 on the basis (1, c, c^2)
    gam = [(1, 0, 0), (0, s, 0), (0, 0, 1), (am, 0, 0), (0, s * am, 0), (0, 0, am)]
    acc = [sum(6 * a * b * g[k] for a, b, g in zip(x.nums, y.nums, gam)) for k in range(3)]
    return CubicNum(m, acc, x.den * y.den)


def sextic_trace(x: SexticNum) -> Fraction:
    """The exact trace: Tr(theta^t) = 0 for 1 <= t <= 5, so it is 6 x_0."""
    return Fraction(6 * x.nums[0], x.den)


def cubic_sign(q: CubicNum) -> int:
    """Exact sign of the value at the real cube root of m.

    The conjugate pair of complex embeddings contributes the positive factor
    |q(wc)|^2 to the norm, so sign(q(c)) = sign(N(q)).  No floating point is
    involved.
    """
    n = _norm3(q.nums, q.m)
    return (n > 0) - (n < 0)


def is_positive_definite(g: CubicMatrix) -> bool:
    """Every leading principal minor of the symmetric g positive at the real cube
    root: the exact signs of det() on its k x k corners, k = 1..n."""
    rows = g.entries
    return all(cubic_sign(CubicMatrix(k, k, [row[:k] for row in rows[:k]], g.m).det()) > 0
               for k in range(1, g.rows + 1))


def radical_char_poly(m: int, vec: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients [c0, ..., c_{n-1}, 1] of the characteristic polynomial of
    x = sum vec[t] theta^t in Q[theta]/(theta^n - m), n = len(vec), from power sums."""
    d = _den(vec)
    return _power_sum_char_poly(m, _ints(vec, d), d)


def mult_matrix(m: int, vec: Sequence[Fraction]) -> list[list[Fraction]]:
    """Matrix of multiplication by sum vec[t] theta^t on the power basis, theta^n = m:
    column j is the element times theta^j, entry (i, j) vec[i-j] or m vec[i-j+n].

    With char_poly_rational it is the test oracle of radical_char_poly: elimination
    on the matrix against power sums on the element."""
    n = len(vec)
    return [[vec[i - j] if i >= j else m * vec[i - j + n] for j in range(n)] for i in range(n)]


def char_poly_rational(a: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Coefficients [c0, ..., c_{n-1}, 1] of det(xI - A), by Faddeev-LeVerrier in ints.

    On B = dA, d the lcm of A's denominators, the coefficients b_k of det(xI - B)
    are integers (each division by k is exact); that of x^(n-k) for A is b_k / d^k.
    Element char polys use radical_char_poly; this, on mult_matrix, is their test oracle.
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


# ---------------------------------------------------------------------------
# field and gram: carefree tuples, and monomials compared by their primes
# ---------------------------------------------------------------------------

def check_carefree(t: CarefreeTuple) -> None:
    """ValueError unless a1..a5 are positive, squarefree and pairwise coprime."""
    for i, x in enumerate(t.a):
        if x <= 0 or not is_squarefree(x):
            raise ValueError(f"a{i + 1}={x} is not a positive squarefree integer")
    for i in range(5):
        for j in range(i + 1, 5):
            if math.gcd(t.a[i], t.a[j]) != 1:
                raise ValueError(f"a{i + 1} and a{j + 1} are not coprime")


def mono_reduced(x: Monomial) -> dict[int, Fraction]:
    """Exponent on each prime factor of the a_i (drops bases equal to 1): two
    monomials are the same number iff their reduced forms are equal."""
    out: dict[int, Fraction] = {}
    for b, e in zip(x.bases, x.exponents):
        if e == 0 or b == 1:
            continue
        for p, k in factorize(b).items():
            out[p] = out.get(p, Fr(0)) + k * e
    return {p: e for p, e in out.items() if e != 0}


def mono_product(x: Monomial, y: Monomial) -> Monomial:
    assert x.bases == y.bases
    return Monomial(x.bases, tuple(a + b for a, b in zip(x.exponents, y.exponents)))


def mono_power(x: Monomial, k) -> Monomial:
    return Monomial(x.bases, tuple(e * Fr(k) for e in x.exponents))


# ---------------------------------------------------------------------------
# geometry: lattice counts by loops over the bounding box, and the volume by
# Monte Carlo
# ---------------------------------------------------------------------------

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


def count_lattice_M2_brute(M, L1p, L1) -> int:
    M = Fr(M); L1p = Fr(L1p); L1 = Fr(L1)
    total = 0
    for x1 in range(1, math.floor(M) + 1):
        for x5 in range(1, math.floor(M / x1) + 1):
            if L1p * x1 <= x5 <= L1 * x1:
                total += 1
    return total


def monte_carlo_volume_M3(N, L1p, L1, L2p, L2, samples: int = 10 ** 6,
                          seed: int = 0) -> tuple[float, float]:
    """(estimate, standard_error) for vol(M(...)) via a seeded indicator average."""
    N, L1p, L1, L2p, L2 = map(float, (N, L1p, L1, L2p, L2))
    if L1p <= 0 or L2p <= 0:
        raise ValueError(f"Monte Carlo needs a bounded region: L1' = {L1p} and L2' = {L2p} "
                         f"must be positive")
    x1_max = (N * L2 / L1p ** 6) ** 0.1
    x3_max = (L1 / L2p) ** (1 / 3)
    x5_max = L1 * x1_max
    box = x1_max * x3_max * x5_max
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
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
    # with no hits, or only hits, p(1 - p) = 0 would claim an exact answer; the
    # Laplace estimate (hits + 1) / (samples + 2) keeps the interval honest there
    q = p if 0 < hits < samples else (hits + 1) / (samples + 2)
    return box * p, box * math.sqrt(q * (1 - q) / samples)


# ---------------------------------------------------------------------------
# densities: Omega_l for l >= 5, closed forms and residue loops, the 2/3-part
# counts without their CRT split, and the Euler products by a sieve
# ---------------------------------------------------------------------------

_EULER_KINDS = {
    # kind -> (log-factor fn on prime array, |x_l| bound coefficient c with x <= c/l^2)
    "carefree": (lambda l: np.log1p(-3.0 / l ** 2 + 2.0 / l ** 3), 3.0),
    "basic": (lambda l: np.log1p(-1.0 / l ** 2), 1.0),
    "carefree_strict": (lambda l: np.log1p(-6.0 / l ** 2 + 8.0 / l ** 3 - 3.0 / l ** 4), 6.0),
}


def euler_product_sieved(kind: str, prime_bound: int) -> tuple[float, float]:
    """(truncated product over the primes 5 <= l <= prime_bound, rigorous tail bound).

    The true value lies in [value * exp(-tail), value]: each omitted factor is
    1 - x_l with 0 < x_l <= c/l^2, and sum_{n > B} (c/n^2 + c^2/n^4) < c/B + c^2/(3 B^3).
    At prime_bound = 10^6 it gives densities.EULER_PRODUCTS bit for bit.
    """
    fn, c = _EULER_KINDS[kind]
    ps = primes_up_to(prime_bound)
    val = float(np.exp(fn(ps[ps >= 5].astype(np.float64)).sum()))
    b = float(prime_bound)
    tail = c / b + c * c / (3 * b ** 3)
    return val, tail


def omega_count(l: int) -> int:
    """(l^2-l)^5 + 5 l (l^2-l)^4 = l^10 (1-1/l)^4 (1+4/l)."""
    u = l * l - l
    return u ** 5 + 5 * l * u ** 4


def omega_count_exhaustive(l: int) -> int:
    """Full loop over (Z/l^2)^5 of the membership predicate."""
    div = (np.arange(l * l) % l == 0).astype(np.int8)
    s = div
    for _ in range(4):
        s = s[..., None] + div
    return int((s <= 1).sum())


def omega_count_strict(l: int) -> int:
    """At most one coordinate divisible by l AND that one not by l^2."""
    u = l * l - l
    return u ** 5 + 5 * (l - 1) * u ** 4


def local_pair_triple_counts(l: int, fixed_divisible: int, free: int) -> int:
    """Brute-force count over (Z/l^2)^free of survivor tuples with
    `fixed_divisible` of the remaining 5-free coordinates already divisible by l.

    Survivor rule: at most one of the five coordinates divisible by l.
    """
    budget = 1 - fixed_divisible
    if budget < 0:
        return 0
    div = (np.arange(l * l) % l == 0).astype(np.int8)
    s = div
    for _ in range(free - 1):
        s = s[..., None] + div
    return int((s <= budget).sum())


def n_table_direct(t: SexticType, sign: int, a2: int, a4: int) -> int:
    """densities.n_table recomputed in one sweep over (Z/15552)^3 without the CRT
    split, and without its reduction of the fixed coordinates.

    Iterates a1bar, splits a3bar into (2-div, 3-div) classes, and looks the
    a5bar-count up in precomputed tables g[(e2, e3)][t] = #{a5bar in class
    (e2, e3) : t * a5bar^5 in the Type set}.  A few seconds per key.
    """
    if any(a % 4 == 0 or a % 9 == 0 for a in (a2, a4)):
        return 0
    # at most one of the five coordinates divisible by 2, and by 3
    budget2 = 1 - sum(a % 2 == 0 for a in (a2, a4))
    budget3 = 1 - sum(a % 3 == 0 for a in (a2, a4))
    mod = TYPE_MOD
    a, b = type_table()
    in_set = (a == t.i) & (b == t.j)
    const = (sign * pow(a2, 2, mod) * pow(a4, 4, mod)) % mod
    r = np.arange(mod, dtype=np.int64)
    p5 = np.array([pow(int(x), 5, mod) for x in range(mod)], dtype=np.int64)
    p3 = np.array([pow(int(x), 3, mod) for x in range(mod)], dtype=np.int64)
    adm = ((r % 4) != 0) & ((r % 9) != 0)
    d2 = (r % 2 == 0)
    d3 = (r % 3 == 0)
    classes = {(c2, c3): np.flatnonzero(adm & (d2 == bool(c2)) & (d3 == bool(c3)))
               for c2 in (0, 1) for c3 in (0, 1)}
    ts = np.arange(mod, dtype=np.int64)
    g = {}
    for cls, members in classes.items():
        acc = np.zeros(mod, dtype=np.int64)
        for r5 in members:
            acc += in_set[(ts * int(p5[r5])) % mod]
        g[cls] = acc
    # gsum[(me2, me3)] = a5bar-count table when classes up to (me2, me3) are allowed
    gsum = {}
    for me2 in (0, 1):
        for me3 in (0, 1):
            acc = g[(0, 0)].copy()
            if me2:
                acc += g[(1, 0)]
            if me3:
                acc += g[(0, 1)]
            if me2 and me3:
                acc += g[(1, 1)]
            gsum[(me2, me3)] = acc
    p3_class = {cls: p3[members] for cls, members in classes.items()}
    total = 0
    for r1 in np.flatnonzero(adm):
        b2 = budget2 - int(d2[r1])
        b3 = budget3 - int(d3[r1])
        if b2 < 0 or b3 < 0:
            continue
        k = const * int(r1) % mod
        for (c2, c3), pvals in p3_class.items():
            if c2 > b2 or c3 > b3:
                continue
            sel = gsum[(min(b2 - c2, 1), min(b3 - c3, 1))]
            tv = (k * pvals) % mod
            total += int(sel[tv].sum())
    return total
