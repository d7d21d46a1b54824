"""Counting geometry: region volumes, the lattice window kernel, exact counts, error diagnostics.

The 3d region M(N, L1', L1, L2', L2) = {x1,x3,x5 > 0 : x1^5 x3^3 x5^5 <= N,
x5/x1 in [L1', L1], x5/(x3^3 x1) in [L2', L2]} has volume
(75/8) N^(1/5) (L1^(2/15) - L1'^(2/15)) (L2'^(-2/15) - L2^(-2/15)).  Both ratio
windows bounded pin x3 to finitely many integers, so its lattice points are a
union of x3-slices (slices_M3), each a 2d region {x1 x5 <= M, (x5/x1)^2 in
[S', S]} of the same shape as the T family's.  One window kernel (windows_M2)
walks x1 over such a region and gives each x1 an interval of x5; it is the one
lattice walk of both families.  Each end is the floor, ceiling or integer root
of a quotient of Python ints, cross-multiplied from the windows' numerators and
denominators, so counts agree bit-for-bit with brute force.  box_cells lists
the (a2, a4, a3) cells of a box, each one such 2d region (a C cell is one
x3-slice of the 3d region at a2/a4); the enumeration, the raw counts and the
discrete predictions all sum over that one list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import rational_json
from .field import ceil_root, divisors, floor_root, iroot, is_squarefree

Fr = Fraction


def parse_rational(s: str) -> Fraction:
    """The Fraction that s writes as an int, a decimal or p/q, if its float (which the
    volume and density formulas take) is finite, and zero only when the Fraction is
    (an underflow would read as no bound); otherwise ValueError, naming s."""
    try:
        q = Fr(s)
        if q and not float(q):
            raise ValueError
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{s!r} is not a rational p/q with q nonzero and |p/q| "
                         f"within float range") from None
    return q


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
        for name in ("r1p", "r1", "r2p", "r2", "r3p", "r3"):
            object.__setattr__(self, name, Fr(getattr(self, name)))
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
        f = rational_json
        return {"kind": self.kind, "r1": [f(self.r1p), f(self.r1)],
                "r2": [f(self.r2p), f(self.r2)], "r3": [f(self.r3p), f(self.r3)]}

    @staticmethod
    def parse(spec: str, kind: str = "C") -> "Box3":
        parts = [parse_rational(p) for p in spec.split(",")]
        if len(parts) != 6:
            raise ValueError("box spec needs 6 comma-separated rationals")
        return Box3(*parts, kind=kind)


def volume_V(N, L1p, L1, L2p, L2) -> float:
    """(75/8) N^(1/5) (L1^(2/15) - L1'^(2/15)) (L2'^(-2/15) - L2^(-2/15)); a
    nonpositive L1' or L2' is no lower bound."""
    N, L1p, L1, L2p, L2 = map(float, (N, max(L1p, 0), L1, L2p, L2))
    if N <= 0 or L1p >= L1 or L2p >= L2:
        return 0.0
    if L2p <= 0:
        return math.inf
    return (75 / 8) * N ** 0.2 * (L1 ** (2 / 15) - L1p ** (2 / 15)) * \
        (L2p ** (-2 / 15) - L2 ** (-2 / 15))


def area_A(M, L1p, L1) -> float:
    """(M/2) log(L1/L1') -- area of {x1 x5 <= M, x5/x1 in [L1', L1]}; infinite
    when L1' <= 0 < L1."""
    M, L1p, L1 = map(float, (M, L1p, L1))
    if M <= 0 or L1p >= L1 or L1 <= 0:
        return 0.0
    if L1p <= 0:
        return math.inf
    return (M / 2) * math.log(L1 / L1p)


# --- exact lattice-point counts ---------------------------------------------

# The most Python steps the walk of one region may take, about 5 s on a 2-CPU
# host: its values of x3 plus the values of x1 of its slices.  Past the limit a
# walk, which grows like N^(1/10) (3d) or M^(1/2) (2d), could run for hours.
_WALK_LIMIT = 10 ** 6


def _x1_cap(M: int, Sp: Fraction) -> int:
    """The largest x1 with x1 * max(1, sqrt(S') x1) <= M: floor((M^2 / S')^(1/4)) or M."""
    return M if Sp <= 0 else min(M, math.isqrt(math.isqrt(M * M * Sp.denominator // Sp.numerator)))


def _size(xs) -> int:
    """len(xs); a range of step 1 by its ends, since len() stops at sys.maxsize."""
    return max(0, xs.stop - xs.start) if isinstance(xs, range) else len(xs)


def _check_walk(steps: int, where: str, what: str) -> None:
    if steps > _WALK_LIMIT:
        raise ValueError(f"the {where} needs more than {_WALK_LIMIT} {what}, "
                         f"above the walk limit")


def windows_M2(M: int, Sp, S):
    """The nonempty windows (x1, lo5, hi5) of {x1 x5 <= M, (x5/x1)^2 in [S', S]}: x5
    runs over [lo5, hi5], in order of x1.  The one lattice walk; M is an int, the
    squared window ints or Fractions, and S' <= 0 no lower bound.  More than
    _WALK_LIMIT values of x1 raise ValueError before the first window."""
    Sp, S = Fr(Sp), Fr(S)
    if M < 1 or S <= 0 or Sp > S:
        return
    cap = _x1_cap(M, Sp)
    _check_walk(cap, f"region x1 x5 <= {M}", "values of x1")
    p, q, P, Q = max(Sp.numerator, 0), Sp.denominator, S.numerator, S.denominator
    d, isqrt = int(p > 0), math.isqrt
    for x1 in range(1, cap + 1):
        xx = x1 * x1
        lo = isqrt((p * xx - d) // q) + 1  # ceil(S' x1^2) - 1 or 0: x5 >= 1, x5^2 >= S' x1^2
        hi = isqrt(P * xx // Q)
        if M // x1 < hi:
            hi = M // x1
        if hi >= lo:
            yield x1, lo, hi


def slices_M3(n: int, Sp, S, L2p, L2) -> list[tuple[int, int, Fraction, Fraction]]:
    """The x3-slices (x3, M, S'_x3, S_x3) of {x1^5 x3^3 x5^5 <= n, (x5/x1)^2 in
    [S', S], x5/(x1 x3^3) in [L2', L2]}: at x3, windows_M2's region with
    M = floor((n / x3^3)^(1/5)) and [S', S] cut to [(L2' x3^3)^2, (L2 x3^3)^2].
    n is an int, the windows ints or Fractions, and S' <= 0 no lower bound.  More
    than _WALK_LIMIT values of x3 and x1 raise ValueError before the first slice."""
    Sp, S, L2p, L2 = Fr(Sp), Fr(S), Fr(L2p), Fr(L2)
    if L2p <= 0:
        raise ValueError("L2' must be positive for a finite region")
    if n < 1 or S <= 0 or Sp > S or L2p > L2:
        return []
    x3s = _x3_range(Sp, S, L2p, L2, n)
    region, what = f"region x1^5 x3^3 x5^5 <= {n}", "values of x3 and x1"
    _check_walk(_size(x3s), region, what)
    slices = [(x3, iroot(n // x3 ** 3, 5), *_x3_window(x3, Sp, S, L2p, L2)) for x3 in x3s]
    _check_walk(len(slices) + sum(_x1_cap(M, Sq) for _, M, Sq, _ in slices), region, what)
    return slices


def _x3_range(Sp: Fraction, S: Fraction, L2p: Fraction, L2: Fraction, n: int | None) -> range:
    """The x3 >= 1 whose window _x3_window is nonempty, that is S' <= (L2 x3^3)^2 and
    (L2' x3^3)^2 <= S; given n, also x3^3 <= n (x1, x5 >= 1 and x1^5 x3^3 x5^5 <= n)."""
    hi3 = floor_root(S / L2p ** 2, 6)
    if n is not None:
        hi3 = min(hi3, iroot(n, 3))
    return range(max(1, ceil_root(Sp / L2 ** 2, 6)), hi3 + 1)


def _x3_window(x3: int, Sp: Fraction, S: Fraction, L2p: Fraction,
               L2: Fraction) -> tuple[Fraction, Fraction]:
    """[S', S] cut to the squared x5/x1 window [(L2' x3^3)^2, (L2 x3^3)^2] of the slice x3."""
    return max(Sp, (L2p * x3 ** 3) ** 2), min(S, (L2 * x3 ** 3) ** 2)


def divisor_pairs(lo: int, hi: int, squarefree: bool = True):
    """(a2, a4) with a2 * a4 = n and n in [max(lo, 1), hi], in `divisors` order.

    With `squarefree`, only squarefree n, whose two parts are then coprime.
    """
    for n in range(max(lo, 1), hi + 1):
        if not squarefree or is_squarefree(n):
            for a2 in divisors(n):
                yield a2, n // a2


def _pair_count(x: int) -> int:
    """#{(a2, a4) : a2 a4 <= x}, the sum of the divisor counts d(n) over n <= x, in
    O(sqrt(x)) steps by Dirichlet's hyperbola method."""
    r = math.isqrt(max(x, 0))
    return 2 * sum(x // k for k in range(1, r + 1)) - r * r


def box_cells(box: Box3, N: int | None = None) -> list[tuple[int, int, int, Fraction, Fraction]]:
    """The cells (a2, a4, a3, S', S) of the box, in order of a2 a4, then of a2 as
    divisor_pairs lists it, then of a3.  This is the one place that knows them.

    A cell is the region a1 a5 <= M, (a5/a1)^2 in [S', S] of windows_M2 with
    M = floor((N / K)^(1/5)) and K = (a2 a4)^4 a3^3.  A T box holds a2 a4 in
    [R2', R2] and a3 in [R3', R3], all with [S', S] = [R1'^2, R1^2].  A C box
    holds a2 a4 in [R3', R3]; at r = a2/a4 its windows (a5/a1)^2 in [R1' r, R1 r]
    and a5/(a1 a3^3) in [R2'/r, R2/r] pin a3 to the x3 of slices_M3, each with its
    cut window.  Given N, only the cells with K <= N, and a C cell list goes
    through slices_M3 and its walk check.  More than _WALK_LIMIT values of a2 a4,
    or (a2, a4) pairs and cells together, raise ValueError before any cell's
    window is cut; a box whose pairs alone pass the limit, before the first pair.
    The pairs are counted exactly while sqrt(a2 a4) stays within _WALK_LIMIT;
    above it, by the lower bound of two pairs for each n >= 2.
    """
    where = f"{box.kind} box " + ",".join(map(str, (box.r1p, box.r1, box.r2p, box.r2,
                                                    box.r3p, box.r3)))
    lo, hi = (int(box.r3p), int(box.r3)) if box.kind == "C" else (int(box.r2p), int(box.r2))
    lo = max(lo, 1)
    if N is not None:
        hi = min(hi, iroot(N, 4))  # K <= N needs (a2 a4)^4 <= N
    _check_walk(hi - lo + 1, where, "values of a2*a4")
    if math.isqrt(max(hi, 0)) <= _WALK_LIMIT:
        all_pairs = _pair_count(hi) - _pair_count(lo - 1)
    else:  # each n >= 2 has at least the two pairs (1, n) and (n, 1)
        all_pairs = 2 * (hi - lo + 1) - (lo == 1)
    _check_walk(all_pairs, where, "(a2, a4) pairs and cells")
    plan, count, Sp, S = [], 0, box.r1p ** 2, box.r1 ** 2
    for pairs, (a2, a4) in enumerate(divisor_pairs(lo, hi, squarefree=False), 1):
        n = None if N is None else N // (a2 * a4) ** 4
        if box.kind == "T":
            top = int(box.r3) if n is None else min(int(box.r3), iroot(n, 3))
            a3s = range(int(box.r3p), top + 1)
            windows = ((a3, Sp, S) for a3 in a3s)
        else:
            r = Fr(a2, a4)
            region = box.r1p * r, box.r1 * r, box.r2p / r, box.r2 / r
            if n is None:
                a3s = _x3_range(*region, None)
                windows = _x3_cells(a3s, region)
            else:
                a3s = windows = [(x3, Sq, Sx) for x3, _, Sq, Sx in slices_M3(n, *region)]
        count += _size(a3s)
        _check_walk(pairs + count, where, "(a2, a4) pairs and cells")
        plan.append((a2, a4, windows))
    return [(a2, a4, *w) for a2, a4, windows in plan for w in windows]


def _x3_cells(x3s: range, region: tuple[Fraction, ...]):
    """The (x3, S', S) of x3s, each with its cut window of region, made when iterated."""
    return ((x3, *_x3_window(x3, *region)) for x3 in x3s)


def count_slices(slices) -> int:
    """The lattice points of a union of slices (x3, M, S', S): one sum over windows_M2."""
    return sum(hi - lo + 1 for _, M, Sp, S in slices for _, lo, hi in windows_M2(M, Sp, S))


def _slices_of_M(N, L1p, L1, L2p, L2) -> list[tuple[int, int, Fraction, Fraction]]:
    """slices_M3 of M(N, L1', L1, L2', L2), for ints or Fractions: the ratio window
    x5/x1 in [L1', L1] is the squared window [max(L1', 0)^2, max(L1, 0)^2]."""
    L1p, L1 = max(Fr(L1p), 0), max(Fr(L1), 0)
    return slices_M3(math.floor(Fr(N)), L1p ** 2, L1 ** 2, L2p, L2)


def discrete_term_M3(N, slices) -> float:
    """The main term at N of count_slices(slices), slice by slice: the sum over the
    x3-slices (x3, M, S', S) of the area (N^(1/5)/2) x3^(-3/5) (1/2) log(S/S') of
    the 2d region {x1 x5 <= (N / x3^3)^(1/5), (x5/x1)^2 in [S', S]}.  With both
    ratio windows bounded x3 takes finitely many values, so this sum, not
    volume_V, is what the count follows."""
    n5 = float(N) ** 0.2
    return sum(n5 / 4 * x3 ** -0.6 * math.log(S / Sp) for x3, _, Sp, S in slices)


def count_lattice_M2(M, L1p, L1) -> int:
    """#{(x1,x5) positive integers : x1 x5 <= M, x5/x1 in [L1', L1]}, exact."""
    L1p, L1 = max(Fr(L1p), 0), max(Fr(L1), 0)
    return count_slices([(1, math.floor(Fr(M)), L1p ** 2, L1 ** 2)])


# --- error-law diagnostics ----------------------------------------------------

@dataclass(frozen=True)
class ErrorLawRow:
    N: int
    count: int
    volume: float
    scaled_error: float  # |count - volume| / N^exponent
    discrete_term: float  # the main term summed over the x3-slices; in 2d, the area

    @staticmethod
    def of(N, count: int, volume: float, exponent: float, discrete: float) -> "ErrorLawRow":
        return ErrorLawRow(N, count, volume, abs(count - volume) / float(N) ** exponent, discrete)


def error_law_M3(Ns, L1p, L1, L2p, L2) -> list[ErrorLawRow]:
    w = (L1p, L1, L2p, L2)
    rungs = ((N, _slices_of_M(N, *w)) for N in Ns)  # the count and the main term share them
    return [ErrorLawRow.of(N, count_slices(s), volume_V(N, *w), 0.1, discrete_term_M3(N, s))
            for N, s in rungs]


def error_law_M2(Ms, L1p, L1) -> list[ErrorLawRow]:
    """The 2d region is a single slice, so its discrete term is the area."""
    areas = [area_A(M, L1p, L1) for M in Ms]
    return [ErrorLawRow.of(M, count_lattice_M2(M, L1p, L1), a, 0.5, a) for M, a in zip(Ms, areas)]
