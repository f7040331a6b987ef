"""Minkowski question-mark values, projective and quantum heights, counting.

?(x) folds [0; a1, a2, ...] into one affine map, u -> (2 - u)/2^a per term
(Salem), applied to 0 for rationals and to the period map's fixed point for
quadratic irrationals; the inverse reads a dyadic's binary digit runs as x.
The quantum height of a coordinate tuple pushes each coordinate through
?(.) and takes the standard height of the resulting rational point.
Point counts N(T) come from closed forms, Moebius inversion for classical
heights and the dyadic grid for quantum heights; no point is listed.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm, log2
from typing import Optional, Sequence, Union

from .contfrac import QuadraticIrrational, _word_matrix, cf_expand
from .errors import OutOfDomain, Record
from .intmath import factorization

Rational = Union[int, Fraction]
Coordinate = Union[int, Fraction, QuadraticIrrational]


class ProjectivePoint(Record):
    """Integer coordinates, canonical: gcd 1, first nonzero coordinate positive."""

    coordinates: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(int(v) for v in self.coordinates)
        if not coords or all(v == 0 for v in coords):
            raise ValueError("coordinates must be nonempty and not all zero")
        g = 0
        for v in coords:
            g = gcd(g, abs(v))
        coords = tuple(v // g for v in coords)
        for v in coords:
            if v != 0:
                if v < 0:
                    coords = tuple(-w for w in coords)
                break
        object.__setattr__(self, "coordinates", coords)

    def __str__(self) -> str:
        return "(" + ":".join(str(v) for v in self.coordinates) + ")"


class GrowthRegime(Enum):
    EXPONENTIAL_IN_TN = "ExponentialInTn"
    POLYNOMIAL_DEGREE_N = "PolynomialDegreeN"
    BOUNDED = "Bounded"


class VarietyProfile(Record):
    """Topological profile steering the point-counting regime.

    ``betti`` lists beta_0 .. beta_2n. ``m`` (complex moduli dimension) is
    optional; when given it must satisfy rank_k0 = 2m.
    """

    n: int
    betti: tuple[int, ...]
    rank_k0: int
    m: Optional[int] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        betti = tuple(int(v) for v in self.betti)
        if len(betti) != 2 * self.n + 1:
            raise ValueError(f"betti must have length {2 * self.n + 1}")
        if any(v < 0 for v in betti):
            raise ValueError("Betti numbers must be nonnegative")
        if self.rank_k0 < 0:
            raise ValueError("rank_k0 must be nonnegative")
        if self.m is not None and self.rank_k0 != 2 * self.m:
            raise ValueError(f"rank_k0 = {self.rank_k0} but 2m = {2 * self.m}")
        object.__setattr__(self, "betti", betti)


def _fold(word) -> tuple[int, int, int]:
    """(p, s, e) with u -> (p + s*u)/2^e the composite of u -> (2 - u)/2^a over the word."""
    p, s, e = 0, 1, 0
    for a in reversed(word):
        p, s, e = (2 << e) - p, -s, e + a
    return p, s, e


def minkowski_q(x: Union[Rational, QuadraticIrrational]) -> Fraction:
    """?(x) for x in [0, 1], exactly.

    ?([0; a1, a2, ...]) = (2 - ?([0; a2, ...]))/2^a1, so the expansion folds
    into one affine map of the tail's value: 0 after a finite expansion (a
    dyadic result), the fixed point of the period's map for a periodic one.
    """
    if isinstance(x, QuadraticIrrational):
        if x.compare(0) < 0 or x.compare(1) > 0:
            raise OutOfDomain(f"{x} is not in (0, 1)")
    else:
        x = Fraction(x)
        if x < 0 or x > 1:
            raise OutOfDomain(f"{x} is not in [0, 1]")
        if x == 0 or x == 1:
            return Fraction(x)
    cf = cf_expand(x)
    p, s, e = _fold(cf.preperiod[1:])  # skip the leading 0
    if not cf.is_periodic:
        return Fraction(p, 1 << e)
    tp, ts, te = _fold(cf.period)  # ?(tail) = tp/(2^te - ts), its fixed point
    den = (1 << te) - ts
    return Fraction(p * den + s * tp, den << e)


def inverse_minkowski_q(y: Rational) -> Fraction:
    """The rational x with ?(x) = y, for dyadic y in [0, 1].

    The binary digits of ?([0; a1, a2, ..., am]) run as a1 - 1 zeros, a2
    ones, a3 zeros, ..., so the runs r1, r2, ..., rm of y's digits (r1 zeros,
    possibly none) give x = [0; r1 + 1, r2, ..., rm].
    """
    y = Fraction(y)
    if y < 0 or y > 1:
        raise OutOfDomain(f"{y} is not in [0, 1]")
    if y.denominator & (y.denominator - 1):
        raise OutOfDomain(f"{y} is not dyadic")
    if y == 0 or y == 1:
        return y
    digits = format(y.numerator, f"0{y.denominator.bit_length() - 1}b")
    a11, _, a21, _ = _word_matrix([len(list(run)) for _, run in groupby("0" + digits)])
    return Fraction(a21, a11)


def projective_height(point: ProjectivePoint) -> int:
    """max |x_i| over the canonical coordinates."""
    return max(abs(v) for v in point.coordinates)


def question_mark_mod_1(theta: Coordinate) -> Fraction:
    """?(theta - floor(theta)): theta reduced mod 1 into [0, 1) first."""
    if isinstance(theta, QuadraticIrrational):
        return minkowski_q(theta.shift(-theta.floor()))
    frac = Fraction(theta)
    return minkowski_q(frac - (frac.numerator // frac.denominator))


def quantum_height(thetas: Sequence[Coordinate]) -> int:
    """Height of (1, ?(theta_1), ..., ?(theta_n)) after clearing denominators.

    Each theta is reduced mod 1 into [0, 1) first.
    """
    return affine_height([question_mark_mod_1(theta) for theta in thetas])


def affine_height(values: Sequence[Fraction]) -> int:
    """Height of the rational point (1, v_1, ..., v_n) after clearing denominators."""
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    coords = (den, *(int(v * den) for v in values))
    return projective_height(ProjectivePoint(coords))


def classical_count(n: int, t: int) -> int:
    """Number of points of P^n(Q) with classical height <= t.

    The points are the primitive integer vectors in [-t, t]^(n+1) up to
    sign, so Moebius inversion over their common divisor d gives
    N(t) = 1/2 * sum_{d <= t} mu(d) * ((2*floor(t/d) + 1)^(n+1) - 1).
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    total = 0
    for d in range(1, t + 1):
        exponents = [e for _, e in factorization(d)]
        if all(e == 1 for e in exponents):
            total += (-1) ** len(exponents) * ((2 * (t // d) + 1) ** (n + 1) - 1)
    return total // 2


def quantum_count(n: int, t: int) -> int:
    """Number of rational theta tuples in [0,1)^n with quantum height <= t.

    The question-mark map sends them bijectively onto tuples of dyadics in
    [0, 1) whose common denominator is at most t, that is onto the grid of
    the largest power of 2 not above t: (2^floor(log2 t))^n tuples.
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    return (1 << (t.bit_length() - 1)) ** n


def growth_regime(profile: VarietyProfile) -> GrowthRegime:
    """Asymptotic branch of log2 N(T), decided by rank_k0 against n + 1.

    Below n + 1 the count grows like 2^(T^n), at n + 1 like T^n, and above
    it stays bounded.
    """
    if profile.rank_k0 < profile.n + 1:
        return GrowthRegime.EXPONENTIAL_IN_TN
    if profile.rank_k0 == profile.n + 1:
        return GrowthRegime.POLYNOMIAL_DEGREE_N
    return GrowthRegime.BOUNDED


def finiteness_check(profile: VarietyProfile) -> bool:
    """True when the odd Betti sum beta_1 + beta_3 + ... exceeds n + 1."""
    odd_sum = sum(profile.betti[2 * i - 1] for i in range(1, profile.n + 1))
    return odd_sum > profile.n + 1


def loglog_slope(rows: Sequence[tuple[int, int]]) -> float:
    """Least-squares slope of log2(count) against log2(T)."""
    pts = [(log2(t), log2(c)) for t, c in rows if c > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive rows")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, y in pts)
    return num / den
