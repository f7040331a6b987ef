"""Continued fractions of rationals and quadratic irrationals.

Everything here is exact: quadratic irrationals are (P + sqrt(D))/Q triples
of integers, expansions run on the (P, Q) state recurrence (never on floats),
and the period starts at the first reduced complete quotient and ends when
that state returns (Galois), which Lagrange's theorem guarantees to happen.
The recurrence is run without dividing by Q, so each step costs time linear
in the size of D. The same machinery yields fundamental units of real
quadratic orders (from half a period, since the cycle of the order's
generator is a palindrome plus one term), Effros-Shen block sequences and
tail equivalence of expansions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple, Union

from .errors import (
    CountExceedsFiniteExpansion,
    InvalidDiscriminant,
    NotEventuallyPeriodic,
    Record,
)
from .intmath import is_square

Rational = Union[int, Fraction]


class QuadraticIrrational(Record):
    """The real number (p + sqrt(d))/q with d > 0 not a perfect square.

    On construction the triple is canonicalized so that q divides d - p*p
    (scale p, q by |q| and d by q*q when needed); the continued-fraction
    recurrence needs that divisibility to stay integral.
    """

    p: int
    q: int
    d: int

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("q must be nonzero")
        if self.d <= 0 or is_square(self.d):
            raise ValueError("d must be positive and not a perfect square")
        if (self.d - self.p * self.p) % self.q:
            m = abs(self.q)
            object.__setattr__(self, "d", self.d * m * m)
            object.__setattr__(self, "p", self.p * m)
            object.__setattr__(self, "q", self.q * m)

    @classmethod
    def sqrt(cls, n: int) -> "QuadraticIrrational":
        return cls(0, 1, n)

    def _key(self) -> tuple[int, int, int, int]:
        # Minimal polynomial plus root branch: a complete value invariant
        # that never factors d (sign of q picks the +sqrt branch).
        a, b, c = self.min_poly()
        return (a, b, c, 1 if self.q > 0 else -1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticIrrational):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __float__(self) -> float:
        return (self.p + self.d ** 0.5) / self.q

    def __repr__(self) -> str:
        return f"QuadraticIrrational({self.p}, {self.q}, {self.d})"

    def __str__(self) -> str:
        return f"({self.p}+sqrt({self.d}))/{self.q}"

    def conjugate(self) -> "QuadraticIrrational":
        """The algebraic conjugate (p - sqrt(d))/q."""
        return QuadraticIrrational(-self.p, -self.q, self.d)

    def floor(self) -> int:
        s = isqrt(self.d)
        if self.q > 0:
            return (self.p + s) // self.q
        return -((self.p + s) // -self.q) - 1

    def compare(self, r: Rational) -> int:
        """Exact comparison with a rational: -1 if self < r, +1 if self > r."""
        r = Fraction(r)
        u, v = r.numerator, r.denominator
        p, q, d = self.p, self.q, self.d
        sign = 1
        if q < 0:
            # (p + sqrt(d))/q < u/v  <=>  (p + sqrt(d))/|q| > -u/v
            q, u, sign = -q, -u, -1
        rest = u * q - p * v
        if rest <= 0:
            return sign
        return sign if d * v * v > rest * rest else -sign

    def __lt__(self, r: Rational) -> bool:
        return self.compare(r) < 0

    def __gt__(self, r: Rational) -> bool:
        return self.compare(r) > 0

    def shift(self, n: int) -> "QuadraticIrrational":
        """self + n."""
        return QuadraticIrrational(self.p + n * self.q, self.q, self.d)

    def mobius(self, a: int, b: int, c: int, e: int) -> "QuadraticIrrational":
        """(a*self + b) / (c*self + e) for an integer matrix with det != 0."""
        det = a * e - b * c
        if det == 0:
            raise ValueError("singular coefficient matrix")
        p, q, d = self.p, self.q, self.d
        u = (a * p + b * q) * (c * p + e * q) - a * c * d
        v = det * q
        w = (c * p + e * q) ** 2 - c * c * d
        g = gcd(gcd(abs(u), abs(v)), abs(w))
        u, v, w = u // g, v // g, w // g
        if v > 0:
            return QuadraticIrrational(u, w, v * v * d)
        return QuadraticIrrational(-u, -w, v * v * d)

    def satisfies(self, a: int, b: int, c: int) -> bool:
        """Whether a*x^2 + b*x + c = 0 holds exactly for x = self."""
        p, q, d = self.p, self.q, self.d
        rational = a * (p * p + d) + b * p * q + c * q * q
        irrational = 2 * a * p + b * q
        return rational == 0 and irrational == 0

    def min_poly(self) -> tuple[int, int, int]:
        """Primitive integral (A, B, C) with A > 0 and A x^2 + B x + C = 0."""
        a, b, c = self.q, -2 * self.p, (self.p * self.p - self.d) // self.q
        g = gcd(gcd(abs(a), abs(b)), abs(c))
        a, b, c = a // g, b // g, c // g
        if a < 0:
            a, b, c = -a, -b, -c
        return a, b, c

    @property
    def is_reduced(self) -> bool:
        """Greater than 1 with conjugate strictly between -1 and 0."""
        conj = self.conjugate()
        return self.compare(1) > 0 and conj.compare(-1) > 0 and conj.compare(0) < 0


class ContinuedFraction(Record):
    """A continued fraction [a0, a1, ...] with an optional repeating tail.

    ``preperiod`` holds the leading terms (first may be any integer, the rest
    are >= 1); ``period`` is the minimal repeating word, empty exactly for
    rationals. Finite expansions are kept canonical (last entry >= 2), and a
    period entry equal to the last preperiod entry is absorbed into the cycle
    so the preperiod is minimal too.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        pre = tuple(int(a) for a in self.preperiod)
        per = tuple(int(a) for a in self.period)
        if not pre and not per:
            raise ValueError("empty continued fraction")
        if any(a < 1 for a in pre[1:]) or any(a < 1 for a in per):
            raise ValueError("partial quotients after the first must be >= 1")
        if not per and len(pre) >= 2 and pre[-1] < 2:
            raise ValueError("canonical finite expansion must end with >= 2")
        if per:
            # minimal cycle
            for width in range(1, len(per)):
                if len(per) % width == 0 and per[:width] * (len(per) // width) == per:
                    per = per[:width]
                    break
            # minimal preperiod: absorb matching trailing terms into the cycle
            # (the leading term may only be absorbed if it is a valid period entry)
            while pre and pre[-1] == per[-1] and (len(pre) > 1 or pre[0] >= 1):
                pre = pre[:-1]
                per = per[-1:] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    def terms(self, count: int) -> list[int]:
        """First ``count`` partial quotients, unrolling the period as needed."""
        if count <= len(self.preperiod):
            return list(self.preperiod[:count])
        if not self.period:
            raise CountExceedsFiniteExpansion(
                f"{count} terms requested, expansion has {len(self.preperiod)}"
            )
        out = list(self.preperiod)
        i = 0
        while len(out) < count:
            out.append(self.period[i % len(self.period)])
            i += 1
        return out

    def __str__(self) -> str:
        pre = ",".join(str(a) for a in self.preperiod)
        if not self.period:
            return f"[{pre}]"
        per = ",".join(str(a) for a in self.period)
        return f"[{pre};({per})]"


class BratteliBlockSequence(Record):
    """Incidence blocks of the stationary-tail diagram of an expansion."""

    blocks: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    periodic_tail_start: int

    def __post_init__(self):
        for blk in self.blocks:
            (a, b), (c, e) = blk
            if abs(a * e - b * c) != 1:
                raise ValueError(f"block {blk} has determinant != +-1")


class FundamentalUnit(NamedTuple):
    x: int
    y: int
    norm: int


# Below this many terms a plain fold beats splitting.
_WORD_LEAF = 32


def _word_matrix(word) -> tuple[int, int, int, int]:
    """Product of the blocks [[a, 1], [1, 0]] over the word, left to right.

    Long words are split in halves and the halves' products multiplied, so
    that big entries of equal size meet (a fold costs O(L^2) on L terms).
    """
    if len(word) > _WORD_LEAF:
        mid = len(word) // 2
        a11, a12, a21, a22 = _word_matrix(word[:mid])
        b11, b12, b21, b22 = _word_matrix(word[mid:])
        return (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )
    a11, a12, a21, a22 = 1, 0, 0, 1
    for a in word:
        a11, a12, a21, a22 = a11 * a + a12, a11, a21 * a + a22, a21
    return a11, a12, a21, a22


def _expand_states(value: QuadraticIrrational) -> tuple[list[int], int, tuple[int, int]]:
    """Run the (P, Q) recurrence through the preperiod and one period.

    Returns (terms, cycle_start, first): terms[cycle_start:] is the minimal
    period and first is the (P, Q) state that starts it. By Galois' theorem
    the period starts at the first reduced complete quotient (P + sqrt(d))/Q,
    the state with Q > 0, P <= s and s - P < Q <= s + P (s = isqrt(d)), and
    closes when that state comes back.

    The step never divides d - P^2: it keeps the previous Q and updates
    Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), which follows from
    Q_{k-1} Q_k = d - P_k^2 and P_k + P_{k+1} = a_k Q_k (Cohen, section 5.7).
    A step then costs one small-quotient division and small-by-big products,
    linear in the size of d. The invariant is checked once, at the close.
    """
    p, q, d = value.p, value.q, value.d
    s = isqrt(d)
    q_prev = (d - p * p) // q  # exact: QuadraticIrrational makes q divide it
    terms: list[int] = []
    while not (0 < q <= s + p and p <= s and s - p < q):
        a = (p + s) // q if q > 0 else -((p + s) // -q) - 1
        terms.append(a)
        p, p_old = a * q - p, p
        q, q_prev = q_prev + a * (p_old - p), q
    start = len(terms)
    p0, q0 = p, q
    while True:
        a = (p + s) // q  # q > 0 on the cycle
        terms.append(a)
        p, p_old = a * q - p, p
        q, q_prev = q_prev + a * (p_old - p), q
        if p == p0 and q == q0:
            if d - p * p != q * q_prev:
                raise AssertionError("(P, Q) recurrence lost its invariant")
            return terms, start, (p0, q0)


def cf_expand(x: Union[QuadraticIrrational, Rational]) -> ContinuedFraction:
    """Exact continued fraction of a rational or quadratic irrational.

    Rationals get the finite Euclidean expansion (canonical, last entry >= 2);
    quadratic irrationals get the exact preperiod and minimal period, which
    starts at the first reduced complete quotient (Galois) and ends when that
    state returns.
    """
    if isinstance(x, QuadraticIrrational):
        terms, start, _ = _expand_states(x)
        return ContinuedFraction(tuple(terms[:start]), tuple(terms[start:]))
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    terms = []
    while True:
        a, r = divmod(num, den)
        terms.append(a)
        if r == 0:
            break
        num, den = den, r
    return ContinuedFraction(tuple(terms), ())


def convergents(cf: ContinuedFraction, count: int) -> list[tuple[int, int]]:
    """First ``count`` convergents p_k/q_k as pairs (p_k, q_k) in lowest terms.

    p_k*q_(k-1) - p_(k-1)*q_k = (-1)^(k-1), so each pair is coprime by
    construction, and q_k > 0: no gcd is taken.
    """
    if count < 1:
        raise ValueError("count must be positive")
    terms = cf.terms(count)
    p_prev, q_prev = 1, 0
    p, q = terms[0], 1
    out = [(p, q)]
    for a in terms[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def evaluate(cf: ContinuedFraction) -> Union[Fraction, QuadraticIrrational]:
    """Exact value of the (possibly periodic) expansion.

    A finite expansion is p_n/q_n, read off its word matrix. For a periodic
    one the purely periodic tail t is the positive fixed point of the
    period's word matrix; the preperiod then acts on t as a Moebius map.
    """
    if not cf.is_periodic:
        a11, _, a21, _ = _word_matrix(cf.preperiod)
        return Fraction(a11, a21)
    a11, a12, a21, a22 = _word_matrix(cf.period)
    # tail t solves a21*t^2 + (a22 - a11)*t - a12 = 0, t > 1: take + root
    disc = (a22 - a11) ** 2 + 4 * a12 * a21
    tail = QuadraticIrrational(a11 - a22, 2 * a21, disc)
    if not cf.preperiod:
        return tail
    b11, b12, b21, b22 = _word_matrix(cf.preperiod)
    return tail.mobius(b11, b12, b21, b22)


def is_rm(
    x: Union[QuadraticIrrational, Rational]
) -> tuple[bool, ContinuedFraction]:
    """Eventual periodicity of the expansion, with the expansion as witness."""
    cf = cf_expand(x)
    return cf.is_periodic, cf


def bratteli_blocks(cf: ContinuedFraction, count: int) -> BratteliBlockSequence:
    """First ``count`` incidence blocks [[a_i, 1], [1, 0]] of the expansion."""
    if not cf.is_periodic:
        raise NotEventuallyPeriodic("finite expansion has no block tail")
    if count < 1:
        raise ValueError("count must be positive")
    blocks = tuple(((a, 1), (1, 0)) for a in cf.terms(count))
    return BratteliBlockSequence(blocks, len(cf.preperiod))


def tail_equivalent(cf1: ContinuedFraction, cf2: ContinuedFraction) -> bool:
    """Whether some tails of the two expansions coincide.

    For eventually periodic expansions this holds exactly when the minimal
    periods agree up to cyclic rotation.
    """
    if not cf1.is_periodic or not cf2.is_periodic:
        raise NotEventuallyPeriodic("both expansions must be eventually periodic")
    p1, p2 = cf1.period, cf2.period
    if len(p1) != len(p2):
        return False
    doubled = p1 + p1
    return any(doubled[i : i + len(p2)] == p2 for i in range(len(p1)))


def _validate_real_discriminant(d: int) -> None:
    if d <= 0 or d % 4 not in (0, 1) or is_square(d):
        raise InvalidDiscriminant(f"{d} is not a positive non-square discriminant")


def _half_period(d: int) -> tuple[int, int, list[int], int, int, int]:
    """Walk the cycle of omega = (sigma + sqrt(d))/2 only to its centre.

    The period from the first reduced state (P_0, Q_0) is
    (c_0, ..., c_{L-2}, t) with t = 2 a_0 - sigma and c_0 ... c_{L-2} a
    palindrome. Returns (P_0, Q_0, v, centre, t, L): the palindrome is
    v c v^R when centre is a term c, and v v^R when centre is 0. Walking state
    k to k + 1 on the cycle, the centre shows as the first repeat: state 0
    again means L = 1, P_{k+1} = P_k means L = 2k + 2 with centre c_k, and
    Q_{k+1} = Q_k means L = 2k + 3. The step is the division-free one of
    ``_expand_states``.
    """
    sigma = d % 2
    s = isqrt(d)
    t = 2 * ((sigma + s) // 2) - sigma
    p, q_prev = t, 2
    q = (d - p * p) // 2
    p0, q0 = p, q
    v: list[int] = []
    while True:
        a = (p + s) // q
        p_next = a * q - p
        q_next = q_prev + a * (p - p_next)
        if p_next == p0 and q_next == q0:
            centre, length = 0, 1
            break
        if p_next == p:
            centre, length = a, 2 * len(v) + 2
            break
        v.append(a)
        if q_next == q:
            centre, length = 0, 2 * len(v) + 1
            break
        p, q_prev, q = p_next, q, q_next
    if d - p * p != q * q_prev:
        raise AssertionError("(P, Q) recurrence lost its invariant")
    return p0, q0, v, centre, t, length


def fundamental_unit(d: int) -> FundamentalUnit:
    """Smallest (x, y) with x, y > 0 and x^2 - d*y^2 = +-4, plus the sign.

    (x + y*sqrt(d))/2 is the fundamental unit of the quadratic order of
    discriminant d. The word matrix of the expansion cycle of the order's
    standard generator fixes the first reduced complete quotient (P_0, Q_0),
    and that fixed-point relation is the unit. The cycle is a palindrome
    plus one term t (``_half_period``), so its matrix is
    W(v) B(c) W(v)^T B(t), with B(a) = [[a, 1], [1, 0]] (B(c) left out when
    the palindrome has no centre term): half the cycle is walked and
    multiplied out.
    """
    _validate_real_discriminant(d)
    ps, qs, v, centre, t, length = _half_period(d)
    h11, h12, h21, h22 = _word_matrix(v)
    g21, g22 = (h21 * centre + h22, h21) if centre else (h21, h22)
    # bottom row of S = W(v) B(c) W(v)^T, then of S B(t)
    s21 = g21 * h11 + g22 * h12
    s22 = g21 * h21 + g22 * h22
    a21, a22 = s21 * t + s22, s21
    if (2 * a21) % qs:
        raise AssertionError("unit does not lie in the order")
    y = 2 * a21 // qs
    x = y * ps + 2 * a22
    norm = -1 if length % 2 else 1
    if x * x - d * y * y != 4 * norm:
        raise AssertionError("fundamental unit fails its Pell equation")
    return FundamentalUnit(x, y, norm)


def unit_norm(d: int) -> int:
    """Norm (+1 or -1) of the fundamental unit of the order of discriminant d.

    Only the parity of the cycle length is needed, and the half walk of
    ``_half_period`` already gives it, so the unit itself is never built.
    """
    _validate_real_discriminant(d)
    length = _half_period(d)[5]
    return -1 if length % 2 else 1
