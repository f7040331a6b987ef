"""Answer checks that share no code with rmarith.

Every function here is a deliberately plain re-derivation: raw scans for
reduced forms and rho-cycles, genus theory for the 2-rank, the conductor
formula on units written in the basis {1, omega}, a Pell check, the
Stern-Brocot walk for the question-mark function and the Moebius closed
form for classical point counts. The benchmark compares the program's
outputs with these, and `selftest.py` shows that each check rejects a
deliberately wrong answer.
"""

from __future__ import annotations

import importlib.util
import os
from fractions import Fraction
from math import gcd, isqrt

FINGERPRINT_MOD = (1 << 61) - 1


def fingerprint(n: int) -> list[int]:
    """Bit length and residue of a possibly huge integer."""
    return [abs(n).bit_length(), n % FINGERPRINT_MOD]


# ---------------------------------------------------------------------------
# Integers


def factor(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def kronecker_symbol(a: int, p: int) -> int:
    """(a/p) for a prime p, by Euler's criterion (p = 2: the mod-8 rule)."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    r = pow(a, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def field_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) from the squarefree part of m."""
    core = 1 if m > 0 else -1
    for p, e in factor(m).items():
        if e % 2:
            core *= p
    return core if core % 4 == 1 else 4 * core


def split(d: int) -> tuple[int, int]:
    """(d_K, f) with d = d_K * f^2 and d_K fundamental."""
    d_k = field_discriminant(d)
    f = isqrt(d // d_k)
    if d_k * f * f != d:
        raise ValueError(f"{d} is not a discriminant")
    return d_k, f


# ---------------------------------------------------------------------------
# Forms


def reduced_definite_forms(d: int) -> list[tuple[int, int, int]]:
    """Reduced primitive positive definite forms of discriminant d < 0."""
    out = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                out.append((a, b, c))
        a += 1
    return out


def _is_reduced_indefinite(a: int, b: int, d: int) -> bool:
    # 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, by squaring
    t = 2 * abs(a)
    return 0 < b and b * b < d and (t <= b or (t - b) ** 2 < d) and (t + b) ** 2 > d


def reduced_indefinite_forms(d: int) -> set[tuple[int, int, int]]:
    """Every reduced primitive form of discriminant d > 0 by a raw scan."""
    s = isqrt(d)
    out = set()
    for b in range(1, s + 1):
        if (d - b * b) % 4:
            continue
        n = (d - b * b) // 4
        for a in range(max(1, (s - b) // 2), (s + b) // 2 + 2):
            if n % a or not _is_reduced_indefinite(a, b, d):
                continue
            c = n // a
            if gcd(gcd(a, b), c) == 1:
                out.add((a, b, -c))
                out.add((-a, b, c))
    return out


def _right_neighbour(form, d: int):
    """The reduced form adjacent to a reduced form on its cycle.

    It leads with c; its middle coefficient is the unique b' = -b (mod 2|c|)
    with sqrt(d) - 2|c| < b' < sqrt(d).
    """
    _, b, c = form
    s = isqrt(d)
    b2 = s - (s + b) % (2 * abs(c))
    return c, b2, (b2 * b2 - d) // (4 * c)


def rho_cycles(d: int) -> list[list[tuple[int, int, int]]]:
    """The reduced forms of discriminant d > 0 grouped into proper cycles."""
    forms = reduced_indefinite_forms(d)
    cycles = []
    seen = set()
    for start in sorted(forms):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = _right_neighbour(start, d)
        while cur != start:
            if cur not in forms:
                raise AssertionError(f"cycle of {start} left the reduced set")
            cycle.append(cur)
            seen.add(cur)
            cur = _right_neighbour(cur, d)
        cycles.append(cycle)
    return cycles


def class_numbers_naive(d: int) -> tuple[int, int]:
    """(narrow, wide) by counting reduced forms (d < 0) or rho-cycles (d > 0).

    For d > 0 the wide number halves the narrow one unless the principal
    cycle holds a form (-1, b, c), i.e. unless the principal class
    represents -1 and a unit of norm -1 exists.
    """
    if d < 0:
        h = len(reduced_definite_forms(d))
        return h, h
    cycles = rho_cycles(d)
    narrow = len(cycles)
    principal = next(c for c in cycles if any(f[0] == 1 for f in c))
    norm_minus = any(f[0] == -1 for f in principal)
    return narrow, narrow if norm_minus else narrow // 2


def genus_mu(d: int) -> int:
    """Number of assigned genus characters of discriminant d."""
    r = sum(1 for p in factor(d) if p != 2)
    if d % 4 == 1:
        return r
    m = d // 4
    if m % 4 == 1:
        return r
    if m % 4 in (2, 3) or m % 8 == 4:
        return r + 1
    return r + 2


def check_structure(d: int, divisors, h: int) -> str | None:
    """Divisibility chain, product h, and 2-rank from genus theory."""
    divisors = list(divisors)
    if any(x < 2 for x in divisors):
        return f"divisor below 2 in {divisors}"
    if any(divisors[i + 1] % divisors[i] for i in range(len(divisors) - 1)):
        return f"{divisors} is not a divisibility chain"
    prod = 1
    for x in divisors:
        prod *= x
    if prod != h:
        return f"divisors {divisors} multiply to {prod}, not h = {h}"
    two_rank = sum(1 for x in divisors if x % 2 == 0)
    if two_rank != genus_mu(d) - 1:
        return f"2-rank {two_rank} but genus theory gives {genus_mu(d) - 1}"
    return None


def check_forms(d: int, forms, count: int) -> str | None:
    forms = [tuple(f) for f in forms]
    if len(forms) != count or len(set(forms)) != count:
        return f"{len(forms)} representatives, expected {count} distinct"
    for a, b, c in forms:
        if b * b - 4 * a * c != d or gcd(gcd(abs(a), abs(b)), abs(c)) != 1:
            return f"({a},{b},{c}) is not a primitive form of discriminant {d}"
    return None


# ---------------------------------------------------------------------------
# Units and the conductor formula


def pell_from_period(d: int) -> tuple[int, int, int]:
    """Least (x, y, norm) with x^2 - d y^2 = 4 * norm, y >= 1.

    Expands omega = (sigma + sqrt(d))/2 as (m + sqrt(d))/q states until one
    repeats. The cycle's word matrix [[p, p'], [r, r']] fixes the first
    periodic quotient alpha, so r * alpha + r' is the fundamental unit; only
    its bottom row is needed.
    """
    s = isqrt(d)
    m, q = d % 2, 2
    states: dict[tuple[int, int], int] = {}
    terms = []
    while (m, q) not in states:
        states[(m, q)] = len(terms)
        a = (m + s) // q
        terms.append(a)
        m = a * q - m
        q = (d - m * m) // q
    period = terms[states[(m, q)]:]
    r, r_prev = 0, 1
    for a in period:
        r, r_prev = a * r + r_prev, r
    # alpha = (m + sqrt(d))/q, so r*alpha + r' = (x + y sqrt(d))/2
    if (2 * r) % q:
        raise AssertionError("unit outside the order")
    y = 2 * r // q
    x = y * m + 2 * r_prev
    norm = -1 if len(period) % 2 else 1
    if x * x - d * y * y != 4 * norm:
        raise AssertionError("period unit fails its Pell equation")
    return x, y, norm


def _unit_index(d_k: int, f: int, unit) -> int:
    """[O_K^* : O_f^*]: least n with eps^n in Z + f*O_K.

    Works in the basis {1, omega}, omega^2 = d_k*omega - (d_k^2 - d_k)/4,
    where O_f = Z + f*omega*Z, so eps^n lies in O_f exactly when its omega
    coordinate is divisible by f. Coordinates are reduced mod f throughout.
    """
    if f == 1:
        return 1
    x, y, _ = unit
    # (x + y sqrt(d_k))/2 = (x - y d_k)/2 + y * omega
    e0, e1 = ((x - y * d_k) // 2) % f, y % f
    w = (d_k * d_k - d_k) // 4
    u0, u1 = e0, e1
    n = 1
    while u1 % f:
        u0, u1 = (u0 * e0 - w * u1 * e1) % f, (u0 * e1 + u1 * e0 + d_k * u1 * e1) % f
        n += 1
    return n


def wide_class_number_formula(d_k: int, f: int, h_k: int, unit) -> int:
    """Wide class number of the order of conductor f in the field d_k > 0."""
    h = h_k * f
    for p in factor(f):
        h = h * (p - kronecker_symbol(d_k, p)) // p
    index = _unit_index(d_k, f, unit)
    if h % index:
        raise AssertionError("conductor formula not integral")
    return h // index


def definite_class_number_formula(d_k: int, f: int, h_k: int) -> int:
    """Class number of the order of conductor f in the field d_k < 0."""
    h = h_k * f
    for p in factor(f):
        h = h * (p - kronecker_symbol(d_k, p)) // p
    if f > 1:
        h //= {-3: 3, -4: 2}.get(d_k, 1)
    return h


def least_rm_conductor(d: int, f: int, limit: int = 100_000) -> tuple[int, int]:
    """(f', h) for squarefree d > 1: least f' with equal wide class numbers.

    Both sides use the conductor formula over naively counted field class
    numbers; the real side's unit index comes from `_unit_index`.
    """
    cm_k = field_discriminant(-d)
    target = definite_class_number_formula(cm_k, f, len(reduced_definite_forms(cm_k)))
    rm_k = field_discriminant(d)
    h_k = class_numbers_naive(rm_k)[1]
    unit = pell_from_period(rm_k)
    for fp in range(1, limit + 1):
        if wide_class_number_formula(rm_k, fp, h_k, unit) == target:
            return fp, target
    raise AssertionError("no conductor below the limit")


def load_oracles(root: str):
    """The repository's own test oracles (tests/oracles.py)."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("rmarith_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PELL_SCAN_MAX_Y = 2000


def check_unit(d: int, x: int, y: int, norm: int, expected, pell_smallest) -> str | None:
    """x^2 - d y^2 = 4 norm, the stored fingerprint, and the Pell scan when y is small."""
    if x <= 0 or y <= 0 or norm not in (1, -1):
        return f"({x}, {y}, {norm}) is not a positive unit"
    if x * x - d * y * y != 4 * norm:
        return f"x^2 - {d} y^2 != {4 * norm}"
    if [norm] + fingerprint(y) != list(expected):
        return f"unit of {d} does not match the independently computed one"
    if y <= PELL_SCAN_MAX_Y and tuple(pell_smallest(d, PELL_SCAN_MAX_Y)) != (x, y, norm):
        return f"Pell scan finds a smaller solution for {d}"
    return None


# ---------------------------------------------------------------------------
# Question-mark function and counts


def _sign_plus_sqrt(u: int, d: int) -> int:
    """Sign of u + sqrt(d) for d > 0 not a square."""
    return 1 if u >= 0 or d > u * u else -1


def question_mark(x, max_steps: int = 1_000_000) -> Fraction:
    """?(x) for x in (0, 1) by walking the Stern-Brocot tree.

    x is a Fraction or a (P, Q, D) triple meaning (P + sqrt(D))/Q with Q
    dividing D - P^2. The walk runs on z = x/(1 - x) over the tree of
    (0, oo): z < 1 is a left step (bit 0, z -> z/(1 - z)), z > 1 a right
    step (bit 1, z -> z - 1). ?(x) is 0.b1 b2 ... in binary. A rational
    reaches z = 1 and ends with a final 1 bit; a quadratic irrational's
    (P, Q) state repeats, so its bits are eventually periodic.
    """
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator - x.numerator
        bits = 0
        for k in range(max_steps):
            if num == den:
                return Fraction(2 * bits + 1, 1 << (k + 1))
            if num < den:
                bits, den = 2 * bits, den - num
            else:
                bits, num = 2 * bits + 1, num - den
        raise AssertionError("Stern-Brocot walk did not end")

    p, q, d = x
    p, q = _left_step(p, q, d)  # z = x/(1 - x)
    seen: dict[tuple[int, int], int] = {}
    bits = 0
    for k in range(max_steps):
        if (p, q) in seen:
            j = seen[(p, q)]
            m = k - j
            pre, cyc = bits >> m, bits & ((1 << m) - 1)
            return (pre + Fraction(cyc, (1 << m) - 1)) / (1 << j)
        seen[(p, q)] = k
        # sign(z - 1) = sign(q) * sign(p - q + sqrt(d))
        if (1 if q > 0 else -1) * _sign_plus_sqrt(p - q, d) < 0:
            bits = 2 * bits
            p, q = _left_step(p, q, d)
        else:
            bits = 2 * bits + 1
            p = p - q
    raise AssertionError("Stern-Brocot walk found no period")


def _left_step(p: int, q: int, d: int) -> tuple[int, int]:
    """z -> z/(1 - z) = 1/(1/z - 1) on z = (p + sqrt(d))/q, q | d - p^2."""
    p, q = -p, (d - p * p) // q  # 1/z
    p = p - q  # 1/z - 1
    return -p, (d - p * p) // q  # its inverse


def check_question_mark(x, value) -> str | None:
    expected = question_mark(x)
    return None if value == expected else f"?({x}) = {value}, the walk gives {expected}"


def quantum_height(thetas) -> int:
    """H(1, ?(theta_1), ...) with each theta reduced mod 1 first."""
    values = []
    for theta in thetas:
        if isinstance(theta, Fraction):
            frac = theta - (theta.numerator // theta.denominator)
            values.append(frac if frac == 0 else question_mark(frac))
        else:
            p, q, d = theta
            whole = (p + isqrt(d)) // q  # floor for q > 0
            values.append(question_mark((p - whole * q, q, d)))
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    coords = [den] + [int(v * den) for v in values]
    g = 0
    for c in coords:
        g = gcd(g, c)
    return max(abs(c) for c in coords) // g


def expand_surd(p: int, q: int, d: int) -> tuple[list[int], list[int]]:
    """(preperiod, period) of (p + sqrt(d))/q by state repetition, q | d - p^2."""
    s = isqrt(d)
    states: dict[tuple[int, int], int] = {}
    terms = []
    while (p, q) not in states:
        states[(p, q)] = len(terms)
        a = (p + s) // q if q > 0 else -((p + s) // -q) - 1
        terms.append(a)
        p = a * q - p
        q = (d - p * p) // q
    start = states[(p, q)]
    return terms[:start], terms[start:]


def convergents(terms: list[int]) -> list[Fraction]:
    out = []
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for a in terms:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(Fraction(p, q))
    return out


def sha_of(divisors: list[int]) -> list[int]:
    """Sha from a class group with cyclic 2-part, in invariant-factor form."""
    evens = [x for x in divisors if x % 2 == 0]
    if len(evens) > 1:
        raise ValueError("2-part is not cyclic")
    k = 0
    while evens and evens[0] % (2 ** (k + 1)) == 0:
        k += 1
    odd = [x >> k if x % 2 == 0 else x for x in divisors]
    odd = [x for x in odd if x > 1]
    parts = divisors + divisors if k % 2 == 0 else [2**k] + odd + odd
    return invariant_factors(parts)


def invariant_factors(cyclic_orders: list[int]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of a sum of cyclic groups."""
    powers: dict[int, list[int]] = {}
    for n in cyclic_orders:
        for p, e in factor(n).items():
            powers.setdefault(p, []).append(p**e)
    width = max((len(v) for v in powers.values()), default=0)
    out = [1] * width
    for p, pw in powers.items():
        pw.sort(reverse=True)
        for i, v in enumerate(pw):
            out[i] *= v
    return sorted(x for x in out if x > 1)


def classical_count(n: int, t: int) -> int:
    """Points of P^n(Q) of height <= t by the Moebius closed form."""
    total = 0
    for d in range(1, t + 1):
        mu = mobius(d)
        if mu:
            total += mu * ((2 * (t // d) + 1) ** (n + 1) - 1)
    return total // 2


def quantum_count(n: int, t: int) -> int:
    return (1 << (t.bit_length() - 1)) ** n


def similarity_count(poly) -> int:
    """Sum of wide class numbers over the orders containing Z[alpha]."""
    _, b, c = poly
    disc = b * b - 4 * c
    d_k, f0 = split(disc)
    return sum(class_numbers_naive(d_k * f * f)[1] for f in range(1, f0 + 1) if f0 % f == 0)
