"""Small exact integer helpers used across the library."""

from __future__ import annotations

from math import isqrt


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as ascending (p, exponent) pairs (trial division)."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 4 if p % 6 == 1 else 2  # 2, 3, then 6k +- 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of |n|, ascending."""
    return tuple(p for p, _ in factorization(n))


def squarefree_core(n: int) -> tuple[int, int]:
    """Write n = core * s**2 with core squarefree; return (core, s).

    The sign of n goes into the core. n must be nonzero.
    """
    if n == 0:
        raise ValueError("squarefree_core(0)")
    sign = -1 if n < 0 else 1
    core, s = 1, 1
    for p, e in factorization(n):
        if e % 2:
            core *= p
        s *= p ** (e // 2)
    return sign * core, s


def kronecker(a: int, p: int) -> int:
    """Kronecker symbol (a/p) for prime p (p = 2 allowed)."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1

