#!/usr/bin/env python3
"""Question-mark heights, point counting, and growth regimes.

Run:  python demos/05_heights_and_counting.py
"""

from fractions import Fraction
from math import log2

from rmarith import (
    GrowthRegime,
    QuadraticIrrational,
    VarietyProfile,
    classical_count,
    finiteness_check,
    growth_regime,
    minkowski_q,
    quantum_count,
    quantum_height,
)
from rmarith.heights import loglog_slope

print("=== The question-mark function, exactly ===")
golden_frac = QuadraticIrrational(-1, 2, 5)  # (sqrt(5)-1)/2
for x, label in [
    (Fraction(1, 3), "1/3"),
    (Fraction(2, 3), "2/3"),
    (golden_frac, "(sqrt(5)-1)/2"),
    (QuadraticIrrational(-1, 1, 2), "sqrt(2)-1"),
]:
    print(f"?({label}) = {minkowski_q(x)}")

print("\n=== Quantum heights push coordinates through ?() ===")
for thetas, label in [
    ([Fraction(0)], "(0)"),
    ([golden_frac], "((sqrt(5)-1)/2)"),
    ([Fraction(1, 3)], "(1/3)"),
    ([Fraction(1, 3), golden_frac], "(1/3, (sqrt(5)-1)/2)"),
]:
    print(f"H{label} = {quantum_height(thetas)}")

print("\n=== Counting rational points of P^1 by classical height ===")
for t in (1, 2, 4, 8):
    print(f"T = {t}: N = {classical_count(1, t)}")

print("\n=== Counting theta tuples by quantum height: N(T) grows like T^n ===")
rows = [(t, quantum_count(1, t)) for t in (16, 64, 256, 1024)]
for t, c in rows:
    print(f"T = {t:5d}: N = {c:5d}  (log2 N = {log2(c):.1f})")
print(f"log-log slope {loglog_slope(rows):.3f} (here rank = n + 1 = 2)")

print("\n=== Regimes and a finiteness test from the profile ===")
for n, rank in [(1, 0), (1, 2), (1, 4), (2, 2), (2, 3), (2, 8)]:
    profile = VarietyProfile(n, tuple(1 for _ in range(2 * n + 1)), rank)
    print(f"n = {n}, rank K0 = {rank}: {growth_regime(profile).value}")

curve_like = VarietyProfile(1, (1, 4, 1), 2)
elliptic_like = VarietyProfile(1, (1, 2, 1), 2, m=1)
print(f"\nodd Betti sum 4 > 2: finite point set?  {finiteness_check(curve_like)}")
print(f"odd Betti sum 2 > 2 fails (boundary):    {finiteness_check(elliptic_like)}")
