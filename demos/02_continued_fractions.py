#!/usr/bin/env python3
"""Periodic continued fractions, units, block sequences, tail equivalence.

Run:  python demos/02_continued_fractions.py
"""

from fractions import Fraction

from rmarith import (
    QuadraticIrrational,
    bratteli_blocks,
    cf_expand,
    convergents,
    evaluate,
    fundamental_unit,
    is_rm,
    tail_equivalent,
)

print("=== Expansions are exact, periodicity is detected by state repetition ===")
for value, label in [
    (Fraction(7, 3), "7/3"),
    (QuadraticIrrational.sqrt(2), "sqrt(2)"),
    (QuadraticIrrational(1, 2, 5), "(1+sqrt(5))/2"),
    (QuadraticIrrational(3, 2, 7), "(3+sqrt(7))/2"),
]:
    flag, cf = is_rm(value)
    print(f"{label:15s} -> {str(cf):18s} eventually periodic: {flag}")

print("\n=== Convergents of sqrt(2) ===")
cf = cf_expand(QuadraticIrrational.sqrt(2))
print(", ".join(str(Fraction(p, q)) for p, q in convergents(cf, 8)))

print("\n=== Re-evaluating an expansion recovers the value ===")
x = QuadraticIrrational(5, 3, 19)
cf = cf_expand(x)
print(f"{x} expands to {cf}; evaluating back gives an equal value: {evaluate(cf) == x}")

print("\n=== Fundamental units via the expansion cycle ===")
for d in (5, 8, 12, 40, 61):
    x, y, norm = fundamental_unit(d)
    print(f"D = {d:3d}: (x + y*sqrt(D))/2 with (x, y) = ({x}, {y}), norm {norm:+d}")

print("\n=== Incidence blocks of the stationary tail ===")
seq = bratteli_blocks(cf_expand(QuadraticIrrational.sqrt(2)), 4)
print(f"blocks: {seq.blocks}")
print(f"periodic tail starts at index {seq.periodic_tail_start}")

print("\n=== Tail equivalence ignores finite prefixes ===")
a = cf_expand(QuadraticIrrational.sqrt(2))
b = cf_expand(QuadraticIrrational(1, 1, 2))  # 1 + sqrt(2)
c = cf_expand(QuadraticIrrational.sqrt(3))
print(f"sqrt(2) ~ 1+sqrt(2): {tail_equivalent(a, b)}")
print(f"sqrt(2) ~ sqrt(3):   {tail_equivalent(a, c)}")
