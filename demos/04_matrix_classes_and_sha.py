#!/usr/bin/env python3
"""Matrix similarity classes, the eigenvalue order, and the shape of Sha.

Run:  python demos/04_matrix_classes_and_sha.py
"""

from rmarith import (
    IntegerMatrix,
    char_poly,
    class_number,
    ideal_classes_for_matrix,
    perron_eigenvalue,
    sha_for_curve_matrix,
    similarity_class_count_bruteforce,
)

M = IntegerMatrix.from_rows

print("=== From a positive matrix to a quadratic order ===")
for rows in ([[1, 1], [1, 0]], [[2, 1], [1, 1]], [[6, 1], [1, 0]]):
    b = M(rows)
    poly = char_poly(b)
    eig = perron_eigenvalue(b)
    cl = ideal_classes_for_matrix(b)
    print(f"B = {b}:  char poly {poly},  Perron eigenvalue {eig},  h = {cl.h}")

print("\n=== Counting GL(2,Z)-similarity classes by Latimer-MacDuffee ===")
print("(classes of matrices with a fixed irreducible char poly match the")
print(" ideal class number of the order generated by a root)")
for poly in [(1, -1, -1), (1, -6, -1), (1, 1, 6)]:
    disc = poly[1] ** 2 - 4 * poly[2]
    result = similarity_class_count_bruteforce(poly, entry_bound=12)
    print(
        f"p = {poly}, disc {disc:4d}: {result.count} classes"
        f" (= h_wide = {class_number(disc, 'wide')});"
        f" representatives {[str(r) for r in result.representatives]}"
    )

print("\n=== Sha from the class group of the eigenvalue order ===")
for rows in ([[1, 1], [1, 0]], [[6, 1], [1, 0]], [[5, 2], [2, 1]]):
    b = M(rows)
    report = sha_for_curve_matrix(b)
    group = " x ".join(f"Z/{v}" for v in report.sha_divisors) or "trivial"
    print(
        f"B = {b}: Cl = {report.cl.elementary_divisors or '()'}"
        f" (k = {report.k})  ->  Sha = {group}, order {report.sha_order}"
    )
