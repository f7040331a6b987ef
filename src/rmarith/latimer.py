"""2x2 integer matrices: characteristic polynomials, Perron eigenvalues,
GL(2,Z)-similarity classes and the class-group shape of Sha.

Similarity classes follow the Latimer-MacDuffee correspondence: a 2x2
matrix with irreducible characteristic polynomial p is keyed by the content
of its associated binary quadratic form (the order containing Z[root of p])
and the wide class of the primitive part (`quadforms._wide_canonical`), so
two matrices are GL(2,Z)-conjugate exactly when their keys agree. The
classifier lists every matrix with characteristic polynomial p inside an
entry bound, scanning a12 over 1..bound for each diagonal, and groups them
by key.
"""

from __future__ import annotations

from math import gcd, prod

from . import quadforms
from .contfrac import QuadraticIrrational
from .errors import BoundTooSmall, NotPrimitive, Record, ReducibleCharPoly
from .intmath import is_square
from .quadforms import ClassGroupStructure

Matrix = tuple[tuple[int, int], tuple[int, int]]


class IntegerMatrix(Record):
    """A 2x2 integer matrix ((a, b), (c, d)), rows first."""

    entries: Matrix

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("entries must form a 2x2 matrix")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        return cls(tuple(tuple(row) for row in rows))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.entries) + "]"


def char_poly(b: IntegerMatrix) -> tuple[int, int, int]:
    """x^2 - (a + d)x + (ad - bc) as (1, -(a + d), ad - bc), highest degree first."""
    (a11, a12), (a21, a22) = b.entries
    return 1, -(a11 + a22), a11 * a22 - a12 * a21


def _is_primitive_2x2(a: Matrix) -> bool:
    # a nonnegative 2x2 matrix is primitive when its square is positive,
    # which is when a12 * a21 > 0 and a11 + a22 > 0
    (a11, a12), (a21, a22) = a
    return min(a11, a12, a21, a22) >= 0 and a12 * a21 > 0 and a11 + a22 > 0


def perron_eigenvalue(b: IntegerMatrix) -> QuadraticIrrational:
    """Dominant eigenvalue of a primitive nonnegative 2x2 matrix, exactly.

    The larger root (t + sqrt(t^2 - 4 det))/2 of the characteristic
    polynomial; a rational eigenvalue is rejected since it leaves the
    quadratic-order pipeline.
    """
    if not _is_primitive_2x2(b.entries):
        raise NotPrimitive(f"{b} is not a primitive nonnegative matrix")
    (a11, a12), (a21, a22) = b.entries
    t = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = t * t - 4 * det
    if disc <= 0 or is_square(disc):
        raise ReducibleCharPoly(f"x^2 - {t}x + {det} factors over Q")
    return QuadraticIrrational(t, 2, disc)


# ---------------------------------------------------------------------------
# Similarity classes


class SimilarityClassification(Record):
    """GL(2,Z)-conjugacy classes found among bounded-entry matrices.

    ``classes`` lists every enumerated matrix grouped by class;
    ``representatives`` holds one canonical member each. The entry bound is
    echoed so the radius of the enumeration is explicit.
    """

    polynomial: tuple[int, ...]
    entry_bound: int
    classes: tuple[tuple[IntegerMatrix, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def representatives(self) -> tuple[IntegerMatrix, ...]:
        return tuple(cls[0] for cls in self.classes)


def _validate_charpoly(p) -> tuple[int, ...]:
    p = tuple(int(c) for c in p)
    if len(p) != 3 or p[0] != 1:
        raise ValueError("need a monic quadratic (1, b, c), highest degree first")
    disc = p[1] * p[1] - 4 * p[2]
    if disc == 0 or is_square(disc):
        raise ReducibleCharPoly(f"discriminant {disc} is a perfect square")
    return p


def _matrices_with_charpoly(p: tuple[int, ...], bound: int) -> list[Matrix]:
    t, det = -p[1], p[2]
    out = []
    for a11 in range(-bound, bound + 1):
        a22 = t - a11
        if abs(a22) > bound:
            continue
        target = a11 * a22 - det  # = a12 * a21, nonzero for irreducible p
        for a12 in range(1, bound + 1):
            if target % a12 or abs(target) // a12 > bound:
                continue
            a21 = target // a12
            out += [((a11, a12), (a21, a22)), ((a11, -a12), (-a21, a22))]
    return sorted(set(out))


def _class_key(m: Matrix) -> tuple[int, tuple[int, int, int]]:
    """Exact GL(2,Z)-similarity invariant of a 2x2 matrix (Latimer-MacDuffee).

    [[a, b], [c, d]] gives the form Q(v) = det[v | Mv] = (c, d - a, -b), and
    conjugation by P sends Q to det(P) * Q(P^-1 v). The class is therefore
    the content g (which marks the overorder) together with the wide class
    of Q/g: its proper class modulo (A, B, C) -> (-A, B, -C), diag(1, -1).
    """
    (a, b), (c, d) = m
    g = gcd(c, d - a, b)
    fa, fb, fc = c // g, (d - a) // g, -b // g
    return g, quadforms._wide_canonical(fa, fb, fc, fb * fb - 4 * fa * fc)


def similarity_class_count_bruteforce(p, entry_bound: int) -> SimilarityClassification:
    """Classify bounded-entry 2x2 integer matrices with characteristic polynomial p.

    Every matrix with entries within the bound is listed, then grouped by
    its class key. Once the bound reaches every class, the count is the sum
    of the wide class numbers of the orders containing Z[root of p]. Only
    irreducible monic quadratics are accepted.
    """
    p = _validate_charpoly(p)
    if entry_bound < 1:
        raise ValueError("entry_bound must be positive")
    candidates = _matrices_with_charpoly(p, entry_bound)
    if not candidates:
        raise BoundTooSmall(
            f"no matrix with characteristic polynomial {p} has entries within {entry_bound}"
        )
    # candidates are sorted, so classes come in order of their least member
    groups: dict[tuple, list[Matrix]] = {}
    for m in candidates:
        groups.setdefault(_class_key(m), []).append(m)
    ordered = tuple(
        tuple(
            IntegerMatrix(m)
            for m in sorted(cls, key=lambda m: (max(abs(v) for r in m for v in r), m))
        )
        for cls in groups.values()
    )
    return SimilarityClassification(p, entry_bound, ordered)


def classify(
    matrix: IntegerMatrix, classification: SimilarityClassification
) -> int:
    """Index of the class a (possibly out-of-bound) matrix belongs to.

    Exact: the matrix is compared by its class key. Raises ValueError when
    the characteristic polynomial differs or when no matrix of its class
    has entries within the classification's bound.
    """
    if char_poly(matrix) != classification.polynomial:
        raise ValueError("matrix has a different characteristic polynomial")
    key = _class_key(matrix.entries)
    for idx, cls in enumerate(classification.classes):
        if _class_key(cls[0].entries) == key:
            return idx
    raise ValueError(
        f"the class of {matrix} has no member with entries within "
        f"{classification.entry_bound}"
    )


# ---------------------------------------------------------------------------
# Sha


class ShaReport(Record):
    """Theorem-shaped Sha data: 2-part exponent, class group, final group."""

    k: int
    cl: ClassGroupStructure
    sha_divisors: tuple[int, ...]
    sha_order: int

    def __post_init__(self):
        if self.sha_order != prod(self.sha_divisors):
            raise ValueError("sha_order must be the product of sha_divisors")


def ideal_classes_for_matrix(b: IntegerMatrix) -> ClassGroupStructure:
    """Class group of the order generated by the Perron eigenvalue of b."""
    eigen = perron_eigenvalue(b)
    return quadforms.class_group_structure(eigen.d)


def sha_group(cl: ClassGroupStructure) -> ShaReport:
    """Sha built from a class group with cyclic 2-part.

    Cl + Cl when the 2-part exponent k is even; Z/2^k + Cl_odd + Cl_odd
    when k is odd. Output is in elementary-divisor normal form.
    """
    k, odd = quadforms.two_part_decomposition(cl)
    if k % 2 == 0:
        sha = ClassGroupStructure(
            tuple(cl.elementary_divisors) + tuple(cl.elementary_divisors)
        )
    else:
        sha = ClassGroupStructure(
            (2**k,) + tuple(odd.elementary_divisors) + tuple(odd.elementary_divisors)
        )
    return ShaReport(k, cl, sha.elementary_divisors, sha.h)


def sha_for_curve_matrix(b: IntegerMatrix) -> ShaReport:
    """End to end: matrix -> eigenvalue order -> class group -> Sha."""
    return sha_group(ideal_classes_for_matrix(b))
