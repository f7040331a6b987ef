"""Integer matrices: characteristic polynomials, Perron eigenvalues,
GL(n,Z)-similarity classes and the class-group shape of Sha.

The similarity classifier is a desk-scale oracle: it enumerates every
integer matrix with the requested characteristic polynomial inside an entry
bound, then merges GL(n,Z)-conjugates by a breadth-first search over
one-generator conjugations with a configurable word-length cap. Counting
classes of a 2x2 irreducible polynomial recovers the ideal class number of
the order generated by a root (Latimer-MacDuffee).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import prod

from . import quadforms
from .contfrac import QuadraticIrrational
from .errors import BoundTooSmall, NotPrimitive, ReducibleCharPoly
from .intmath import divisors, is_square
from .quadforms import ClassGroupStructure

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IntegerMatrix:
    entries: Matrix

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("entries must form a nonempty square matrix")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.entries) + "]"


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _trace(a: Matrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def char_poly(b: IntegerMatrix) -> tuple[int, ...]:
    """Monic characteristic polynomial, coefficients highest degree first.

    Faddeev-LeVerrier recursion; every division is exact in Z.
    """
    n = b.dimension
    a = b.entries
    m = _identity(n)
    coeffs = [1]
    for k in range(1, n + 1):
        m = _mat_mul(a, m)
        t = _trace(m)
        if t % k:
            raise AssertionError("Faddeev-LeVerrier trace was not divisible")
        c = -(t // k)
        coeffs.append(c)
        m = tuple(
            tuple(m[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
        )
    return tuple(coeffs)


def _is_primitive_2x2(a: Matrix) -> bool:
    if any(v < 0 for row in a for v in row):
        return False
    if all(v > 0 for row in a for v in row):
        return True
    sq = _mat_mul(a, a)
    return all(v > 0 for row in sq for v in row)


def perron_eigenvalue(b: IntegerMatrix) -> QuadraticIrrational:
    """Dominant eigenvalue of a primitive nonnegative 2x2 matrix, exactly.

    The larger root (t + sqrt(t^2 - 4 det))/2 of the characteristic
    polynomial; a rational eigenvalue is rejected since it leaves the
    quadratic-order pipeline.
    """
    if b.dimension != 2:
        raise ValueError("Perron data is computed for 2x2 matrices")
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


@dataclass(frozen=True)
class SimilarityClassification:
    """GL(n,Z)-conjugacy classes found among bounded-entry matrices.

    ``classes`` lists every enumerated matrix grouped by class;
    ``representatives`` holds one canonical member each. The entry bound and
    word cap are echoed so the search radius of the verdict is explicit.
    """

    polynomial: tuple[int, ...]
    entry_bound: int
    word_cap: int
    classes: tuple[tuple[IntegerMatrix, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def representatives(self) -> tuple[IntegerMatrix, ...]:
        return tuple(cls[0] for cls in self.classes)


def _generators(n: int) -> list[tuple[Matrix, Matrix]]:
    """(g, g^-1) pairs generating GL(n,Z): transvections and one reflection."""
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for s in (1, -1):
                g = [[int(r == c) for c in range(n)] for r in range(n)]
                g[i][j] = s
                ginv = [[int(r == c) for c in range(n)] for r in range(n)]
                ginv[i][j] = -s
                out.append((tuple(map(tuple, g)), tuple(map(tuple, ginv))))
    refl = [[int(r == c) for c in range(n)] for r in range(n)]
    refl[0][0] = -1
    refl_t = tuple(map(tuple, refl))
    out.append((refl_t, refl_t))
    return out


def _validate_charpoly(p) -> tuple[int, ...]:
    p = tuple(int(c) for c in p)
    if len(p) < 3 or p[0] != 1:
        raise ValueError("need a monic polynomial of degree >= 2, highest degree first")
    if len(p) == 3:
        disc = p[1] * p[1] - 4 * p[2]
        if disc == 0 or is_square(disc):
            raise ReducibleCharPoly(f"discriminant {disc} is a perfect square")
    else:
        # a rational root would make the polynomial reducible
        const = p[-1]
        roots = [0] if const == 0 else []
        roots += [r for d in divisors(const) for r in (d, -d)] if const else []
        for r in roots:
            acc = 0
            for c in p:
                acc = acc * r + c
            if acc == 0:
                raise ReducibleCharPoly(f"{r} is a rational root")
    return p


def _matrices_with_charpoly(p: tuple[int, ...], bound: int) -> list[Matrix]:
    n = len(p) - 1
    if n == 2:
        t, det = -p[1], p[2]
        out = []
        for a11 in range(-bound, bound + 1):
            a22 = t - a11
            if abs(a22) > bound:
                continue
            target = a11 * a22 - det  # = a12 * a21, nonzero for irreducible p
            if target == 0:
                continue
            for d in divisors(target):
                if d > bound:
                    continue
                other = abs(target) // d
                if other > bound:
                    continue
                for a12, a21 in (
                    (d, target // d),
                    (-d, -(target // d)),
                ):
                    out.append(((a11, a12), (a21, a22)))
        return sorted(set(out))

    from itertools import product as iproduct

    # n == 3, closed form: det(xI - M) = x^3 - t x^2 + s x - det
    trace, want_s, want_det = -p[1], p[2], -p[3]
    out = []
    rng = range(-bound, bound + 1)
    for d0, d1, d2 in iproduct(rng, repeat=3):
        if d0 + d1 + d2 != trace:
            continue
        for o0, o1, o2, o3, o4, o5 in iproduct(rng, repeat=6):
            s = d0 * d1 - o0 * o2 + d0 * d2 - o1 * o4 + d1 * d2 - o3 * o5
            if s != want_s:
                continue
            det = (
                d0 * (d1 * d2 - o3 * o5)
                - o0 * (o2 * d2 - o3 * o4)
                + o1 * (o2 * o5 - d1 * o4)
            )
            if det == want_det:
                out.append(((d0, o0, o1), (o2, d1, o3), (o4, o5, d2)))
    return sorted(set(out))


def _merge_conjugates(
    candidates: list[Matrix], gens, word_cap: int, work_bound: int
) -> list[list[Matrix]]:
    parent = list(range(len(candidates)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    label: dict[Matrix, int] = {m: i for i, m in enumerate(candidates)}
    queue = deque((m, 0) for m in candidates)
    while queue:
        m, depth = queue.popleft()
        if depth >= word_cap:
            continue
        owner = label[m]
        for g, ginv in gens:
            m2 = _mat_mul(_mat_mul(g, m), ginv)
            if any(abs(v) > work_bound for row in m2 for v in row):
                continue
            if m2 in label:
                union(owner, label[m2])
            else:
                label[m2] = owner
                queue.append((m2, depth + 1))
    groups: dict[int, list[Matrix]] = {}
    for i, m in enumerate(candidates):
        groups.setdefault(find(i), []).append(m)
    return [groups[r] for r in sorted(groups)]


def similarity_class_count_bruteforce(
    p, entry_bound: int, word_cap: int = 12
) -> SimilarityClassification:
    """Classify bounded-entry integer matrices with characteristic polynomial p.

    For an irreducible quadratic p the class count equals the ideal class
    number of Z[root of p]. Cubic p (3x3 matrices) is supported for
    experimentation at tiny bounds only; higher degrees raise ValueError.
    """
    p = _validate_charpoly(p)
    if len(p) > 4:
        raise ValueError("brute-force classification handles degree 2 and 3 only")
    if entry_bound < 1:
        raise ValueError("entry_bound must be positive")
    candidates = _matrices_with_charpoly(p, entry_bound)
    if not candidates:
        raise BoundTooSmall(
            f"no matrix with characteristic polynomial {p} has entries within {entry_bound}"
        )
    n = len(p) - 1
    work_bound = 3 * entry_bound + 8
    classes = _merge_conjugates(candidates, _generators(n), word_cap, work_bound)
    ordered = tuple(
        tuple(
            IntegerMatrix(m)
            for m in sorted(cls, key=lambda m: (max(abs(v) for r in m for v in r), m))
        )
        for cls in classes
    )
    return SimilarityClassification(p, entry_bound, word_cap, ordered)


def classify(
    matrix: IntegerMatrix, classification: SimilarityClassification
) -> int:
    """Index of the class a (possibly out-of-bound) matrix belongs to.

    Searches conjugator words up to the classification's cap until a known
    matrix is reached; raises ValueError when the search is inconclusive.
    """
    if char_poly(matrix) != classification.polynomial:
        raise ValueError("matrix has a different characteristic polynomial")
    where: dict[Matrix, int] = {}
    for idx, cls in enumerate(classification.classes):
        for m in cls:
            where[m.entries] = idx
    start = matrix.entries
    size = max(abs(v) for row in start for v in row)
    work_bound = max(3 * classification.entry_bound + 8, 2 * size + 8)
    gens = _generators(matrix.dimension)
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        m, depth = queue.popleft()
        if m in where:
            return where[m]
        if depth >= classification.word_cap:
            continue
        for g, ginv in gens:
            m2 = _mat_mul(_mat_mul(g, m), ginv)
            if m2 in seen or any(abs(v) > work_bound for row in m2 for v in row):
                continue
            seen.add(m2)
            queue.append((m2, depth + 1))
    raise ValueError("classification inconclusive within the word cap")


# ---------------------------------------------------------------------------
# Sha


@dataclass(frozen=True)
class ShaReport:
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
