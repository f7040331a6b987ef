"""Binary quadratic forms, reduction, Gauss composition and class groups.

Forms (a, b, c) of discriminant D = b^2 - 4ac model ideal classes of the
quadratic order of discriminant D, for definite and indefinite D alike.
Definite forms reduce to a unique representative; indefinite forms reduce
onto rho-cycles, and each cycle is one proper class.

Each class is named once: `_classes(d_k, f)` maps every reduced form of
D = f^2 * d_K to the least form of its class, and the class-group code reads
names from it; a wide class joins the classes of (a, b, c) and (-a, b, -c).
The public functions split D into (d_K, f) once. The field's reduced forms
come from one scan of divisor pairs of |d_K - b^2|/4 up to their square
root. For f > 1 each field class is carried to the order through the
sigma(f) index-f sublattices, and the primitive results are reduced; D
itself is never scanned. For D > 0 one rho-walk names a cycle and its
negated cycle, (a, b, c) -> (-a, b, -c), together.

`class_number` validates D and splits it as f^2 * d_K once; the unchecked
kernel `_class_numbers(d_K, conductors)` does the rest, building the field
once per call: its class map, and its unit when a conductor above 1 needs it.
A non-maximal order goes through the classical conductor formula (the unit
index computed from that unit), which the form-enumeration route
cross-checks in the test suite. Nothing is kept between calls.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm, prod

from .contfrac import FundamentalUnit, fundamental_unit
from .errors import (
    DiscriminantMismatch,
    InvalidDiscriminant,
    NonCyclicTwoPart,
    NonPrimitiveForm,
    Record,
    SquareDiscriminant,
)
from .intmath import (
    factorization,
    is_square,
    kronecker,
    prime_factors,
    squarefree_core,
    xgcd,
)


class BinaryQuadraticForm(Record):
    """The integral form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c)) == 1

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def inverse(self) -> "BinaryQuadraticForm":
        """Representative of the inverse class."""
        return BinaryQuadraticForm(self.a, -self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"

    @classmethod
    def principal(cls, d: int) -> "BinaryQuadraticForm":
        """The identity class representative of discriminant d."""
        validate_discriminant(d)
        b0 = d % 2
        return cls(1, b0, (b0 * b0 - d) // 4)


class QuadraticOrder(Record):
    """The order Z + f*O_K of conductor f in the field of discriminant d_k."""

    d_k: int
    f: int = 1

    def __post_init__(self):
        if self.f < 1:
            raise ValueError("conductor must be positive")
        if split_discriminant(self.d_k)[1] != 1:
            raise InvalidDiscriminant(f"{self.d_k} is not fundamental")

    @property
    def discriminant(self) -> int:
        return self.d_k * self.f * self.f

    @classmethod
    def from_discriminant(cls, d: int) -> "QuadraticOrder":
        d_k, f = split_discriminant(d)
        return cls(d_k, f)

    def __str__(self) -> str:
        return f"Z + {self.f}*O_Q(sqrt({self.d_k}))"


class ClassGroupStructure(Record):
    """A finite abelian group in invariant-factor form d_1 | d_2 | ...

    Any list of cyclic orders is accepted: each pair (d_i, d_j), i < j, is
    replaced by (gcd, lcm), since Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), and
    then d_i divides every later entry; 1s are dropped. Nothing is factored.
    ``h`` is the order.
    """

    elementary_divisors: tuple[int, ...]
    h: int = 0

    def __post_init__(self):
        divs = [int(d) for d in self.elementary_divisors]
        if any(d < 1 for d in divs):
            raise ValueError("divisors must be positive")
        for i in range(len(divs)):
            for j in range(i + 1, len(divs)):
                a, b = divs[i], divs[j]
                divs[i] = g = gcd(a, b)
                divs[j] = a // g * b
        divs = tuple(d for d in divs if d != 1)
        order = prod(divs)
        if self.h and self.h != order:
            raise ValueError(f"h={self.h} != product of divisors {order}")
        object.__setattr__(self, "elementary_divisors", divs)
        object.__setattr__(self, "h", order)


def validate_discriminant(d: int) -> None:
    """Raise InvalidDiscriminant unless d is a non-square 0/1 mod 4 integer."""
    if d % 4 not in (0, 1) or is_square(d):
        raise InvalidDiscriminant(f"{d} is not a non-square discriminant")


def split_discriminant(d: int) -> tuple[int, int]:
    """Write d = f^2 * d_K with d_K fundamental; return (d_K, f)."""
    validate_discriminant(d)
    core, s = squarefree_core(d)
    if core % 4 == 1:
        return core, s
    if s % 2:
        raise AssertionError(f"inconsistent square part for {d}")
    return 4 * core, s // 2


def fundamental_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)); m is replaced by its squarefree core."""
    if m == 0:
        raise InvalidDiscriminant("0 has no quadratic field")
    core, _ = squarefree_core(m)
    if core == 1:
        raise InvalidDiscriminant(f"{m} is a perfect square")
    return _field_discriminant(core)


def _field_discriminant(core: int) -> int:
    """Discriminant of Q(sqrt(core)) for a squarefree core other than 0 and 1."""
    return core if core % 4 == 1 else 4 * core


def _require_form(form: BinaryQuadraticForm) -> int:
    if not form.is_primitive:
        raise NonPrimitiveForm(f"{form} has content > 1")
    d = form.discriminant
    if d == 0 or is_square(d):
        raise SquareDiscriminant(f"{form} has square discriminant {d}")
    if d < 0 and form.a < 0:
        raise ValueError(f"{form} is negative definite")
    return d


# ---------------------------------------------------------------------------
# Reduction


def _reduce_definite(a: int, b: int, c: int) -> tuple[int, int, int]:
    if not -a < b <= a:
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
    while a > c or (a == c and b < 0):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
    return a, b, c


def _is_reduced_indefinite(a: int, b: int, s: int) -> bool:
    # 0 < b < sqrt(D)  and  sqrt(D) - b < 2|a| < sqrt(D) + b, with s = isqrt(D)
    return 0 < b <= s and 2 * abs(a) + b > s and 2 * abs(a) - b <= s


def _rho(a: int, b: int, c: int, d: int, s: int) -> tuple[int, int, int]:
    """One reduction step: the new form leads with c."""
    ca = abs(c)
    if ca > s:
        b2 = -b % (2 * ca)
        if b2 > ca:
            b2 -= 2 * ca
    else:
        b2 = s - (s + b) % (2 * ca)
    return c, b2, (b2 * b2 - d) // (4 * c)


def _reduce(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """Reduced form equivalent to (a, b, c) of discriminant d (unchecked)."""
    if d < 0:
        return _reduce_definite(a, b, c)
    s = isqrt(d)
    while not _is_reduced_indefinite(a, b, s):
        a, b, c = _rho(a, b, c, d, s)
    return a, b, c


def _cycle(a: int, b: int, c: int, d: int) -> list[tuple[int, int, int]]:
    """The rho-cycle through the reduced indefinite form (a, b, c), as a list.
    _rho is inlined: every form on the cycle is reduced, so |c| <= isqrt(d)."""
    s = isqrt(d)
    cycle = [(a, b, c)]
    a0, b0 = a, b
    while True:
        b = s - (s + b) % (2 * abs(c))
        a, c = c, (b * b - d) // (4 * c)
        if a == a0 and b == b0:
            return cycle
        cycle.append((a, b, c))


def _canonical(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """The reduced form (D < 0) or the least (a, b) on the rho-cycle (D > 0).

    c is fixed by (a, b) and d, so tuple order is (a, b) order.
    """
    form = _reduce(a, b, c, d)
    return form if d < 0 else min(_cycle(*form, d))


def _wide_canonical(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """Canonical form of the wide class of (a, b, c) (unchecked).

    (a, b, c) -> (-a, b, -c) is the class action of the norm -1 principal
    form and commutes with rho, so for d > 0 one cycle walk meets both narrow
    halves of the wide class; the least form of either names it. For d < 0
    the positive definite one of the two names it.
    """
    if d < 0:
        return _canonical(a, b, c, d) if a > 0 else _canonical(-a, b, -c, d)
    return min(min(g, (-g[0], g[1], -g[2])) for g in _cycle(*_reduce(a, b, c, d), d))


def reduce_form(form: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """An SL(2,Z)-equivalent reduced form.

    For D < 0 this is the unique reduced representative of the class; for
    D > 0 it is some form on the class's rho-cycle.
    """
    d = _require_form(form)
    return BinaryQuadraticForm(*_reduce(form.a, form.b, form.c, d))


def canonical_representative(form: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Deterministic class representative.

    The unique reduced form for D < 0; the lexicographically least (a, b)
    on the reduction cycle for D > 0.
    """
    d = _require_form(form)
    return BinaryQuadraticForm(*_canonical(form.a, form.b, form.c, d))


def _field_forms(d: int) -> set[tuple[int, int, int]]:
    """The reduced forms of a fundamental discriminant d (unchecked).

    A reduced form has 4|ac| = |d - b^2| = 4n with 0 <= b <= isqrt(|d|), and
    the lesser of |a|, |c| is at most isqrt(n): for d < 0 since |b| <= a <= c,
    for d > 0 since both lie in the window s - b < 2|x| <= s + b, s = isqrt(d)
    (Cohen, A Course in Computational Algebraic Number Theory, 5.3 and 5.6).
    So one scan of divisor pairs (a, n/a), a <= isqrt(n), finds every one;
    they are all primitive, as d is fundamental.
    """
    s = isqrt(abs(d))
    reduced = set()
    for b in range(d % 2, s + 1, 2):
        n = abs(d - b * b) // 4
        for a in range(max(b, 1) if d < 0 else (s - b) // 2 + 1, isqrt(n) + 1):
            if n % a:
                continue
            c = n // a
            if d < 0:
                reduced.add((a, b, c))
                if 0 < b < a < c:
                    reduced.add((a, -b, c))
            elif 2 * c - b <= s:
                reduced.update(((a, b, -c), (-a, b, c), (c, b, -a), (-c, b, a)))
    return reduced


def _name_cycles(forms, d: int) -> dict[tuple[int, int, int], tuple[int, int, int]]:
    """Map every form on the rho-cycles through the reduced forms `forms`,
    d > 0, to the least form of its cycle (unchecked).

    Each new cycle is walked once. (a, b, c) -> (-a, b, -c) commutes with
    rho, so the same walk names the negated cycle too, unless it is the same
    cycle.
    """
    names = {}
    for form in forms:
        if form in names:
            continue
        cycle = _cycle(*form, d)
        names.update(dict.fromkeys(cycle, min(cycle)))
        if (-form[0], form[1], -form[2]) not in names:
            cycle = [(-a, b, -c) for a, b, c in cycle]
            names.update(dict.fromkeys(cycle, min(cycle)))
    return names


def _lift(field: dict, d_k: int, f: int) -> dict[tuple[int, int, int], tuple[int, int, int]]:
    """The class map of Z + f*O_K from `field`, the class map of its field d_k
    (unchecked).

    A proper ideal L of the order has index f in L*O_K and a basis
    (k*u, t*u + m*v), with (u, v) a basis of L*O_K, k*m = f and 0 <= t < k:
    one of the sigma(f) index-f sublattices in Hermite normal form. So with Q
    the form of L*O_K, the form of L is Q(k*x + t*y, m*y), and the order's
    classes are the primitive forms among these over the field's classes
    (Cox, Primes of the Form x^2 + ny^2, 7). One form per wide field class
    suffices for d > 0: the lifts of (-A, B, -C) are the negated lifts of
    (A, B, C), which the cycle naming reaches anyway.
    """
    if f == 1:
        return field
    d = d_k * f * f
    divisors = [k for k in range(1, f + 1) if f % k == 0]

    def sublattice_forms():
        for A, B, C in _wide_names(field, d_k):
            for k in divisors:
                m = f // k
                a, bm, cm = A * k * k, B * m, C * m * m
                for t in range(k):
                    # Q(kx + ty, my) = (A k^2, (2At + Bm) k, At^2 + Btm + Cm^2)
                    b, c = (2 * A * t + bm) * k, (A * t + bm) * t + cm
                    if gcd(a, b, c) == 1:
                        yield _reduce(a, b, c, d)

    if d < 0:
        return {g: g for g in sublattice_forms()}
    names = _name_cycles(sublattice_forms(), d)
    s = isqrt(d)
    if not all(_is_reduced_indefinite(a, b, s) for a, b, _ in names):
        raise AssertionError(f"a rho-cycle of {d} holds a form that is not reduced")
    return names


def _classes(d_k: int, f: int = 1) -> dict[tuple[int, int, int], tuple[int, int, int]]:
    """Map each reduced primitive form of discriminant d_k*f^2, d_k
    fundamental, to the least form of its proper class (unchecked): itself
    for d < 0, the least on its rho-cycle for d > 0.

    The field's reduced forms come from one scan of d_k; for f > 1 its
    classes are lifted to the order (`_lift`).
    """
    reduced = _field_forms(d_k)
    if d_k < 0:
        names = {g: g for g in reduced}
    else:
        names = _name_cycles(reduced, d_k)
        # every scanned form is named, so equal sizes mean equal sets
        if len(names) != len(reduced):
            raise AssertionError(f"a rho-cycle of {d_k} left the reduced forms")
    return _lift(names, d_k, f)


def _wide_names(names: dict, d: int) -> set[tuple[int, int, int]]:
    """Names of the wide classes: each proper class joined with that of (-a, b, -c)."""
    if d < 0:
        return set(names.values())
    return {min(g, names[-g[0], g[1], -g[2]]) for g in set(names.values())}


def enumerate_reduced_forms(d: int) -> list[BinaryQuadraticForm]:
    """All reduced primitive forms (D < 0) or one form per cycle (D > 0)."""
    return [BinaryQuadraticForm(*g) for g in sorted(set(_classes(*split_discriminant(d)).values()))]


# ---------------------------------------------------------------------------
# Class numbers


def _prime_power_unit_index(d_k: int, unit: FundamentalUnit, p: int, e: int) -> int:
    """[O_K^* : (Z + p^e*O_K)^*]: the order of eps in (O_K/p^e)^*/(Z/p^e)^*.

    That group has order n = p^(e-1)*(p - (d_k/p)), so eps^n lies in the
    order; the index is n with every prime stripped while the power stays
    in the order. Powers run modulo 4p^e (products mod 8p^e, halved), which
    fixes eps^k modulo 2p^e*O_K, so the unit's size never matters. Writing
    eps^k = (x + y*sqrt(d_k))/2, it lies in Z + p^e*O_K exactly when p^e | y.
    """
    x1, y1, _ = unit
    q = p**e
    m = 4 * q

    def in_order(k: int) -> bool:
        bx, by = x1 % m, y1 % m
        x, y = 2, 0  # the unit 1
        while k:
            if k & 1:
                x, y = ((x * bx + d_k * y * by) % (2 * m)) // 2, ((x * by + y * bx) % (2 * m)) // 2
            k >>= 1
            if k:
                bx, by = ((bx * bx + d_k * by * by) % (2 * m)) // 2, bx * by % m
        return y % q == 0

    n = p ** (e - 1) * (p - kronecker(d_k, p))
    if not in_order(n):
        raise AssertionError(f"eps^{n} does not lie in the order of conductor {q} of {d_k}")
    for r in prime_factors(n):
        while n % r == 0 and in_order(n // r):
            n //= r
    return n


def _class_numbers(d_k: int, conductors):
    """Yield (narrow, wide) class numbers of Z + f*O_K for each f in conductors,
    d_k fundamental (unchecked). The field's classes are named once; its unit
    is found once, when first needed, and each prime-power unit index once."""
    names = _classes(d_k)
    narrow_k, wide_k = len(set(names.values())), len(_wide_names(names, d_k))
    unit = None
    indices = {}
    for f in conductors:
        if f == 1:
            yield narrow_k, wide_k
            continue
        # index = [O_K^* : O_f^*]. For d_k > 0, Z + f*O_K is the intersection
        # of the orders Z + p^e*O_K over p^e exactly dividing f (CRT), so the
        # index is the lcm of theirs.
        index = {(-3): 3, (-4): 2}.get(d_k, 1)
        h = wide_k
        for p, e in factorization(f):
            h *= p ** (e - 1) * (p - kronecker(d_k, p))
            if d_k > 0:
                if (p, e) not in indices:
                    unit = unit or fundamental_unit(d_k)
                    indices[p, e] = _prime_power_unit_index(d_k, unit, p, e)
                index = lcm(index, indices[p, e])
        if h % index:
            raise AssertionError(f"conductor formula not integral at D={d_k * f * f}")
        wide = h // index
        yield (wide if d_k < 0 or (index % 2 and unit.norm == -1) else 2 * wide), wide


def class_number(d: int, flavor: str = "wide") -> int:
    """Class number of the order of discriminant d.

    ``narrow`` counts proper form classes; ``wide`` is the ideal class
    number of the order. They differ (by a factor 2) only for d > 0 when
    the fundamental unit has norm +1.
    """
    if flavor not in ("narrow", "wide"):
        raise ValueError(f"flavor must be 'narrow' or 'wide', got {flavor!r}")
    d_k, f = split_discriminant(d)
    narrow, wide = next(_class_numbers(d_k, (f,)))
    return narrow if flavor == "narrow" else wide


# ---------------------------------------------------------------------------
# Composition


def _compose(
    f: tuple[int, int, int], g: tuple[int, int, int], d: int
) -> tuple[int, int, int]:
    """Dirichlet composition of primitive forms of discriminant d (unchecked).

    With beta = (b1 + b2)/2 and e = gcd(a1, a2, beta) = u*a1 + v*a2 + w*beta,
    the product is (a3, b3, c3) with a3 = a1*a2/e^2,
    b3 = (u*a1*b2 + v*a2*b1 + w*(b1*b2 + d)/2)/e mod 2|a3| and
    c3 = (b3^2 - d)/(4*a3) (Buell, Binary Quadratic Forms, Thm 4.10).
    The result is not reduced.
    """
    a1, b1, _ = f
    a2, b2, _ = g
    g12, u1, v1 = xgcd(a1, a2)
    e, t, w = xgcd(g12, (b1 + b2) // 2)  # u = t*u1, v = t*v1
    a3 = a1 * a2 // (e * e)
    b3 = (t * (u1 * a1 * b2 + v1 * a2 * b1) + w * ((b1 * b2 + d) // 2)) // e % (2 * abs(a3))
    return a3, b3, (b3 * b3 - d) // (4 * a3)


def compose(
    f1: BinaryQuadraticForm, f2: BinaryQuadraticForm
) -> BinaryQuadraticForm:
    """Gauss composition (Dirichlet's formula), returned as the canonical
    class representative."""
    d1 = _require_form(f1)
    d2 = _require_form(f2)
    if d1 != d2:
        raise DiscriminantMismatch(f"{d1} != {d2}")
    product = _compose((f1.a, f1.b, f1.c), (f2.a, f2.b, f2.c), d1)
    return BinaryQuadraticForm(*_canonical(*product, d1))


# ---------------------------------------------------------------------------
# Group structure


def _power(g: tuple[int, int, int], n: int, d: int) -> tuple[int, int, int]:
    """A reduced form in the class of g^n for n >= 1, by square-and-multiply."""
    acc = None
    while True:
        if n & 1:
            acc = g if acc is None else _reduce(*_compose(acc, g, d), d)
        n >>= 1
        if not n:
            return acc
        g = _reduce(*_compose(g, g, d), d)


def class_group_structure(d: int) -> ClassGroupStructure:
    """Invariant factors of the form class group of discriminant d."""
    return _group_structure(_classes(*split_discriminant(d)), d)


def _group_structure(names: dict, d: int) -> ClassGroupStructure:
    """Invariant factors of the class group of d, from its map `_classes(d)` (unchecked).

    One Sylow subgroup at a time (Cohen, A Course in Computational Algebraic
    Number Theory, 5.4). For p^e exactly dividing h, g -> g^(h/p^e) maps the
    group onto its p-part G_p. The classes are projected in sorted order; an
    image y outside the subgroup S built so far extends it coset by coset,
    S, S*y, S*y^2, ..., until y^k falls back into S, so each element of G_p
    costs one composition. If one generator fills G_p it is cyclic of order
    p^e. Otherwise the p-th power map on G_p gives the element orders by
    lookup, and |G_p[p^k]| / |G_p[p^(k-1)]| = p^(number of cyclic factors of
    order >= p^k). The cost is about the sum of p^e over p^e exactly dividing
    h, plus 2 log2(h) compositions per projected class and, for a non-cyclic
    G_p, 2 log2(p) per element.
    """
    reps = sorted(set(names.values()))
    h = len(reps)
    b0 = d % 2
    powers = []
    try:
        identity = names[_reduce(1, b0, (b0 * b0 - d) // 4, d)]
        for p, e in factorization(h):
            q = p**e
            sub, index = [identity], {identity: 0}  # G_p so far, coset by coset
            gens = 0
            for g in reps:
                if len(sub) >= q:
                    break
                y = names[_power(g, h // q, d)]
                if y in index:
                    continue
                gens += 1
                base, layer, z = len(sub), sub, y
                while z not in index:  # z = y^k, element 0 of the next layer
                    layer = [z] + [names[_reduce(*_compose(x, y, d), d)] for x in layer[1:]]
                    index.update((x, len(sub) + i) for i, x in enumerate(layer))
                    sub += layer
                    z = names[_reduce(*_compose(z, y, d), d)]
                if index[z] >= base:
                    raise AssertionError(f"a power of {y} fell outside the subgroup it extends")
            if not len(sub) == len(index) == q:
                raise AssertionError(
                    f"the {p}-part has {len(sub)} elements, {len(index)} distinct, not {q}"
                )
            if gens == 1:  # y alone generated G_p
                if names[_power(y, q, d)] != identity:
                    raise AssertionError(f"an element of the {p}-part has order above {p}^{e}")
                powers.append(q)
                continue
            pth = {x: names[_power(x, p, d)] for x in sub}
            # orders[k]: elements of G_p of order exactly p^k
            orders = [0] * (e + 1)
            for x in sub:
                for k in range(e + 1):
                    if x == identity:
                        orders[k] += 1
                        break
                    x = pth[x]
                else:
                    raise AssertionError(f"an element of the {p}-part has order above {p}^{e}")
            torsion = [sum(orders[: k + 1]) for k in range(e + 1)]
            ranks = []
            for k in range(1, e + 1):
                t, r = torsion[k] // torsion[k - 1], 0
                while t > 1:
                    t, r = t // p, r + 1
                ranks.append(r)
            ranks.append(0)
            for k in range(1, e + 1):
                powers += [p**k] * (ranks[k - 1] - ranks[k])
    except KeyError as exc:
        raise AssertionError(f"the class map has no form {exc}") from None
    if prod(powers) != h:
        raise AssertionError("invariant factors do not multiply to the order")
    return ClassGroupStructure(tuple(powers), h)


def two_part_decomposition(
    group: ClassGroupStructure,
) -> tuple[int, ClassGroupStructure]:
    """Split Cl = Z/2^k + odd part; error when the 2-Sylow is not cyclic.

    In a chain d_1 | d_2 | ... only the last factor can be even alone: if
    any other is, so is the second-to-last, and the 2-Sylow is not cyclic.
    """
    *rest, last = group.elementary_divisors or (1,)
    if rest and rest[-1] % 2 == 0:
        raise NonCyclicTwoPart(f"2-Sylow of {group.elementary_divisors} is not cyclic")
    k = (last & -last).bit_length() - 1
    return k, ClassGroupStructure((*rest, last >> k))


def class_representatives(d: int, flavor: str = "narrow") -> list[BinaryQuadraticForm]:
    """Canonical form representatives of the class group of discriminant d.

    ``narrow`` gives one form per proper class. ``wide`` gives one form per
    wide class: each class merged with the class of (-a, b, -c), named by
    the lesser canonical form. For d < 0, or when the fundamental unit has
    norm -1, the two notions agree.
    """
    if flavor not in ("narrow", "wide"):
        raise ValueError(f"flavor must be 'narrow' or 'wide', got {flavor!r}")
    names = _classes(*split_discriminant(d))
    reps = set(names.values()) if flavor == "narrow" else _wide_names(names, d)
    return [BinaryQuadraticForm(*g) for g in sorted(reps)]
