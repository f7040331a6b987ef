"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive and shares no code path with the
implementations under test: SL(2,Z) word search for reduction, raw (a, b)
scans for the reduced forms of either sign, a searched concordant pair for
composition, direct product-group enumeration and the powers of every
class for structures, the norm -1 twist and the unit-norm rule for wide
classes, two cycle walks for a wide-class name, scanning Pell solvers, a
one-power-at-a-time unit-index loop, trial division by every integer, a
plain fold of continued-fraction matrices, continued-fraction periods found
by remembering every state, fundamental units from the whole expansion
cycle, Stern-Brocot walks for the question-mark
function and its inverse on dyadics, point enumerators for classical and
quantum heights (the reference for the closed-form counts), and a
conjugation BFS for similarity classes.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm


def apply_s(a, b, c):
    return c, -b, a


def apply_t(a, b, c):
    return a, b + 2 * a, a + b + c


def apply_t_inv(a, b, c):
    return a, b - 2 * a, a - b + c


def is_reduced_definite(a, b, c):
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def is_reduced_indefinite(a, b, c, d):
    # 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, checked by squaring
    if b <= 0 or b * b >= d:
        return False
    t = 2 * abs(a)
    if t - b >= 0 and (t - b) ** 2 >= d:
        return False
    if (t + b) ** 2 <= d:
        return False
    return True


def word_search_reduce(a, b, c, definite=True, max_nodes=200000):
    """BFS over SL(2,Z) generator words until a reduced form appears."""
    d = b * b - 4 * a * c
    queue = deque([(a, b, c)])
    seen = {(a, b, c)}
    found = []
    while queue and len(seen) < max_nodes:
        form = queue.popleft()
        if definite and is_reduced_definite(*form):
            return form
        if not definite and is_reduced_indefinite(*form, d):
            found.append(form)
            if len(found) > 40:
                break
        for image in (apply_s(*form), apply_t(*form), apply_t_inv(*form)):
            # keep the search bounded around the target size
            if max(map(abs, image)) > 16 * (abs(a) + abs(b) + abs(c)) + abs(d):
                continue
            if image not in seen:
                seen.add(image)
                queue.append(image)
    if definite:
        raise AssertionError("no reduced form found in word search")
    return found


def concordant_compose(f1, f2):
    """Gauss composition by searching a concordant pair of united forms.

    Transforms f2 onto a representative whose leading coefficient is coprime
    to f1's by scanning small coprime vectors, then unites the middle
    coefficients by scanning the translation lattice.
    """
    a1, b1, c1 = f1
    d = b1 * b1 - 4 * a1 * c1
    a2, b2, c2 = f2
    for size in range(1, 40):
        for x in range(-size, size + 1):
            for y in range(-size, size + 1):
                if max(abs(x), abs(y)) != size:
                    continue
                if gcd(x, y) != 1:
                    continue
                lead = a2 * x * x + b2 * x * y + c2 * y * y
                if lead == 0 or gcd(lead, a1) != 1:
                    continue
                # complete (x, y) to a unimodular matrix [[x, r], [y, s]]
                old_r, rr = x, y
                old_u, uu = 1, 0
                while rr:
                    qq = old_r // rr
                    old_r, rr = rr, old_r - qq * rr
                    old_u, uu = uu, old_u - qq * uu
                u = old_u if old_r == 1 else -old_u  # u*x + v*y = 1
                v = (1 - u * x) // y if y else 0
                s, r = u, -v  # det = x*s - r*y = 1
                mid = 2 * (a2 * x * r + c2 * y * s) + b2 * (x * s + y * r)
                # unite middles: B = b1 + 2*a1*k with B = mid (mod 2*lead)
                for k in range(0, 4 * abs(lead) + 2):
                    b_united = b1 + 2 * a1 * k
                    if (b_united - mid) % (2 * lead) == 0:
                        break
                else:
                    continue
                c_comp, rem = divmod(b_united * b_united - d, 4 * a1 * lead)
                if rem:
                    raise AssertionError("united forms were not concordant")
                return a1 * lead, b_united, c_comp
    raise AssertionError("no concordant pair found")


def enumerate_definite_oracle(d):
    """Reduced primitive positive definite forms by a generous raw scan."""
    out = []
    for a in range(1, isqrt(-d) + 1):
        for b in range(-a, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if not is_reduced_definite(a, b, c):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                out.append((a, b, c))
    return sorted(out)


def enumerate_indefinite_oracle(d):
    """Reduced primitive indefinite forms by a raw scan of 1 <= |a| <= isqrt(d)
    and 0 < b <= isqrt(d), c solved from d."""
    s = isqrt(d)
    out = []
    for a in range(-s, s + 1):
        for b in range(1, s + 1):
            if a == 0 or (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if is_reduced_indefinite(a, b, c, d) and gcd(gcd(abs(a), b), abs(c)) == 1:
                out.append((a, b, c))
    return sorted(out)


def order_multiset_for_divisors(divisors):
    """Element-order multiset of Z/d1 + Z/d2 + ... by direct enumeration."""
    counter = Counter()
    for tup in product(*(range(d) for d in divisors)):
        o = 1
        for x, d in zip(tup, divisors):
            o = lcm(o, d // gcd(x, d))
        counter[o] += 1
    if not divisors:
        counter[1] = 1
    return counter


def composition_table(d):
    """Class representatives of discriminant d and their full h x h table.

    Built on the library's ``compose`` (and its class enumeration), so the
    group-axiom tests that read this table check ``compose`` itself.
    """
    from rmarith.quadforms import compose, enumerate_reduced_forms

    reps = enumerate_reduced_forms(d)
    index = {g: i for i, g in enumerate(reps)}
    return reps, [[index[compose(g, k)] for k in reps] for g in reps]


def group_structure_by_powers(d):
    """Invariant factors of the class group of d from the powers of every class.

    For each p^e exactly dividing h, every class is raised to h/p^e, and the
    order of each distinct image in the p-part G_p is found by repeated p-th
    powers; |G_p[p^k]| / |G_p[p^(k-1)]| = p^(number of cyclic factors of
    order >= p^k). Built on the library's class map and composition kernel.
    """
    from rmarith.intmath import factorization
    from rmarith.quadforms import ClassGroupStructure, _classes, _power, _reduce

    names = _classes(d)
    reps = set(names.values())
    h = len(reps)
    b0 = d % 2
    identity = names[_reduce(1, b0, (b0 * b0 - d) // 4, d)]
    powers = []
    for p, e in factorization(h):
        orders = [0] * (e + 1)  # elements of G_p of order exactly p^k
        for x in {names[_power(g, h // p**e, d)] for g in reps}:
            for k in range(e + 1):
                if x == identity:
                    orders[k] += 1
                    break
                x = names[_power(x, p, d)]
            else:
                raise AssertionError(f"an element of the {p}-part has order above {p}^{e}")
        torsion = [sum(orders[: k + 1]) for k in range(e + 1)]
        ranks = []
        for k in range(1, e + 1):
            q, r = torsion[k] // torsion[k - 1], 0
            while q > 1:
                q, r = q // p, r + 1
            ranks.append(r)
        ranks.append(0)
        for k in range(1, e + 1):
            powers += [p**k] * (ranks[k - 1] - ranks[k])
    return ClassGroupStructure(tuple(powers), h).elementary_divisors


def wide_representatives_by_twist(d):
    """Wide class representatives by composing with the norm -1 twist form.

    When the fundamental unit has norm +1 (d > 0), each narrow class is
    paired with its product by the principal form of norm -1, which must
    be a different class, and the lesser canonical form names the pair.
    Built on the library's ``compose`` and ``unit_norm``.
    """
    from rmarith.contfrac import unit_norm
    from rmarith.quadforms import BinaryQuadraticForm, compose, enumerate_reduced_forms

    reps = enumerate_reduced_forms(d)
    if d < 0 or unit_norm(d) == -1:
        return reps
    b0 = d % 2
    twist = BinaryQuadraticForm(-1, b0, (d - b0 * b0) // 4)
    out = set()
    for g in reps:
        partner = compose(g, twist)
        if partner == g:
            raise AssertionError(f"norm -1 twist fixed {g} although the unit has norm +1")
        out.add(min((g.a, g.b, g.c), (partner.a, partner.b, partner.c)))
    return [BinaryQuadraticForm(*g) for g in sorted(out)]


def wide_class_number_by_unit_norm(d):
    """Wide class number from the narrow one and the fundamental unit's norm.

    The two agree for d < 0 or when the unit has norm -1; otherwise each
    wide class joins two narrow ones. Built on the library's form
    enumeration and ``unit_norm``.
    """
    from rmarith.contfrac import unit_norm
    from rmarith.quadforms import enumerate_reduced_forms

    narrow = len(enumerate_reduced_forms(d))
    return narrow if d < 0 or unit_norm(d) == -1 else narrow // 2


def wide_canonical_two_walks(a, b, c):
    """Wide-class name of a primitive form: the lesser of the canonical forms
    of (a, b, c) and (-a, b, -c), each from its own walk of its rho-cycle
    through the library's ``canonical_representative``. For d < 0 only the
    positive definite one of the two has a name.
    """
    from rmarith.quadforms import BinaryQuadraticForm, canonical_representative

    names = []
    for f in ((a, b, c), (-a, b, -c)):
        if b * b - 4 * a * c > 0 or f[0] > 0:
            g = canonical_representative(BinaryQuadraticForm(*f))
            names.append((g.a, g.b, g.c))
    return min(names)


def order_multiset_from_table(table, identity):
    counter = Counter()
    for g in range(len(table)):
        k, acc = 1, g
        while acc != identity:
            acc = table[acc][g]
            k += 1
        counter[k] += 1
    return counter


def pell_smallest(d, y_limit=4000):
    """Least (x, y), y >= 1, with x^2 - d y^2 = +-4, by direct scan."""
    for y in range(1, y_limit + 1):
        for sign in (-1, 1):
            val = d * y * y + 4 * sign
            if val > 0:
                x = isqrt(val)
                if x * x == val:
                    return x, y, sign
    raise AssertionError(f"no Pell solution below y={y_limit}")


def unit_index_linear(d_k, f):
    """[O_K^* : O_f^*] by multiplying eps into itself until f divides y.

    Works on (x + y sqrt(d_k))/2 modulo 4f (products mod 8f, halved); the
    unit comes from the library's ``fundamental_unit``, which the Pell scan
    above checks.
    """
    from rmarith.contfrac import fundamental_unit

    x1, y1, _ = fundamental_unit(d_k)
    m = 4 * f
    x, y = x1 % m, y1 % m
    n = 1
    while y % f:
        x, y = ((x * x1 + y * y1 * d_k) % (2 * m)) // 2, ((x * y1 + y * x1) % (2 * m)) // 2
        n += 1
        if n > 16 * f * f + 16:
            raise AssertionError(f"unit index loop ran past 16 f^2 + 16 for ({d_k}, {f})")
    return n


def factorization_by_every_divisor(n):
    """(p, e) pairs of |n| by trial division with every integer from 2."""
    n, out, p = abs(n), [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def expand_by_state_repetition(p, q, d):
    """Continued fraction of (p + sqrt(d))/q, with q | d - p^2, by remembering
    every (P, Q) state until one repeats.

    Returns (terms, cycle_start): terms[cycle_start:] is the minimal period.
    """
    s = isqrt(d)
    seen = {}
    terms = []
    while (p, q) not in seen:
        seen[(p, q)] = len(terms)
        a = (p + s) // q if q > 0 else -((p + s) // -q) - 1
        terms.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return terms, seen[(p, q)]


def unit_by_full_period(d):
    """Fundamental unit (x, y, norm) of the order of discriminant d from the
    whole expansion cycle of omega = (sigma + sqrt(d))/2.

    The cycle comes from ``expand_by_state_repetition`` (the dividing
    recurrence), its matrix from a plain fold; the matrix fixes the first
    reduced state (P, Q), which gives y = 2 a21 / Q and x = y P + 2 a22.
    """
    p, q = d % 2, 2
    terms, start = expand_by_state_repetition(p, q, d)
    for a in terms[:start]:
        p = a * q - p
        q = (d - p * p) // q
    period = terms[start:]
    _, _, a21, a22 = word_matrix_fold(period)
    y, rest = divmod(2 * a21, q)
    x = y * p + 2 * a22
    norm = -1 if len(period) % 2 else 1
    assert rest == 0 and x * x - d * y * y == 4 * norm, d
    return x, y, norm


def minkowski_stern_brocot(x: Fraction) -> Fraction:
    """?(x) by walking the Stern-Brocot tree (binary interval halving)."""
    if x == 0 or x == 1:
        return Fraction(x)
    lp, lq, ly = 0, 1, Fraction(0)
    rp, rq, ry = 1, 1, Fraction(1)
    while True:
        mp, mq = lp + rp, lq + rq
        my = (ly + ry) / 2
        med = Fraction(mp, mq)
        if med == x:
            return my
        if x < med:
            rp, rq, ry = mp, mq, my
        else:
            lp, lq, ly = mp, mq, my


def inverse_minkowski_stern_brocot(y: Fraction) -> Fraction:
    """The rational x with ?(x) = y, for dyadic y in [0, 1].

    Walks the Stern-Brocot tree: the question-mark value of a mediant is the
    dyadic midpoint of its parents' values, so the walk is an exact binary
    search that terminates on dyadic input.
    """
    if y == 0 or y == 1:
        return Fraction(y)
    lp, lq, ly = 0, 1, Fraction(0)
    rp, rq, ry = 1, 1, Fraction(1)
    while True:
        mp, mq = lp + rp, lq + rq
        my = (ly + ry) / 2
        if y == my:
            return Fraction(mp, mq)
        if y < my:
            rp, rq, ry = mp, mq, my
        else:
            lp, lq, ly = mp, mq, my


def projective_points(n, t):
    """All canonical points of P^n(Q) with classical height <= t, listed."""
    from rmarith.heights import ProjectivePoint

    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    for lead_pos in range(n + 1):
        rest_len = n - lead_pos
        if rest_len == 0:
            yield ProjectivePoint((0,) * lead_pos + (1,))
            continue
        for lead in range(1, t + 1):
            for rest in product(range(-t, t + 1), repeat=rest_len):
                g = lead
                for v in rest:
                    g = gcd(g, abs(v))
                if g == 1:
                    yield ProjectivePoint((0,) * lead_pos + (lead,) + rest)


def quantum_theta_points(n, t):
    """All rational theta tuples in [0,1)^n with quantum height <= t, listed.

    The question-mark map sends them bijectively onto tuples of dyadics
    whose common denominator is at most t, so the enumeration inverts the
    dyadic grid of the largest power of 2 below t.
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    den = 1 << (t.bit_length() - 1)
    singles = [inverse_minkowski_stern_brocot(Fraction(j, den)) for j in range(den)]
    yield from product(singles, repeat=n)


GL2_GENERATORS = (
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
    ((0, 1), (1, 0)),
)


def mat_mul2(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_inv2(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det in (1, -1)
    return (
        (det * m[1][1], -det * m[0][1]),
        (-det * m[1][0], det * m[0][0]),
    )


def word_matrix_fold(word):
    """Product of [[a, 1], [1, 0]] over the word by a left-to-right fold."""
    m = ((1, 0), (0, 1))
    for a in word:
        m = mat_mul2(m, ((a, 1), (1, 0)))
    return m[0][0], m[0][1], m[1][0], m[1][1]


def random_gl2_word(rng, length):
    m = ((1, 0), (0, 1))
    for _ in range(length):
        m = mat_mul2(m, GL2_GENERATORS[rng.randrange(len(GL2_GENERATORS))])
    return m


# transvections and one reflection: (g, g^-1) pairs generating GL(2,Z)
BFS_GENERATORS = (
    (((1, 1), (0, 1)), ((1, -1), (0, 1))),
    (((1, -1), (0, 1)), ((1, 1), (0, 1))),
    (((1, 0), (1, 1)), ((1, 0), (-1, 1))),
    (((1, 0), (-1, 1)), ((1, 0), (1, 1))),
    (((-1, 0), (0, 1)), ((-1, 0), (0, 1))),
)


def similarity_classes_bfs(poly, entry_bound):
    """GL(2,Z)-classes of the matrices with char poly x^2 + b x + c, entries <= bound.

    Lists every matrix by a plain scan, then merges conjugates found by a
    breadth-first search over one-generator conjugations, at most 12 deep
    and with entries kept under 3 * bound + 8. Classes come
    in order of their least member; each is sorted by (largest |entry|,
    entries).
    """
    _, b, c = poly
    trace, det = -b, c
    rng = range(-entry_bound, entry_bound + 1)
    candidates = sorted(
        ((a11, a12), (a21, trace - a11))
        for a11, a12, a21 in product(rng, repeat=3)
        if abs(trace - a11) <= entry_bound and a11 * (trace - a11) - a12 * a21 == det
    )
    work_bound = 3 * entry_bound + 8
    parent = list(range(len(candidates)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    label = {m: i for i, m in enumerate(candidates)}
    queue = deque((m, 0) for m in candidates)
    while queue:
        m, depth = queue.popleft()
        if depth >= 12:
            continue
        for g, ginv in BFS_GENERATORS:
            m2 = mat_mul2(mat_mul2(g, m), ginv)
            if any(abs(v) > work_bound for row in m2 for v in row):
                continue
            if m2 in label:
                ri, rj = find(label[m]), find(label[m2])
                parent[max(ri, rj)] = min(ri, rj)
            else:
                label[m2] = label[m]
                queue.append((m2, depth + 1))
    groups = {}
    for i, m in enumerate(candidates):
        groups.setdefault(find(i), []).append(m)
    return [
        sorted(groups[r], key=lambda m: (max(abs(v) for row in m for v in row), m))
        for r in sorted(groups)
    ]
