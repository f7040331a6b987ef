import random
from itertools import product

import pytest

from rmarith import (
    BoundTooSmall,
    ClassGroupStructure,
    IntegerMatrix,
    NonCyclicTwoPart,
    NotPrimitive,
    QuadraticIrrational,
    ReducibleCharPoly,
    ShaReport,
    char_poly,
    class_number,
    classify,
    ideal_classes_for_matrix,
    perron_eigenvalue,
    sha_for_curve_matrix,
    sha_group,
    similarity_class_count_bruteforce,
)
from rmarith.latimer import _is_primitive_2x2, _matrices_with_charpoly

from oracles import mat_inv2, mat_mul2, random_gl2_word, similarity_classes_bfs

M = IntegerMatrix.from_rows


class TestCharPoly:
    def test_examples(self):
        assert char_poly(M([[1, 1], [1, 0]])) == (1, -1, -1)
        assert char_poly(M([[2, 1], [1, 1]])) == (1, -3, 1)
        assert char_poly(M([[1, 0], [0, 1]])) == (1, -2, 1)

    def test_matches_trace_det_for_random_2x2(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            got = char_poly(M([[a, b], [c, d]]))
            assert got == (1, -(a + d), a * d - b * c)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntegerMatrix(((1, 2, 3), (4, 5, 6)))
        # matrices are 2x2: 1x1, 3x3, ragged and empty input are refused too
        for entries in (((1,),), ((1, 2, 3), (4, 5, 6), (7, 8, 9)), ((1, 2), (3,)),
                        ((1,), (2, 3)), ()):
            with pytest.raises(ValueError, match="2x2"):
                IntegerMatrix(entries)


class TestPerron:
    def test_fibonacci(self):
        assert perron_eigenvalue(M([[1, 1], [1, 0]])) == QuadraticIrrational(1, 2, 5)

    def test_example_2(self):
        assert perron_eigenvalue(M([[2, 1], [1, 1]])) == QuadraticIrrational(3, 2, 5)

    def test_reducible(self):
        with pytest.raises(ReducibleCharPoly):
            perron_eigenvalue(M([[1, 2], [2, 1]]))  # (x-3)(x+1)

    def test_not_primitive(self):
        with pytest.raises(NotPrimitive):
            perron_eigenvalue(M([[0, 1], [1, 0]]))
        with pytest.raises(NotPrimitive):
            perron_eigenvalue(M([[1, -1], [1, 0]]))
        with pytest.raises(NotPrimitive):
            perron_eigenvalue(M([[2, 0], [0, 3]]))

    def test_primitive_iff_square_positive(self):
        # a nonnegative 2x2 matrix is primitive exactly when its square is positive
        for a, b, c, d in product(range(-2, 7), repeat=4):
            m = ((a, b), (c, d))
            square_positive = min(v for row in mat_mul2(m, m) for v in row) > 0
            assert _is_primitive_2x2(m) == (min(a, b, c, d) >= 0 and square_positive), m

    def test_exceeds_conjugate_and_satisfies_poly(self):
        rng = random.Random(9)
        for _ in range(100):
            a, b, c, d = (rng.randint(0, 6) for _ in range(4))
            mat = M([[a, b], [c, d]])
            try:
                eig = perron_eigenvalue(mat)
            except (NotPrimitive, ReducibleCharPoly):
                continue
            _, t, det = char_poly(mat)
            assert eig.satisfies(1, t, det)
            conj = eig.conjugate()
            # eig - conj = sqrt(disc) > 0
            assert eig.q > 0 and conj.q < 0


class TestSimilarityClasses:
    @pytest.mark.parametrize(
        "poly,bound,expected",
        [
            ((1, -1, -1), 10, 1),
            ((1, -6, -1), 12, 2),
            ((1, -3, 1), 10, 1),
            ((1, 1, 6), 12, 3),   # discriminant -23
            ((1, 0, 5), 12, 2),   # discriminant -20
        ],
    )
    def test_counts(self, poly, bound, expected):
        result = similarity_class_count_bruteforce(poly, bound)
        assert result.count == expected
        disc = poly[1] ** 2 - 4 * poly[2]
        assert result.count == class_number(disc, "wide")
        assert len(result.representatives) == expected
        for rep in result.representatives:
            assert char_poly(rep) == poly

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleCharPoly):
            similarity_class_count_bruteforce((1, -2, -3), 5)  # (x-3)(x+1)
        with pytest.raises(ReducibleCharPoly):
            similarity_class_count_bruteforce((1, -2, 1), 5)

    def test_degree_above_3_rejected(self):
        # x^4 - 2 is irreducible; only 2x2 matrices are classified
        with pytest.raises(ValueError, match="monic quadratic"):
            similarity_class_count_bruteforce((1, 0, 0, 0, -2), 1)

    def test_cubic_rejected(self):
        with pytest.raises(ValueError, match="monic quadratic"):
            similarity_class_count_bruteforce((1, -3, 2, 5), 2)

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError, match="entry_bound must be positive"):
            similarity_class_count_bruteforce((1, -3, 1), 0)

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmall):
            similarity_class_count_bruteforce((1, -6, -1), 1)

    def test_enumeration_is_complete_for_small_bound(self):
        # every matrix in the list has the right char poly; companion present
        mats = _matrices_with_charpoly((1, -1, -1), 3)
        assert ((0, 1), (1, 1)) in mats or ((1, 1), (1, 0)) in mats
        for m in mats:
            assert char_poly(IntegerMatrix(m)) == (1, -1, -1)

    def test_conjugation_stability(self):
        # conjugating a representative by random GL(2,Z) words lands in its class
        rng = random.Random(13)
        result = similarity_class_count_bruteforce((1, -6, -1), 12)
        for idx, rep in enumerate(result.representatives):
            for _ in range(20):
                w = random_gl2_word(rng, rng.randint(1, 5))
                conj = mat_mul2(mat_mul2(w, rep.entries), mat_inv2(w))
                assert classify(IntegerMatrix(conj), result) == idx

    def test_classify_rejects_wrong_poly(self):
        result = similarity_class_count_bruteforce((1, -1, -1), 6)
        with pytest.raises(ValueError):
            classify(M([[2, 1], [1, 1]]), result)

    def test_monotone_in_bound(self):
        # growing the bound must not change the verdict for these polynomials
        for poly in [(1, -1, -1), (1, -6, -1)]:
            small = similarity_class_count_bruteforce(poly, 8)
            large = similarity_class_count_bruteforce(poly, 14)
            assert small.count == large.count

    @pytest.mark.parametrize(
        "poly,bound",
        [
            ((1, -1, -1), 10),
            ((1, -6, -1), 12),
            ((1, -3, 1), 10),
            ((1, 1, 6), 12),
            ((1, 0, 5), 12),
            ((1, -1, -3), 12),
            ((1, -8, 1), 12),
        ],
    )
    def test_key_matches_bfs_oracle(self, poly, bound):
        result = similarity_class_count_bruteforce(poly, bound)
        got = [[m.entries for m in cls] for cls in result.classes]
        assert got == similarity_classes_bfs(poly, bound)

    def test_key_matches_bfs_oracle_sweep(self):
        # every irreducible x^2 - t x + n with |t| <= 4, |n| <= 8 at bound 6
        checked = 0
        for t in range(-4, 5):
            for n in range(-8, 9):
                poly = (1, -t, n)
                try:
                    result = similarity_class_count_bruteforce(poly, 6)
                except (ReducibleCharPoly, BoundTooSmall):
                    continue
                got = [[m.entries for m in cls] for cls in result.classes]
                assert got == similarity_classes_bfs(poly, 6), poly
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("poly", [(1, -6, -1), (1, 1, 6), (1, 0, 5), (1, -8, 1)])
    def test_classify_long_words(self, poly):
        # conjugates by words of length 20-40 have entries far beyond any
        # search radius; the class key still places them exactly
        rng = random.Random(sum(poly) + 29)
        result = similarity_class_count_bruteforce(poly, 12)
        for idx, rep in enumerate(result.representatives):
            for _ in range(10):
                w = random_gl2_word(rng, rng.randint(20, 40))
                conj = mat_mul2(mat_mul2(w, rep.entries), mat_inv2(w))
                assert classify(IntegerMatrix(conj), result) == idx

    def test_classify_class_outside_bound(self):
        # at bound 3 only the class of (2, 2, 3) fits; x^2 + 5's companion
        # matrix belongs to the principal class, which needs entry 5
        small = similarity_class_count_bruteforce((1, 0, 5), 3)
        assert small.count == 1
        companion = M([[0, -5], [1, 0]])
        with pytest.raises(ValueError, match="no member"):
            classify(companion, small)
        large = similarity_class_count_bruteforce((1, 0, 5), 12)
        home = next(i for i, cls in enumerate(large.classes) if companion in cls)
        assert classify(companion, large) == home


class TestIdealClasses:
    def test_examples(self):
        assert ideal_classes_for_matrix(M([[1, 1], [1, 0]])).h == 1
        assert ideal_classes_for_matrix(M([[2, 1], [1, 1]])).h == 1
        # char poly x^2 - 6x - 1, discriminant 40
        assert ideal_classes_for_matrix(M([[6, 1], [1, 0]])).h == 2

    def test_propagates(self):
        with pytest.raises(ReducibleCharPoly):
            ideal_classes_for_matrix(M([[1, 2], [2, 1]]))


class TestSha:
    def test_substitution_examples(self):
        trivial = sha_group(ClassGroupStructure(()))
        assert trivial.sha_order == 1 and trivial.sha_divisors == ()
        z2 = sha_group(ClassGroupStructure((2,)))
        assert z2.k == 1 and z2.sha_divisors == (2,) and z2.sha_order == 2
        z3 = sha_group(ClassGroupStructure((3,)))
        assert z3.k == 0 and z3.sha_divisors == (3, 3) and z3.sha_order == 9

    def test_even_odd_shapes(self):
        # k = 2 even: whole group doubles
        g = ClassGroupStructure((4,))
        rep = sha_group(g)
        assert rep.k == 2 and rep.sha_divisors == (4, 4) and rep.sha_order == 16
        # k = 3 odd: Z/8 + odd + odd
        g = ClassGroupStructure((24,))
        rep = sha_group(g)
        assert rep.k == 3
        assert rep.sha_order == 8 * 9
        assert rep.sha_divisors == (3, 24)

    def test_non_cyclic_two_part(self):
        with pytest.raises(NonCyclicTwoPart):
            sha_group(ClassGroupStructure((2, 2)))

    def test_report_order_checked(self):
        with pytest.raises(ValueError, match="sha_order must be the product of sha_divisors"):
            ShaReport(1, ClassGroupStructure((2,)), (2,), 3)

    def test_square_invariants(self):
        from rmarith import two_part_decomposition

        def chains(max_h):
            # every invariant-factor chain d1 | d2 | ... with product <= max_h
            out = [()]

            def extend(chain, product):
                for d in range(2, max_h + 1):
                    if product * d > max_h:
                        break
                    if chain and d % chain[-1]:
                        continue
                    out.append(chain + (d,))
                    extend(chain + (d,), product * d)

            extend((), 1)
            return out

        for divs in chains(50):
            g = ClassGroupStructure(divs)
            try:
                k, _ = two_part_decomposition(g)
            except NonCyclicTwoPart:
                continue
            rep = sha_group(g)
            if k % 2 == 0:
                root = int(round(rep.sha_order**0.5))
                assert root * root == rep.sha_order
            else:
                reduced = rep.sha_order // (2**k)
                root = int(round(reduced**0.5))
                assert 2**k * root * root == rep.sha_order

    def test_end_to_end_matrix(self):
        rep = sha_for_curve_matrix(M([[1, 1], [1, 0]]))
        assert rep.sha_order == 1
        rep = sha_for_curve_matrix(M([[6, 1], [1, 0]]))  # x^2-6x-1, Cl = Z/2
        assert rep.k == 1 and rep.sha_order == 2

    def test_odd_h_gives_square(self):
        for mat in ([[1, 1], [1, 0]], [[3, 1], [1, 1]]):
            rep = sha_for_curve_matrix(M(mat))
            if rep.cl.h % 2:
                root = int(round(rep.sha_order**0.5))
                assert root * root == rep.sha_order
