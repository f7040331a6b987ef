import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rmarith import (
    BratteliBlockSequence,
    ContinuedFraction,
    CountExceedsFiniteExpansion,
    InvalidDiscriminant,
    NotEventuallyPeriodic,
    QuadraticIrrational,
    bratteli_blocks,
    cf_expand,
    convergents,
    evaluate,
    fundamental_unit,
    is_rm,
    tail_equivalent,
    unit_norm,
)
from rmarith import contfrac
from rmarith.intmath import is_square
from rmarith.quadforms import split_discriminant

from oracles import (
    expand_by_state_repetition,
    pell_smallest,
    unit_by_full_period,
    word_matrix_fold,
)

PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def random_quadratic_irrational(rng, pmax=50, qmax=50, dmax=1000):
    while True:
        d = rng.randint(2, dmax)
        if is_square(d):
            continue
        p = rng.randint(-pmax, pmax)
        q = rng.randint(-qmax, qmax)
        if q == 0:
            continue
        return QuadraticIrrational(p, q, d)


def valid_real_discriminants(lo, hi):
    return [d for d in range(lo, hi) if d % 4 in (0, 1) and not is_square(d)]


class TestQuadraticIrrational:
    def test_canonicalization_divides(self):
        x = QuadraticIrrational(1, 3, 5)  # 3 does not divide 5 - 1
        assert (x.d - x.p * x.p) % x.q == 0
        assert x == QuadraticIrrational(3, 9, 45)

    def test_equality_across_square_factors(self):
        assert QuadraticIrrational(0, 1, 8) == QuadraticIrrational(0, 1, 8)
        assert QuadraticIrrational(1, 2, 8) == QuadraticIrrational(2, 4, 32)
        assert QuadraticIrrational(0, 1, 2) != QuadraticIrrational(0, 1, 3)

    def test_floor_and_compare(self):
        rng = random.Random(3)
        for _ in range(300):
            x = random_quadratic_irrational(rng)
            fl = x.floor()
            assert x.compare(fl) > 0 and x.compare(fl + 1) < 0
            approx = float(x)
            assert abs(approx - fl) < 1 + 1e-6

    def test_conjugate_and_minpoly(self):
        x = QuadraticIrrational(3, 2, 7)
        assert x.min_poly() == (2, -6, 1)
        assert x.satisfies(2, -6, 1)
        assert x.conjugate().satisfies(2, -6, 1)

    def test_rejects_square_or_zero(self):
        with pytest.raises(ValueError):
            QuadraticIrrational(1, 2, 9)
        with pytest.raises(ValueError):
            QuadraticIrrational(1, 0, 5)
        with pytest.raises(ValueError, match="singular"):
            QuadraticIrrational.sqrt(2).mobius(1, 2, 2, 4)


class TestExpand:
    def test_rational_examples(self):
        cf = cf_expand(Fraction(7, 3))
        assert cf.preperiod == (2, 3) and cf.period == ()
        assert cf_expand(Fraction(1, 2)).preperiod == (0, 2)
        assert cf_expand(5).preperiod == (5,)

    def test_sqrt2(self):
        cf = cf_expand(QuadraticIrrational.sqrt(2))
        assert cf.preperiod == (1,) and cf.period == (2,)

    def test_golden_ratio_purely_periodic(self):
        cf = cf_expand(QuadraticIrrational(1, 2, 5))
        assert cf.preperiod == () and cf.period == (1,)

    def test_example_3_sqrt7_over_2(self):
        cf = cf_expand(QuadraticIrrational(3, 2, 7))
        assert sorted(cf.period) == [1, 1, 1, 4]
        doubled = (1, 1, 1, 4) * 2
        assert any(
            doubled[i : i + 4] == cf.period for i in range(4)
        ), "period must be a rotation of [1,1,1,4]"

    def test_lagrange_periodicity_random(self):
        rng = random.Random(17)
        for _ in range(200):
            x = random_quadratic_irrational(rng)
            cf = cf_expand(x)
            assert cf.period, x

    def test_reevaluation_recovers_value(self):
        rng = random.Random(23)
        for _ in range(200):
            x = random_quadratic_irrational(rng)
            cf = cf_expand(x)
            value = evaluate(cf)
            assert isinstance(value, QuadraticIrrational)
            assert value == x, (x, cf)
            a, b, c = x.min_poly()
            assert value.satisfies(a, b, c)

    def test_period_matches_state_repetition_oracle(self):
        rng = random.Random(37)
        for _ in range(500):
            x = random_quadratic_irrational(rng, 200, 200, 5000)
            terms, start = expand_by_state_repetition(x.p, x.q, x.d)
            assert contfrac._expand_states(x)[:2] == (terms, start), x
            assert cf_expand(x) == ContinuedFraction(tuple(terms[:start]), tuple(terms[start:])), x

    def test_period_matches_state_repetition_oracle_at_large_d(self):
        # surds from random words, so that d runs to thousands of bits and a
        # wrong step of the division-free recurrence cannot hide in small numbers
        rng = random.Random(61)
        checked = 0
        while checked < 30:
            period = tuple(rng.randint(1, 3) for _ in range(rng.randint(200, 800)))
            pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 40)))
            x = evaluate(ContinuedFraction((rng.randint(-5, 5),) + pre, period))
            if x.d.bit_length() < 1000:
                continue
            terms, start = expand_by_state_repetition(x.p, x.q, x.d)
            assert contfrac._expand_states(x)[:2] == (terms, start), x
            assert cf_expand(x) == ContinuedFraction(tuple(terms[:start]), tuple(terms[start:]))
            checked += 1

    def test_galois_purely_periodic_iff_reduced(self):
        rng = random.Random(29)
        seen_reduced = seen_not = 0
        for _ in range(400):
            x = random_quadratic_irrational(rng, 30, 30, 500)
            cf = cf_expand(x)
            if x.is_reduced:
                seen_reduced += 1
                assert cf.preperiod == (), x
            else:
                seen_not += 1
                assert cf.preperiod != (), x
        assert seen_reduced > 5 and seen_not > 5

    def test_rational_evaluate_roundtrip(self):
        rng = random.Random(31)
        for _ in range(200):
            x = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
            cf = cf_expand(x)
            assert cf.period == ()
            if len(cf.preperiod) > 1:
                assert cf.preperiod[-1] >= 2
            assert evaluate(cf) == x


def lowest_terms(fractions):
    """Each fraction as its normalised (numerator, denominator) pair."""
    return [(x.numerator, x.denominator) for x in fractions]


class TestConvergents:
    def test_periodic_examples(self):
        cf = ContinuedFraction((1,), (2,))
        assert convergents(cf, 3) == lowest_terms([Fraction(1), Fraction(3, 2), Fraction(7, 5)])
        cf = ContinuedFraction((0,), (1,))
        assert convergents(cf, 4) == lowest_terms([
            Fraction(0),
            Fraction(1),
            Fraction(1, 2),
            Fraction(2, 3),
        ])

    def test_finite_exact(self):
        cf = cf_expand(Fraction(7, 3))
        assert convergents(cf, 2) == lowest_terms([Fraction(2), Fraction(7, 3)])
        with pytest.raises(CountExceedsFiniteExpansion):
            convergents(cf, 3)
        with pytest.raises(ValueError, match="count must be positive"):
            convergents(cf, 0)

    def test_determinant_identity(self):
        rng = random.Random(37)
        for _ in range(100):
            x = random_quadratic_irrational(rng)
            cs = convergents(cf_expand(x), 12)
            assert cs == lowest_terms(Fraction(p, q) for p, q in cs)
            for k in range(1, 12):
                p1, q1 = cs[k]
                p0, q0 = cs[k - 1]
                assert p1 * q0 - p0 * q1 == (-1) ** (k - 1)


class TestIsRm:
    def test_quadratic_irrational(self):
        flag, cf = is_rm(QuadraticIrrational.sqrt(2))
        assert flag and cf.period == (2,)

    def test_rational(self):
        flag, cf = is_rm(Fraction(7, 3))
        assert not flag and cf.preperiod == (2, 3)

    def test_witness_example(self):
        flag, cf = is_rm(QuadraticIrrational(3, 2, 7))
        assert flag and len(cf.period) == 4


class TestBratteli:
    def test_sqrt2_blocks(self):
        seq = bratteli_blocks(cf_expand(QuadraticIrrational.sqrt(2)), 3)
        assert seq.blocks == (
            ((1, 1), (1, 0)),
            ((2, 1), (1, 0)),
            ((2, 1), (1, 0)),
        )
        assert seq.periodic_tail_start == 1

    def test_golden_blocks(self):
        seq = bratteli_blocks(cf_expand(QuadraticIrrational(1, 2, 5)), 2)
        assert seq.blocks == (((1, 1), (1, 0)),) * 2
        assert seq.periodic_tail_start == 0

    def test_determinants(self):
        rng = random.Random(41)
        for _ in range(50):
            x = random_quadratic_irrational(rng)
            seq = bratteli_blocks(cf_expand(x), 6)
            for (a, b), (c, e) in seq.blocks:
                assert a * e - b * c == -1

    def test_rational_rejected(self):
        with pytest.raises(NotEventuallyPeriodic):
            bratteli_blocks(cf_expand(Fraction(7, 3)), 2)
        with pytest.raises(ValueError, match="count must be positive"):
            bratteli_blocks(cf_expand(QuadraticIrrational.sqrt(2)), 0)
        with pytest.raises(ValueError, match="has determinant"):
            BratteliBlockSequence((((1, 1), (1, 1)),), 0)


class TestTailEquivalence:
    def test_examples(self):
        sqrt2 = cf_expand(QuadraticIrrational.sqrt(2))
        shifted = cf_expand(QuadraticIrrational(1, 1, 2))  # 1 + sqrt(2)
        sqrt3 = cf_expand(QuadraticIrrational.sqrt(3))
        assert tail_equivalent(sqrt2, shifted)
        assert not tail_equivalent(sqrt2, sqrt3)
        assert tail_equivalent(sqrt2, sqrt2)

    def test_prefix_invariance(self):
        cf = cf_expand(QuadraticIrrational(5, 3, 19))
        assert cf.period and cf.preperiod and cf.preperiod[0] >= 1
        longer = ContinuedFraction((9, 4) + cf.preperiod, cf.period)
        assert tail_equivalent(cf, longer)

    def test_equivalence_relation_on_sample(self):
        rng = random.Random(43)
        sample = [cf_expand(random_quadratic_irrational(rng, 20, 20, 200)) for _ in range(25)]
        for x in sample:
            assert tail_equivalent(x, x)
        for x in sample:
            for y in sample:
                assert tail_equivalent(x, y) == tail_equivalent(y, x)
        for x in sample:
            for y in sample:
                for z in sample:
                    if tail_equivalent(x, y) and tail_equivalent(y, z):
                        assert tail_equivalent(x, z)

    def test_requires_periodicity(self):
        with pytest.raises(NotEventuallyPeriodic):
            tail_equivalent(cf_expand(Fraction(1, 2)), cf_expand(QuadraticIrrational.sqrt(2)))


class TestFundamentalUnit:
    @pytest.mark.parametrize(
        "d,expected",
        [(8, (2, 1, -1)), (12, (4, 1, 1)), (5, (1, 1, -1)), (40, (6, 1, -1))],
    )
    def test_examples(self, d, expected):
        assert tuple(fundamental_unit(d)) == expected

    def test_matches_pell_scan(self):
        checked = 0
        for d in range(5, 200):
            if d % 4 not in (0, 1) or is_square(d):
                continue
            x, y, norm = fundamental_unit(d)
            assert x * x - d * y * y == 4 * norm
            if y <= 5000:  # brute minimality check where the scan can reach
                assert (x, y, norm) == pell_smallest(d, y), d
                checked += 1
        assert checked > 50

    @PROPERTY_SETTINGS
    @given(st.sampled_from(valid_real_discriminants(5, 5000)))
    def test_minimal_by_pell_scan(self, d):
        unit = fundamental_unit(d)
        assume(unit.y <= 5000)  # where the scan can reach
        assert unit == pell_smallest(d, unit.y)

    def test_unit_norm_consistency(self):
        for d in valid_real_discriminants(5, 5000):
            assert unit_norm(d) == fundamental_unit(d).norm

    def test_matches_full_period_oracle(self):
        for d in valid_real_discriminants(5, 20000):
            assert fundamental_unit(d) == unit_by_full_period(d), d

    def test_matches_full_period_oracle_off_the_maximal_order(self):
        rng = random.Random(67)
        fields = [d for d in valid_real_discriminants(5, 3000) if split_discriminant(d)[1] == 1]
        for _ in range(200):
            d = rng.randint(2, 60) ** 2 * rng.choice(fields)
            assert fundamental_unit(d) == unit_by_full_period(d), d

    def test_half_walk_multiplies_half_the_period(self, monkeypatch):
        def period_length(d):
            return len(cf_expand(QuadraticIrrational(d % 2, 2, d)).period)

        rng = random.Random(71)
        sample = {4 * 1000000007: period_length(4 * 1000000007)}
        while len(sample) < 20:
            d = rng.randrange(10**4, 10**6)
            if d % 4 in (0, 1) and not is_square(d) and (length := period_length(d)) >= 50:
                sample[d] = length
        assert {length % 2 for length in sample.values()} == {0, 1}  # both palindrome shapes
        lengths = []

        def recording(word):
            lengths.append(len(word))
            return word_matrix_fold(word)

        monkeypatch.setattr(contfrac, "_word_matrix", recording)
        for d, period in sample.items():
            lengths.clear()
            fundamental_unit(d)
            assert sum(lengths) <= (period + 1) // 2, (d, period, lengths)

    def test_long_period_unit_matches_folded_unit(self, monkeypatch):
        d = 4 * 1000000007
        split = fundamental_unit(d)
        monkeypatch.setattr(contfrac, "_word_matrix", word_matrix_fold)
        assert split == fundamental_unit(d)
        assert split.y.bit_length() > 20000

    def test_invalid(self):
        with pytest.raises(InvalidDiscriminant):
            fundamental_unit(7)
        with pytest.raises(InvalidDiscriminant):
            fundamental_unit(16)
        with pytest.raises(InvalidDiscriminant):
            fundamental_unit(-8)


class TestWordMatrix:
    def test_matches_fold_at_the_leaf_boundary(self):
        rng = random.Random(47)
        leaf = contfrac._WORD_LEAF
        for length in (0, 1, leaf - 1, leaf, leaf + 1, 2 * leaf + 1):
            word = [rng.randint(1, 50) for _ in range(length)]
            assert contfrac._word_matrix(word) == word_matrix_fold(word), length

    def test_matches_fold_on_random_words(self):
        rng = random.Random(53)
        for _ in range(20):
            word = tuple(rng.randint(1, 1000) for _ in range(rng.randint(0, 2000)))
            assert contfrac._word_matrix(word) == word_matrix_fold(word)

    def test_evaluate_round_trips_a_long_period(self):
        x = QuadraticIrrational(5, 3, 4 * 1000000007)
        cf = cf_expand(x)
        assert len(cf.period) > 4 * contfrac._WORD_LEAF
        assert evaluate(cf) == x


class TestContinuedFractionType:
    def test_minimal_period_normalization(self):
        cf = ContinuedFraction((1,), (2, 3, 2, 3))
        assert cf.period == (2, 3)

    def test_preperiod_absorption(self):
        cf = ContinuedFraction((1, 2), (3, 2))
        assert cf.preperiod == (1,) and cf.period == (2, 3)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            ContinuedFraction((1, 0), ())
        with pytest.raises(ValueError):
            ContinuedFraction((2, 1), ())  # finite must end >= 2
        with pytest.raises(ValueError):
            ContinuedFraction((), ())

    def test_str(self):
        assert str(cf_expand(QuadraticIrrational.sqrt(2))) == "[1;(2)]"
        assert str(cf_expand(Fraction(7, 3))) == "[2,3]"
