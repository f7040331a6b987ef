import random
from fractions import Fraction

import pytest

from rmarith import (
    GrowthRegime,
    OutOfDomain,
    ProjectivePoint,
    QuadraticIrrational,
    VarietyProfile,
    classical_count,
    finiteness_check,
    growth_regime,
    inverse_minkowski_q,
    minkowski_q,
    projective_height,
    quantum_count,
    quantum_height,
)
from rmarith.contfrac import cf_expand, convergents
from rmarith.heights import loglog_slope
from rmarith.intmath import is_square

from oracles import (
    inverse_minkowski_stern_brocot,
    minkowski_stern_brocot,
    projective_points,
    quantum_theta_points,
)


class TestMinkowski:
    def test_endpoints(self):
        assert minkowski_q(0) == 0
        assert minkowski_q(1) == 1
        assert minkowski_q(Fraction(1, 2)) == Fraction(1, 2)

    def test_one_third(self):
        assert minkowski_q(Fraction(1, 3)) == Fraction(1, 4)

    def test_golden(self):
        assert minkowski_q(QuadraticIrrational(-1, 2, 5)) == Fraction(2, 3)

    def test_sqrt2_minus_1(self):
        assert minkowski_q(QuadraticIrrational(-1, 1, 2)) == Fraction(2, 5)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            minkowski_q(Fraction(3, 2))
        with pytest.raises(OutOfDomain):
            minkowski_q(Fraction(-1, 2))
        with pytest.raises(OutOfDomain):
            minkowski_q(QuadraticIrrational.sqrt(2))

    def test_matches_stern_brocot_oracle(self):
        for q in range(1, 80):
            for p in range(0, q + 1):
                x = Fraction(p, q)
                assert minkowski_q(x) == minkowski_stern_brocot(x), x

    def test_symmetry_and_doubling_identities(self):
        for q in range(2, 101):
            for p in range(1, q):
                x = Fraction(p, q)
                qm = minkowski_q(x)
                assert minkowski_q(1 - x) == 1 - qm
                assert minkowski_q(x / (1 + x)) == qm / 2

    def test_strictly_increasing(self):
        grid = sorted(
            {Fraction(p, q) for q in range(1, 60) for p in range(0, q + 1)}
        )
        values = [minkowski_q(x) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rational_gives_dyadic(self):
        for q in range(1, 60):
            for p in range(0, q + 1):
                den = minkowski_q(Fraction(p, q)).denominator
                assert den & (den - 1) == 0, (p, q)

    def test_quadratic_gives_rational(self):
        rng = random.Random(71)
        done = 0
        while done < 100:
            d = rng.randint(2, 400)
            if is_square(d):
                continue
            p = rng.randint(-20, 20)
            q = rng.randint(1, 20)
            x = QuadraticIrrational(p, q, d)
            shifted = x.shift(-x.floor())
            value = minkowski_q(shifted)
            assert isinstance(value, Fraction)
            assert 0 < value < 1
            done += 1

    def test_inverse_roundtrip(self):
        for m in range(1, 11):
            for a in range(0, 2**m + 1):
                y = Fraction(a, 2**m)
                x = inverse_minkowski_q(y)
                assert minkowski_q(x) == y

    def test_inverse_matches_stern_brocot_oracle_small(self):
        for m in range(0, 11):
            for a in range(0, 2**m + 1):
                y = Fraction(a, 2**m)
                assert inverse_minkowski_q(y) == inverse_minkowski_stern_brocot(y), y

    def test_inverse_matches_stern_brocot_oracle_long(self):
        rng = random.Random(2412)
        for _ in range(12):
            m = rng.randint(11, 2000)
            y = Fraction(rng.randrange(1, 2**m, 2), 2**m)
            assert inverse_minkowski_q(y) == inverse_minkowski_stern_brocot(y), y

    def test_quadratic_between_convergent_oracles(self):
        # ? is strictly increasing and consecutive convergents bracket x
        rng = random.Random(9148)
        done = 0
        while done < 60:
            d = rng.randint(2, 2000)
            if is_square(d):
                continue
            x = QuadraticIrrational(rng.randint(-50, 50), rng.randint(1, 50), d)
            x = x.shift(-x.floor())
            value = minkowski_q(x)
            convs = convergents(cf_expand(x), 10)
            bounds = [minkowski_stern_brocot(c) for c in convs[1:]]
            for lo_hi in zip(bounds, bounds[1:]):
                assert min(lo_hi) < value < max(lo_hi), (x, lo_hi)
            done += 1

    def test_inverse_rejects_non_dyadic(self):
        with pytest.raises(OutOfDomain, match="not dyadic"):
            inverse_minkowski_q(Fraction(1, 3))
        with pytest.raises(OutOfDomain, match=r"not in \[0, 1\]"):
            inverse_minkowski_q(Fraction(3, 2))


class TestProjective:
    def test_height_examples(self):
        assert projective_height(ProjectivePoint((6, 3, 2))) == 6
        assert projective_height(ProjectivePoint((2, 4))) == 2  # canonical (1, 2)
        assert projective_height(ProjectivePoint((1, 0, 0))) == 1

    def test_canonicalization(self):
        assert ProjectivePoint((2, 4)).coordinates == (1, 2)
        assert ProjectivePoint((-6, -3, -2)).coordinates == (6, 3, 2)
        assert ProjectivePoint((0, -5, 10)).coordinates == (0, 1, -2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ProjectivePoint((0, 0))

    def test_enumerator_count_t1(self):
        points = list(projective_points(1, 1))
        assert len(points) == 4
        assert set(p.coordinates for p in points) == {
            (1, -1),
            (1, 0),
            (1, 1),
            (0, 1),
        }

    def test_enumerator_monotone_and_unique(self):
        previous = 0
        for t in range(1, 12):
            points = list(projective_points(1, t))
            assert len(set(points)) == len(points)
            assert all(projective_height(p) <= t for p in points)
            assert len(points) >= previous
            previous = len(points)

    def test_enumerator_matches_height_filter(self):
        # everything of height <= t must be found: crosscheck via t+2 scan
        big = {p for p in projective_points(1, 8)}
        small = {p for p in projective_points(1, 5)}
        refiltered = {p for p in big if projective_height(p) <= 5}
        assert small == refiltered


class TestQuantumHeight:
    def test_examples(self):
        assert quantum_height([0]) == 1
        assert quantum_height([QuadraticIrrational(-1, 2, 5)]) == 3
        assert quantum_height([Fraction(1, 3)]) == 4

    def test_mod_one_reduction(self):
        assert quantum_height([Fraction(4, 3)]) == quantum_height([Fraction(1, 3)])
        golden = QuadraticIrrational(1, 2, 5)  # > 1: reduced mod 1
        golden_frac = QuadraticIrrational(-1, 2, 5)
        assert quantum_height([golden]) == quantum_height([golden_frac])

    def test_height_at_least_one(self):
        rng = random.Random(77)
        for _ in range(50):
            thetas = [Fraction(rng.randint(0, 30), rng.randint(1, 30)) for _ in range(3)]
            assert quantum_height(thetas) >= 1

    def test_same_expansion_same_height(self):
        # equal values (hence equal expansions) in different encodings
        a = QuadraticIrrational(1, 2, 8)
        b = QuadraticIrrational(2, 4, 32)
        assert quantum_height([a]) == quantum_height([b])


class TestCounting:
    def test_counts_generator(self):
        assert classical_count(1, 1) == 4

    def test_quantum_counts_are_exact_powers(self):
        for t in (16, 64, 256):
            assert quantum_count(1, t) == t
        assert quantum_count(2, 16) == 256

    def test_quantum_points_heights_bounded(self):
        for theta in quantum_theta_points(1, 32):
            assert quantum_height(theta) <= 32

    def test_slope_of_quantum_counts(self):
        rows = [(t, quantum_count(1, t)) for t in (16, 32, 64, 128, 256)]
        assert abs(loglog_slope(rows) - 1.0) < 1e-9

    def test_closed_forms_match_enumerators(self):
        for n, t_end in ((1, 40), (2, 12), (3, 5)):
            for t in range(1, t_end):
                assert classical_count(n, t) == sum(1 for _ in projective_points(n, t)), (n, t)
        for n, t_end in ((1, 300), (2, 40)):
            for t in range(1, t_end):
                assert quantum_count(n, t) == sum(1 for _ in quantum_theta_points(n, t)), (n, t)

    @pytest.mark.parametrize("count", [classical_count, quantum_count])
    def test_closed_forms_reject_bad_input(self, count):
        for n, t in ((0, 4), (-1, 4), (1, 0), (2, -3)):
            with pytest.raises(ValueError, match="need n >= 1 and t >= 1"):
                count(n, t)


class TestRegime:
    def test_branch_examples(self):
        assert growth_regime(VarietyProfile(1, (1, 2, 1), 2, m=1)) is GrowthRegime.POLYNOMIAL_DEGREE_N
        assert growth_regime(VarietyProfile(1, (1, 0, 1), 1)) is GrowthRegime.EXPONENTIAL_IN_TN
        assert growth_regime(VarietyProfile(2, (1, 0, 0, 0, 1), 7)) is GrowthRegime.BOUNDED

    def test_depends_only_on_rank_vs_dimension(self):
        for n in (1, 2, 3):
            for rank in range(0, 8):
                betti_a = tuple(1 for _ in range(2 * n + 1))
                betti_b = tuple(5 for _ in range(2 * n + 1))
                a = growth_regime(VarietyProfile(n, betti_a, rank))
                b = growth_regime(VarietyProfile(n, betti_b, rank))
                assert a is b
                expected = (
                    GrowthRegime.EXPONENTIAL_IN_TN
                    if rank < n + 1
                    else GrowthRegime.POLYNOMIAL_DEGREE_N
                    if rank == n + 1
                    else GrowthRegime.BOUNDED
                )
                assert a is expected

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            VarietyProfile(1, (1, 2), 2)  # wrong betti length
        with pytest.raises(ValueError):
            VarietyProfile(1, (1, 2, 1), 3, m=1)  # rank != 2m
        with pytest.raises(ValueError):
            VarietyProfile(1, (1, -1, 1), 2)
        with pytest.raises(ValueError, match="dimension must be nonnegative"):
            VarietyProfile(-1, (), 0)
        with pytest.raises(ValueError, match="rank_k0 must be nonnegative"):
            VarietyProfile(1, (1, 2, 1), -1)


class TestFiniteness:
    def test_examples(self):
        assert finiteness_check(VarietyProfile(1, (1, 4, 1), 2)) is True
        assert finiteness_check(VarietyProfile(1, (1, 2, 1), 2)) is False
        assert finiteness_check(VarietyProfile(1, (1, 0, 1), 2)) is False

    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for beta in range(0, 11):
                betti = [1] + [0] * (2 * n)
                betti[1] = beta
                profile = VarietyProfile(n, tuple(betti), n + 1)
                assert finiteness_check(profile) is (beta > n + 1)
