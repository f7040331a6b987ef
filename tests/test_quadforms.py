import random
import re
from collections import Counter
from functools import cache
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from rmarith import (
    BinaryQuadraticForm,
    ClassGroupStructure,
    InvalidDiscriminant,
    NonCyclicTwoPart,
    NonPrimitiveForm,
    QuadraticOrder,
    SquareDiscriminant,
    DiscriminantMismatch,
    canonical_representative,
    class_group_structure,
    class_number,
    class_representatives,
    compose,
    enumerate_reduced_forms,
    fundamental_discriminant,
    fundamental_unit,
    reduce_form,
    split_discriminant,
    two_part_decomposition,
)
from rmarith import intmath, latimer, quadforms
from rmarith.intmath import factorization
from rmarith.quadforms import _cycle, validate_discriminant

from oracles import (
    apply_s,
    apply_t,
    apply_t_inv,
    class_map_by_raw_scan,
    composition_table,
    concordant_compose,
    enumerate_definite_oracle,
    enumerate_indefinite_oracle,
    group_structure_by_powers,
    is_reduced_definite,
    is_reduced_indefinite,
    order_multiset_for_divisors,
    order_multiset_from_table,
    sublattice_count,
    unit_index_linear,
    wide_canonical_two_walks,
    wide_class_number_by_unit_norm,
    wide_representatives_by_twist,
    word_search_reduce,
)


def order_multiset(divs):
    """Element orders of Z/d1 + Z/d2 + ...; the order of the summands does not matter."""
    return _order_multiset(tuple(sorted(divs)))


_order_multiset = cache(order_multiset_for_divisors)


def small_chains():
    """Every divisor list of length <= 3 over 1..8, with its normal form."""
    for n in range(4):
        for divs in product(range(1, 9), repeat=n):
            yield divs, ClassGroupStructure(divs).elementary_divisors


def valid_discriminants(lo, hi):
    for d in range(lo, hi):
        try:
            validate_discriminant(d)
        except InvalidDiscriminant:
            continue
        yield d


class TestReduce:
    def test_already_reduced(self):
        f = BinaryQuadraticForm(1, 0, 1)
        assert reduce_form(f) == f

    def test_definite_example_matches_word_search(self):
        # oracle: BFS over SL(2,Z) generator words
        assert word_search_reduce(3, 4, 2) == (1, 0, 2)
        assert reduce_form(BinaryQuadraticForm(3, 4, 2)) == BinaryQuadraticForm(1, 0, 2)

    def test_indefinite_example_lands_on_cycle(self):
        f = BinaryQuadraticForm(1, 2, -1)  # D = 8, already reduced
        red = reduce_form(f)
        assert is_reduced_indefinite(red.a, red.b, red.c, 8)
        assert (red.a, red.b, red.c) in _cycle(f.a, f.b, f.c, 8)

    def test_errors(self):
        with pytest.raises(NonPrimitiveForm):
            reduce_form(BinaryQuadraticForm(2, 4, 6))
        with pytest.raises(SquareDiscriminant):
            reduce_form(BinaryQuadraticForm(1, 3, 2))  # D = 1
        with pytest.raises(SquareDiscriminant):
            reduce_form(BinaryQuadraticForm(1, 2, 1))  # D = 0
        with pytest.raises(ValueError, match="negative definite"):
            reduce_form(BinaryQuadraticForm(-1, 1, -6))

    def test_random_forms_reduce_exactly(self):
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            a = rng.randint(-12, 12)
            b = rng.randint(-12, 12)
            c = rng.randint(-12, 12)
            f = BinaryQuadraticForm(a, b, c)
            d = f.discriminant
            try:
                validate_discriminant(d)
            except InvalidDiscriminant:
                continue
            if not f.is_primitive or (d < 0 and a < 0):
                continue
            red = reduce_form(f)
            assert red.discriminant == d
            if d < 0:
                assert is_reduced_definite(red.a, red.b, red.c)
                assert reduce_form(red) == red  # idempotent
            else:
                assert is_reduced_indefinite(red.a, red.b, red.c, d)
            checked += 1


class TestEnumerate:
    def test_small_definite(self):
        assert [(g.a, g.b, g.c) for g in enumerate_reduced_forms(-4)] == [(1, 0, 1)]
        forms = {(g.a, g.b, g.c) for g in enumerate_reduced_forms(-23)}
        assert forms == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}

    def test_definite_matches_oracle(self):
        for d in valid_discriminants(-3000, 0):
            assert sorted(quadforms._classes(*split_discriminant(d))) == enumerate_definite_oracle(d), d

    def test_indefinite_reduced_set_matches_oracle(self):
        for d in valid_discriminants(1, 3000):
            assert sorted(quadforms._classes(*split_discriminant(d))) == enumerate_indefinite_oracle(d), d

    def test_no_trial_division(self, monkeypatch):
        # the reduced forms and the bounded matrices come from divisor-pair
        # scans up to a square root, not from factoring; a non-fundamental D
        # is factored once, where the boundary splits it into (d_K, f), and
        # the lift to conductor f factors nothing
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(intmath, "factorization", refuse)
        monkeypatch.setattr(quadforms, "factorization", refuse)
        for d in (-3999971, -23, 5, 2042040):
            assert quadforms._classes(d)
        assert latimer._matrices_with_charpoly((1, -1, -1), 12)
        for d_k, f in ((-3, 30), (-4, 10), (5, 20), (1009 * 1013, 2), (2042040, 3)):
            assert quadforms._classes(d_k, f)

        real = factorization
        calls = []

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(intmath, "factorization", counted)
        monkeypatch.setattr(quadforms, "factorization", counted)
        for d in (-2700, -400, 2000, 4 * 1009 * 1013, 9 * 2042040):
            for call in (enumerate_reduced_forms, lambda d: class_representatives(d, "wide")):
                calls.clear()
                assert call(d)
                assert calls == [d], (d, calls)

    def test_indefinite_one_cycle_for_8(self):
        assert len(enumerate_reduced_forms(8)) == 1

    def test_indefinite_representatives_are_reduced_and_distinct_cycles(self):
        for d in valid_discriminants(5, 300):
            reps = enumerate_reduced_forms(d)
            cycles = []
            for g in reps:
                assert is_reduced_indefinite(g.a, g.b, g.c, d)
                cycles.append(frozenset(_cycle(g.a, g.b, g.c, d)))
            for i in range(len(cycles)):
                for j in range(i + 1, len(cycles)):
                    assert not (cycles[i] & cycles[j]), d

    def test_invalid(self):
        with pytest.raises(InvalidDiscriminant):
            enumerate_reduced_forms(9)
        with pytest.raises(InvalidDiscriminant):
            enumerate_reduced_forms(-6)


class TestLift:
    def test_class_map_matches_raw_scan(self):
        # the field's map for fundamental D, the lifted one otherwise: keys
        # and names, against raw scans whose cycles come from neighbour lookup
        for d in valid_discriminants(-2999, 3000):
            assert quadforms._classes(*split_discriminant(d)) == class_map_by_raw_scan(d), d

    def test_single_form_names_match_raw_scan(self):
        # the Latimer keys walk the same cycles one form at a time
        for d in valid_discriminants(5, 1000):
            names = class_map_by_raw_scan(d)
            for (a, b, c), name in names.items():
                assert quadforms._canonical(a, b, c, d) == name, (d, a, b, c)
                wide = min(name, names[-a, b, -c])
                assert quadforms._wide_canonical(a, b, c, d) == wide, (d, a, b, c)

    @pytest.mark.parametrize(
        "d_k, f",
        [(-3, 30), (-4, 60), (-84, 25), (-2423, 9), (5, 12), (12, 35), (1009 * 1013, 2),
         (8, 105), (-2423, 2187), (5, 20011)],
    )
    def test_one_field_scan_and_sigma_f_sublattices(self, d_k, f, kernel_work):
        # one scan, of d_K and none of D; at most h_K * sigma(f) sublattice forms reduced
        h_k, narrow = class_number(d_k, "wide"), class_number(d_k * f * f, "narrow")
        kernel_work.scans.clear()
        kernel_work.reduced = 0
        names = quadforms._classes(d_k, f)
        assert kernel_work.scans == Counter({d_k: 1})
        assert 0 < kernel_work.reduced <= h_k * sublattice_count(f)
        assert len(set(names.values())) == narrow

    @pytest.mark.parametrize("d_k, f", [(5, 1), (60, 1), (5, 12), (12, 35)])
    def test_walked_forms_checked(self, d_k, f, monkeypatch):
        # a cycle that leaves the reduced forms: the field's map misses it by
        # count, the lift by testing each walked form
        field = quadforms._classes(d_k)
        real_cycle = quadforms._cycle
        d = d_k * f * f
        stray = (1, -(d % 4), (d % 4 - d) // 4)  # b <= 0: not reduced
        monkeypatch.setattr(quadforms, "_cycle", lambda a, b, c, d: [*real_cycle(a, b, c, d), stray])
        with pytest.raises(AssertionError, match="left the reduced forms" if f == 1 else "not reduced"):
            quadforms._classes(d_k) if f == 1 else quadforms._lift(field, d_k, f)


class TestClassNumber:
    @pytest.mark.parametrize(
        "d,flavor,value",
        [
            (-23, "wide", 3),
            (8, "wide", 1),
            (40, "wide", 2),
            (-4, "wide", 1),
            (-56, "narrow", 4),
            (5, "wide", 1),
            (60, "wide", 2),  # fundamental unit has norm +1: narrow is 4
        ],
    )
    def test_spot_values(self, d, flavor, value):
        assert class_number(d, flavor) == value

    def test_narrow_equals_enumeration_dual_route(self):
        # for f > 1 the conductor formula must agree with the form
        # enumeration, for both signs; for f = 1 both sides are the same
        # enumeration, which the oracle tests of TestEnumerate check
        for d in valid_discriminants(-800, 0):
            assert class_number(d, "narrow") == len(enumerate_reduced_forms(d)), d
        for d in valid_discriminants(5, 800):
            assert class_number(d, "narrow") == len(enumerate_reduced_forms(d)), d

    def test_wide_vs_narrow_definite_agree(self):
        for d in valid_discriminants(-300, 0):
            assert class_number(d, "narrow") == class_number(d, "wide")

    def test_unit_index_matches_linear_loop(self):
        for d_k in valid_discriminants(5, 300):
            if split_discriminant(d_k)[1] != 1:
                continue
            unit = fundamental_unit(d_k)
            for f in range(1, 81):
                # the index for f is the lcm of the indices for p^e exactly dividing f
                parts = [quadforms._prime_power_unit_index(d_k, unit, p, e)
                         for p, e in factorization(f)]
                index = lcm(1, *parts)
                assert index == unit_index_linear(d_k, f), (d_k, f)

    def test_conductor_factored_once(self, monkeypatch):
        real_factorization = quadforms.factorization
        calls = Counter()

        def counting_factorization(n):
            calls[n] += 1
            return real_factorization(n)

        monkeypatch.setattr(quadforms, "factorization", counting_factorization)
        for d_k, f in [(5, 12), (8, 9), (13, 10), (21, 6), (24, 35), (5, 64)]:
            calls.clear()
            class_number(d_k * f * f, "narrow")
            assert calls == Counter({f: 1}), (d_k, f)

    def test_flavor_validation(self):
        with pytest.raises(ValueError):
            class_number(-23, "broad")
        with pytest.raises(ValueError, match="flavor must be 'narrow' or 'wide', got 'both'"):
            class_representatives(-23, "both")

    def test_invalid_discriminant(self):
        with pytest.raises(InvalidDiscriminant):
            class_number(9, "wide")


class TestCompose:
    def test_identity_law(self):
        f = BinaryQuadraticForm(2, 1, 3)
        principal = BinaryQuadraticForm.principal(-23)
        assert compose(principal, f) == f

    def test_square_and_inverse(self):
        f = BinaryQuadraticForm(2, 1, 3)
        assert compose(f, f) == BinaryQuadraticForm(2, -1, 3)
        inv = BinaryQuadraticForm(2, -1, 3)
        assert compose(f, inv) == BinaryQuadraticForm(1, 1, 6)

    def test_mismatch(self):
        with pytest.raises(DiscriminantMismatch):
            compose(BinaryQuadraticForm(1, 0, 1), BinaryQuadraticForm(1, 1, 6))

    @pytest.mark.parametrize("d", [-23, -56, -104, -47, 40, 60, 305, 316])
    def test_matches_concordant_oracle(self, d):
        reps = enumerate_reduced_forms(d)
        for f1 in reps:
            for f2 in reps:
                got = compose(f1, f2)
                raw = concordant_compose(
                    (f1.a, f1.b, f1.c), (f2.a, f2.b, f2.c)
                )
                expected = canonical_representative(BinaryQuadraticForm(*raw))
                assert got == expected, (d, str(f1), str(f2))

    def test_group_axioms_sample(self):
        for d in list(valid_discriminants(-230, -180)) + list(valid_discriminants(200, 260)):
            reps, table = composition_table(d)
            h = len(reps)
            principal = canonical_representative(BinaryQuadraticForm.principal(d))
            e = reps.index(principal)
            for i in range(h):
                assert table[e][i] == i and table[i][e] == i
                inv = canonical_representative(reps[i].inverse())
                assert table[i][reps.index(inv)] == e
            for i in range(h):
                for j in range(h):
                    assert table[i][j] == table[j][i]
                    for k in range(h):
                        assert table[table[i][j]][k] == table[i][table[j][k]]


# Valid discriminants with |D| <= 5000, either sign.
SMALL_DISCRIMINANTS = st.one_of(
    st.sampled_from(list(valid_discriminants(-5000, 0))),
    st.sampled_from(list(valid_discriminants(5, 5001))),
)
PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def forms_of_one_discriminant(draw, count):
    """count primitive forms of one discriminant, each a short SL(2,Z) image
    of a reduced representative, so most are not reduced."""
    reps = enumerate_reduced_forms(draw(SMALL_DISCRIMINANTS))
    forms = []
    for _ in range(count):
        g = draw(st.sampled_from(reps))
        form = (g.a, g.b, g.c)
        for step in draw(st.lists(st.sampled_from((apply_s, apply_t, apply_t_inv)), max_size=6)):
            form = step(*form)
        forms.append(BinaryQuadraticForm(*form))
    return forms


class TestComposeProperties:
    @PROPERTY_SETTINGS
    @given(forms_of_one_discriminant(2))
    def test_matches_concordant_oracle_on_unreduced_forms(self, forms):
        f1, f2 = forms
        raw = concordant_compose((f1.a, f1.b, f1.c), (f2.a, f2.b, f2.c))
        assert compose(f1, f2) == canonical_representative(BinaryQuadraticForm(*raw))

    @PROPERTY_SETTINGS
    @given(forms_of_one_discriminant(3))
    def test_associative(self, forms):
        f, g, k = forms
        assert compose(compose(f, g), k) == compose(f, compose(g, k))


class TestStructure:
    @pytest.mark.parametrize(
        "d,divisors",
        [
            (-4, ()),
            (-23, (3,)),
            (-56, (4,)),
            (-84, (2, 2)),
            (-3299, (3, 9)),
            (-71999, (257,)),
            (2042040, (2, 2, 2, 2, 2, 6)),
        ],
    )
    def test_known_structures(self, d, divisors):
        got = class_group_structure(d)
        assert got.elementary_divisors == divisors
        assert got.h == prod(divisors) if divisors else got.h == 1

    @pytest.mark.parametrize("d", [-71999, 2042040, -3999971, -3999999])
    def test_compositions_bounded_by_sylow_orders(self, d, monkeypatch):
        # at most 2 * (sum over p^e || h of p^e ceil(log2 2p), plus r ceil(log2 h)),
        # r counting the _power calls to an exponent h/p^e: the projected
        # classes, and any order check to a prime power equal to one of those
        names = quadforms._classes(*split_discriminant(d))
        h = len(set(names.values()))
        sylow = factorization(h)
        projections = {h // p**e for p, e in sylow}
        real_compose, real_power = quadforms._compose, quadforms._power
        calls = projected = 0

        def counting_compose(f, g, d):
            nonlocal calls
            calls += 1
            return real_compose(f, g, d)

        def counting_power(g, n, d):
            nonlocal projected
            projected += n in projections
            return real_power(g, n, d)

        monkeypatch.setattr(quadforms, "_compose", counting_compose)
        monkeypatch.setattr(quadforms, "_power", counting_power)
        assert quadforms._group_structure(names, d).h == h
        # (n - 1).bit_length() is ceil(log2 n)
        bound = 2 * (
            sum(p**e * (2 * p - 1).bit_length() for p, e in sylow)
            + projected * (h - 1).bit_length()
        )
        assert 0 < calls <= bound, (calls, projected, bound)
        assert projected < h  # projection stops once each Sylow subgroup is full

    def test_matches_powers_of_every_class(self):
        named = [-84, -3299, 2042040, -3999999]
        for d in list(valid_discriminants(-2999, 3000)) + named:
            assert class_group_structure(d).elementary_divisors == group_structure_by_powers(d), d

    @pytest.mark.parametrize(
        "d,alias,match",
        [
            (-23, None, "no form"),
            (-23, 1, "fell outside"),
            (-399, None, "elements"),
            (-400, 0, "elements"),
            (-395, 2, "order above"),
            (2042040, None, "no form"),
            (2042040, 1, "elements"),
        ],
    )
    def test_corrupted_class_map_raises(self, d, alias, match):
        # the last class leaves the map, or its forms are named as class `alias`
        names = quadforms._classes(*split_discriminant(d))
        reps = sorted(set(names.values()))
        if alias is None:
            names = {g: x for g, x in names.items() if x != reps[-1]}
        else:
            names = {g: reps[alias] if x == reps[-1] else x for g, x in names.items()}
        with pytest.raises(AssertionError, match=match):
            quadforms._group_structure(names, d)

    def test_structure_matches_order_multiset_oracle(self):
        for d in list(valid_discriminants(-400, -1)) + list(valid_discriminants(5, 200)):
            structure = class_group_structure(d)
            reps, table = composition_table(d)
            e = reps.index(canonical_representative(BinaryQuadraticForm.principal(d)))
            assert order_multiset_from_table(table, e) == order_multiset_for_divisors(
                structure.elementary_divisors
            ), d

    def test_h_equals_narrow(self):
        for d in valid_discriminants(-150, 0):
            assert class_group_structure(d).h == class_number(d, "narrow")

    @pytest.mark.parametrize("d", [60, 2042040, 4 * 1009 * 1013])
    def test_one_rho_walk_per_narrow_class(self, d, kernel_work):
        # one walk per pair {C, -C} of negated cycles, (a, b, c) -> (-a, b, -c):
        # of the field, then of the order when D is not fundamental
        d_k, f = split_discriminant(d)
        maps = [quadforms._classes(d_k)] + ([quadforms._classes(d_k, f)] if f > 1 else [])
        pairs = sum(
            len({frozenset((c, names[-c[0], c[1], -c[2]])) for c in names.values()})
            for names in maps
        )
        for call in (class_group_structure, lambda d: class_representatives(d, "wide")):
            kernel_work.walks = 0
            call(d)
            assert kernel_work.walks == pairs, (d, call)


class TestTwoPart:
    def test_examples(self):
        k, odd = two_part_decomposition(ClassGroupStructure((3,)))
        assert (k, odd.elementary_divisors) == (0, (3,))
        k, odd = two_part_decomposition(ClassGroupStructure((6,)))
        assert (k, odd.elementary_divisors) == (1, (3,))
        with pytest.raises(NonCyclicTwoPart):
            two_part_decomposition(ClassGroupStructure((2, 2)))

    def test_every_short_chain(self):
        for _, chain in small_chains():
            group = ClassGroupStructure(chain)
            if sum(d % 2 == 0 for d in chain) > 1:
                with pytest.raises(NonCyclicTwoPart, match=re.escape(f"2-Sylow of {chain} is not cyclic")):
                    two_part_decomposition(group)
                continue
            k, odd = two_part_decomposition(group)
            assert all(d % 2 for d in odd.elementary_divisors), chain
            assert order_multiset((2**k, *odd.elementary_divisors)) == order_multiset(chain), chain

    def test_product_invariant(self):
        rng = random.Random(11)
        for _ in range(200):
            chain = []
            d = 1
            for _ in range(rng.randint(1, 3)):
                d *= rng.randint(1, 6)
                if d > 1:
                    chain.append(d)
            group = ClassGroupStructure(tuple(chain))
            try:
                k, odd = two_part_decomposition(group)
            except NonCyclicTwoPart:
                evens = [v for v in group.elementary_divisors if v % 2 == 0]
                assert len(evens) > 1
                continue
            assert 2**k * odd.h == group.h


class TestOrderAndStructureTypes:
    def test_split_discriminant(self):
        assert split_discriminant(-23) == (-23, 1)
        assert split_discriminant(-12) == (-3, 2)
        assert split_discriminant(45) == (5, 3)
        assert split_discriminant(320) == (5, 8)

    def test_order_roundtrip(self):
        for d in [-164, -48, 45, 320, 8]:
            order = QuadraticOrder.from_discriminant(d)
            assert order.discriminant == d

    def test_order_rejects_non_fundamental(self):
        with pytest.raises(InvalidDiscriminant):
            QuadraticOrder(45, 1)

    def test_fundamental_discriminant_rejects_zero_and_squares(self):
        with pytest.raises(InvalidDiscriminant, match="0 has no quadratic field"):
            fundamental_discriminant(0)
        with pytest.raises(InvalidDiscriminant, match="4 is a perfect square"):
            fundamental_discriminant(4)

    def test_structure_normalizes(self):
        g = ClassGroupStructure((1, 3))
        assert g.elementary_divisors == (3,)
        g = ClassGroupStructure((2, 3))  # not a chain: renormalized
        assert g.elementary_divisors == (6,)

    def test_every_short_list_becomes_its_chain(self):
        for divs, chain in small_chains():
            assert 1 not in chain and all(b % a == 0 for a, b in zip(chain, chain[1:])), divs
            assert order_multiset(chain) == order_multiset(divs), divs

    def test_structure_factors_nothing(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(quadforms, "factorization", refuse)
        p, q = 10**30 + 57, 10**20 + 39
        assert ClassGroupStructure((2, p)).elementary_divisors == (2 * p,)
        g = ClassGroupStructure((4, 6, q))
        assert (g.elementary_divisors, g.h) == ((2, 12 * q), 24 * q)
        k, odd = two_part_decomposition(ClassGroupStructure((2, p)))
        assert (k, odd.elementary_divisors) == (1, (p,))
        with pytest.raises(NonCyclicTwoPart):
            two_part_decomposition(g)


class TestWideRepresentatives:
    def test_counts(self):
        for d in valid_discriminants(-2999, 3000):
            reps = class_representatives(d, "wide")
            assert len(reps) == class_number(d, "wide"), d
            narrow = class_representatives(d, "narrow")
            assert len(narrow) == class_number(d, "narrow"), d

    def test_matches_twist_oracle(self):
        for d in valid_discriminants(-2999, 3000):
            assert class_representatives(d, "wide") == wide_representatives_by_twist(d), d

    def test_wide_count_matches_unit_norm_rule(self):
        for d in list(valid_discriminants(-2999, 0)) + list(valid_discriminants(5, 3000)):
            if split_discriminant(d)[1] == 1:
                assert class_number(d, "wide") == wide_class_number_by_unit_norm(d), d

    def test_wide_canonical_matches_two_walks(self):
        # short SL(2,Z) images of every reduced form, and of their negatives
        rng = random.Random(12)
        steps = (apply_s, apply_t, apply_t_inv)
        for d in list(valid_discriminants(-800, 0)) + list(valid_discriminants(5, 800)):
            for a, b, c in quadforms._classes(*split_discriminant(d)):
                for form in ((a, b, c), (-a, b, -c)):
                    for _ in range(rng.randint(0, 6)):
                        form = rng.choice(steps)(*form)
                    assert quadforms._wide_canonical(*form, d) == wide_canonical_two_walks(*form), form
