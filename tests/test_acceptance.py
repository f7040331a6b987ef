"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them) and enforcing its runtime budget."""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import prod

import pytest

import rmarith as rm
from rmarith import cli, quadforms
from rmarith.heights import loglog_slope
from rmarith.intmath import is_square, squarefree_core
from rmarith.quadforms import canonical_representative, validate_discriminant

from oracles import composition_table, enumerate_definite_oracle, minkowski_stern_brocot


@contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {num:2d} FAIL: {description} (over budget: {elapsed:.1f}s)")
        raise AssertionError(f"criterion {num} exceeded {budget}s budget: {elapsed:.1f}s")
    print(f"criterion {num:2d} PASS ({elapsed:.2f}s): {description}")


def valid_discriminants(lo, hi):
    for d in range(lo, hi):
        try:
            validate_discriminant(d)
        except rm.InvalidDiscriminant:
            continue
        yield d


def test_criterion_01_class_group_engine():
    with criterion(1, "definite class groups satisfy all group axioms, -500 < D < 0", 10.0):
        for d in valid_discriminants(-499, 0):
            reps, table = composition_table(d)
            h = len(reps)
            assert h == rm.class_number(d, "narrow")
            e = reps.index(canonical_representative(rm.BinaryQuadraticForm.principal(d)))
            for i in range(h):
                assert table[e][i] == i and table[i][e] == i
                inv = canonical_representative(reps[i].inverse())
                assert table[i][reps.index(inv)] == e
            for i in range(h):
                for j in range(h):
                    for k in range(h):
                        assert table[table[i][j]][k] == table[i][table[j][k]]


def test_criterion_02_indefinite_class_numbers():
    with criterion(2, "indefinite cycle counts 0 < D < 500 and spot values h(8), h(40), h(-23)"):
        for d in valid_discriminants(5, 500):
            cycles = rm.enumerate_reduced_forms(d)
            assert len(cycles) == rm.class_number(d, "narrow")
        assert rm.class_number(8, "wide") == 1
        assert len(rm.enumerate_reduced_forms(8)) == 1
        assert rm.class_number(40, "wide") == 2
        assert len(rm.enumerate_reduced_forms(40)) == 2
        assert rm.class_number(-23, "wide") == 3
        assert len(enumerate_definite_oracle(-23)) == 3


def test_criterion_03_conductor_map():
    with criterion(3, "conductor map: defining equality and minimality on 20 seeded pairs", 60.0):
        assert rm.rm_conductor(2, 1) == 1
        rng = random.Random(20260810)
        pairs = []
        while len(pairs) < 20:
            d = rng.randint(2, 50)
            core, _ = squarefree_core(d)
            if core == 1:
                continue
            pairs.append((core, rng.randint(1, 5)))
        for d, f in pairs:
            fp = rm.rm_conductor(d, f)
            target = rm.class_number(rm.fundamental_discriminant(-d) * f * f, "wide")
            rm_d = rm.fundamental_discriminant(d)
            assert rm.class_number(rm_d * fp * fp, "wide") == target, (d, f)
            for g in range(1, fp):
                assert rm.class_number(rm_d * g * g, "wide") != target, (d, f, g)


def test_criterion_04_lagrange_periodicity():
    with criterion(4, "200 random quadratic irrationals: minimal periods, exact re-evaluation"):
        rng = random.Random(40404)
        done = 0
        while done < 200:
            d = rng.randint(2, 1000)
            if is_square(d):
                continue
            p = rng.randint(-50, 50)
            q = rng.randint(-50, 50)
            if q == 0:
                continue
            x = rm.QuadraticIrrational(p, q, d)
            cf = rm.cf_expand(x)
            assert cf.period, x
            # minimality: no shorter rotation generates the period
            width = len(cf.period)
            for w in range(1, width):
                if width % w == 0:
                    assert cf.period[:w] * (width // w) != cf.period
            value = rm.evaluate(cf)
            assert value == x
            assert value.satisfies(*x.min_poly())
            done += 1


def test_criterion_05_question_mark_identities():
    with criterion(5, "question-mark identities exact for denominators <= 100, plus pinned values"):
        for q in range(1, 101):
            for p in range(0, q + 1):
                x = Fraction(p, q)
                qm = rm.minkowski_q(x)
                assert rm.minkowski_q(1 - x) == 1 - qm
                if 0 < x < 1:
                    assert rm.minkowski_q(x / (1 + x)) == qm / 2
        assert rm.minkowski_q(rm.QuadraticIrrational(-1, 2, 5)) == Fraction(2, 3)
        assert rm.minkowski_q(Fraction(1, 3)) == Fraction(1, 4)
        assert minkowski_stern_brocot(Fraction(1, 3)) == Fraction(1, 4)


def test_criterion_06_latimer_macduffee():
    with criterion(6, "similarity classes at entry bound 12 match wide class numbers", 120.0):
        cases = [
            ((1, -1, -1), 1),
            ((1, -6, -1), 2),
            ((1, -3, 1), 1),
            ((1, 1, 6), 3),
            ((1, 0, 5), 2),
            ((1, -1, -3), 1),
            ((1, -8, 1), 2),
        ]
        assert len(cases) >= 5
        for poly, expected in cases:
            disc = poly[1] ** 2 - 4 * poly[2]
            assert abs(disc) <= 100
            result = rm.similarity_class_count_bruteforce(poly, 12)
            assert result.count == expected
            assert result.count == rm.class_number(disc, "wide"), poly


def test_criterion_07_sha_formulas():
    with criterion(7, "Sha orders square (k even) or 2^k x square (k odd) for all h <= 50"):
        def chains(max_h):
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

        checked = 0
        for divs in chains(50):
            group = rm.ClassGroupStructure(divs)
            try:
                k, _ = rm.two_part_decomposition(group)
            except rm.NonCyclicTwoPart:
                continue
            report = rm.sha_group(group)
            assert report.sha_order == prod(report.sha_divisors)
            if k % 2 == 0:
                root = int(round(report.sha_order**0.5))
                assert root * root == report.sha_order, divs
            else:
                reduced = report.sha_order // 2**k
                root = int(round(reduced**0.5))
                assert 2**k * root * root == report.sha_order, divs
            checked += 1
        assert checked > 40
        trivial = rm.sha_group(rm.ClassGroupStructure(()))
        assert trivial.sha_order == 1
        z2 = rm.sha_group(rm.ClassGroupStructure((2,)))
        assert z2.sha_divisors == (2,) and z2.sha_order == 2
        z3 = rm.sha_group(rm.ClassGroupStructure((3,)))
        assert z3.sha_divisors == (3, 3) and z3.sha_order == 9


def test_criterion_08_regime_classifier_and_slope():
    with criterion(8, "30-case regime grid plus quantum-count slope in [0.5, 1.5]"):
        cases = 0
        for n in (1, 2, 3):
            for rank in range(0, 10):
                betti = tuple(1 for _ in range(2 * n + 1))
                got = rm.growth_regime(rm.VarietyProfile(n, betti, rank))
                if rank < n + 1:
                    assert got is rm.GrowthRegime.EXPONENTIAL_IN_TN
                elif rank == n + 1:
                    assert got is rm.GrowthRegime.POLYNOMIAL_DEGREE_N
                else:
                    assert got is rm.GrowthRegime.BOUNDED
                cases += 1
        assert cases == 30
        rows = []
        for t in (2**4, 2**5, 2**6, 2**7, 2**8, 2**9, 2**10):
            rows.append((t, rm.quantum_count(1, t)))
        counts = [c for _, c in rows]
        assert counts == sorted(counts)
        slope = loglog_slope(rows)
        assert 0.5 <= slope <= 1.5, slope


def test_criterion_09_finiteness_boundary():
    with criterion(9, "finiteness test exhaustive over beta1 <= 10, n <= 3 with exact boundary"):
        for n in (1, 2, 3):
            for beta in range(0, 11):
                betti = [1] + [0] * (2 * n)
                betti[1] = beta
                profile = rm.VarietyProfile(n, tuple(betti), n + 1)
                assert rm.finiteness_check(profile) is (beta > n + 1)
                boundary = [1] + [0] * (2 * n)
                boundary[1] = n + 1
                assert rm.finiteness_check(rm.VarietyProfile(n, tuple(boundary), n + 1)) is False


def test_criterion_10_cli_golden_suite(tmp_path, capsys):
    with criterion(10, "CLI golden suite: round-trips, cache equivalence, exit codes"):
        golden = [
            (["classgroup", "-D", "-23", "--json"], 0),
            (["classgroup", "-D", "-56", "--json"], 0),
            (["classgroup", "-D", "5", "--json"], 0),
            (["classgroup", "-d", "5", "-f", "8", "--json"], 0),
            (["classgroup", "-D", "-23", "--csv"], 0),
            (["classgroup", "-D", "9"], 2),
            (["rm-conductor", "-d", "2", "-f", "1", "--json"], 0),
            (["rm-conductor", "-d", "5", "-f", "1", "--json"], 0),
            (["rm-conductor", "-d", "5", "-f", "1", "--limit", "3"], 3),
            (["cf", "--sqrt", "2", "--json"], 0),
            (["cf", "--rational", "7/3", "--json"], 0),
            (["cf", "--surd", "3,2,7", "--json"], 0),
            (["cf", "--sqrt", "9"], 2),
            (["sha", "--matrix", "1,1,1,0", "--json"], 0),
            (["sha", "--charpoly", "1,-6,-1", "--json"], 0),
            (["sha", "--matrix", "1,2,2,1"], 2),
            (["height", "--theta", "1/3", "--json"], 0),
            (["height", "--theta=-1,2,5", "--json"], 0),
            (["count", "-n", "1", "--tmax", "256", "--json"], 0),
            (["count", "-n", "1", "--tmax", "256", "--csv"], 0),
        ]
        assert len(golden) >= 15
        outputs = {}
        for argv, expected_code in golden:
            code = cli.main(argv)
            out = capsys.readouterr().out
            assert code == expected_code, (argv, code)
            if expected_code == 0 and "--json" in argv:
                outputs[tuple(argv)] = json.loads(out)

        # JSON round-trip: re-running the same invocation reproduces the data
        for argv, parsed in outputs.items():
            code = cli.main(list(argv))
            out = capsys.readouterr().out
            assert code == 0
            assert json.loads(out) == parsed, argv

        # cache on/off equivalence, twice so the second run reads the file
        cache = tmp_path / "accept.cache"
        plain = cli.main(["classgroup", "-D", "-104", "--json"])
        out_plain = capsys.readouterr().out
        for _ in range(2):
            code = cli.main(["classgroup", "-D", "-104", "--json", "--cache", str(cache)])
            out_cached = capsys.readouterr().out
            assert code == plain == 0
            assert json.loads(out_cached) == json.loads(out_plain)
        assert cache.read_text().startswith(cli.CACHE_VERSION)

        # documented exit codes all observed: 0, 2, 3 above; 4 is the
        # internal-invariant guard, driven here through a broken hook
        original = quadforms._group_structure
        quadforms._group_structure = lambda *a, **k: (_ for _ in ()).throw(
            AssertionError("forced")
        )
        try:
            code = cli.main(["classgroup", "-D", "-23"])
        finally:
            quadforms._group_structure = original
        capsys.readouterr()
        assert code == 4
