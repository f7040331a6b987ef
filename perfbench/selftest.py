"""Self-test of the benchmark's answer checks and tracer.

    python3 perfbench/selftest.py        (from the root of a checkout)

Each answer check must accept the right answer and reject a deliberately
wrong one; the tracer must report a function the package no longer has as
absent instead of failing. Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks as C  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def expect(cond, msg="expectation failed"):
    if not cond:
        raise AssertionError(msg)


def checker():
    return W.Checker(ROOT)


def test_reduced_form_count_rejects_wrong_h():
    # D = -71: h = 7; D = 7*7*5*4 = 980 > 0: counted on rho-cycles
    expect(C.class_numbers_naive(-71) == (7, 7))
    ok = [[7], 7, [list(f) for f in C.reduced_definite_forms(-71)]]
    expect(checker().check_classgroup([-71, 7, 7], ok) is None)
    expect(checker().check_classgroup([-71, 7, 7], [[8], 8, ok[2]]) is not None)
    narrow, wide = C.class_numbers_naive(980)
    expect(len(C.rho_cycles(980)) == narrow)
    expect(checker().check_class_number([980, narrow, wide], wide + 1) is not None)


def test_divisors_form_a_chain_with_product_h():
    expect(C.check_structure(-84, [2, 2], 4) is None)
    expect(C.check_structure(-84, [2, 3], 6) is not None, "product != h must fail")
    expect(C.check_structure(-3299, [9, 3], 27) is not None, "not a divisibility chain")
    expect(C.check_structure(-3299, [3, 9], 26) is not None)


def test_two_rank_matches_genus_count():
    # Cl(-84) = Z/2 + Z/2: a cyclic answer of the right order has the wrong 2-rank
    expect(C.genus_mu(-84) - 1 == 2)
    expect(C.check_structure(-84, [4], 4) is not None)
    expect(C.check_structure(40, [2], 2) is None)


def test_unit_check_uses_pell_equation_and_pell_scan():
    pell = C.load_oracles(ROOT).pell_smallest
    x, y, n = C.pell_from_period(13)
    expect((x, y, n) == (3, 1, -1))
    expected = [n] + C.fingerprint(y)
    expect(C.check_unit(13, x, y, n, expected, pell) is None)
    expect(C.check_unit(13, x + 1, y, n, expected, pell) is not None, "Pell equation")
    # eps^3 = (36 + 10 sqrt 13)/2 satisfies x^2 - 13 y^2 = -4 but is not fundamental
    cube = [-1] + C.fingerprint(10)
    expect(36 * 36 - 13 * 100 == -4)
    expect(C.check_unit(13, 36, 10, -1, cube, pell) is not None, "Pell scan must reject")


def test_conductor_map_equates_class_numbers():
    # Q(sqrt(-5)): h(-20) = 2; Q(sqrt(5)): h(5 f'^2) first reaches 2 at f' = 8
    fp, h = C.least_rm_conductor(5, 1)
    expect((fp, h) == (8, 2))
    unit = C.pell_from_period(5)
    expect(C.wide_class_number_formula(5, 8, 1, unit) == 2)
    expect(C.wide_class_number_formula(5, 2, 1, unit) == 1)
    expect(checker().check_rm_conductor([5, 1, 8, 2], 8) is None)
    expect(checker().check_rm_conductor([5, 1, 8, 2], 2) is not None)


def test_question_mark_walk():
    expect(C.question_mark(Fraction(1, 3)) == Fraction(1, 4))
    expect(C.question_mark(Fraction(2, 5)) == Fraction(3, 8))
    # ?(sqrt(2) - 1) = 2/5: sqrt(2) - 1 = (-1 + sqrt 2)/1
    expect(C.question_mark((-1, 1, 2)) == Fraction(2, 5))
    expect(C.check_question_mark(Fraction(1, 3), Fraction(1, 4)) is None)
    expect(C.check_question_mark(Fraction(1, 3), Fraction(1, 8)) is not None)
    expect(C.check_question_mark((-1, 1, 2), Fraction(3, 7)) is not None)
    expect(C.quantum_height([Fraction(1, 3)]) == 4)


def test_point_counts_closed_forms():
    expect(C.classical_count(1, 1) == 4)  # 0:1, 1:0, 1:1, 1:-1
    expect(C.quantum_count(2, 5) == 16)
    out = json.dumps({"rows": [[8, C.classical_count(2, 8), 0.0], [16, C.classical_count(2, 16) + 1, 0.0]]})
    expect(checker().check_count([2, 8, 16, True], [0, out]) is not None)
    good = json.dumps({"rows": [[8, C.quantum_count(4, 8), 0.0], [16, C.quantum_count(4, 16), 0.0]]})
    expect(checker().check_count([4, 8, 16, False], [0, good]) is None)


def test_similarity_count_is_sum_of_wide_class_numbers():
    expected = {(1, -6, -1): 2, (1, -4, -1): 2, (1, -3, -1): 1, (1, -5, -2): 1, (1, -7, 1): 2}
    for (poly, bound), count in zip(W.SIMILARITY_CASES, expected.values()):
        expect(C.similarity_count(poly) == count, f"{poly}")
        m = [0, -poly[2], 1, -poly[1]]
        expect(checker().check_similarity([m, bound], [list(poly), count]) is None)
        expect(checker().check_similarity([m, bound], [list(poly), count + 1]) is not None)


def test_cli_answer_must_not_change_with_a_warm_cache():
    chk = checker()
    d, narrow, wide = -23, 3, 3
    payload = {"argv": ["classgroup", "-D", "-23"], "expect": [d, narrow, wide], "cache": True}
    cold = json.dumps({"D": -23, "d_k": -23, "f": 1, "h": 3, "narrow": 3, "wide": 3, "divisors": [3],
                       "representatives": [[1, 1, 6], [2, -1, 3], [2, 1, 3]]})
    expect(chk.check_cli(payload, [0, cold, ""]) is None)
    expect(chk.check_cli(payload, [0, cold, ""]) is None)
    expect(chk.check_cli(payload, [0, cold.replace('"h": 3', '"h": 3 '), ""]) is not None)


def test_tracer_reports_missing_function_as_absent():
    # runs last: the wrappers stay installed for the rest of the process
    saved = T.TRACED["quadforms"]
    T.TRACED["quadforms"] = saved + ["no_such_function"]
    try:
        t = T.Tracer()
        t.install()
    finally:
        T.TRACED["quadforms"] = saved
    from rmarith import quadforms

    quadforms.class_group_structure(-23)
    snap = t.snapshot()
    expect(snap["absent"] == ["quadforms.no_such_function"], str(snap["absent"]))
    expect(snap["functions"]["quadforms.no_such_function"][0] == 0)
    expect(snap["functions"]["quadforms.compose"][0] == 9, "h^2 compositions for h = 3")


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
