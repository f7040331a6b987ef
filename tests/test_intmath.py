import random

import pytest

from rmarith.intmath import factorization, prime_factors, squarefree_core

from oracles import factorization_by_every_divisor


def check_against_oracle(n):
    expected = factorization_by_every_divisor(n)
    assert factorization(n) == expected, n
    assert prime_factors(n) == tuple(p for p, _ in expected), n


def test_every_n_below_20000():
    for n in range(1, 20000):
        check_against_oracle(n)


def test_seeded_n_up_to_1e10():
    rng = random.Random(20000)
    for _ in range(500):
        check_against_oracle(rng.randint(1, 10**10))


def test_negative_n():
    rng = random.Random(3)
    for n in list(range(1, 300)) + [rng.randint(1, 10**10) for _ in range(50)]:
        assert factorization(-n) == factorization(n)
        assert prime_factors(-n) == prime_factors(n)
    check_against_oracle(-360)


def test_squarefree_core():
    for n in list(range(-500, 0)) + list(range(1, 500)):
        core, s = squarefree_core(n)
        assert core * s * s == n and all(e == 1 for _, e in factorization(core))
    with pytest.raises(ValueError):
        squarefree_core(0)
