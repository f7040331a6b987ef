import pytest

from rmarith import cli, cmrm, contfrac, intmath, quadforms
from rmarith import (
    BinaryQuadraticForm,
    QuadraticOrder,
    RMTriple,
    SearchLimitExceeded,
    class_number,
    fundamental_discriminant,
    rm_conductor,
    rm_triple,
)


class TestConductorMap:
    def test_d2_f1(self):
        assert rm_conductor(2, 1) == 1

    def test_d5_f1(self):
        # target h(Q(sqrt(-5))) = 2; the scan must land on the frozen answer
        assert class_number(-20, "wide") == 2
        fp = rm_conductor(5, 1)
        assert fp == 8
        assert class_number(fundamental_discriminant(5) * fp * fp, "wide") == 2

    def test_limit_below_answer(self):
        with pytest.raises(SearchLimitExceeded):
            rm_conductor(5, 1, search_limit=7)
        # a limit below 1 leaves nothing to search: an input error
        for limit in (0, -5):
            with pytest.raises(ValueError):
                rm_conductor(2, 1, search_limit=limit)

    def test_limit_error_payload(self):
        try:
            rm_conductor(5, 1, search_limit=3)
        except SearchLimitExceeded as exc:
            assert exc.target == 2 and exc.limit == 3
        else:
            pytest.fail("expected SearchLimitExceeded")

    def test_defining_equation_and_minimality(self):
        for d, f in [(2, 1), (5, 1), (13, 2), (6, 3), (10, 2)]:
            fp = rm_conductor(d, f)
            target = class_number(fundamental_discriminant(-d) * f * f, "wide")
            rm_d = fundamental_discriminant(d)
            assert class_number(rm_d * fp * fp, "wide") == target
            for g in range(1, fp):
                assert class_number(rm_d * g * g, "wide") != target

    def test_monotone_restart(self):
        a = rm_conductor(5, 1, search_limit=10)
        b = rm_conductor(5, 1, search_limit=10_000)
        assert a == b

    def test_radicand_normalized(self):
        # 8 and 18 share the squarefree core 2
        assert rm_conductor(8, 1) == rm_conductor(2, 1) == rm_conductor(18, 1)

    def test_rejects_squares(self):
        with pytest.raises(ValueError):
            rm_conductor(16, 1)
        with pytest.raises(ValueError):
            rm_conductor(0, 1)

    def test_rejects_conductor_below_one(self):
        with pytest.raises(ValueError, match="conductor f must be positive"):
            rm_conductor(5, 0)

    def test_radicand_factored_once(self, capsys, monkeypatch):
        # the squarefree core gives both fields' discriminants; only the
        # radicand and, for rm_triple, QuadraticOrder's checks factor anything
        real = intmath.squarefree_core
        calls = []

        def counted(n):
            calls.append(n)
            return real(n)

        for module in (intmath, quadforms, cmrm):
            monkeypatch.setattr(module, "squarefree_core", counted)
        assert rm_conductor(2, 1) == 1
        assert calls == [2]
        calls.clear()
        assert cli.main(["rm-conductor", "-d", "2"]) == 0
        capsys.readouterr()
        assert calls == [2]
        calls.clear()
        rm_triple(2, 1)
        assert calls == [2, 8, 8]

    def test_scan_builds_the_field_unit_once(self, monkeypatch):
        # the unit's norm comes from the field unit: quadforms has no unit_norm
        assert not hasattr(quadforms, "unit_norm")
        calls = {"fundamental_unit": [], "unit_norm": []}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(d):
                calls[name].append(d)
                return real(d)

            return wrapper

        for module, name in ((quadforms, "fundamental_unit"), (contfrac, "unit_norm")):
            monkeypatch.setattr(module, name, counted(module, name))
        assert rm_conductor(9967, 4) == 389
        d_k = fundamental_discriminant(9967)
        assert calls == {"fundamental_unit": [d_k], "unit_norm": []}

    def test_unreachable_target_scans_nothing(self, monkeypatch):
        # h_K divides the wide class number of every order of the real field,
        # so when it does not divide the target no conductor step is taken
        real_factorization = quadforms.factorization
        calls = []

        def counted(n):
            calls.append(n)
            return real_factorization(n)

        monkeypatch.setattr(quadforms, "factorization", counted)
        for d in (79, 142, 223, 229, 235, 254, 257, 321, 326, 346, 359):
            with pytest.raises(SearchLimitExceeded) as info:
                rm_conductor(d, 1, search_limit=10**4)
            target = class_number(fundamental_discriminant(-d), "wide")
            assert (info.value.target, info.value.limit) == (target, 10**4)
            assert target % class_number(fundamental_discriminant(d), "wide"), d
        assert calls == []


class TestRMTriple:
    def test_d2_f1_triple(self):
        triple = rm_triple(2, 1)
        assert triple.order == QuadraticOrder(8, 1)
        assert triple.order.discriminant == 8
        assert triple.field_discriminant == 8
        assert len(triple.ideal_classes) == 1

    def test_d5_f1_triple(self):
        triple = rm_triple(5, 1)
        assert triple.order.d_k == 5
        assert triple.order.f == 8
        assert len(triple.ideal_classes) == 2
        assert len(triple.ideal_classes) == class_number(-20, "wide")

    def test_matching_counts_random(self):
        for d, f in [(3, 2), (7, 2), (11, 1)]:
            triple = rm_triple(d, f)
            cm_h = class_number(fundamental_discriminant(-d) * f * f, "wide")
            assert len(triple.ideal_classes) == cm_h

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            RMTriple(
                QuadraticOrder(8, 1),
                (
                    BinaryQuadraticForm(1, 2, -1),
                    BinaryQuadraticForm(-1, 2, 1),
                ),
                8,
            )
        with pytest.raises(ValueError):
            RMTriple(QuadraticOrder(-8, 1), (), -8)
        with pytest.raises(ValueError, match="field discriminant does not match"):
            RMTriple(QuadraticOrder(5), (BinaryQuadraticForm(1, 1, -1),), 8)
