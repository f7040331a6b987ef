import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rmarith import cli, contfrac, heights, quadforms
from rmarith.heights import minkowski_q


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _long_int(text):
    """int(text) without Python's cap on str-to-int conversion."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0, out
    return json.loads(out)


# classgroup output, byte for byte: -56 and 60 are a definite and an
# indefinite group of order 4, and at 60 and 320 the wide class number is
# half the narrow one
GOLDEN = {
    ("-D", "-23"): (
        "discriminant      -23  (fundamental -23, conductor 1)\n"
        "class number      narrow 3, wide 3\n"
        "group structure   Z/3\n"
        "representatives   (1,1,6) (2,-1,3) (2,1,3)\n"
    ),
    ("-D", "-23", "--json"): (
        '{"D": -23, "d_k": -23, "divisors": [3], "f": 1, "h": 3, "narrow": 3, '
        '"representatives": [[1, 1, 6], [2, -1, 3], [2, 1, 3]], "wide": 3}\n'
    ),
    ("-D", "-23", "--csv"): "a,b,c\r\n1,1,6\r\n2,-1,3\r\n2,1,3\r\n",
    ("-D", "-56"): (
        "discriminant      -56  (fundamental -56, conductor 1)\n"
        "class number      narrow 4, wide 4\n"
        "group structure   Z/4\n"
        "representatives   (1,0,14) (2,0,7) (3,-2,5) (3,2,5)\n"
    ),
    ("-D", "-56", "--json"): (
        '{"D": -56, "d_k": -56, "divisors": [4], "f": 1, "h": 4, "narrow": 4, '
        '"representatives": [[1, 0, 14], [2, 0, 7], [3, -2, 5], [3, 2, 5]], "wide": 4}\n'
    ),
    ("-D", "-56", "--csv"): "a,b,c\r\n1,0,14\r\n2,0,7\r\n3,-2,5\r\n3,2,5\r\n",
    ("-D", "60"): (
        "discriminant      60  (fundamental 60, conductor 1)\n"
        "class number      narrow 4, wide 2\n"
        "group structure   Z/2 x Z/2\n"
        "representatives   (-6,6,1) (-3,6,2) (-2,6,3) (-1,6,6)\n"
    ),
    ("-D", "60", "--json"): (
        '{"D": 60, "d_k": 60, "divisors": [2, 2], "f": 1, "h": 4, "narrow": 4, '
        '"representatives": [[-6, 6, 1], [-3, 6, 2], [-2, 6, 3], [-1, 6, 6]], "wide": 2}\n'
    ),
    ("-D", "60", "--csv"): "a,b,c\r\n-6,6,1\r\n-3,6,2\r\n-2,6,3\r\n-1,6,6\r\n",
    ("-d", "5", "-f", "8"): (
        "discriminant      320  (fundamental 5, conductor 8)\n"
        "class number      narrow 4, wide 2\n"
        "group structure   Z/2 x Z/2\n"
        "representatives   (-16,16,1) (-11,10,5) (-5,10,11) (-1,16,16)\n"
    ),
    ("-d", "5", "-f", "8", "--json"): (
        '{"D": 320, "d_k": 5, "divisors": [2, 2], "f": 8, "h": 4, "narrow": 4, '
        '"representatives": [[-16, 16, 1], [-11, 10, 5], [-5, 10, 11], [-1, 16, 16]], '
        '"wide": 2}\n'
    ),
    ("-d", "5", "-f", "8", "--csv"): (
        "a,b,c\r\n-16,16,1\r\n-11,10,5\r\n-5,10,11\r\n-1,16,16\r\n"
    ),
}

# count output, byte for byte: quantum counts in all three formats, the
# two-row quantum table of n = 2 and two classical tables
COUNT_GOLDEN = {
    ("-n", "1", "--tmax", "256"): (
        "       T            N     log2 N\n"
        "      16           16      4.000\n"
        "      32           32      5.000\n"
        "      64           64      6.000\n"
        "     128          128      7.000\n"
        "     256          256      8.000\n"
        "log-log slope 1.000\n"
    ),
    ("-n", "1", "--tmax", "256", "--json"): (
        '{"mode": "quantum", "n": 1, "rows": [[16, 16, 4.0], [32, 32, 5.0], [64, 64, 6.0], '
        '[128, 128, 7.0], [256, 256, 8.0]], "slope": 1.0}\n'
    ),
    ("-n", "1", "--tmax", "256", "--csv"): (
        "T,N,log2N\r\n16,16,4.000000\r\n32,32,5.000000\r\n64,64,6.000000\r\n"
        "128,128,7.000000\r\n256,256,8.000000\r\n"
    ),
    ("-n", "2", "--tmin", "64", "--tmax", "128"): (
        "       T            N     log2 N\n"
        "      64         4096     12.000\n"
        "     128        16384     14.000\n"
        "log-log slope 2.000\n"
    ),
    ("-n", "1", "--tmin", "32", "--tmax", "64", "--classical"): (
        "       T            N     log2 N\n"
        "      32         1296     10.340\n"
        "      64         5040     12.299\n"
        "log-log slope 1.959\n"
    ),
    ("-n", "3", "--tmin", "2", "--tmax", "4", "--classical"): (
        "       T            N     log2 N\n"
        "       2          272      8.087\n"
        "       4         2928     11.516\n"
        "log-log slope 3.428\n"
    ),
}

# count input errors and their messages, in both modes
COUNT_BAD_INPUT = [
    pytest.param(argv + mode, message, id=" ".join(argv + mode))
    for argv, message in (
        (["-n", "0"], "need n >= 1 and t >= 1"),
        (["-n", "-1"], "need n >= 1 and t >= 1"),
        (["--tmin", "0"], "need 1 <= tmin <= tmax"),
        (["--tmin", "3", "--tmax", "3"], "need at least two positive rows"),
    )
    for mode in ([], ["--classical"])
]


class TestClassgroup:
    @pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
    def test_golden_output(self, argv, capsys):
        assert run_cli(["classgroup", *argv], capsys) == (0, GOLDEN[argv])

    def test_one_enumeration_per_discriminant(self, capsys, monkeypatch):
        # class numbers, structure and representatives are all read off the
        # class map of D itself; the field of a non-fundamental D is not enumerated
        real = quadforms._classes
        calls = Counter()

        def counted(d):
            calls[d] += 1
            return real(d)

        monkeypatch.setattr(quadforms, "_classes", counted)
        for argv, d in ((["-D", "-23"], -23), (["-D", "60"], 60), (["-D", "-92"], -92),
                        (["-d", "5", "-f", "8"], 320), (["-D", "-3999971"], -3999971),
                        (["-D", "4000001"], 4000001)):
            calls.clear()
            assert run_cli(["classgroup", *argv], capsys)[0] == 0
            assert calls == Counter({d: 1}), (argv, calls)

    def test_json_golden(self, capsys):
        data = run_json(["classgroup", "-D", "-23", "--json"], capsys)
        assert data["h"] == 3
        assert data["divisors"] == [3]
        assert data["narrow"] == 3 and data["wide"] == 3
        assert [1, 1, 6] in data["representatives"]

    def test_human_table(self, capsys):
        code, out = run_cli(["classgroup", "-D", "5"], capsys)
        assert code == 0
        assert "narrow 1, wide 1" in out

    def test_fundamental_conductor_input(self, capsys):
        data = run_json(["classgroup", "-d", "5", "-f", "8", "--json"], capsys)
        assert data["D"] == 320 and data["wide"] == 2

    def test_square_discriminant_exit_2(self, capsys):
        code, _ = run_cli(["classgroup", "-D", "9"], capsys)
        assert code == 2

    def test_missing_input_exit_2(self, capsys):
        code, _ = run_cli(["classgroup"], capsys)
        assert code == 2

    def test_bad_field_or_conductor_exit_2(self, capsys):
        # a conductor below 1 and a non-fundamental field discriminant
        for argv in (["-d", "5", "-f", "-3"], ["-d", "5", "-f", "0"], ["-d", "20"]):
            assert cli.main(["classgroup", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # refused by argparse, which prints its usage first
            (["classgroup", "-D", "-23", "-d", "5"], None),  # two orders
            (["classgroup", "-D", "-23", "--json", "--csv"], None),  # two output formats
            # refused by the command: one error line
            (["classgroup", "-D", "-23", "-f", "5"], "-f goes with -d, not with -D"),
            (["sha", "--matrix", "1,2,3"], "expected 4 comma-separated integers, got 3"),
            (["sha", "--matrix", "1,2,3,4,5"], "expected 4 comma-separated integers, got 5"),
            (["sha"], "give exactly one of --matrix, --charpoly"),
            (["sha", "--matrix", "1,1,1,0", "--charpoly", "1,-1,-1"],
             "give exactly one of --matrix, --charpoly"),
            (["sha", "--charpoly", "2,0,1"], "characteristic polynomial must be monic"),
            (["cf", "--surd", "1,2"], "expected 3 comma-separated integers, got 2"),
        ],
        ids=["D-and-d", "json-and-csv", "f-with-D", "sha-3-entries", "sha-5-entries",
             "sha-no-input", "sha-both-inputs", "sha-not-monic", "cf-surd-2-values"],
    )
    def test_ambiguous_input_exit_2(self, argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err and "Traceback" not in captured.err
        if message is not None:
            assert captured.err == f"error: {message}\n"

    def test_csv(self, capsys):
        code, out = run_cli(["classgroup", "-D", "-23", "--csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c"
        assert len(lines) == 4


class TestRmConductor:
    def test_basic(self, capsys):
        data = run_json(["rm-conductor", "-d", "2", "-f", "1", "--json"], capsys)
        assert data["f_prime"] == 1
        assert data["cm_class_number"] == data["rm_class_number"] == 1

    def test_d5(self, capsys):
        data = run_json(["rm-conductor", "-d", "5", "-f", "1", "--json"], capsys)
        assert data["f_prime"] == 8
        assert data["cm_class_number"] == 2

    def test_limit_exit_3(self, capsys):
        # h(Q(sqrt(79))) = 3 does not divide h(Q(sqrt(-79))) = 5: refused unscanned
        for argv, target in ((["-d", "5", "-f", "1", "--limit", "3"], 2),
                             (["-d", "79", "--limit", "10000"], 5)):
            assert cli.main(["rm-conductor", *argv]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: no conductor f' in 1..{argv[-1]} reaches class number {target}\n")

    def test_negative_limit_exit_2(self, capsys):
        # no search runs, so this is an input error, not exit 3
        assert cli.main(["rm-conductor", "-d", "5", "-f", "1", "--limit", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_one_enumeration_per_field(self, capsys, monkeypatch):
        # the scan reports the real side's class numbers: nothing is asked twice
        real_classes, real_unit = quadforms._classes, quadforms.fundamental_unit
        calls, units = Counter(), Counter()

        def counted_classes(d):
            calls[d] += 1
            return real_classes(d)

        def counted_unit(d):
            units[d] += 1
            return real_unit(d)

        monkeypatch.setattr(quadforms, "_classes", counted_classes)
        monkeypatch.setattr(quadforms, "fundamental_unit", counted_unit)
        for d, f, cm_d, rm_d, unit_calls in ((2, 1, -8, 8, 0), (5, 1, -20, 5, 1),
                                             (9967, 4, -9967, 39868, 1)):
            calls.clear()
            units.clear()
            assert run_cli(["rm-conductor", "-d", str(d), "-f", str(f)], capsys)[0] == 0
            assert calls == Counter({cm_d: 1, rm_d: 1}), (d, calls)
            assert sum(units.values()) == unit_calls, (d, units)


class TestCf:
    def test_sqrt2(self, capsys):
        code, out = run_cli(["cf", "--sqrt", "2"], capsys)
        assert code == 0
        assert "[1;(2)]" in out

    def test_json_surd(self, capsys):
        data = run_json(["cf", "--surd", "3,2,7", "--json"], capsys)
        assert data["preperiod"] == [2]
        assert sorted(data["period"]) == [1, 1, 1, 4]
        assert data["is_rm"] is True

    def test_rational(self, capsys):
        data = run_json(["cf", "--rational", "7/3", "--json"], capsys)
        assert data["preperiod"] == [2, 3] and data["period"] == []
        assert data["is_rm"] is False

    def test_square_sqrt_rejected(self, capsys):
        code, _ = run_cli(["cf", "--sqrt", "9"], capsys)
        assert code == 2

    def test_requires_exactly_one_input(self, capsys):
        code, _ = run_cli(["cf", "--sqrt", "2", "--rational", "1/2"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "radicand, largest",
        [
            # sqrt 7 = [2;(1,1,1,4)]: all the convergents pass CF_MAX_DIGITS
            (7, 2734),
            # [10^2000;(2*10^2000)]: one numerator passes CF_MAX_TERM_DIGITS
            (10**4000 + 1, 9),
        ],
        ids=["all-convergents", "one-numerator"],
    )
    def test_terms_limit_is_exact(self, radicand, largest, capsys, monkeypatch):
        def never(cf, count):
            raise AssertionError("computed convergents although --terms is over the bound")

        argv = ["cf", "--sqrt", str(radicand), "--json", "--terms"]
        with monkeypatch.context() as patch:
            patch.setattr(contfrac, "convergents", never)
            assert cli.main([*argv, str(largest + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --terms {largest + 1}: the convergents may have over 3000000 digits "
            f"in all or 20000 in one: lower --terms to at most {largest}\n"
        )
        data = run_json([*argv, str(largest)], capsys)
        assert len(data["convergents"]) == largest

    def test_rational_terms_not_bounded(self, capsys):
        # a finite expansion prints at most its own length
        data = run_json(["cf", "--rational", "355/113", "--terms", "100000000", "--json"], capsys)
        assert data["convergents"] == ["3", "22/7", "355/113"]

    def test_zero_denominator_exit_2(self, capsys):
        assert cli.main(["cf", "--rational", "1/0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestSha:
    def test_matrix(self, capsys):
        data = run_json(["sha", "--matrix", "1,1,1,0", "--json"], capsys)
        assert data["sha_order"] == 1 and data["sha_divisors"] == []

    def test_charpoly(self, capsys):
        data = run_json(["sha", "--charpoly", "1,-6,-1", "--json"], capsys)
        assert data["discriminant"] == 40
        assert data["k"] == 1
        assert data["sha_order"] == 2

    def test_reducible_exit_2(self, capsys):
        code, _ = run_cli(["sha", "--matrix", "1,2,2,1"], capsys)
        assert code == 2


class TestHeight:
    def test_rational(self, capsys):
        data = run_json(["height", "--theta", "1/3", "--json"], capsys)
        assert data["height"] == 4
        assert data["question_mark_values"] == ["1/4"]

    def test_quadratic(self, capsys):
        data = run_json(["height", "--theta=-1,2,5", "--json"], capsys)
        assert data["height"] == 3
        assert data["question_mark_values"] == ["2/3"]

    def test_multiple(self, capsys):
        data = run_json(["height", "--theta", "1/3", "--theta=-1,2,5", "--json"], capsys)
        assert data["height"] == 12

    def test_zero_denominator_exit_2(self, capsys):
        assert cli.main(["height", "--theta=1/0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_long_exact_value_prints(self, capsys):
        # ?(3/64479) has denominator 2^21492, far above Python's default
        # 4300-digit cap on int/str conversion, which must be back in place
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = cap()
        code, out = run_cli(["height", "--theta=3/64479", "--json"], capsys)
        assert code == 0
        assert cap() == before
        data = json.loads(out, parse_int=_long_int)
        num, den = (_long_int(v) for v in data["question_mark_values"][0].split("/"))
        assert Fraction(num, den) == minkowski_q(Fraction(3, 64479))
        assert data["height"] == den == 2**21492


class TestCount:
    def test_csv_monotone(self, capsys):
        code, out = run_cli(["count", "-n", "1", "--tmax", "256", "--csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "T,N,log2N"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == sorted(counts)

    def test_json_slope(self, capsys):
        data = run_json(["count", "-n", "1", "--tmax", "256", "--json"], capsys)
        assert 0.5 <= data["slope"] <= 1.5
        assert data["mode"] == "quantum"

    def test_classical_mode(self, capsys):
        data = run_json(
            ["count", "-n", "1", "--tmin", "4", "--tmax", "32", "--classical", "--json"],
            capsys,
        )
        assert data["mode"] == "classical"
        assert data["slope"] > 1.5  # quadratic growth

    def test_bad_range_exit_2(self, capsys):
        code, _ = run_cli(["count", "--tmin", "64", "--tmax", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", list(COUNT_GOLDEN), ids=" ".join)
    def test_golden_output(self, argv, capsys):
        assert run_cli(["count", *argv], capsys) == (0, COUNT_GOLDEN[argv])

    @pytest.mark.parametrize("argv, message", COUNT_BAD_INPUT)
    def test_bad_input_exit_2(self, argv, message, capsys):
        assert cli.main(["count", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("mode", [[], ["--classical"], ["--json"]])
    def test_huge_answer_refused_before_counting(self, mode, capsys, monkeypatch):
        def never(n, t):
            raise AssertionError("counted although the answer is too long")

        monkeypatch.setattr(heights, "classical_count", never)
        monkeypatch.setattr(heights, "quantum_count", never)
        assert cli.main(["count", "-n", "2000000", "--tmin", "2", "--tmax", "4", *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: N(T) may have 2408242 digits, over 100000: lower -n or --tmax\n"

    def test_classical_tmax_refused_before_counting(self, capsys, monkeypatch):
        def never(n, t):
            raise AssertionError("counted although --tmax is over the bound")

        monkeypatch.setattr(heights, "classical_count", never)
        assert cli.main(["count", "-n", "1", "--tmin", "2", "--tmax", "100000000", "--classical"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --classical counts up to --tmax 100000, got 100000000\n"
        monkeypatch.setattr(heights, "classical_count", lambda n, t: t)
        argv = ["count", "--tmin", "2", "--tmax", str(cli.CLASSICAL_TMAX), "--classical"]
        assert run_cli(argv, capsys)[0] == 0

    def test_answer_size_limit_is_exact(self, capsys, monkeypatch):
        # at --tmax 4 the bound is (n + 1) * 4 bits: n = 83047 is the largest
        # n whose bound stays within COUNT_MAX_DIGITS
        monkeypatch.setattr(heights, "quantum_count", lambda n, t: t)
        assert run_cli(["count", "-n", "83047", "--tmin", "2", "--tmax", "4"], capsys)[0] == 0
        assert run_cli(["count", "-n", "83048", "--tmin", "2", "--tmax", "4"], capsys)[0] == 2


class TestCacheAndRoundTrip:
    def test_cache_matches_no_cache(self, tmp_path, capsys):
        cache = tmp_path / "h.cache"
        base = run_json(["classgroup", "-D", "-56", "--json"], capsys)
        cached1 = run_json(
            ["classgroup", "-D", "-56", "--json", "--cache", str(cache)], capsys
        )
        cached2 = run_json(
            ["classgroup", "-D", "-56", "--json", "--cache", str(cache)], capsys
        )
        assert base == cached1 == cached2
        content = cache.read_text().splitlines()
        assert content[0] == cli.CACHE_VERSION
        assert any(line.startswith("-56 ") for line in content[1:])

    @pytest.mark.parametrize(
        "argv",
        [["cf", "--sqrt", "2"], ["sha", "--charpoly", "1,0,5"],
         ["height", "--theta", "1/3"], ["count"]],
        ids=lambda argv: argv[0],
    )
    def test_cache_offered_only_where_used(self, argv, tmp_path, capsys):
        cache = tmp_path / "bad.cache"
        cache.write_text(f"{cli.CACHE_VERSION}\nnot a cache line\n")
        assert cli.main([*argv, "--cache", str(cache)]) == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert cli.main(argv) == 0
        assert cache.read_text() == f"{cli.CACHE_VERSION}\nnot a cache line\n"

    def test_environment_names_no_cache(self, tmp_path, capsys, monkeypatch):
        # only --cache names a cache file
        cache = tmp_path / "env.cache"
        monkeypatch.setenv("RMARITH_CACHE", str(cache))
        run_json(["classgroup", "-D", "-23", "--json"], capsys)
        assert not cache.exists()

    def test_version_mismatch_recomputes(self, tmp_path, capsys):
        cache = tmp_path / "stale.cache"
        cache.write_text("rmarith-cache 999\n-23 7 7\n")
        data = run_json(
            ["classgroup", "-D", "-23", "--json", "--cache", str(cache)], capsys
        )
        assert data["h"] == 3  # poisoned entry ignored
        assert cache.read_text().splitlines()[0] == cli.CACHE_VERSION

    @pytest.mark.parametrize("text", ["important notes\n", "\n-23 3 3\n", "rmarith-cache\n"])
    def test_foreign_file_left_as_it_is(self, text, tmp_path, capsys):
        notes = tmp_path / "notes.txt"
        notes.write_text(text)
        code = cli.main(["classgroup", "-D", "-23", "--cache", str(notes)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {notes} is not an rmarith cache; it is left as it is\n"
        assert notes.read_text() == text

    def test_empty_file_starts_a_record(self, tmp_path, capsys):
        cache = tmp_path / "empty.cache"
        cache.write_text("")
        run_json(["classgroup", "-D", "-23", "--json", "--cache", str(cache)], capsys)
        assert cache.read_text() == f"{cli.CACHE_VERSION}\n-23 3 3\n"

    def test_cache_entries_sorted(self, tmp_path, capsys):
        cache = tmp_path / "sorted.cache"
        for d in ("-56", "-23", "-4"):
            run_json(["classgroup", "-D", d, "--json", "--cache", str(cache)], capsys)
        keys = [int(line.split()[0]) for line in cache.read_text().splitlines()[1:]]
        assert keys == sorted(keys)

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        cache = tmp_path / "bad.cache"
        cache.write_text(f"{cli.CACHE_VERSION}\n-23 3 x\n")
        code = cli.main(["classgroup", "-D", "-23", "--cache", str(cache)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "line 2" in err

    def test_unwritable_path_exit_2(self, tmp_path, capsys):
        cache = tmp_path / "no" / "such" / "dir" / "c"
        code = cli.main(["classgroup", "-D", "-23", "--cache", str(cache)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write cache")
        assert not cache.parent.exists()

    def test_search_limit_failure_still_saves(self, tmp_path, capsys):
        cache = tmp_path / "limit.cache"
        code = cli.main(
            ["rm-conductor", "-d", "5", "-f", "1", "--limit", "3", "--cache", str(cache)]
        )
        assert code == 3
        keys = {int(line.split()[0]) for line in cache.read_text().splitlines()[1:]}
        assert keys == {-20}  # the target, recorded before the scan

    def test_wrong_entry_behind_the_match_is_not_read(self, tmp_path, capsys):
        # 20 = 5 * 2^2 is a scan step, not a printed number: the scan never
        # reads the cache, so the wrong entry cannot stop it at f' = 2
        cache = tmp_path / "wrong.cache"
        cache.write_text(f"{cli.CACHE_VERSION}\n20 2 2\n")
        code = cli.main(
            ["rm-conductor", "-d", "5", "-f", "1", "--json", "--cache", str(cache)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["f_prime"] == 8

    def test_wrong_printed_rm_entry_exit_2(self, tmp_path, capsys):
        # 320 = 5 * 8^2 is the matched order, whose class number is printed
        cache = tmp_path / "wrong.cache"
        cache.write_text(f"{cli.CACHE_VERSION}\n320 9 9\n")
        code = cli.main(["rm-conductor", "-d", "5", "-f", "1", "--cache", str(cache)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cache entry for D 320 disagrees")
        assert "Traceback" not in captured.err

    def test_wrong_classgroup_entry_exit_2(self, tmp_path, capsys):
        cache = tmp_path / "wrong.cache"
        cache.write_text(f"{cli.CACHE_VERSION}\n-23 7 7\n")
        code = cli.main(["classgroup", "-D", "-23", "--cache", str(cache)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cache entry for D -23 disagrees")
        assert "Traceback" not in captured.err

    def test_json_round_trip_recompute(self, capsys):
        first = run_json(["classgroup", "-D", "-104", "--json"], capsys)
        again = run_json(["classgroup", "-D", str(first["D"]), "--json"], capsys)
        assert first == again
        assert first["wide"] == quadforms.class_number(-104, "wide")


class TestExitCodes:
    def test_internal_invariant_exit_4(self, capsys, monkeypatch):
        def broken(names, d):
            raise AssertionError("forced internal failure")

        monkeypatch.setattr(quadforms, "_group_structure", broken)
        code, _ = run_cli(["classgroup", "-D", "-23"], capsys)
        assert code == 4

    def test_help_exits_zero(self, capsys):
        code, _ = run_cli(["--help"], capsys)
        assert code == 0

    def test_unknown_command_exit_2(self, capsys):
        code, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    def test_one_parser_serves_every_call(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        assert run_cli(["count", "--tmin", "0"], capsys)[0] == 2
        argv = ["count", "--tmax", "64", "--json"]
        first = run_cli(argv, capsys)
        assert first[0] == 0 and run_cli(argv, capsys) == first
        assert run_cli(["--version"], capsys)[0] == 0


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rmarith", "classgroup", "-D", "-23", "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h"] == 3
