"""Workload definitions: seeded inputs, the calls they make, and their checks.

A workload is a list of rounds; a round is a fixed list of operations, and
an operation is one question a user asks (one library call, or one CLI
process). Timed runs execute whole rounds only, so every run has the same
mix of operations. Inputs come from `pools.json` (entries with expected
answers from `checks.py`) or are generated from the seed; within one run
no two operations share an input whose result rmarith memoises, so no
operation is answered from another's cache.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import checks as C

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("classgroup", "class_numbers", "enumerations", "cli_session")

# Highest percentile with at least ten operations beyond it at the reference
# sample counts in README.md.
TAIL_PERCENTILE = {"classgroup": 97, "class_numbers": 97, "enumerations": 97, "cli_session": 90}

# Rounds after which peak RSS is read. rmarith's caches grow with every
# operation, so reading it at a fixed round keeps a faster machine, which
# runs more rounds in the same time, from showing more memory.
RSS_ROUNDS = {"classgroup": 100, "class_numbers": 60, "enumerations": 15, "cli_session": 10}

# Rounds run by a traced run (and by its untraced twin that measures the
# tracing overhead): a fixed count, so work counters repeat exactly.
TRACE_ROUNDS = {"classgroup": 40, "class_numbers": 20, "enumerations": 6, "cli_session": 2}


def load_pools() -> dict:
    with open(os.path.join(HERE, "pools.json")) as fh:
        return json.load(fh)


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Seeded inputs


def _stern_brocot_rational(rng: random.Random, steps: int) -> Fraction:
    """The rational in (0, 1) reached by `steps` random moves down the Stern-Brocot tree."""
    lp, lq, rp, rq = 0, 1, 1, 1
    for _ in range(steps):
        mp, mq = lp + rp, lq + rq
        if rng.random() < 0.5:
            rp, rq = mp, mq
        else:
            lp, lq = mp, mq
    return Fraction(lp + rp, lq + rq)


def _periodic_surd(rng: random.Random, pre_len: int, period_len: int) -> tuple[int, int, int]:
    """(P, Q, D) for x = [0; pre..., (period...)], with Q > 0 dividing D - P^2."""
    pre = [rng.randint(1, 3) for _ in range(pre_len)]
    period = [rng.randint(1, 3) for _ in range(period_len)]
    # the tail t = [period; t] solves c t^2 + (e - a) t - b = 0 for the
    # period's word matrix [[a, b], [c, e]]
    a, b, c, e = 1, 0, 0, 1
    for k in period:
        a, b, c, e = a * k + b, a, c * k + e, c
    p, q, d = a - e, 2 * c, (a - e) ** 2 + 4 * b * c
    # y -> k + 1/y from the innermost partial quotient out, then x = 1/y;
    # 1/y = (-p + sqrt d)/((d - p^2)/q) keeps q | d - p^2
    for k in reversed(pre):
        p, q = -p, (d - p * p) // q
        p += k * q
    return -p, (d - p * p) // q, d


def _mul2(x, y):
    return [[x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
            [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]]]


def _conjugate_matrix(rng: random.Random, poly) -> list[int]:
    """A random GL(2, Z) conjugate of the companion matrix of x^2 + b x + c."""
    _, b, c = poly
    m = [[0, -c], [1, -b]]
    for _ in range(6):
        s = rng.choice((1, -1))
        if rng.random() < 0.5:
            g, g_inv = [[1, s], [0, 1]], [[1, -s], [0, 1]]
        else:
            g, g_inv = [[1, 0], [s, 1]], [[1, 0], [-s, 1]]
        m = _mul2(_mul2(g, m), g_inv)
    return [m[0][0], m[0][1], m[1][0], m[1][1]]


SIMILARITY_CASES = [((1, -6, -1), 12), ((1, -4, -1), 10), ((1, -3, -1), 14),
                    ((1, -5, -2), 10), ((1, -7, 1), 10)]

# (n, tmin, tmax, classical), each about as costly as the round's other
# operations, so that no single memory-heavy count makes up the tail
COUNT_CASES = [
    (1, 32, 64, True),
    (2, 6, 12, True),
    (3, 2, 4, True),
    (2, 128, 256, False),
    (1, 256, 512, False),
]


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _curve_matrix(rng: random.Random) -> list[int]:
    """A positive 2x2 matrix whose discriminant has a cyclic 2-part (genus theory)."""
    while True:
        m = [rng.randint(1, 12) for _ in range(4)]
        disc = (m[0] + m[3]) ** 2 - 4 * (m[0] * m[3] - m[1] * m[2])
        if not _is_square(disc) and C.genus_mu(disc) <= 2:
            return m


def build(workload: str, pools: dict, seed: int):
    """(warm-up round, iterator over timed rounds) for a workload and seed.

    Pool-based workloads end when their pool is used up; a run that reaches
    that point measures what it ran.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classgroup":
        neg = _shuffled(rng, pools["classgroup"]["neg"])
        pos = _shuffled(rng, pools["classgroup"]["pos"])
        rounds = iter([("classgroup", n), ("classgroup", p)] for n, p in zip(neg, pos))
    elif workload == "class_numbers":
        p = pools["class_numbers"]
        cols = [_shuffled(rng, p[k]) for k in ("rm", "neg", "pos", "unit")]
        rounds = iter([("rm_conductor", a), ("class_number", b), ("class_number", c),
                       ("fundamental_unit", d)] for a, b, c, d in zip(*cols))
    elif workload == "enumerations":
        rounds = (_enumeration_round(rng) for _ in iter(int, 1))
    elif workload == "cli_session":
        rounds = cli_rounds(pools, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return next(rounds), rounds


def cli_rounds(pools: dict, rng: random.Random):
    groups = _shuffled(rng, pools["cli"]["classgroup"])
    rms = _shuffled(rng, pools["cli"]["rm"])
    return (_cli_round(rng, g, r) for g, r in zip(groups, rms))


def _enumeration_round(rng: random.Random) -> list:
    ops = [("count", list(case)) for case in COUNT_CASES]
    ops.append(("minkowski_q", [_stern_brocot_rational(rng, 3000)]))
    ops.append(("minkowski_q", [_periodic_surd(rng, 40, 1200)]))
    ops.append(("quantum_height", [_stern_brocot_rational(rng, 2000),
                                   _periodic_surd(rng, 20, 600),
                                   1 + _stern_brocot_rational(rng, 500)]))
    for poly, bound in SIMILARITY_CASES:
        ops.append(("similarity", [_conjugate_matrix(rng, poly), bound]))
    return ops


def _cli_round(rng: random.Random, group, rm) -> list:
    d_group = group[0]
    d, f = rm[0], rm[1]
    surd_d = rng.randint(2, 10**6)
    while _is_square(surd_d):
        surd_d += 1
    surd_q = rng.randint(1, 40)
    # short Stern-Brocot paths: ?(theta) stays below the 4300-digit limit on
    # int -> str conversion, which `rmarith height` does not lift
    thetas = [str(_stern_brocot_rational(rng, rng.randint(40, 120))) for _ in range(3)]
    matrix = ",".join(map(str, _curve_matrix(rng)))
    return [
        ("cli", {"argv": ["classgroup", "-D", str(d_group)], "expect": group, "cache": True}),
        ("cli", {"argv": ["classgroup", "-D", str(d_group)], "expect": group, "cache": True}),
        ("cli", {"argv": ["rm-conductor", "-d", str(d), "-f", str(f)], "expect": rm, "cache": True}),
        ("cli", {"argv": ["rm-conductor", "-d", str(d), "-f", str(f)], "expect": rm, "cache": True}),
        ("cli", {"argv": ["cf", f"--surd={rng.randint(-99, 99)},{surd_q},{surd_d}"]}),
        ("cli", {"argv": ["sha", f"--matrix={matrix}"]}),
        ("cli", {"argv": ["height"] + [f"--theta={x}" for x in thetas]}),
        ("cli", {"argv": ["count", "-n", "2", "--tmin", "64", "--tmax", "128"]}),
    ]


# ---------------------------------------------------------------------------
# Execution


class Runner:
    """Calls rmarith for each operation; module attributes are looked up at
    call time so that a tracer's rebinding takes effect."""

    def __init__(self, work_dir: str, env: dict, trace_dir: str | None = None):
        from rmarith import cli, cmrm, contfrac, heights, latimer, quadforms

        self.cli, self.cmrm, self.contfrac = cli, cmrm, contfrac
        self.heights, self.latimer, self.quadforms = heights, latimer, quadforms
        self.QuadraticIrrational = contfrac.QuadraticIrrational
        self.work_dir = work_dir
        self.env = env
        self.cache_path = os.path.join(work_dir, "classnumbers.cache")
        self.trace_dir = trace_dir
        self.child_traces: list[str] = []

    def run(self, kind: str, payload):
        return getattr(self, "op_" + kind)(payload)

    def op_classgroup(self, entry):
        d = entry[0]
        s = self.quadforms.class_group_structure(d)
        reps = self.quadforms.class_representatives(d, "wide")
        return [list(s.elementary_divisors), s.h, [[g.a, g.b, g.c] for g in reps]]

    def op_rm_conductor(self, entry):
        return self.cmrm.rm_conductor(entry[0], entry[1])

    def op_class_number(self, entry):
        return self.quadforms.class_number(entry[0], "wide")

    def op_fundamental_unit(self, entry):
        return list(self.contfrac.fundamental_unit(entry[0]))

    def _theta(self, x):
        return x if isinstance(x, Fraction) else self.QuadraticIrrational(*x)

    def op_minkowski_q(self, payload):
        return self.heights.minkowski_q(self._theta(payload[0]))

    def op_quantum_height(self, payload):
        return self.heights.quantum_height([self._theta(x) for x in payload])

    def op_similarity(self, payload):
        m, bound = payload
        poly = self.latimer.char_poly(self.latimer.IntegerMatrix(((m[0], m[1]), (m[2], m[3]))))
        return [list(poly), self.latimer.similarity_class_count_bruteforce(poly, bound).count]

    def op_count(self, payload):
        n, tmin, tmax, classical = payload
        argv = ["count", "-n", str(n), "--tmin", str(tmin), "--tmax", str(tmax), "--json"]
        if classical:
            argv.append("--classical")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        if code:
            raise RuntimeError(f"count exited {code}")
        return [code, out.getvalue()]

    def op_cli(self, payload):
        argv = list(payload["argv"]) + ["--json"]
        if payload.get("cache"):
            argv += ["--cache", self.cache_path]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "rmarith"] + argv
        else:
            out = os.path.join(self.trace_dir, f"child-{len(self.child_traces)}.json")
            self.child_traces.append(out)
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), out] + argv
        proc = subprocess.run(cmd, env=self.env, cwd=self.work_dir, capture_output=True,
                              text=True, timeout=170)
        if proc.returncode:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-300:]}")
        return [proc.returncode, proc.stdout, proc.stderr[-400:]]


# ---------------------------------------------------------------------------
# Checks


class Checker:
    """Checks each result against `checks.py`; keeps state for cold/warm pairs."""

    def __init__(self, root: str):
        self.pell_smallest = C.load_oracles(root).pell_smallest
        self.first_output: dict[tuple, str] = {}

    def check(self, kind: str, payload, result) -> str | None:
        return getattr(self, "check_" + kind)(payload, result)

    def check_classgroup(self, entry, result):
        d, narrow, wide = entry
        divisors, h, reps = result
        if h != narrow:
            return f"h({d}) = {h}, expected {narrow}"
        err = C.check_structure(d, divisors, narrow) or C.check_forms(d, reps, wide)
        if err:
            return err
        if d < 0 and not all(abs(b) <= a <= c for a, b, c in reps):
            return f"a representative of {d} is not reduced"
        if d > 0 and not all(C._is_reduced_indefinite(a, b, d) for a, b, c in reps):
            return f"a representative of {d} is not reduced"
        return None

    def check_rm_conductor(self, entry, result):
        d, f, fp, _ = entry
        return None if result == fp else f"rm_conductor({d}, {f}) = {result}, expected {fp}"

    def check_class_number(self, entry, result):
        return None if result == entry[-1] else f"class_number({entry[0]}) = {result}, expected {entry[-1]}"

    def check_fundamental_unit(self, entry, result):
        d = entry[0]
        x, y, norm = result
        return C.check_unit(d, x, y, norm, entry[1:], self.pell_smallest)

    def _theta(self, x):
        return x if isinstance(x, Fraction) else tuple(x)

    def check_minkowski_q(self, payload, result):
        return C.check_question_mark(self._theta(payload[0]), result)

    def check_quantum_height(self, payload, result):
        expected = C.quantum_height([self._theta(x) for x in payload])
        return None if result == expected else f"quantum height {result}, expected {expected}"

    def check_similarity(self, payload, result):
        m, bound = payload
        poly, count = result
        expected_poly = [1, -(m[0] + m[3]), m[0] * m[3] - m[1] * m[2]]
        if poly != expected_poly:
            return f"char poly {poly}, expected {expected_poly}"
        expected = C.similarity_count(poly)
        return None if count == expected else f"{count} similarity classes for {poly}@{bound}, expected {expected}"

    def _check_count_json(self, n, classical, out):
        data = json.loads(out)
        for t, value, _ in data["rows"]:
            expected = C.classical_count(n, t) if classical else C.quantum_count(n, t)
            if value != expected:
                return f"N({t}) = {value} for n = {n}, expected {expected}"
        return None

    def check_count(self, payload, result):
        n, tmin, tmax, classical = payload
        code, out = result
        if code != 0:
            return f"count exited {code}"
        return self._check_count_json(n, classical, out)

    def check_cli(self, payload, result):
        code, out, err = result
        argv = payload["argv"]
        if code != 0:
            return f"rmarith {' '.join(argv)} exited {code}: {err}"
        key = tuple(argv)
        if payload.get("cache"):
            if key in self.first_output:
                if out != self.first_output[key]:
                    return f"rmarith {' '.join(argv)} printed another answer with a warm cache"
                return None
            self.first_output[key] = out
        data = json.loads(out)
        sub = argv[0]
        if sub == "classgroup":
            d, narrow, wide = payload["expect"]
            if (data["narrow"], data["wide"], data["h"]) != (narrow, wide, narrow):
                return f"classgroup {d}: class numbers {data['narrow']}, {data['wide']}"
            if [data["d_k"], data["f"]] != list(C.split(d)):
                return f"classgroup {d}: wrong field or conductor"
            return C.check_structure(d, data["divisors"], narrow) or C.check_forms(
                d, data["representatives"], narrow)
        if sub == "rm-conductor":
            d, f, fp, h = payload["expect"]
            got = (data["f_prime"], data["cm_class_number"], data["rm_class_number"])
            return None if got == (fp, h, h) else f"rm-conductor {d} {f}: {got}, expected {(fp, h, h)}"
        if sub == "cf":
            p, q, d = (int(v) for v in argv[1].split("=")[1].split(","))
            if (d - p * p) % q:
                p, q, d = p * q, q * q, d * q * q
            pre, per = C.expand_surd(p, q, d)
            if (data["preperiod"], data["period"]) != (pre, per):
                return f"cf {argv[1]}: expansion differs"
            convs = C.convergents((pre + per * 8)[:8])
            return None if data["convergents"] == [str(c) for c in convs] else f"cf {argv[1]}: convergents differ"
        if sub == "sha":
            a, b, c, e = (int(v) for v in argv[1].split("=")[1].split(","))
            poly = [1, -(a + e), a * e - b * c]
            disc = poly[1] ** 2 - 4 * poly[2]
            if data["char_poly"] != poly:
                return f"sha {argv[1]}: char poly {data['char_poly']}, expected {poly}"
            h = C.class_numbers_naive(disc)[0]
            err = C.check_structure(disc, data["class_divisors"], h)
            if err:
                return f"sha {argv[1]}: {err}"
            expected = C.sha_of(data["class_divisors"])
            if data["sha_divisors"] != expected:
                return f"sha {argv[1]}: {data['sha_divisors']}, expected {expected}"
            return None
        if sub == "height":
            thetas = [Fraction(a.split("=")[1]) for a in argv[1:]]
            values = [str(C.question_mark(x)) for x in thetas]
            if data["question_mark_values"] != values:
                return "height: question-mark values differ"
            expected = C.quantum_height(thetas)
            return None if data["height"] == expected else f"height {data['height']}, expected {expected}"
        if sub == "count":
            return self._check_count_json(int(argv[2]), "--classical" in argv, out)
        return f"no check for {sub}"
