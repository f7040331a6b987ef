"""Regenerate perfbench/pools.json: benchmark inputs with their expected answers.

    python3 perfbench/make_pools.py

Candidates are drawn from a fixed random stream and kept when their cost
proxy falls in a band, so that every operation of a workload costs about
the same (tens of milliseconds) whichever entries a seed picks. Every
expected answer comes from `checks.py`, which shares no code with rmarith;
rmarith is not imported here. Takes about five minutes on one core.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from math import isqrt

import checks as C

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "pools.json")


def is_discriminant(d: int) -> bool:
    return d % 4 in (0, 1) and not (d > 0 and isqrt(d) ** 2 == d)


def collect(label, count, candidates, keep):
    """Run `keep` over distinct candidates until `count` entries are kept."""
    out, seen = [], set()
    t0 = time.time()
    for cand in candidates:
        if cand in seen:
            continue
        seen.add(cand)
        entry = keep(cand)
        if entry is not None:
            out.append(entry)
            if len(out) == count:
                break
    print(f"{label}: {len(out)} entries from {len(seen)} candidates in {time.time() - t0:.0f} s",
          file=sys.stderr)
    return out


def stream(rng, lo, hi, ok=is_discriminant):
    while True:
        d = rng.randrange(lo, hi + 1)
        if ok(d):
            yield d


def fundamental_stream(rng, lo, hi, sign):
    while True:
        d = C.field_discriminant(sign * rng.randrange(lo, hi + 1))
        if lo <= abs(d) <= hi:
            yield d


def neg_group(h_lo, h_hi):
    def keep(d):
        h = len(C.reduced_definite_forms(d))
        return [d, h, h] if h_lo <= h <= h_hi else None
    return keep


def pos_group(p_lo, p_hi):
    # cost of the class group is about h^2 compositions, each walking a
    # cycle of (forms / h) reduced forms: h * forms
    def keep(d):
        cycles = C.rho_cycles(d)
        if not p_lo <= len(cycles) * sum(map(len, cycles)) <= p_hi:
            return None
        return [d, *C.class_numbers_naive(d)]
    return keep


def rm_entry(fp_lo, fp_hi, rng):
    def keep(d):
        if C.field_discriminant(d) not in (d, 4 * d) or d < 2:
            return None
        f = rng.randint(1, 4)
        try:
            fp, h = C.least_rm_conductor(d, f, limit=fp_hi)
        except AssertionError:
            return None
        return [d, f, fp, h] if fp >= fp_lo else None
    return keep


def period_length(d: int, cap: int) -> int:
    s = isqrt(d)
    m, q = d % 2, 2
    seen = {}
    while (m, q) not in seen and len(seen) <= cap:
        seen[(m, q)] = len(seen)
        a = (m + s) // q
        m = a * q - m
        q = (d - m * m) // q
    return len(seen) - seen.get((m, q), 0)


def unit_entry(l_lo, l_hi):
    def keep(d):
        if not l_lo <= period_length(d, l_hi + 1) <= l_hi:
            return None
        x, y, norm = C.pell_from_period(d)
        return [d, norm] + C.fingerprint(y)
    return keep


def main() -> None:
    rng = random.Random(20241209)
    pools = {}
    pools["classgroup"] = {
        "neg": collect("classgroup neg", 1000, stream(rng, -60000, -8000), neg_group(50, 63)),
        "pos": collect("classgroup pos", 1000, stream(rng, 20000, 120000), pos_group(5000, 8000)),
    }
    rm = collect("class_numbers rm", 600,
                 stream(rng, 100, 20000, lambda d: True), rm_entry(300, 700, rng))
    pools["class_numbers"] = {
        "rm": rm,
        "neg": collect("class_numbers neg", 600,
                       fundamental_stream(rng, 350000, 450000, -1), neg_group(0, 10**9)),
        "pos": collect("class_numbers pos", 600,
                       fundamental_stream(rng, 700000, 900000, 1),
                       lambda d: [d, *C.class_numbers_naive(d)]),
        "unit": collect("class_numbers unit", 600,
                        fundamental_stream(rng, 2 * 10**9, 8 * 10**9, 1), unit_entry(12000, 15000)),
    }
    cli_rm = collect("cli rm", 150, stream(rng, 100, 3000, lambda d: True),
                     rm_entry(100, 300, rng))
    rm_fields = {C.field_discriminant(s * d) for d, *_ in cli_rm for s in (1, -1)}
    neg = neg_group(20, 35)
    pos = pos_group(800, 2000)

    def cli_group(d):
        if C.split(d)[0] in rm_fields:
            return None
        return neg(d) if d < 0 else pos(d)

    mixed = (d if i % 2 else -d for i, d in enumerate(stream(rng, 3000, 40000)))
    pools["cli"] = {
        "classgroup": collect("cli classgroup", 150,
                              (d for d in mixed if is_discriminant(d)), cli_group),
        "rm": cli_rm,
    }
    with open(OUT, "w") as fh:
        json.dump(pools, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
