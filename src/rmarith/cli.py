"""Command-line front end.

Subcommands: classgroup, rm-conductor, cf, sha, height, count. Output is a
human table by default, JSON with --json, CSV with --csv (not both); the
conductor -f of classgroup goes only with -d. classgroup and rm-conductor
take a class-number cache (plain text, versioned) with --cache, a checked
record of the class numbers they print: computed without it, checked against
its entries and added to it, so no entry can change an answer. A malformed
cache file, a file that is not a cache (it is left as it is), an unwritable
cache path or a disagreeing entry is an input error. count --classical
counts up to --tmax CLASSICAL_TMAX.

Exit codes: 0 success, 2 input error, 3 search limit exceeded, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from itertools import chain, cycle, islice
from math import log2, log10

from . import __version__
from .errors import RmarithError, SearchLimitExceeded

# Each command imports the modules it computes with, and output modules are
# imported only when asked for, so a command pays start-up only for itself.

CACHE_VERSION = "rmarith-cache 1"
COUNT_MAX_DIGITS = 100_000  # the longest N(T) that count prints
CF_MAX_DIGITS = 3_000_000  # the most digits of periodic convergents that cf prints
CF_MAX_TERM_DIGITS = 20_000  # and the most in one numerator or denominator
CLASSICAL_TMAX = 100_000  # classical_count factors every d <= T

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


class ClassNumberCache:
    """Versioned `D narrow wide` lines; loaded once, written atomically.

    A checked record of the class numbers commands print, never a source of
    them.
    """

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[int, tuple[int, int]] = {}
        self.dirty = False
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, encoding="ascii") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return
        if lines and not lines[0].startswith("rmarith-cache "):
            raise ValueError(f"{self.path} is not an rmarith cache; it is left as it is")
        if not lines or lines[0] != CACHE_VERSION:
            return  # empty or another version: start a new record
        for number, line in enumerate(lines[1:], start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                d, narrow, wide = (int(v) for v in parts)
            except ValueError:
                raise ValueError(
                    f"cache {self.path} line {number}: expected 'D narrow wide', got {line!r}"
                ) from None
            self.entries[d] = (narrow, wide)

    def verify(self, d: int, narrow: int, wide: int) -> None:
        """Record the computed class numbers of d; ValueError if an entry disagrees."""
        cached = self.entries.get(d)
        if cached is None:
            self.entries[d] = (narrow, wide)
            self.dirty = True
        elif cached != (narrow, wide):
            raise ValueError(
                f"cache entry for D {d} disagrees: it holds narrow {cached[0]}, wide {cached[1]}; "
                f"computed narrow {narrow}, wide {wide}"
            )

    def save(self) -> None:
        if not self.dirty:
            return
        lines = [CACHE_VERSION]
        lines += [f"{d} {n} {w}" for d, (n, w) in sorted(self.entries.items())]
        payload = "\n".join(lines) + "\n"
        import tempfile

        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rmarith-cache-")
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(payload)
            os.replace(tmp, self.path)
        except OSError as exc:
            raise ValueError(f"cannot write cache {self.path}: {exc.strerror}") from None
        finally:
            if tmp and os.path.exists(tmp):
                os.unlink(tmp)
        self.dirty = False


def _emit(args, result: dict, human_lines: list[str], csv_rows: list[list]) -> None:
    if args.json:
        import json

        print(json.dumps(result, sort_keys=True))
    elif args.csv:
        import csv

        writer = csv.writer(sys.stdout)
        for row in csv_rows:
            writer.writerow(row)
    else:
        for line in human_lines:
            print(line)


@contextmanager
def _long_int_strings():
    """Lift Python's cap on int/str conversion (3.11+), then restore it.

    Exact answers such as ?(3/64479) = k/2^21492 print with thousands of
    digits; the cap is restored because tests call main() in-process.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# Commands


def cmd_classgroup(args, cache) -> None:
    from . import quadforms

    if args.discriminant is not None:
        if args.conductor is not None:
            raise ValueError("-f goes with -d, not with -D")
        d = args.discriminant
        d_k, f = quadforms.split_discriminant(d)
    else:
        d_k, f = args.fundamental, 1 if args.conductor is None else args.conductor
        d = quadforms.QuadraticOrder(d_k, f).discriminant
    names = quadforms._classes(d_k, f)
    classes = sorted(set(names.values()))
    narrow, wide = len(classes), len(quadforms._wide_names(names, d))
    if cache:
        cache.verify(d, narrow, wide)
    structure = quadforms._group_structure(names, d)
    reps = [list(g) for g in classes]
    result = {
        "D": d,
        "d_k": d_k,
        "f": f,
        "h": narrow,
        "narrow": narrow,
        "wide": wide,
        "divisors": list(structure.elementary_divisors),
        "representatives": reps,
    }
    human = [
        f"discriminant      {d}  (fundamental {d_k}, conductor {f})",
        f"class number      narrow {narrow}, wide {wide}",
        f"group structure   {' x '.join('Z/' + str(v) for v in structure.elementary_divisors) or 'trivial'}",
        "representatives   " + " ".join(str(quadforms.BinaryQuadraticForm(*g)) for g in classes),
    ]
    rows = [["a", "b", "c"]] + reps
    _emit(args, result, human, rows)


def cmd_rm_conductor(args, cache) -> None:
    from . import cmrm, quadforms

    limit = cmrm.DEFAULT_SEARCH_LIMIT if args.limit is None else args.limit
    core = cmrm._normalize_radicand(args.d)
    if args.f < 1:
        raise ValueError("conductor must be positive")
    cm_d_k = quadforms._field_discriminant(-core)
    cm_disc = cm_d_k * args.f * args.f
    cm_narrow, target = next(quadforms._class_numbers(cm_d_k, (args.f,)))
    if cache:
        # recorded before the scan, so a search-limit failure still saves it
        cache.verify(cm_disc, cm_narrow, target)
    rm_d_k = quadforms._field_discriminant(core)
    f_prime, rm_narrow, rm_h = cmrm._scan(rm_d_k, target, limit)
    rm_disc = rm_d_k * f_prime * f_prime
    if cache:
        cache.verify(rm_disc, rm_narrow, rm_h)
    result = {
        "d": core,
        "f": args.f,
        "f_prime": f_prime,
        "cm_discriminant": cm_disc,
        "rm_discriminant": rm_disc,
        "cm_class_number": target,
        "rm_class_number": rm_h,
    }
    human = [
        f"imaginary side    Z + {args.f}*O_Q(sqrt(-{core}))  (discriminant {cm_disc}, h = {target})",
        f"matched conductor f' = {f_prime}",
        f"real side         Z + {f_prime}*O_Q(sqrt({core}))  (discriminant {rm_disc}, h = {rm_h})",
    ]
    rows = [["d", "f", "f_prime", "class_number"], [core, args.f, f_prime, target]]
    _emit(args, result, human, rows)


def _parse_ints(text: str, expected: int | None = None) -> list[int]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    values = [int(p) for p in parts]
    if expected is not None and len(values) != expected:
        raise ValueError(f"expected {expected} comma-separated integers, got {len(values)}")
    return values


def _parse_fraction(text: str):
    from fractions import Fraction

    num, _, den = text.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ValueError(f"{text}: zero denominator")
    return Fraction(int(num), den)


def _check_convergent_digits(cf, count: int) -> None:
    """Refuse --terms before computing a convergent when the output may be too long.

    |p_k| and q_k are at most P_k = prod_{i<=k} (|a_i| + 1), so each has at
    most log10 P_k + 1 digits. log10 P_k grows by at least log10 2 a term, so
    the scan stops within a few thousand terms.
    """
    log_p = digits = 0.0
    terms = islice(chain(cf.preperiod, cycle(cf.period)), max(count, 0))
    for k, a in enumerate(terms):
        log_p += log10(abs(a) + 1)
        digits += 2 * (log_p + 1)
        if digits > CF_MAX_DIGITS or log_p >= CF_MAX_TERM_DIGITS:
            raise ValueError(
                f"--terms {count}: the convergents may have over {CF_MAX_DIGITS} digits in all "
                f"or {CF_MAX_TERM_DIGITS} in one: lower --terms to at most {k}"
            )


def cmd_cf(args) -> None:
    from . import contfrac

    given = [v for v in (args.sqrt, args.surd, args.rational) if v is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --sqrt, --surd, --rational")
    if args.sqrt is not None:
        value = contfrac.QuadraticIrrational.sqrt(args.sqrt)
        shown = f"sqrt({args.sqrt})"
    elif args.surd is not None:
        p, q, d = _parse_ints(args.surd, 3)
        value = contfrac.QuadraticIrrational(p, q, d)
        shown = str(value)
    else:
        value = _parse_fraction(args.rational)
        shown = str(value)
    flag, cf = contfrac.is_rm(value)
    count = args.terms
    if not cf.is_periodic:
        count = min(count, len(cf.preperiod))
    else:
        _check_convergent_digits(cf, count)
    convs = [f"{p}/{q}" if q > 1 else str(p) for p, q in contfrac.convergents(cf, count)]
    result = {
        "input": shown,
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
        "is_rm": flag,
        "expansion": str(cf),
        "convergents": convs,
    }
    human = [
        f"value       {shown}",
        f"expansion   {cf}",
        f"real multiplication: {'yes' if flag else 'no (rational)'}",
        "convergents " + ", ".join(convs),
    ]
    rows = [["k", "term", "convergent"]] + [
        [k, t, c] for k, (t, c) in enumerate(zip(cf.terms(count), convs))
    ]
    _emit(args, result, human, rows)


def cmd_sha(args) -> None:
    from . import latimer, quadforms

    given = [v for v in (args.matrix, args.charpoly) if v is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --matrix, --charpoly")
    if args.matrix is not None:
        entries = _parse_ints(args.matrix, 4)
        matrix = latimer.IntegerMatrix(((entries[0], entries[1]), (entries[2], entries[3])))
        poly = latimer.char_poly(matrix)
        source = {"matrix": [list(r) for r in matrix.entries]}
    else:
        coeffs = _parse_ints(args.charpoly, 3)
        if coeffs[0] != 1:
            raise ValueError("characteristic polynomial must be monic")
        poly = tuple(coeffs)
        source = {"charpoly": list(poly)}
    disc = poly[1] * poly[1] - 4 * poly[2]
    if args.matrix is not None:
        report = latimer.sha_for_curve_matrix(matrix)
    else:
        report = latimer.sha_group(quadforms.class_group_structure(disc))
    result = {
        **source,
        "char_poly": list(poly),
        "discriminant": disc,
        "class_divisors": list(report.cl.elementary_divisors),
        "class_number": report.cl.h,
        "k": report.k,
        "sha_divisors": list(report.sha_divisors),
        "sha_order": report.sha_order,
    }
    human = [
        f"char poly    x^2 + ({poly[1]})x + ({poly[2]})   discriminant {disc}",
        f"class group  {' x '.join('Z/' + str(v) for v in report.cl.elementary_divisors) or 'trivial'}  (h = {report.cl.h}, 2-part exponent k = {report.k})",
        f"sha          {' x '.join('Z/' + str(v) for v in report.sha_divisors) or 'trivial'}  (order {report.sha_order})",
    ]
    rows = [
        ["discriminant", "k", "class_number", "sha_order"],
        [disc, report.k, report.cl.h, report.sha_order],
    ]
    _emit(args, result, human, rows)


def _parse_theta(text: str):
    if "," in text:
        from .contfrac import QuadraticIrrational

        p, q, d = _parse_ints(text, 3)
        return QuadraticIrrational(p, q, d)
    return _parse_fraction(text)


def cmd_height(args) -> None:
    from . import heights

    thetas = [_parse_theta(t) for t in args.theta]
    values = [heights.question_mark_mod_1(theta) for theta in thetas]
    h = heights.affine_height(values)
    result = {
        "thetas": [str(t) for t in thetas],
        "question_mark_values": [str(v) for v in values],
        "height": h,
    }
    human = [
        "theta        " + ", ".join(str(t) for t in thetas),
        "?(theta)     " + ", ".join(str(v) for v in values),
        f"height       {h}",
    ]
    rows = [["theta", "question_mark", "height"]] + [
        [str(t), str(v), h] for t, v in zip(thetas, values)
    ]
    _emit(args, result, human, rows)


def cmd_count(args) -> None:
    from . import heights

    if args.tmin < 1 or args.tmax < args.tmin:
        raise ValueError("need 1 <= tmin <= tmax")
    if args.classical and args.tmax > CLASSICAL_TMAX:
        raise ValueError(f"--classical counts up to --tmax {CLASSICAL_TMAX}, got {args.tmax}")
    # N(T) < 2^((n + 1)(b + 1)) for T < 2^b, in both modes
    digits = int((args.n + 1) * (args.tmax.bit_length() + 1) * log10(2)) + 1
    if digits > COUNT_MAX_DIGITS:
        raise ValueError(f"N(T) may have {digits} digits, over {COUNT_MAX_DIGITS}: lower -n or --tmax")
    ts = []
    t = args.tmin
    while t <= args.tmax:
        ts.append(t)
        t *= 2
    count = heights.classical_count if args.classical else heights.quantum_count
    rows_data = [(t, count(args.n, t)) for t in ts]
    slope = heights.loglog_slope(rows_data)
    result = {
        "n": args.n,
        "mode": "classical" if args.classical else "quantum",
        "rows": [[t, c, log2(c)] for t, c in rows_data],
        "slope": slope,
    }
    human = [f"{'T':>8} {'N':>12} {'log2 N':>10}"]
    human += [f"{t:>8} {c:>12} {log2(c):>10.3f}" for t, c in rows_data]
    human.append(f"log-log slope {slope:.3f}")
    csv_rows = [["T", "N", "log2N"]] + [[t, c, f"{log2(c):.6f}"] for t, c in rows_data]
    _emit(args, result, human, csv_rows)


# ---------------------------------------------------------------------------
# Wiring


@functools.lru_cache(maxsize=1)  # argparse set-up outweighs a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmarith",
        description="exact arithmetic of quadratic orders and question-mark heights",
        epilog="exit codes: 0 success, 2 input error, 3 search limit exceeded, "
        "4 internal invariant violation",
    )
    parser.add_argument("--version", action="version", version=f"rmarith {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    output = common.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="machine-readable output")
    output.add_argument("--csv", action="store_true", help="CSV output")
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--cache", metavar="PATH", help="class-number cache file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", parents=[common, cached],
                       help="class group of a quadratic order")
    order = p.add_mutually_exclusive_group(required=True)
    order.add_argument("-D", "--discriminant", type=int, help="order discriminant")
    order.add_argument("-d", "--fundamental", type=int, help="fundamental discriminant")
    p.add_argument("-f", "--conductor", type=int, help="conductor, with -d only (default 1)")

    p = sub.add_parser("rm-conductor", parents=[common, cached],
                       help="least real conductor matching an imaginary class number")
    p.add_argument("-d", type=int, required=True, help="positive radicand (squarefree core taken)")
    p.add_argument("-f", type=int, default=1, help="imaginary-side conductor")
    p.add_argument("--limit", type=int)  # default cmrm.DEFAULT_SEARCH_LIMIT, read when used

    p = sub.add_parser("cf", parents=[common], help="continued fraction expansion")
    p.add_argument("--sqrt", type=int, metavar="N")
    p.add_argument("--surd", metavar="P,Q,D", help="(P + sqrt(D))/Q")
    p.add_argument("--rational", metavar="N/M")
    p.add_argument("--terms", type=int, default=8,
                   help="convergents to report; refused for a periodic expansion when "
                   f"they may have over {CF_MAX_DIGITS} digits in all or "
                   f"{CF_MAX_TERM_DIGITS} in one")

    p = sub.add_parser("sha", parents=[common],
                       help="Sha group from a 2x2 matrix or its char poly")
    p.add_argument("--matrix", metavar="A,B,C,D", help="row-major entries")
    p.add_argument("--charpoly", metavar="1,T,N", help="monic coefficients, highest first")

    p = sub.add_parser("height", parents=[common], help="quantum height of a theta tuple")
    p.add_argument("--theta", action="append", required=True,
                   metavar="P/Q|P,Q,D", help="repeatable coordinate")

    p = sub.add_parser("count", parents=[common],
                       help="point counts N(T) and log-log growth slope")
    p.add_argument("-n", type=int, default=1, help="projective dimension")
    p.add_argument("--tmin", type=int, default=16)
    p.add_argument("--tmax", type=int, default=256)
    p.add_argument("--classical", action="store_true",
                   help="classical height instead of quantum height "
                   f"(--tmax at most {CLASSICAL_TMAX})")
    return parser


COMMANDS = {
    "classgroup": cmd_classgroup,
    "rm-conductor": cmd_rm_conductor,
    "cf": cmd_cf,
    "sha": cmd_sha,
    "height": cmd_height,
    "count": cmd_count,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        cache = ClassNumberCache(args.cache) if getattr(args, "cache", None) else None
        try:
            with _long_int_strings():
                if "cache" in args:  # classgroup and rm-conductor
                    COMMANDS[args.command](args, cache)
                else:
                    COMMANDS[args.command](args)
        finally:
            if cache:
                cache.save()
    except SearchLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (RmarithError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def main_exit() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_exit()
