"""rmarith benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload classgroup --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, both modes

Run from the root of a checkout. Each measurement happens in a fresh
interpreter (perfbench/worker.py). With --trace 0 the last line of output
is one JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run over a fixed number of rounds, plus the
tracing overhead against an untraced run of the same rounds. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

SETUP_SAMPLES = 3  # fresh set-ups per run; setup_s is their median
WORKER_TIMEOUT = 170

# (metric, traced function, field, unit); fields index tracer aggregates
FIELDS = {"calls": 0, "ms": 1, "self_ms": 2, "size": 3}
LAYER_METRICS = [
    ("quadforms.compose.calls", "quadforms.compose", "calls", "count"),
    ("quadforms.compose.self_ms", "quadforms.compose", "self_ms", "ms"),
    ("quadforms.canonical_representative.calls", "quadforms.canonical_representative", "calls", "count"),
    ("quadforms.canonical_representative.self_ms", "quadforms.canonical_representative", "self_ms", "ms"),
    ("quadforms.reduce_form.calls", "quadforms.reduce_form", "calls", "count"),
    ("quadforms.composition_table.ms", "quadforms.composition_table", "ms", "ms"),
    ("quadforms.class_group_structure.self_ms", "quadforms.class_group_structure", "self_ms", "ms"),
    ("quadforms.class_representatives.ms", "quadforms.class_representatives", "ms", "ms"),
    ("quadforms.enumerate_reduced_forms.calls", "quadforms.enumerate_reduced_forms", "calls", "count"),
    ("quadforms.enumerate_reduced_forms.self_ms", "quadforms.enumerate_reduced_forms", "self_ms", "ms"),
    ("quadforms.enumerate_reduced_forms.forms", "quadforms.enumerate_reduced_forms", "size", "count"),
    ("quadforms.class_number.calls", "quadforms.class_number", "calls", "count"),
    ("quadforms.class_number.ms", "quadforms.class_number", "ms", "ms"),
    ("contfrac.fundamental_unit.calls", "contfrac.fundamental_unit", "calls", "count"),
    ("contfrac.fundamental_unit.self_ms", "contfrac.fundamental_unit", "self_ms", "ms"),
    ("contfrac.unit_norm.calls", "contfrac.unit_norm", "calls", "count"),
    ("contfrac.unit_norm.self_ms", "contfrac.unit_norm", "self_ms", "ms"),
    ("contfrac.cf_expand.calls", "contfrac.cf_expand", "calls", "count"),
    ("contfrac.cf_expand.self_ms", "contfrac.cf_expand", "self_ms", "ms"),
    ("contfrac.cf_expand.terms", "contfrac.cf_expand", "size", "count"),
    ("intmath.prime_factors.calls", "intmath.prime_factors", "calls", "count"),
    ("intmath.prime_factors.self_ms", "intmath.prime_factors", "self_ms", "ms"),
    ("intmath.prime_factors.cache_hits", "intmath.prime_factors", "cache_hits", "count"),
    ("intmath.divisors.calls", "intmath.divisors", "calls", "count"),
    ("intmath.divisors.self_ms", "intmath.divisors", "self_ms", "ms"),
    ("intmath.factorization.calls", "intmath.factorization", "calls", "count"),
    ("intmath.xgcd.calls", "intmath.xgcd", "calls", "count"),
    ("intmath.crt_pair.calls", "intmath.crt_pair", "calls", "count"),
    ("cmrm.rm_conductor.ms", "cmrm.rm_conductor", "ms", "ms"),
    ("cmrm.conductors_tried", "cmrm.rm_conductor", "size", "count"),
    ("latimer.similarity_class_count_bruteforce.ms", "latimer.similarity_class_count_bruteforce", "ms", "ms"),
    ("latimer.char_poly.calls", "latimer.char_poly", "calls", "count"),
    ("latimer.sha_for_curve_matrix.ms", "latimer.sha_for_curve_matrix", "ms", "ms"),
    ("heights.counting_function.ms", "heights.counting_function", "ms", "ms"),
    ("heights.points", "heights.counting_function", "size", "count"),
    ("heights.minkowski_q.calls", "heights.minkowski_q", "calls", "count"),
    ("heights.minkowski_q.self_ms", "heights.minkowski_q", "self_ms", "ms"),
    ("heights.inverse_minkowski_q.calls", "heights.inverse_minkowski_q", "calls", "count"),
]
CLI_METRICS = [
    ("cli.startup_ms", "ms"), ("cli.classgroup.ms", "ms"), ("cli.rm-conductor.ms", "ms"),
    ("cli.cf.ms", "ms"), ("cli.sha.ms", "ms"), ("cli.height.ms", "ms"), ("cli.count.ms", "ms"),
    ("cli.cache_cold_ms", "ms"), ("cli.cache_warm_ms", "ms"), ("cli.cache_bytes", "bytes"),
]


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def start_worker(root, work, workload, seed, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", work, "--root", root, *extra]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def run_worker(root, work, workload, seed, *extra) -> tuple[float, int]:
    """Start a worker; return (seconds until READY, exit code)."""
    t0 = time.perf_counter()
    proc = start_worker(root, work, workload, seed, *extra)
    ready = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
        code = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return (ready if ready is not None else float("nan")), code


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


def end_to_end(root, run_dir, workload, seed, seconds):
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        ready, code = run_worker(root, os.path.join(run_dir, f"setup{i}"), workload, seed,
                                 "--setup-only")
        if code:
            raise RuntimeError(f"set-up worker exited {code}")
        setups.append(ready)
    out = os.path.join(run_dir, "timed.json")
    ready, code = run_worker(root, os.path.join(run_dir, "timed"), workload, seed,
                             "--seconds", str(seconds), "--out", out)
    if code:
        raise RuntimeError(f"timed worker exited {code}")
    setups.append(ready)
    with open(out) as fh:
        s = json.load(fh)
    lat = sorted(s["latencies_s"])
    if not lat:
        raise RuntimeError("no operation completed")
    p = W.TAIL_PERCENTILE[workload]
    print(f"{workload} seed {seed}: {s['attempted']} operations in {s['rounds']} rounds, "
          f"{s['busy_s']:.2f} s busy, {s['cpu_s']:.2f} s CPU; tail is p{p} of {len(lat)} "
          f"({len(lat) - math.ceil(p / 100 * len(lat))} beyond); "
          f"set-up samples {', '.join(f'{x:.3f}' for x in setups)} s")
    metrics = {
        "ops_per_s": (len(lat) / s["busy_s"], "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": (percentile(lat, p) * 1000, "ms"),
        "peak_rss_mb": (s["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return s, metrics


def per_layer(root, run_dir, workload, seed):
    rounds = str(W.TRACE_ROUNDS[workload])
    plain_out = os.path.join(run_dir, "untraced.json")
    traced_out = os.path.join(run_dir, "traced.json")
    for name, out, extra in (("untraced", plain_out, ["--probe"]), ("traced", traced_out, ["--trace"])):
        _, code = run_worker(root, os.path.join(run_dir, name), workload, seed,
                             "--rounds", rounds, "--out", out, *extra)
        if code:
            raise RuntimeError(f"{name} worker exited {code}")
    with open(plain_out) as fh:
        plain = json.load(fh)
    with open(traced_out) as fh:
        traced = json.load(fh)
    trace = traced["trace"]
    metrics = {}
    for name, fn, field, unit in LAYER_METRICS:
        if field == "cache_hits":
            value = trace["cache_hits"].get(fn, 0)
        else:
            value = trace["functions"].get(fn, [0, 0.0, 0.0, 0])[FIELDS[field]]
            if unit == "ms":
                value *= 1000
        metrics[name] = (value, unit)
    for name, unit in CLI_METRICS:
        metrics[name] = (plain["probe"][name], unit)
    plain_rate = len(plain["latencies_s"]) / plain["busy_s"]
    traced_rate = len(traced["latencies_s"]) / traced["busy_s"]
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    if trace["absent"]:
        print(f"absent (reported as 0): {', '.join(trace['absent'])}")
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with open(os.path.join(HERE, ".work", f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": int(rounds), **trace}, fh, indent=1)
    print(f"{workload} seed {seed}: traced {rounds} rounds, overhead x{plain_rate / traced_rate:.2f}")
    merged = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "wrong": plain["wrong"] + traced["wrong"],
        "check_errors": plain["check_errors"] + traced["check_errors"],
        "fail_messages": plain["fail_messages"] + traced["fail_messages"],
    }
    return merged, metrics


def run_one(root, workload, seed, seconds, trace) -> dict:
    run_dir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if trace:
            s, metrics = per_layer(root, run_dir, workload, seed)
        else:
            s, metrics = end_to_end(root, run_dir, workload, seed, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for msg in s["fail_messages"]:
        print(f"failed operation: {msg}")
    for msg in s["check_errors"]:
        print(f"wrong answer: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit}")
    return {
        "correct": s["wrong"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    for needed in (os.path.join("src", "rmarith", "__init__.py"), os.path.join("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(root, needed)):
            return fail(f"{needed} not found; run from the root of an rmarith checkout")
    if not (args.all or args.workload):
        return fail("give --workload or --all")
    try:
        if args.all:
            results = {w: [run_one(root, w, args.seed, args.seconds, t) for t in (0, 1)]
                       for w in W.WORKLOADS}
            print(json.dumps(results))
            return 0
        result = run_one(root, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
