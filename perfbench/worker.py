"""One benchmark process: set up, run rounds of operations, check answers.

Started by run.py in a fresh interpreter for every measurement:

    python3 perfbench/worker.py --workload W --seed N --work DIR --out FILE
        (--setup-only | --seconds S | --rounds R [--trace] [--probe])

Set-up copies the program's package into DIR, compiles its bytecode there
(so every run pays the same compilation), imports it, builds the seeded
inputs and runs one warm-up round; then it prints READY. The timed phase
runs whole rounds until S seconds of operations have passed, or exactly R
rounds. Answers are checked after the timed phase, and the summary goes to
FILE as JSON.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads as W


def child_env(pkg_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("RMARITH_CACHE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}
    env["PYTHONPATH"] = pkg_dir
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def install_program(root: str, work: str) -> str:
    """Copy src/rmarith into work/pkg and compile it; return the package dir."""
    pkg_dir = os.path.join(work, "pkg")
    shutil.copytree(os.path.join(root, "src", "rmarith"), os.path.join(pkg_dir, "rmarith"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(pkg_dir, quiet=1):
        raise SystemExit("could not compile the program")
    sys.path.insert(0, pkg_dir)
    return pkg_dir


def peak_rss_kb(workload: str) -> int:
    """Peak RSS of this process, or of its largest child for cli_session."""
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def run_rounds(runner, rounds, seconds=None, count=None, rss_workload=None):
    """Whole rounds until `seconds` of operation time or `count` rounds.

    With `rss_workload`, also returns the peak RSS once the workload's
    W.RSS_ROUNDS rounds are done (or at the end, if fewer ran).
    """
    records = []  # (kind, payload, result or None, seconds, error)
    busy = 0.0
    done = 0
    rss = None
    for ops in rounds:
        if (count is not None and done >= count) or (seconds is not None and busy >= seconds):
            break
        t_round = time.perf_counter()
        for kind, payload in ops:
            t0 = time.perf_counter()
            try:
                result, error = runner.run(kind, payload), None
            except Exception as exc:  # an operation that fails is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append((kind, payload, result, time.perf_counter() - t0, error))
        busy += time.perf_counter() - t_round
        done += 1
        if rss_workload and done == W.RSS_ROUNDS[rss_workload]:
            rss = peak_rss_kb(rss_workload)
    if rss_workload and rss is None:
        rss = peak_rss_kb(rss_workload)
    return records, busy, done, rss


def run_cli_timed(cmd: list[str], env: dict, cwd: str) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=170)
    return time.perf_counter() - t0, proc


def probe_cli(runner, checker, pools, seed) -> tuple[dict, list, int]:
    """Per-command CLI timings: start-up, one query per subcommand, cache cold/warm."""
    env, cwd = runner.env, runner.work_dir
    base = [sys.executable, "-m", "rmarith"]
    startup = [run_cli_timed(base + ["--version"], env, cwd)[0] for _ in range(3)]
    out = {"cli.startup_ms": statistics.median(startup) * 1000}
    errors = []
    ops = next(W.cli_rounds(pools, random.Random(f"probe:{seed}")))
    for kind, payload in ops:
        sub = payload["argv"][0]
        cache = os.path.join(cwd, f"probe-{sub}.cache")  # the work dir starts empty
        argv = payload["argv"] + ["--json"] + (["--cache", cache] if payload.get("cache") else [])
        dt, proc = run_cli_timed(base + argv, env, cwd)
        err = checker.check(kind, payload, [proc.returncode, proc.stdout, proc.stderr[-400:]])
        if err:
            errors.append(err)
        if sub == "rm-conductor":
            out["cli.cache_warm_ms" if "cli.cache_cold_ms" in out else "cli.cache_cold_ms"] = dt * 1000
            out["cli.cache_bytes"] = os.path.getsize(cache)
        out.setdefault(f"cli.{sub}.ms", dt * 1000)
    return out, errors, len(startup) + len(ops)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.work, exist_ok=True)
    pkg_dir = install_program(args.root, args.work)
    env = child_env(pkg_dir)
    trace_dir = None
    if args.trace and args.workload == "cli_session":
        trace_dir = os.path.join(args.work, "child-traces")
        os.makedirs(trace_dir, exist_ok=True)
    pools = W.load_pools()
    runner = W.Runner(args.work, env, trace_dir)
    checker = W.Checker(args.root)
    warmup, rounds = W.build(args.workload, pools, args.seed)
    warm_records, *_ = run_rounds(runner, [warmup])
    warm_errors = [e for *_, e in warm_records if e]
    if warm_errors:
        print("warm-up failed: " + warm_errors[0], file=sys.stderr)
        return 1
    if os.path.exists(runner.cache_path):
        os.unlink(runner.cache_path)  # the session's cache starts empty
    if trace_dir:
        runner.child_traces.clear()
        for name in os.listdir(trace_dir):
            os.unlink(os.path.join(trace_dir, name))
    gc.collect()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as T

        tracer = T.Tracer()
        tracer.install()
    cpu0 = time.process_time()
    records, busy, done, rss = run_rounds(runner, rounds, args.seconds, args.rounds,
                                          args.workload)
    cpu = time.process_time() - cpu0

    summary = {
        "rounds": done,
        "busy_s": busy,
        "cpu_s": cpu,
        "latencies_s": [r[3] for r in records if r[4] is None],
        "attempted": len(records),
        "failed": sum(1 for r in records if r[4] is not None),
        "fail_messages": sorted({r[4] for r in records if r[4]})[:5],
        "peak_rss_kb": rss,
    }
    errors = []
    for kind, payload, result, _, err in records:
        if err is None:
            try:
                msg = checker.check(kind, payload, result)
            except Exception:
                msg = f"check of {kind} raised: {traceback.format_exc(limit=2)}"
            if msg:
                errors.append(msg)
    if tracer is not None:
        snaps = [tracer.snapshot()]
        for path in runner.child_traces:
            with open(path) as fh:
                snaps.append(json.load(fh))
        summary["trace"] = T.merge(snaps)
    if args.probe:
        summary["probe"], probe_errors, probed = probe_cli(runner, checker, pools, args.seed)
        errors += probe_errors
        summary["attempted"] += probed
    summary["check_errors"] = errors[:10]
    summary["wrong"] = len(errors)
    with open(args.out, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
