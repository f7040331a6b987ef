"""Per-layer tracing of rmarith from outside the package.

`install()` wraps the public functions listed in `TRACED` and rebinds every
name under which an `rmarith` module (or the package itself) holds one of
them, so calls between modules go through the wrappers too. Each wrapper
opens a span whose parent is the innermost open span; spans are folded
into per-function totals as they close (calls, inclusive time, self time)
and into per-edge totals (parent function -> child function), so memory
stays bounded however many calls a run makes. Self time is a span's
duration minus the time covered by its child spans.

A function named in `TRACED` that the package no longer has is reported as
absent, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

TRACED = {
    "quadforms": [
        "compose",
        "canonical_representative",
        "reduce_form",
        "composition_table",
        "class_group_structure",
        "class_representatives",
        "enumerate_reduced_forms",
        "class_number",
    ],
    "contfrac": ["fundamental_unit", "unit_norm", "cf_expand"],
    "intmath": ["prime_factors", "divisors", "factorization", "xgcd", "crt_pair"],
    "cmrm": ["rm_conductor"],
    "latimer": ["similarity_class_count_bruteforce", "char_poly", "sha_for_curve_matrix"],
    "heights": ["counting_function", "minkowski_q", "inverse_minkowski_q"],
}


# work carried by a result: forms found, expansion terms, points, f'
RESULT_SIZE = {
    "quadforms.enumerate_reduced_forms": len,
    "contfrac.cf_expand": lambda cf: len(cf.preperiod) + len(cf.period),
    "heights.counting_function": int,
    "cmrm.rm_conductor": int,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s, size]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, s]
        self.absent: list[str] = []
        self.cache_hits_start: dict[str, int] = {}
        self._originals: dict[str, object] = {}
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._depth: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        stack, depth = self._stack, self._depth
        stats, edges = self.stats, self.edges
        size_of = RESULT_SIZE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "op"
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                st = stats[name]
                st[0] += 1
                if not depth[name]:  # inclusive time once per outermost call
                    st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                edge = edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += dt
            if size_of is not None:
                st[3] += size_of(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED, in every rmarith namespace binding it."""
        modules = {}
        for short in TRACED:
            try:
                modules[short] = importlib.import_module(f"rmarith.{short}")
            except ImportError:
                modules[short] = None
        wrappers = {}
        for short, names in TRACED.items():
            for fname in names:
                full = f"{short}.{fname}"
                self.stats[full] = [0, 0.0, 0.0, 0]
                fn = getattr(modules[short], fname, None) if modules[short] else None
                if fn is None:
                    self.absent.append(full)
                    continue
                self._originals[full] = fn
                wrappers[id(fn)] = self._wrap(full, fn)
                info = getattr(fn, "cache_info", None)
                if info is not None:
                    self.cache_hits_start[full] = info().hits
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "rmarith" or modname.startswith("rmarith.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def cache_hits(self, full: str) -> int:
        fn = self._originals.get(full)
        if fn is None or full not in self.cache_hits_start:
            return 0
        return fn.cache_info().hits - self.cache_hits_start[full]

    def snapshot(self) -> dict:
        """Aggregates as plain JSON data."""
        return {
            "functions": {k: list(v) for k, v in self.stats.items()},
            "edges": [[p, c, n, s] for (p, c), (n, s) in sorted(self.edges.items())],
            "absent": list(self.absent),
            "cache_hits": {k: self.cache_hits(k) for k in self.cache_hits_start},
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the aggregates of several traced processes."""
    functions: dict[str, list] = {}
    edges: dict[tuple[str, str], list] = {}
    cache_hits: dict[str, int] = {}
    absent: set[str] = set()
    for snap in snapshots:
        for name, vals in snap["functions"].items():
            acc = functions.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for p, c, n, s in snap["edges"]:
            acc = edges.setdefault((p, c), [0, 0.0])
            acc[0] += n
            acc[1] += s
        for name, hits in snap["cache_hits"].items():
            cache_hits[name] = cache_hits.get(name, 0) + hits
        absent.update(snap["absent"])
    return {
        "functions": functions,
        "edges": [[p, c, n, s] for (p, c), (n, s) in sorted(edges.items())],
        "absent": sorted(absent),
        "cache_hits": cache_hits,
    }
