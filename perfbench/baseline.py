"""Seed baseline: repeated runs of run.py, spreads, and BASELINE.json.

    python3 perfbench/baseline.py

For each workload, runs ``run.py --trace 0`` once per seed 1..10 for
BENCHMARK.json's ``run_seconds`` and reports each end-to-end metric's
median, quartiles and spread (quartile distance over the median, next to
a third of the metric's bound).  Then runs ``--trace 1`` twice on seed 1,
checks that every count repeats exactly and that the layer isolation in
``metrics.ZERO_ON`` holds.  Writes everything to BASELINE.json beside
this file, with the generator parameters, the "why" of each workload and
the environment.  Exits 1 when a spread, a count repeat or an isolation
check fails.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics
from workloads import GENERATORS, LADDER, CUT_WORDS, M0_LIMIT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = time.perf_counter() - t0
    return doc


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def versions() -> dict:
    import mpmath
    import networkx
    import numpy
    import sympy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "networkx": networkx.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    ok = True
    report = {}
    for name in WORKLOADS:
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        ok &= all(r["correct"] for r in runs)
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "run_wall_s": max(r["wall_s"] for r in runs),
                 "end_to_end": {}}
        print(f"{name}: jobs {entry['attempted']}  failed {sum(entry['failed'])}  "
              f"slowest run {entry['run_wall_s']:.1f} s")
        for metric, (unit, _, bound, _) in metrics.END_TO_END.items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = s
            steady = metric == "setup_s" or s["spread"] < bound / 3
            ok &= steady
            print(f"  {metric:14s} median {s['median']:<10.5g} q1 {s['q1']:<10.5g} "
                  f"q3 {s['q3']:<10.5g} spread {s['spread']:.4f} "
                  f"(bound/3 {bound / 3:.4f}){'' if steady else '  TOO WIDE'} {unit}")
        first, second = (run(name, TRACE_SEED, seconds, 1),
                         run(name, TRACE_SEED, seconds, 1))
        layer = {k: v["value"] for k, v in first["metrics"].items()}
        again = {k: v["value"] for k, v in second["metrics"].items()}
        counts = [k for k, (u, _, _) in metrics.PER_LAYER.items() if u in ("count", "B")]
        moved = [k for k in counts if layer[k] != again[k]]
        isolated = [k for k, wls in metrics.ZERO_ON.items()
                    if name in wls and layer[k] != 0]
        ok &= not moved and not isolated and first["correct"] and second["correct"]
        print(f"  traced: counts repeat {'yes' if not moved else moved}, "
              f"isolation {'holds' if not isolated else isolated}, "
              f"trace.overhead {layer['trace.overhead']:.3f}")
        entry["per_layer"] = layer
        entry["per_layer_repeat"] = again
        report[name] = entry

    doc = {
        "about": "Seed baseline of perfbench/run.py; see perfbench/README.md.",
        "environment": versions(),
        "seeds": SEEDS,
        "trace_seed": TRACE_SEED,
        "run_seconds": seconds,
        "workloads": {
            name: {"why": w.why, "round": w.slots, "round_s": w.round_s,
                   "traced_round_pairs": w.trace_pairs(seconds),
                   "generators": {s: GENERATORS[s].__doc__ or "" for s in
                                  dict.fromkeys(w.slots)}}
            for name, w in WORKLOADS.items()},
        "generator_parameters": {"matchable_ladder_words": LADDER,
                                 "cutset_words": CUT_WORDS, "m0_limit": M0_LIMIT},
        "end_to_end_definitions": {k: {"unit": u, "better": b, "bound": bound,
                                       "meaning": m}
                                   for k, (u, b, bound, m) in metrics.END_TO_END.items()},
        "per_layer_definitions": {k: {"unit": u, "better": b, "meaning": m}
                                  for k, (u, b, m) in metrics.PER_LAYER.items()},
        "layer_moves": {k: [{"metric": m, "workload": w} for m, w in v]
                        for k, v in metrics.MOVES.items()},
        "zero_on": {k: list(v) for k, v in metrics.ZERO_ON.items()},
        "checks_passed": ok,
        "results": report,
    }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
