"""Self-checks: every oracle passes froblip's real output and catches a
planted wrong answer in it.

    python3 perfbench/selfcheck.py

Plants a flipped verdict, an off-by-one count, a missing table point, a
table without its top layer, a cut-set word above its threshold, a
witness that leaves one word unmatched, a missing witness, and a shifted
growth value.  Also checks that a cache planted in froblip does not
survive the fresh import before each traced or twin round, that the
speed helper of ``speed.py`` samples and stops, and that BENCHMARK.json
names the metrics defined in ``metrics.py``.  Exits 1 on any miss.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import metrics
import oracles
import speed
from run import Runner, load_cli
from workloads import Job, numeric, symbolic
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(runner, job):
    runner.run_round([job])
    with open(job.out) as fh:
        return fh.read()


def expect(label, job, text, rc, caught):
    problems = oracles.check(job, text, rc)
    ok = bool(problems) == caught
    verdict = "ok  " if ok else "MISS"
    what = "caught" if problems else "passed"
    print(f"{verdict} {label}: {what}" + (f" ({problems[0]})" if problems else ""))
    return ok


def cases(runner):
    halves = numeric([Fraction(1, 2)] * 2)
    quarters = numeric([Fraction(1, 4)] * 4)

    job = Job("decide", {"a": halves, "b": quarters}, [],
              {"family": "iteration", "expect": "EQUIVALENT", "built_equivalent": True})
    text = run(runner, job)
    yield expect("decide, real verdict", job, text, job.rc, False)
    doc = json.loads(text)
    doc["result"] = "NOT_EQUIVALENT"
    yield expect("decide, flipped verdict", job, json.dumps(doc), 10, True)
    doc = json.loads(text)
    doc["certificate"]["permutation"][0] = doc["certificate"]["permutation"][1]
    yield expect("decide, permutation that is not a bijection", job,
                 json.dumps(doc), 0, True)

    job = Job("decide", {"a": numeric([Fraction(1, 2), Fraction(1, 3)]),
                         "b": numeric([Fraction(1, 2), Fraction(1, 5)])}, [],
              {"family": "unequal dimension", "expect": "NOT_EQUIVALENT"})
    text = run(runner, job)
    yield expect("decide, real refutation", job, text, job.rc, False)
    flipped = {"result": "EQUIVALENT", "reason": "PERMUTATION",
               "certificate": {"tag": "PERMUTATION"}, "diagnostics": None}
    job.params["expect"] = None
    yield expect("decide, EQUIVALENT across dimensions", job, json.dumps(flipped), 0, True)

    for ratios in ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
                   [Fraction(2, 9), Fraction(1, 2), Fraction(1, 6)]):
        job = Job("multiplicity", {"system": numeric(ratios)}, ["--bound", "6"])
        text = run(runner, job)
        yield expect(f"multiplicity {ratios}, real table", job, text, job.rc, False)
        lines = text.strip().splitlines()
        # the row of the second ratio's own point, inside the short-word region
        point = ",".join(map(str, oracles.System(job.docs["system"]).exps[1])) + ","
        i = next(i for i, line in enumerate(lines) if line.startswith(point))
        row = lines[i].split(",")
        row[-1] = str(int(row[-1]) + 1)
        bumped = lines[:i] + [",".join(row)] + lines[i + 1:]
        yield expect("multiplicity, off-by-one count", job, "\n".join(bumped), 0, True)
        yield expect("multiplicity, missing point", job,
                     "\n".join(lines[:i] + lines[i + 1:]), 0, True)
        # the points of the highest score, as if the bound were lower
        system = oracles.System(job.docs["system"])
        alpha = oracles.half_space_alphas(system.exps)[-1]
        score = lambda line: sum(a * int(x) for a, x in zip(alpha, line.split(",")))
        top = max(score(line) for line in lines[2:])
        yield expect("multiplicity, top layer dropped", job, "\n".join(
            lines[:2] + [x for x in lines[2:] if score(x) < top]), 0, True)

    job = Job("cutset", {"system": numeric([Fraction(1, 2), Fraction(1, 3)])},
              ["--t", "1/50"], {"t": "1/50"})
    text = run(runner, job)
    yield expect("cutset, real cut-set", job, text, job.rc, False)
    doc = json.loads(text)
    longest = max(doc, key=lambda e: len(e["word"]))
    parent = longest["word"][:-1]
    longest["word"] = parent
    longest["ratio_as_string"] = str(oracles.System(job.docs["system"])
                                     .word_ratio(oracles._word(parent)))
    yield expect("cutset, word above the threshold", job, json.dumps(doc), 0, True)

    for a, b in ((halves, quarters),
                 (symbolic(["l"], [[1], [2]]), symbolic(["l"], [[2], [3], [3], [4]]))):
        job = Job("matchable", {"a": a, "b": b},
                  ["--exp-k", "4", "--search", "--m0-limit", "64"],
                  {"exp_k": "4", "m0_limit": 64})
        text = run(runner, job)
        yield expect("matchable, real witness", job, text, job.rc, False)
        doc = json.loads(text)
        lonely = doc["witness"][0][0]
        doc["witness"] = [p for p in doc["witness"] if p[0] != lonely]
        yield expect("matchable, one word unmatched", job, json.dumps(doc), 0, True)
        doc["witness"] = None
        yield expect("matchable, witness missing", job, json.dumps(doc), 0, True)

    job = Job("gamma", {"system": numeric([Fraction(1, 2), Fraction(1, 3)])},
              ["--both", "--dirs", "3", "--k-max", "20"],
              {"mode": "both", "dirs": 3, "k_max": 20})
    text = run(runner, job)
    yield expect("gamma, real sweep", job, text, job.rc, False)
    lines = text.strip().splitlines()
    cells = lines[2].split(",")
    cells[2] = f"{float(cells[2]) + 1e-3:.6f}"
    yield expect("gamma, shifted analytic value", job,
                 "\n".join(lines[:2] + [",".join(cells)] + lines[3:]), 0, True)


def check_fresh_import():
    src = os.path.join(ROOT, "src")
    old = load_cli(src)
    sys.modules["froblip.ratlp"].planted_cache = {"lp": "solved before"}
    new = load_cli(src)
    ok = new is not old and not hasattr(sys.modules["froblip.ratlp"], "planted_cache")
    print(("ok  " if ok else "MISS") + " a planted froblip cache does not outlive a fresh import")
    return ok


def check_speed_helper():
    probe = speed.Probe()
    try:
        samples = [probe.sample() for _ in range(3)]
    finally:
        probe.close()
    ok = all(0 < x < 10 for x in samples) and probe.proc.returncode == 0
    print(("ok  " if ok else "MISS") + " the speed helper samples and stops")
    return ok


def check_benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        doc = json.load(fh)
    want_e2e = [{"name": k, "unit": u, "better": b, "bound": bound}
                for k, (u, b, bound, _) in metrics.END_TO_END.items()]
    want_layer = [{"name": k, "unit": u, "better": b}
                  for k, (u, b, _) in metrics.PER_LAYER.items()]
    ok = doc["end_to_end"] == want_e2e and doc["per_layer"] == want_layer
    print(("ok  " if ok else "MISS") + " BENCHMARK.json matches metrics.py")
    return ok


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import froblip.cli

    workdir = tempfile.mkdtemp(prefix=".work-", dir=os.path.dirname(__file__))
    try:
        results = list(cases(Runner(froblip.cli, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results.append(check_fresh_import())
    results.append(check_speed_helper())
    results.append(check_benchmark_json())
    print(f"{sum(results)}/{len(results)} self-checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
