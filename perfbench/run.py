"""CLI-level benchmark for froblip.

Runs one seeded workload as a closed loop (one client, one process, no
threads) through ``froblip.cli.main(argv)``, on JSON input files it
generates itself, and checks every output with the independent oracles in
``oracles.py``.

    python3 perfbench/run.py --workload decide_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified,
its times scaled to the reference speed of ``speed.py``; the raw times are
printed on the first line.
``--trace 1`` alternates untraced rounds with rounds traced per layer (see
``tracing.py``) and reports the per-layer metrics and the tracing
overhead.  Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from the root of a froblip source checkout.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

import metrics
import oracles
import speed
from workloads import MIN_JOBS, WORKLOADS, JobStream

SETUP_SAMPLES = 9  # metrics.END_TO_END["setup_s"] names this count
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import froblip.cli\n"
    "d = time.perf_counter() - t\n"
    "print(d, froblip.cli.__file__)\n"
)


def setup_sample(src: str) -> float:
    """Import time of froblip.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importing froblip.cli failed:\n{proc.stderr}")
    seconds, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(src + os.sep):
        raise RuntimeError(f"froblip was imported from {path}, not {src}")
    return float(seconds)


def load_cli(src: str):
    """A fresh import of froblip.cli from ``src``.  Every froblip module is
    dropped first and sympy's cache is cleared, so nothing froblip keeps in
    memory, a cache of earlier inputs say, outlives the jobs before it:
    the jobs after it find froblip as a new CLI process would."""
    for name in [n for n in sys.modules if n == "froblip" or n.startswith("froblip.")]:
        del sys.modules[name]
    from sympy.core.cache import clear_cache
    clear_cache()
    cli = importlib.import_module("froblip.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"froblip was imported from {cli.__file__}, not {src}")
    return cli


class Runner:
    """Writes each job's inputs, runs it in-process, keeps its outcome."""

    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.workdir = workdir
        self.count = 0

    def prepare(self, job) -> list:
        self.count += 1
        paths = {}
        for role, doc in job.docs.items():
            paths[role] = os.path.join(self.workdir, f"{self.count}-{role}.json")
            with open(paths[role], "w") as fh:
                json.dump(doc, fh)
        job.out = os.path.join(self.workdir, f"{self.count}-out")
        return job.argv(paths, job.out)

    def run(self, job, argv) -> float:
        t0 = time.perf_counter()
        try:
            job.rc = self.cli.main(argv)
        except SystemExit as exc:
            job.rc = exc.code
        except Exception:
            job.rc = None
            job.error = traceback.format_exc()
        return time.perf_counter() - t0

    def run_round(self, jobs, before_job=None) -> float:
        """Writes the inputs of all jobs, then runs the jobs in order;
        returns the wall time of running them."""
        argvs = [self.prepare(job) for job in jobs]
        t0 = time.perf_counter()
        for job, argv in zip(jobs, argvs):
            if before_job is not None:
                before_job()
            job.seconds = self.run(job, argv)
        return time.perf_counter() - t0


def verify(jobs) -> tuple:
    """Run the oracles on finished jobs; (failed, undecided) counts."""
    failed = undecided = 0
    for job in jobs:
        problems = []
        text = ""
        if getattr(job, "error", None):
            problems.append("raised:\n" + job.error)
        else:
            try:
                with open(job.out) as fh:
                    text = fh.read()
            except OSError as exc:
                problems.append(f"no output: {exc}")
        if not problems:
            try:
                problems = oracles.check(job, text, job.rc)
            except Exception:
                problems = ["oracle could not read the output:\n"
                            + traceback.format_exc()]
        if job.command == "decide" and not problems \
                and json.loads(text)["result"] == "UNDECIDED":
            undecided += 1
        if problems:
            failed += 1
            print(f"FAIL {job.slot} {' '.join(job.argv({r: r for r in job.docs}, '-'))}"
                  f" {json.dumps(job.docs)}: " + "; ".join(problems),
                  file=sys.stderr)
    return failed, undecided


def timed_run(runner, stream, probe, seconds: float, src: str) -> tuple:
    """Runs rounds of fresh jobs, each job once, until the jobs have run
    for ``seconds`` and number at least MIN_JOBS.  A speed sample (see
    ``speed.py``) is taken at every round boundary, and each round's job
    times are scaled by the mean of the two samples around it.  The set-up
    samples are taken between rounds, spread over the run, each scaled
    likewise by the speed samples around it."""
    jobs, setup, raw_setup, kernel = [], [], [], []
    wall = scaled_wall = generate_s = 0.0
    before = probe.sample()
    while wall < seconds or len(jobs) < MIN_JOBS:
        t0 = time.perf_counter()
        batch = stream.next_round()
        generate_s += time.perf_counter() - t0
        took = runner.run_round(batch)
        after = probe.sample()
        kernel.append((before + after) / 2)
        scale = speed.REFERENCE_S / kernel[-1]
        for job in batch:
            job.scaled = job.seconds * scale
        wall += took
        scaled_wall += took * scale
        jobs += batch
        due = min(SETUP_SAMPLES, int(SETUP_SAMPLES * wall / seconds + 0.5))
        before = after
        while len(raw_setup) < due:  # all SETUP_SAMPLES once wall >= seconds
            raw_setup.append(setup_sample(src))
            after = probe.sample()
            setup.append(raw_setup[-1] * speed.REFERENCE_S / ((before + after) / 2))
            before = after
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [job.scaled for job in jobs]
    t2 = time.perf_counter()
    failed, undecided = verify(jobs)
    n = len(jobs)
    values = {
        "jobs_per_s": n / scaled_wall,
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10)[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1 - failed / n,
        "decided_frac": 1 - undecided / n,
    }
    raw = [job.seconds for job in jobs]
    extra = {"fail_frac": failed / n, "undecided_frac": undecided / n,
             "rounds": n // len(stream.workload.slots),
             "kernel_s": statistics.median(kernel),
             "raw_jobs_per_s": n / wall, "raw_job_s.p50": statistics.median(raw),
             "raw_job_s.p90": statistics.quantiles(raw, n=10)[8],
             "raw_setup_s": statistics.median(raw_setup),
             "job_wall_s": wall, "generate_s": generate_s,
             "verify_s": time.perf_counter() - t2}
    return jobs, failed, values, extra, raw_setup


def traced_run(runner, stream, seconds: float, src: str) -> tuple:
    """Runs traced rounds of fresh jobs, each followed by an untraced round
    of their twins, each round on a fresh import of froblip.  Counts come
    from the traced rounds; the twins, the same work under other labels,
    give the overhead."""
    from tracing import Tracer

    tracer = Tracer()
    jobs = []
    untraced_s = traced_s = 0.0
    for _ in range(stream.workload.trace_pairs(seconds)):
        traced = stream.next_round()
        plain = [stream.twin(job) for job in traced]
        runner.cli = load_cli(src)
        tracer.install()
        try:
            traced_s += runner.run_round(traced, tracer.start_job)
        finally:
            tracer.uninstall()
        runner.cli = load_cli(src)
        untraced_s += runner.run_round(plain)
        for job in traced:
            if os.path.exists(job.out):
                tracer.counts["serialize.bytes_out"] += os.path.getsize(job.out)
        jobs += traced + plain
    failed, _ = verify(jobs)
    values = tracer.metrics()
    values["trace.overhead"] = 1 - untraced_s / traced_s
    return jobs, failed, values, {"traced_rounds": len(jobs) // 2 // len(stream.workload.slots)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its set-up and speed interpreters and
    # removes its input and output files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "froblip", "cli.py")):
        print(f"error: no froblip sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        cli = load_cli(src)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    stream = JobStream(workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=os.path.dirname(__file__))
    probe = None
    try:
        runner = Runner(cli, workdir)
        # warm-up, not measured: one job of each slot
        runner.run_round([stream.draw(s) for s in dict.fromkeys(workload.slots)])
        if args.trace:
            jobs, failed, values, extra = traced_run(runner, stream, args.seconds, src)
            setup = []
            defs = {k: v[0] for k, v in metrics.PER_LAYER.items()}
        else:
            probe = speed.Probe()
            jobs, failed, values, extra, setup = timed_run(runner, stream, probe,
                                                           args.seconds, src)
            defs = {k: v[0] for k, v in metrics.END_TO_END.items()}
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  failed {failed}  "
          + "  ".join(f"{k} {v:.6g}" for k, v in extra.items()))
    if not args.trace:
        print(f"raw setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
        by_slot = {}
        for job in jobs:
            by_slot.setdefault(job.slot, []).append(job.seconds)
        print("median raw job seconds by slot: " + "  ".join(
            f"{slot} {statistics.median(ts):.4f}" for slot, ts in by_slot.items()))
    for name, unit in defs.items():
        print(f"  {name:44s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in defs.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # froblip's matchable witness follows set iteration order, so its
        # output varies with the hash seed; a fixed seed makes a run, and the
        # traced counts of a seed, repeat exactly.  exec replaces this
        # process, so no second process is left behind.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
