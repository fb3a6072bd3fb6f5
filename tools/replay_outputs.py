"""Replay the benchmark's jobs on froblip checkouts and compare the outputs.

    python3 tools/replay_outputs.py SRC [SRC2] [--rounds N] [--seeds S ...]
                                    [--hash-seeds H ...] [--time T]

SRC and SRC2 are the ``src`` directories of froblip checkouts; put them
before the options, or ``--`` before them, since each seed list takes
every value that follows it.  The jobs are drawn once, N rounds (default
1) of every workload of ``perfbench/workloads.py`` for each seed S
(default 1); that module is only imported.  Each checkout then runs
every job, under each ``PYTHONHASHSEED`` value H (default 0), in a fresh
interpreter that calls ``froblip.cli.main`` in-process, as the benchmark
does, in a temporary directory with the same relative file names every
time.  A job's outcome
is its exit code (or the exception it raised), its stdout, its stderr and
its output file.  Every run is compared with the first, job by job; the
tool prints the jobs whose outcomes differ and exits 1 if there are any.
With one checkout and two hash seeds it checks that the outputs do not
depend on the hash seed.

With ``--time T`` and two checkouts, each checkout then runs the same jobs
T more times, under the first hash seed, in one worker per checkout fed
job by job: each job runs on both checkouts in turn, the two alternating
which runs it first, so that the machine's drift falls on both alike.
Each worker times every job; the times are not part of the outcome
compared.  Per workload, the tool prints the median and quartiles over
its jobs of the per-job ratio SRC2 / SRC, each side the median of its T
times, and each checkout's summed job seconds (those medians summed).
The jobs are drawn once, so no workload slot can run out of inputs.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = ("import sys\n"
          f"sys.path.insert(0, {HERE!r})\n"
          "import replay_outputs\n"
          "replay_outputs.work(sys.argv[1])\n")
SHOWN = 20  # differing jobs printed at most


def draw_jobs(rounds: int, seeds) -> list:
    """[{"name", "files", "argv"}] for every job of ``rounds`` rounds of
    each workload and seed, with input and output paths relative to the
    directory the job runs in."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    from workloads import WORKLOADS, JobStream

    jobs = []
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            stream = JobStream(workload, seed)
            for r in range(rounds):
                for job in stream.next_round():
                    n = len(jobs)
                    paths = {role: f"{n}-{role}.json" for role in job.docs}
                    files = {paths[role]: doc for role, doc in job.docs.items()}
                    jobs.append({"name": f"seed {seed} {name} round {r} {job.slot}",
                                 "workload": name, "files": files,
                                 "argv": job.argv(paths, f"{n}-out")})
    return jobs


def work(src: str):
    """The worker: reads one JSON job per line from stdin, runs each through
    ``froblip.cli.main`` and prints one JSON line of outcome per job, with
    the job's seconds."""
    import froblip.cli

    path = os.path.abspath(froblip.cli.__file__)
    if not path.startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"froblip was imported from {path}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for line in sys.stdin:
            job = json.loads(line)
            for path, doc in job["files"].items():
                with open(path, "w") as fh:
                    json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            rc = error = None
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = froblip.cli.main(job["argv"])
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            target = job["argv"][-1]
            digest = None
            if os.path.exists(target):
                with open(target, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                os.remove(target)
            print(json.dumps({"rc": rc, "error": error, "stdout": out.getvalue(),
                              "stderr": err.getvalue(), "output_sha256": digest,
                              "seconds": seconds}), flush=True)


def _env(src: str, hash_seed: str) -> dict:
    return dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def replay(src: str, hash_seed: str, jobs: list) -> list:
    proc = subprocess.run([sys.executable, "-c", WORKER, src],
                          input="".join(json.dumps(job) + "\n" for job in jobs),
                          env=_env(src, hash_seed), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"replay on {src} (PYTHONHASHSEED={hash_seed}) failed:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def time_jobs(srcs, hash_seed: str, jobs: list, times: int):
    """Runs each job ``times`` more times on both checkouts in turn,
    alternating which goes first, and prints the per-workload summary of
    the module docstring."""
    workers = [subprocess.Popen([sys.executable, "-c", WORKER, src], text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=_env(src, hash_seed)) for src in srcs]
    seconds = [[[] for _ in jobs] for _ in srcs]  # per checkout, per job
    for i in range(times):
        for j, job in enumerate(jobs):
            for k in (0, 1) if (i + j) % 2 == 0 else (1, 0):
                workers[k].stdin.write(json.dumps(job) + "\n")
                workers[k].stdin.flush()
                line = workers[k].stdout.readline()
                if not line:
                    sys.exit(f"the timing worker on {srcs[k]} stopped")
                seconds[k][j].append(json.loads(line)["seconds"])
    for worker in workers:
        worker.stdin.close()
        worker.wait()
    base, new = ([statistics.median(t) for t in side] for side in seconds)
    for workload in dict.fromkeys(job["workload"] for job in jobs):
        index = [i for i, job in enumerate(jobs) if job["workload"] == workload]
        lo, mid, hi = statistics.quantiles([new[i] / base[i] for i in index], n=4,
                                           method="inclusive")
        print(f"{workload}: per-job time {srcs[1]} / {srcs[0]}: median {mid:.3f}, "
              f"quartiles {lo:.3f}-{hi:.3f}, over {len(index)} jobs; summed job "
              f"seconds {sum(base[i] for i in index):.2f} ({srcs[0]}), "
              f"{sum(new[i] for i in index):.2f} ({srcs[1]})")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--hash-seeds", nargs="+", default=["0"])
    p.add_argument("--time", type=int, default=0, metavar="T")
    p.add_argument("srcs", nargs="+", metavar="SRC")
    args = p.parse_args()
    if len(args.srcs) > 2:
        p.error("give one or two checkouts")
    if args.time and len(args.srcs) != 2:
        p.error("--time compares two checkouts")
    jobs = draw_jobs(args.rounds, args.seeds)
    runs = []
    for src in args.srcs:
        for hash_seed in args.hash_seeds:
            t = time.perf_counter()
            name = f"{src} PYTHONHASHSEED={hash_seed}"
            runs.append((name, replay(src, hash_seed, jobs)))
            print(f"{name}: {len(jobs)} jobs in {time.perf_counter() - t:.1f} s")
    for _, outcomes in runs:
        for outcome in outcomes:
            del outcome["seconds"]
    (ref_name, ref), differ = runs[0], 0
    for name, outcomes in runs[1:]:
        for job, a, b in zip(jobs, ref, outcomes):
            if a != b:
                differ += 1
                if differ <= SHOWN:
                    fields = [k for k in a if a[k] != b[k]]
                    print(f"DIFF {job['name']}: {' '.join(job['argv'])}\n"
                          f"  {ref_name}: {json.dumps({k: a[k] for k in fields})}\n"
                          f"  {name}: {json.dumps({k: b[k] for k in fields})}")
    if differ:
        print(f"{differ} job outcomes differ from {ref_name}")
        sys.exit(1)
    print(f"no difference: {len(jobs)} jobs, {len(runs)} runs")
    if args.time:
        time_jobs(args.srcs, args.hash_seeds[0], jobs, args.time)


if __name__ == "__main__":
    main()
