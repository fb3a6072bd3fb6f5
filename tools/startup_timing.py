"""Time froblip's start-up and small commands in fresh interpreters.

    python3 tools/startup_timing.py [--runs N] [SRC ...]

Each SRC is the ``src`` directory of a froblip checkout (default: this
checkout's).  Every row is timed N times (default 21) per checkout, the
checkouts interleaved and their order alternated from run to run, and
printed as the median and quartiles in milliseconds:

- ``import froblip.cli``: the import alone, timed inside the interpreter
  (what ``perfbench/run.py`` reports as ``setup_s``);
- ``decide``, ``gamma --analytic``, ``cutset``, ``multiplicity`` and
  ``matchable`` on fixed tiny inputs: the wall time of a whole process
  that runs the command as the ``froblip`` console script does.

The table is printed twice: with ``PYTHONDONTWRITEBYTECODE=1``, so each
process compiles froblip's modules afresh, and with bytecode cached under
a temporary ``PYTHONPYCACHEPREFIX``.  Each row and checkout runs once
untimed first, which fills that cache.  Nothing is written into a
checkout.  A checkout that already holds ``froblip/__pycache__`` has its
bytecode read in the first table too; a note says so.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT = ("import time\n"
          "t = time.perf_counter()\n"
          "import froblip.cli\n"
          "print(time.perf_counter() - t, froblip.cli.__file__)\n")
COMMAND = "import sys; from froblip.cli import main; sys.exit(main())"
INPUTS = {"s.json": ["1/2", "1/3"], "s2.json": ["1/4", "1/6", "1/6", "1/9"],
          "h.json": ["1/2", "1/2"], "q.json": ["1/4"] * 4}
ROWS = {
    "import froblip.cli": None,
    "decide (1/2,1/3) vs its square": ["decide", "s.json", "s2.json"],
    "gamma --analytic --dirs 3": ["gamma", "s.json", "--analytic", "--dirs", "3"],
    "cutset --t 1/1000": ["cutset", "s.json", "--t", "1/1000"],
    "multiplicity --bound 20": ["multiplicity", "s.json", "--bound", "20"],
    "matchable --exp-k 4 --search": ["matchable", "h.json", "q.json",
                                     "--exp-k", "4", "--search"],
}


def sample(src: str, argv, env: dict, workdir: str) -> float:
    """Seconds of one fresh interpreter: the import, or the whole command."""
    env = dict(env, PYTHONPATH=os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])))
    if argv is None:
        proc = subprocess.run([sys.executable, "-c", IMPORT], env=env, cwd=workdir,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"importing froblip.cli from {src} failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        if not os.path.abspath(path).startswith(os.path.abspath(src) + os.sep):
            sys.exit(f"froblip was imported from {path}, not {src}")
        return float(seconds)
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COMMAND, *argv, "-o", "out"],
                          env=env, cwd=workdir, capture_output=True, text=True,
                          timeout=120)
    seconds = time.perf_counter() - t
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} with {src} exited {proc.returncode}:\n{proc.stderr}")
    return seconds


def table(srcs, runs: int, env: dict, workdir: str) -> dict:
    """{(row, src): seconds of each run}, after one untimed run of each."""
    times = {(row, src): [] for row in ROWS for src in srcs}
    for i in range(-1, runs):
        for row, argv in ROWS.items():
            for src in srcs[::-1] if i % 2 else srcs:
                seconds = sample(src, argv, env, workdir)
                if i >= 0:
                    times[row, src].append(seconds)
    return times


def report(title: str, srcs, times: dict):
    print(f"\n{title}: ms, median [quartiles]")
    print(f"{'':32s}" + "".join(f"{f'SRC {k + 1}':>24s}" for k in range(len(srcs))))
    for row in ROWS:
        cells = []
        for src in srcs:
            q1, _, q3 = statistics.quantiles(times[row, src], n=4)
            cells.append(f"{1e3 * statistics.median(times[row, src]):.1f} "
                         f"[{1e3 * q1:.1f}, {1e3 * q3:.1f}]")
        print(f"{row:32s}" + "".join(f"{c:>24s}" for c in cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=21, help="runs per row and checkout")
    ap.add_argument("srcs", nargs="*", metavar="SRC",
                    default=[os.path.join(os.path.dirname(HERE), "src")])
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    srcs = [os.path.abspath(s) for s in args.srcs]
    for k, src in enumerate(srcs):
        print(f"SRC {k + 1}: {src}")
        if os.path.isdir(os.path.join(src, "froblip", "__pycache__")):
            print(f"note: SRC {k + 1} holds froblip/__pycache__, which the first "
                  f"table reads too")
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    with tempfile.TemporaryDirectory(prefix="startup-") as workdir:
        for name, ratios in INPUTS.items():
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump({"rationals": ratios}, fh)
        fresh = dict(base, PYTHONDONTWRITEBYTECODE="1")
        report("without cached bytecode (PYTHONDONTWRITEBYTECODE=1)", srcs,
               table(srcs, args.runs, fresh, workdir))
        cached = dict(base, PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"))
        report("with cached bytecode (a temporary PYTHONPYCACHEPREFIX)", srcs,
               table(srcs, args.runs, cached, workdir))


if __name__ == "__main__":
    main()
