"""The machine's momentary speed, from a fixed kernel of the benchmark's own.

The reference machine is shared: other tenants slow every Python process
on it by up to about 1.7x, for stretches from seconds to minutes, so wall
times of the same jobs spread by a third between runs made minutes apart.
A timed run therefore times this kernel at each round boundary and
scales the round's job times by ``REFERENCE_S / kernel time``: they read
as seconds on the machine at the speed where the kernel takes
``REFERENCE_S``.  A change to froblip moves the scaled times as it moves
the raw ones; a change in the machine's speed moves the kernel too and
cancels out.

The kernel runs in a helper interpreter of its own that never imports
froblip, so nothing froblip does to its process (the modules it imports,
the heap it leaves) changes the kernel's speed.  It does what froblip's
jobs spend their time on: exact rational elimination with growing
integers, and dict, tuple and list work in the interpreter.  The helper
runs only while the benchmark waits for it.

    python3 perfbench/speed.py    # serves samples: one per input line
"""
from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.02  # kernel time on the reference machine when it is quiet
REPEATS = 2  # a sample is the fastest of this many back-to-back kernels


def _kernel() -> int:
    n = 12
    rows = [[Fraction((3 * i + 7 * j) % 13 + 1, (i + 2 * j) % 11 + 1)
             + (40 if i == j else 0) for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    seen = {}
    for i in range(30000):
        key = ((i * 31) % 997, i % 13, i & 7)
        seen[key] = seen.get(key, 0) + i
    ordered = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return len(ordered) + sum(r[n].denominator.bit_length() for r in rows)


def _timed() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Probe:
    """The helper interpreter.  ``sample()`` returns the seconds of one
    kernel run now (the fastest of REPEATS); ``close()`` stops the helper
    and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", __file__],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        for _ in range(3):  # warm-up
            self.sample()

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed helper exited")
        return float(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def serve():
    gc.disable()  # the kernel's garbage is freed by reference counting
    for _ in sys.stdin:
        print(repr(_timed()), flush=True)


if __name__ == "__main__":
    serve()
