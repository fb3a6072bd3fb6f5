"""Time ``cones.cone_separation`` on seeded random integer cones.

    python3 tools/cone_separation_timing.py [SRC]

SRC is the ``src`` directory of the froblip checkout to time (default:
this checkout's).  For each dimension s in 4..6 and generator count m in
(15, 25, 40) it draws 5 cones with entries in [0, 9] (pointed) and 5 with
entries in [-2, 9], pairs each with a shuffled copy that has one more
generator, the sum of two others (so the two cones are equal, every
generator is tested and every call returns None), and prints the total
seconds of the 10 ``cone_separation`` calls.  Every call builds new
``Cone`` objects, so any per-cone work is counted.
"""
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1
                else os.path.join(os.path.dirname(HERE), "src"))

from froblip.cones import Cone, cone_separation  # noqa: E402


def pairs(rng, s, m):
    for lo in (0,) * 5 + (-2,) * 5:
        a = [tuple(rng.randint(lo, 9) for _ in range(s)) for _ in range(m)]
        b = a[:]
        rng.shuffle(b)
        b.append(tuple(x + y for x, y in zip(a[0], a[1])))
        yield tuple(a), tuple(b)


def main():
    rng = random.Random(8)
    print("s   m   cone_separation seconds (10 equal pairs)")
    for s in (4, 5, 6):
        for m in (15, 25, 40):
            work = list(pairs(rng, s, m))
            t = time.perf_counter()
            assert all(cone_separation(Cone(a), Cone(b)) is None for a, b in work)
            print(f"{s}  {m:2d}   {time.perf_counter() - t:.3f}")


if __name__ == "__main__":
    main()
