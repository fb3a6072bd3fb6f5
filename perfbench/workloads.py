"""Seeded input generators for the three benchmark workloads.

A workload is a fixed round of slots.  Each slot names a family of inputs
and draws a fresh input every time it comes up, from two sources:

- the *structure* (exponent vectors, iteration orders, sizes, k_max, the
  target cut-set size) comes from a generator keyed by workload, slot and
  draw number only, so every seed gets the same structures in the same
  order and runs of different seeds do the same amount of work;
- the *labels* (which primes or generator names carry that structure, the
  order of the ratios, which side is which) come from the seeded
  generator, so every seed gives different inputs.

No job repeats another job's exponent vectors and arguments within a run,
so a cache keyed on exponent-level data (lattice, LP, cone or table
inputs) finds no repeated job to skip.  The generators only write JSON
input documents; froblip is never called here.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

SMALL_PRIMES = [2, 3, 5, 7]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97]
GENERATOR_NAMES = ["l", "t", "x", "q", "w", "u", "v", "y", "z", "s",
                   "p", "r", "c", "d", "e", "f", "g", "h", "k", "n"]
MIN_JOBS = 100  # p90 then has at least ten samples beyond it
TRACE_COST = 2.5  # an untraced plus a traced round, in untraced rounds
M0_LIMIT = 64
# cut-set sizes (larger side) of matchable jobs; froblip builds a
# word-level witness only up to 2000 words
LADDER = {"light": (12, 80), "deep": (2500, 100_000)}
CUT_WORDS = (300, 600)  # cut-set sizes of table_sweep cutset jobs


class Redraw(Exception):
    """These labels do not fit the structure; draw other labels."""


@dataclass
class Job:
    command: str
    docs: dict          # role -> input JSON document, in CLI argument order
    args: list          # CLI arguments after the input files
    params: dict = field(default_factory=dict)  # facts the oracle needs
    slot: str = ""
    structure: str = ""  # seed of the structure generator that drew it

    def key(self) -> str:
        """Identity of the job at exponent level: the sorted exponent
        vectors of each input over the sorted union of their primes or
        generator names, and the arguments.  Reordering the ratios, or
        relabelling the primes or names in their order, leaves it
        unchanged."""
        systems = [oracles.System(doc) for doc in self.docs.values()]
        axes = sorted({a for s in systems for a in s.axes})
        canon = [sorted(oracles.System(doc, axes).exps) for doc in self.docs.values()]
        return json.dumps([self.command, canon, self.args])

    def argv(self, paths: dict, out: str) -> list:
        return [self.command] + [paths[r] for r in self.docs] + self.args + ["-o", out]


# --------------------------------------------------------------------------
# helpers


def numeric(ratios) -> dict:
    return {"rationals": [f"{r.numerator}/{r.denominator}" for r in ratios]}


def symbolic(gens, rows) -> dict:
    return {"generators": list(gens), "monomials": [list(r) for r in rows]}


def ratios_from(vectors, primes) -> list:
    """prod p_i ** -v_i for each exponent vector."""
    out = []
    for v in vectors:
        r = Fraction(1)
        for p, e in zip(primes, v):
            r /= Fraction(p) ** e
        out.append(r)
    return out


def vector(s, dim, hi=2):
    """A nonzero vector with entries in [0, hi]."""
    while True:
        v = tuple(s.randint(0, hi) for _ in range(dim))
        if any(v):
            return v


def iterate(ratios, p):
    out = []
    for word in itertools.product(ratios, repeat=p):
        r = Fraction(1)
        for x in word:
            r *= x
        out.append(r)
    return out


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def full_rank(vectors) -> bool:
    """Exact rank test over the rationals (small matrices)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    n = len(rows[0])
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank == n


def full_rank_vectors(s, count, dim, hi=2):
    while True:
        vs = [vector(s, dim, hi) for _ in range(count)]
        if full_rank(vs) and len(set(vs)) == count:
            return vs


def first_at_least(grid, size_at, want):
    """Smallest grid value whose cut-set holds at least ``want`` words.

    Sizes grow along the grid and the cost of a size grows with it, so the
    search doubles its step from the small end before it bisects.
    """
    lo, step = 0, 1
    while size_at(grid[min(lo + step, len(grid) - 1)]) < want:
        if lo + step >= len(grid) - 1:
            raise Redraw
        lo, step = lo + step, step * 2
    hi = min(lo + step, len(grid) - 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if size_at(grid[mid]) >= want:
            hi = mid
        else:
            lo = mid + 1
    return grid[lo]


def fraction_text(k: Fraction) -> str:
    return str(k.numerator) if k.denominator == 1 else f"{k.numerator}/{k.denominator}"


# --------------------------------------------------------------------------
# decide_mix


def _decide(a, b, family, expect, built_equivalent=False):
    params = {"family": family, "expect": expect}
    if built_equivalent:
        params["built_equivalent"] = True
    return Job("decide", {"a": a, "b": b}, [], params)


def _iteration_pair(s, l, m, p, q):
    dim = s.randint(1, 2)
    base = ratios_from([vector(s, dim, 3) for _ in range(m)], l.sample(PRIMES[:5], dim))
    return _decide(numeric(shuffled(l, iterate(base, p))),
                   numeric(shuffled(l, iterate(base, q))),
                   f"iteration {m}^{p} vs {m}^{q}", "EQUIVALENT", True)


def gen_perm(s, l):
    """3-4 ratios over two primes against a shuffled copy."""
    vs = [vector(s, 2) for _ in range(s.randint(3, 4))]
    ratios = ratios_from(vs, l.sample(SMALL_PRIMES, 2))
    return _decide(numeric(shuffled(l, ratios)), numeric(shuffled(l, ratios)),
                   "permutation", "EQUIVALENT", True)


def gen_iter_light(s, l):
    """Iterates of a two-ratio base: 8 against 2 or 4 ratios."""
    return _iteration_pair(s, l, 2, *s.choice([(3, 1), (1, 3), (3, 2), (2, 3)]))


def gen_iter_top(s, l):
    """Iterates of a two-ratio base over two primes: 8 against 4 ratios."""
    base = ratios_from(full_rank_vectors(s, 2, 2, 4), l.sample(PRIMES[:5], 2))
    return _decide(numeric(shuffled(l, iterate(base, 3))),
                   numeric(shuffled(l, iterate(base, 2))),
                   "iteration 2^3 vs 2^2", "EQUIVALENT", True)


def gen_unequal(s, l):
    """Two lists of 2-4 ratios over two primes, dimensions more than 1e-6
    apart."""
    va = [vector(s, 2) for _ in range(s.randint(2, 4))]
    vb = [vector(s, 2) for _ in range(s.randint(2, 4))]
    primes = l.sample(SMALL_PRIMES, 2)
    a, b = ratios_from(va, primes), ratios_from(vb, primes)
    if abs(oracles.dimension(a, 20) - oracles.dimension(b, 20)) <= 1e-6:
        raise Redraw
    return _decide(numeric(a), numeric(b), "unequal dimension", "NOT_EQUIVALENT")


def gen_two_branch(s, l):
    """The symbolic pair {l^5c, l^c} against {l^3c, l^2c}, c <= 300."""
    c = s.randint(1, 300)
    g = l.choice(GENERATOR_NAMES)
    pair = [symbolic([g], shuffled(l, [[5 * c], [c]])),
            symbolic([g], shuffled(l, [[3 * c], [2 * c]]))]
    l.shuffle(pair)
    return _decide(*pair, "two-branch special", "EQUIVALENT", True)


def gen_axis(s, l):
    """Symbolic systems on 2-3 generators, every ratio a power of one
    generator with one power per generator, multisets unequal."""
    k = s.randint(2, 3)

    def side():
        rows = []
        for i in range(k):
            val = s.randint(1, 3)
            rows += [[val if j == i else 0 for j in range(k)]] * s.randint(1, 2)
        return rows

    a, b = side(), side()
    while sorted(a) == sorted(b):
        b = side()
    gens = sorted(l.sample(["u", "v", "w", "x", "y", "z"], k))
    return _decide(symbolic(gens, shuffled(l, a)), symbolic(gens, shuffled(l, b)),
                   "axis-supported refutation", "NOT_EQUIVALENT")


def _complete_code(s, base, leaves, max_len=6):
    """Lengths of a complete base-ary prefix code with ``leaves`` leaves, so
    the ratios base**-length sum to exactly 1."""
    lengths = [0]
    while len(lengths) < leaves:
        i = s.randrange(len(lengths))
        if lengths[i] < max_len:
            lengths += [lengths.pop(i) + 1] * base
    return lengths


def gen_kraft(s, l):
    """Equal-dimension pairs outside every decidable family: two complete
    prefix codes of sizes whose powers never meet (m**p != n**q)."""
    base = s.choice([2, 2, 3])
    sizes = {2: [(3, 4), (3, 5), (4, 5), (5, 6), (3, 7), (5, 7), (6, 7)],
             3: [(3, 5), (5, 7), (3, 7)]}[base]
    while True:
        m, n = s.choice(sizes)
        a, b = _complete_code(s, base, m), _complete_code(s, base, n)
        if len(set(a)) > 1 or len(set(b)) > 1:
            break
    to_ratios = lambda ls: numeric(Fraction(1, base ** x) for x in shuffled(l, ls))
    return _decide(to_ratios(a), to_ratios(b),
                   "equal dimension, outside the families", None)


# --------------------------------------------------------------------------
# table_sweep: gamma sweeps


def _gamma(system, mode, dirs, k):
    args = [f"--{mode}"] + (["--dirs", str(dirs)] if mode == "both" else [])
    return Job("gamma", {"system": system}, args + ["--k-max", str(k)],
               {"mode": mode, "dirs": dirs, "k_max": float(k)})


def gen_g2_big(s, l):
    """--both, 3 directions, k_max 30, on two independent 2-D generators
    with entries in [0, 4]."""
    vs = full_rank_vectors(s, 2, 2, 4)
    return _gamma(numeric(ratios_from(vs, l.sample(PRIMES[:15], 2))), "both", 3, 30)


def gen_g2_three(s, l):
    """--both, 2 directions, k_max 16, on three 2-D generators on one line
    u x + w y = a that misses the origin (u, w in {1, 2}, a in [2, 8])."""
    while True:
        u, w, a = s.randint(1, 2), s.randint(1, 2), s.randint(2, 8)
        line = [(x, (a - u * x) // w) for x in range(a // u + 1)
                if (a - u * x) % w == 0]
        if len(line) >= 3:
            break
    pts = s.sample(line, 3)
    return _gamma(numeric(ratios_from(pts, l.sample(PRIMES[:15], 2))), "both", 2, 16)


def gen_g1_emp(s, l):
    """--empirical, k_max 30-120, on 1-D systems with two or more distinct
    exponents."""
    while True:
        exps = [s.randint(1, 4) for _ in range(s.randint(2, 4))]
        if len(set(exps)) > 1 and math.gcd(*exps) == 1:
            break
    p = l.choice(PRIMES[:6])
    return _gamma(numeric(Fraction(1, p ** e) for e in exps), "empirical", 1,
                  s.randint(30, 120))


# --------------------------------------------------------------------------
# match_ladder


def _matchable(a, b, k: Fraction, family):
    kstr = fraction_text(k)
    return Job("matchable", {"a": a, "b": b},
               ["--exp-k", kstr, "--search", "--m0-limit", str(M0_LIMIT)],
               {"exp_k": kstr, "m0_limit": M0_LIMIT, "family": family})


def ladder(rung, make_pair):
    """A slot: matchable --search on an equivalent pair from ``make_pair``,
    at the threshold e^-k whose larger cut-set is the size drawn on the
    given rung of LADDER."""

    def gen(s, l):
        lo, hi = LADDER[rung]
        want = int(math.exp(s.uniform(math.log(lo), math.log(hi))))
        doc_a, doc_b, family = make_pair(s, l)
        sa, sb = oracles.System(doc_a), oracles.System(doc_b)
        grid = [Fraction(i) for i in range(1, 400)] if sa.symbolic else \
            [Fraction(i, 4) for i in range(2, 800)]
        size = lambda k: max(oracles.cut_size(sa, k), oracles.cut_size(sb, k))
        k = first_at_least(grid, size, want)
        if not lo <= size(k) <= hi:
            raise Redraw
        return _matchable(doc_a, doc_b, k, family)

    gen.__doc__ = f"{make_pair.__doc__}; cut-sets of {LADDER[rung][0]}-" \
                  f"{LADDER[rung][1]} words"
    return gen


def _numeric_pair(s, l, dim, m, p, q):
    vs = full_rank_vectors(s, m, dim) if dim > 1 else [vector(s, 1) for _ in range(m)]
    base = ratios_from(vs, l.sample(PRIMES[:6], dim))
    return (numeric(shuffled(l, iterate(base, p))),
            numeric(shuffled(l, iterate(base, q))))


def pair_1d(s, l):
    """1-D iteration pair of a two-ratio base"""
    pq = s.choice([(2, 1), (1, 2), (3, 1), (2, 3)])
    return _numeric_pair(s, l, 1, 2, *pq) + ("1-D iteration",)


def pair_2d(s, l):
    """2-D iteration pair of a two-ratio base"""
    pq = s.choice([(2, 1), (1, 2)])
    return _numeric_pair(s, l, 2, 2, *pq) + ("2-D iteration",)


def pair_symbolic(s, l):
    """Symbolic one-generator iteration pair of a two-ratio base"""
    base = [s.randint(1, 3) for _ in range(2)]
    p, q = s.choice([(2, 1), (1, 2), (3, 1)])
    g = l.choice(GENERATOR_NAMES)
    rows = lambda n: shuffled(l, [[sum(w)] for w in itertools.product(base, repeat=n)])
    return symbolic([g], rows(p)), symbolic([g], rows(q)), "symbolic iteration"


def pair_permutation(s, l):
    """Permutation pair of 2-4 ratios over one or two primes"""
    dim = s.randint(1, 2)
    vs = [vector(s, dim) for _ in range(s.randint(2, 4))]
    base = ratios_from(vs, l.sample([2, 3, 5, 7], dim))
    return numeric(shuffled(l, base)), numeric(shuffled(l, base)), "permutation"


def gen_uniform(s, l):
    """(r, r) against (r**2)**4 at the threshold where both cut-sets hold 64
    words: every word pair is admissible, so the word-level witness is as
    dense as it gets, and equally so on every draw."""
    a = s.randint(1, 4)
    r = Fraction(1, l.choice(PRIMES) ** a)
    docs = [numeric([r] * 2), numeric([r * r] * 4)]
    k = Fraction(round(22 * math.log(1 / r)), 4)  # 5.5 log(1/r)
    sizes = [oracles.cut_size(oracles.System(d), k) for d in docs]
    if sizes != [64, 64]:
        raise ValueError(f"uniform pair cut-sets {sizes}, expected 64 and 64")
    return _matchable(*docs, k, "uniform iteration")


# --------------------------------------------------------------------------
# table_sweep: multiplicity tables and cut-sets


def gen_mult2(s, l):
    """2-3 distinct 2-D generators of full rank, bound 15-35."""
    vs = full_rank_vectors(s, s.randint(2, 3), 2)
    return Job("multiplicity", {"system": numeric(ratios_from(vs, l.sample(SMALL_PRIMES, 2)))},
               ["--bound", str(s.randint(15, 35))])


def _mult_axes(s, l, words):
    """Three 3-D axis generators c_i e_i, c_i in [1, 6], at the bound whose
    table holds the points of every word of at most ``words`` letters.

    The half-space functional of these generators is alpha_i = 1 / (c_i S)
    with S = sum 1/c_i, so a word of n letters scores n / S, and the bound
    (words + 1/2) / S keeps every table the same size."""
    cs = [s.randint(1, 6) for _ in range(3)]
    bound = (words + Fraction(1, 2)) / sum(Fraction(1, c) for c in cs)
    primes = l.sample(PRIMES[:12], 3)
    return Job("multiplicity",
               {"system": numeric(Fraction(1, p ** c) for p, c in zip(primes, cs))},
               ["--bound", fraction_text(bound)])


def gen_mult3_big(s, l):
    """Three 3-D axis generators, words of up to 30 letters."""
    return _mult_axes(s, l, 30)


def gen_mult3(s, l):
    """Three 3-D axis generators, words of up to 24 letters."""
    return _mult_axes(s, l, 24)


def _cut_job(s, l, flag, grid, log_of, text_of):
    """A cutset job at the first threshold on ``grid`` whose cut-set holds
    at least a drawn size within CUT_WORDS."""
    dim = s.randint(1, 2)
    vs = [vector(s, dim) for _ in range(s.randint(2, 3))]
    want = s.randint(*CUT_WORDS)
    doc = numeric(ratios_from(vs, l.sample(PRIMES[:5], dim)))
    system = oracles.System(doc)
    t = first_at_least(grid, lambda t: oracles.cut_size(system, log_of(t)), want)
    if oracles.cut_size(system, log_of(t)) > CUT_WORDS[1]:
        raise Redraw
    key = "t" if flag == "--t" else "exp_k"
    return Job("cutset", {"system": doc}, [flag, text_of(t)], {key: text_of(t)})


RATIONAL_N = sorted({int(1.02 ** i) for i in range(100, 900)})


def gen_cut_rat(s, l):
    """Cut-set at t = 1/N of a 2-3 ratio system, 300-600 words."""
    return _cut_job(s, l, "--t", RATIONAL_N, math.log, lambda n: f"1/{n}")


def gen_cut_exp(s, l):
    """Cut-set at e^-k, k on a 0.1 grid, of a 2-3 ratio system, 300-600
    words."""
    return _cut_job(s, l, "--exp-k", [i / 10 for i in range(5, 400)], float,
                    lambda k: f"{k:.1f}")


# --------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    why: str
    slots: list      # one round, as generator names
    round_s: float   # seconds one untraced round takes on the reference machine

    def trace_pairs(self, seconds: float) -> int:
        """Traced-plus-untraced round pairs in a traced run: about
        ``seconds`` on the reference machine.  The count depends on nothing
        measured, so a seed always gives the same jobs and counts."""
        return max(1, round(seconds / (TRACE_COST * self.round_s)))


GENERATORS = {
    "perm": gen_perm,
    "iter_light": gen_iter_light,
    "iter_top": gen_iter_top,
    "unequal": gen_unequal,
    "two_branch": gen_two_branch,
    "axis": gen_axis,
    "kraft": gen_kraft,
    "g2_big": gen_g2_big,
    "g2_three": gen_g2_three,
    "g1_emp": gen_g1_emp,
    "uniform": gen_uniform,
    "mult2": gen_mult2,
    "mult3": gen_mult3,
    "mult3_big": gen_mult3_big,
    "cut_rat": gen_cut_rat,
    "cut_exp": gen_cut_exp,
}
for _short, _pair in (("m1", pair_1d), ("m2", pair_2d), ("msym", pair_symbolic),
                      ("mperm", pair_permutation)):
    for _rung in LADDER:
        GENERATORS[f"{_short}_{_rung}"] = ladder(_rung, _pair)


def _round(*counts):
    """Interleave slot counts into one round, spreading each family."""
    keyed = [((i + 0.5) / n, slot) for slot, n in counts for i in range(n)]
    return [slot for _, slot in sorted(keyed)]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "decide_mix",
            "decide on permutation, iteration (8 vs 2 or 4 ratios), unequal-"
            "dimension, symbolic and out-of-family pairs: exact LP, cones, "
            "lattice and equivalence work",
            _round(("iter_top", 4), ("iter_light", 4), ("kraft", 2), ("axis", 2),
                   ("perm", 8), ("two_branch", 6), ("unequal", 6)),
            1.3),
        Workload(
            "table_sweep",
            "gamma sweeps, multiplicity tables and deep cut-sets: the "
            "multiplicity DP with and without nearest-point queries, the "
            "entropy solve, cut-set DFS and serialization, with no flows",
            _round(("g2_big", 6), ("g2_three", 6), ("g1_emp", 12),
                   ("mult3_big", 2), ("mult3", 7), ("mult2", 3), ("cut_rat", 2),
                   ("cut_exp", 2)),
            1.3),
        Workload(
            "match_ladder",
            "matchable --search on equivalent pairs with --exp-k on both sides "
            "of the witness cutoff: cut-set DP, flows, no multiplicity DP",
            _round(("uniform", 2), ("m1_light", 2), ("m2_light", 2),
                   ("msym_light", 1), ("mperm_light", 1), ("m1_deep", 2),
                   ("m2_deep", 2), ("msym_deep", 2), ("mperm_deep", 2)),
            0.8),
    ]
}


class JobStream:
    """Endless job sequence for one workload and seed, round by round, with
    no input repeated."""

    LABEL_TRIES = 20  # label draws per structure before the structure moves on

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.labels = random.Random(seed * 1_000_003 + zlib.crc32(workload.name.encode()))
        self.drawn = {}
        self.seen = set()

    def next_round(self) -> list:
        return [self.draw(slot) for slot in self.workload.slots]

    def draw(self, slot: str) -> Job:
        index = self.drawn.get(slot, 0)
        self.drawn[slot] = index + 1
        for attempt in range(50 * self.LABEL_TRIES):
            structure = f"{self.workload.name}/{slot}/{index}/{attempt // self.LABEL_TRIES}"
            try:
                job = GENERATORS[slot](random.Random(structure), self.labels)
            except Redraw:
                continue
            key = job.key()
            if key not in self.seen:
                self.seen.add(key)
                job.slot, job.structure = slot, structure
                return job
        raise RuntimeError(f"slot {slot} ran out of distinct inputs")

    def twin(self, job: Job) -> Job:
        """A job with the structure of ``job`` under fresh labels.  It may
        repeat ``job`` at exponent level, so only traced runs use it, on a
        fresh import of froblip, to time the same work untraced."""
        while True:
            try:
                twin = GENERATORS[job.slot](random.Random(job.structure), self.labels)
            except Redraw:
                continue
            twin.slot, twin.structure = job.slot, job.structure
            return twin
