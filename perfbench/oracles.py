"""Independent output checks for the froblip CLI benchmark.

Nothing here imports froblip.  Every expected value is recomputed from the
generated inputs with the benchmark's own arithmetic: exact Fractions,
brute-force word enumeration, closed forms, and 60-digit mpmath roots.
Each ``check_*`` function takes a job and the text the CLI wrote, and
returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction

import mpmath

DIGITS = 60  # precision of the benchmark's own dimension roots
CSV_HEADER = "# frobenius-lipschitz"
EXIT_OF = {"EQUIVALENT": 0, "NOT_EQUIVALENT": 10, "UNDECIDED": 11}
EMPIRICAL_SLACK = 0.15  # see empirical_tol
WITNESS_WORDS = 2000  # froblip builds a matchable witness up to this cut-set size


# --------------------------------------------------------------------------
# systems as the benchmark sees them


def prime_factors(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class System:
    """A generated ratio list with exponent vectors and log-ratios.

    Numeric systems use the ascending primes of all their ratios (or of a
    given prime list) as axes, with exponent -v_p(ratio).  Symbolic
    systems use the sorted generator names.  ``logs[j]`` is -log(ratio_j)
    for numeric systems and the exponent sum for rank-1 symbolic ones.
    """

    def __init__(self, doc: dict, axes=None):
        self.doc = doc
        if "rationals" in doc:
            self.symbolic = False
            self.ratios = [Fraction(t) for t in doc["rationals"]]
            facs = [_valuations(r) for r in self.ratios]
            self.axes = axes or sorted({p for f in facs for p in f})
            self.exps = [tuple(-f.get(p, 0) for p in self.axes) for f in facs]
            self.logs = [-math.log(r) for r in self.ratios]
        else:
            self.symbolic = True
            gens = list(doc["generators"])
            mons = [dict(zip(gens, map(int, row))) for row in doc["monomials"]]
            self.axes = axes or sorted({g for m in mons for g, e in m.items() if e})
            self.exps = [tuple(m.get(g, 0) for g in self.axes) for m in mons]
            self.ratios = self.exps
            self.logs = [float(sum(v)) for v in self.exps]

    @property
    def m(self) -> int:
        return len(self.exps)

    def word_exps(self, word):
        acc = [0] * len(self.axes)
        for letter in word:
            for i, e in enumerate(self.exps[letter - 1]):
                acc[i] += e
        return tuple(acc)

    def word_ratio(self, word) -> Fraction:
        r = Fraction(1)
        for letter in word:
            r *= self.ratios[letter - 1]
        return r


def _valuations(r: Fraction) -> dict:
    out = dict(prime_factors(r.numerator))
    for p, e in prime_factors(r.denominator).items():
        out[p] = out.get(p, 0) - e
    return out


def common_axes(a: System, b: System):
    """Re-read two systems over the union of their axes."""
    axes = sorted(set(a.axes) | set(b.axes))
    return System(a.doc, axes), System(b.doc, axes)


def dimension(ratios, digits: int = DIGITS):
    """60-digit root delta of sum r**delta == 1 (bisection, then Newton)."""
    rs = [float(r) for r in ratios]
    lo, hi = 0.0, 1.0
    while sum(r ** hi for r in rs) > 1:
        hi *= 2
    for _ in range(60):
        mid = (lo + hi) / 2
        if sum(r ** mid for r in rs) > 1:
            lo = mid
        else:
            hi = mid
    with mpmath.workdps(digits + 10):
        logs = [mpmath.log(mpmath.mpf(r.numerator) / r.denominator)
                for r in ratios]
        d = mpmath.mpf((lo + hi) / 2)
        for _ in range(12):
            terms = [mpmath.exp(d * lg) for lg in logs]
            step = (mpmath.fsum(terms) - 1) / mpmath.fsum(
                t * lg for t, lg in zip(terms, logs))
            d -= step
            if abs(step) < mpmath.mpf(10) ** (-digits - 5):
                break
        return +d


def growth_root(exponents) -> float:
    """-log x0 for the root x0 in (0,1) of sum x**a_j == 1 (1-D counts)."""
    with mpmath.workdps(30):
        x0 = mpmath.findroot(lambda x: mpmath.fsum(x ** a for a in exponents) - 1,
                             (mpmath.mpf("1e-9"), mpmath.mpf(1)),
                             solver="bisect")
        return float(-mpmath.log(x0))


def iterate_multiset(system: System, p: int) -> list:
    """Ratios (or exponent vectors) of all length-p words, in lexicographic
    word order."""
    out = []
    for word in itertools.product(range(1, system.m + 1), repeat=p):
        out.append(system.word_exps(word) if system.symbolic
                   else system.word_ratio(word))
    return out


def below_threshold(system: System, log_sum: float, ratio, t) -> bool:
    """Exact side of ratio(word) <= t.

    ``t`` is a Fraction (ratio threshold) or ("exp", k) for e^{-k}, where a
    numeric word is below iff -log ratio >= k and a symbolic word iff its
    exponent sum >= k.  ``log_sum`` is -log ratio(word) (the exponent sum
    for symbolic systems); ``ratio()`` returns the exact ratio when needed.
    """
    if isinstance(t, Fraction):
        return ratio() <= t
    k = t[1]
    if system.symbolic:
        return Fraction(int(round(log_sum))) >= k
    if abs(log_sum - float(k)) > 1e-9:
        return log_sum > float(k)
    r = ratio()
    with mpmath.workdps(50):
        diff = (mpmath.log(r.denominator) - mpmath.log(r.numerator)
                - mpmath.mpf(k.numerator) / k.denominator)
        if abs(diff) < mpmath.mpf(10) ** -40:
            raise ValueError(f"ratio {r} ties with the threshold")
        return diff > 0


def cut_set_words(system: System, t) -> list:
    """The benchmark's own cut-set: every word w with ratio(w) <= t <
    ratio(parent of w), by depth-first descent."""
    out = []
    stack = [((), 0.0)]
    while stack:
        word, ls = stack.pop()
        for letter in range(1, system.m + 1):
            nw = word + (letter,)
            nls = ls + system.logs[letter - 1]
            if below_threshold(system, nls, lambda: system.word_ratio(nw), t):
                out.append(nw)
            else:
                stack.append((nw, nls))
    return sorted(out)


def cut_size(system: System, log_t: float) -> int:
    """Words in the cut-set at -log threshold ``log_t`` (the exponent sum
    for symbolic systems), counted per exponent point."""
    zero = (0,) * len(system.axes)
    prefix = {zero: 1}
    heap = [(0.0, zero)]
    total = 0
    limit = log_t - 1e-12
    while heap:
        lg, z = heapq.heappop(heap)
        for v, step in zip(system.exps, system.logs):
            nz = tuple(a + b for a, b in zip(z, v))
            if lg + step >= limit:
                total += prefix[z]
            else:
                if nz not in prefix:
                    prefix[nz] = 0
                    heapq.heappush(heap, (lg + step, nz))
                prefix[nz] += prefix[z]
    return total


def parse_threshold(job):
    if "t" in job.params:
        return Fraction(job.params["t"])
    return ("exp", Fraction(job.params["exp_k"]))


def _word(text: str) -> tuple:
    return tuple(int(c) for c in text)


# --------------------------------------------------------------------------
# per-command checks


def check_decide(job, text: str, rc: int) -> list:
    try:
        doc = json.loads(text)
        result = doc["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verdict: {exc}"]
    problems = []
    if result not in EXIT_OF:
        return [f"unknown verdict {result!r}"]
    if rc != EXIT_OF[result]:
        problems.append(f"exit code {rc} does not match verdict {result}")
    expect = job.params.get("expect")
    if expect is not None and result != expect:
        problems.append(f"{job.params['family']}: expected {expect}, got {result}")
    if job.params.get("built_equivalent") and result == "NOT_EQUIVALENT":
        problems.append("pair built to be equivalent was refuted")
    a, b = System(job.docs["a"]), System(job.docs["b"])
    if not a.symbolic and not b.symbolic:
        da, db = dimension(a.ratios), dimension(b.ratios)
        gap = abs(da - db)
        if gap > mpmath.mpf(10) ** (-DIGITS + 10) and result == "EQUIVALENT":
            problems.append(f"dimensions differ by {mpmath.nstr(gap, 5)} "
                            "but the verdict is EQUIVALENT")
        if gap < mpmath.mpf(10) ** (-DIGITS + 10) and result == "NOT_EQUIVALENT" \
                and doc.get("reason") == "dimension":
            problems.append("equal dimensions refuted by the dimension screen")
    if result == "EQUIVALENT":
        problems += check_certificate(a, b, doc.get("certificate") or {})
    return problems


def check_certificate(a: System, b: System, cert: dict) -> list:
    """Re-check an EQUIVALENT certificate from the generated ratios."""
    a, b = common_axes(a, b)
    if "p" in cert and "q" in cert:
        ea = iterate_multiset(a, int(cert["p"]))
        fb = iterate_multiset(b, int(cert["q"]))
        if Counter(ea) != Counter(fb):
            return [f"iterates p={cert['p']} q={cert['q']} differ as multisets"]
        perm = cert.get("permutation")
        if perm is not None:
            if sorted(perm) != list(range(len(fb))) or len(perm) != len(ea):
                return ["certificate permutation is not a bijection"]
            bad = [i for i, j in enumerate(perm) if ea[i] != fb[j]]
            if bad:
                return [f"permutation entry {bad[0]} maps unequal ratios"]
        return []
    tag = cert.get("tag")
    if tag == "PERMUTATION":
        if Counter(a.ratios) != Counter(b.ratios):
            return ["PERMUTATION certificate on unequal ratio multisets"]
        return []
    if tag == "TWO_BRANCH_SPECIAL":
        if not (a.symbolic and len(a.axes) == 1 and a.m == 2 and b.m == 2):
            return ["TWO_BRANCH_SPECIAL outside rank-1 two-branch systems"]
        ea = sorted(v[0] for v in a.exps)
        eb = sorted(v[0] for v in b.exps)
        for x, y in ((ea, eb), (eb, ea)):
            c = x[0]
            if c >= 1 and x == [c, 5 * c] and y == [2 * c, 3 * c]:
                return []
        return [f"exponents {ea} vs {eb} are not the (c,5c)/(2c,3c) pattern"]
    return [f"EQUIVALENT with an uncheckable certificate {cert!r}"]


def _read_csv(text: str):
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith(CSV_HEADER):
        raise ValueError("missing CSV version header")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def independent_gamma(vectors, theta) -> float:
    """scale * H(p) for theta = sum a_j X_j over s independent generators in
    s dimensions, with scale = sum a_j and p = a / scale."""
    a = _solve([[Fraction(v[i]) for v in vectors] for i in range(len(theta))],
               [Fraction(t) for t in theta])
    scale = sum(a)
    return float(scale) * -sum(float(q / scale) * math.log(q / scale)
                               for q in a if q > 0)


def _solve(rows, rhs):
    """Exact Gauss-Jordan solve of a square nonsingular system."""
    n = len(rows)
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def empirical_tol(s: int, k_max: float) -> float:
    """Allowed gap between the empirical slope and the exact growth rate.

    Counts along a ray grow like k**(-(s-1)/2) * exp(gamma k).  A line
    fitted to log counts at geometrically spaced k in [k_max/16, k_max]
    is biased low by about (s-1)/2 * 2.8 / k_max from that prefactor; the
    allowance doubles it for the nearest-point rule's jitter and adds a
    constant for lattice effects.
    """
    return EMPIRICAL_SLACK + (s - 1) * 2.8 / k_max


def check_gamma(job, text: str, rc: int) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        header, rows = _read_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc}"]
    system = System(job.docs["system"])
    s = len(system.axes)
    if header != [f"theta_{i + 1}" for i in range(s)] + [
            "gamma_analytic", "gamma_empirical", "stderr"]:
        return [f"unexpected CSV header {header}"]
    want = 1 if s == 1 else job.params["dirs"]
    if len(rows) != want:
        return [f"{len(rows)} directions, expected {want}"]
    mode = job.params["mode"]
    problems = []
    for row in rows:
        theta = [float(x) for x in row[:s]]
        ga = float(row[s]) if row[s] else None
        ge = float(row[s + 1]) if row[s + 1] else None
        if abs(math.hypot(*theta) - 1) > 1e-5:
            problems.append(f"theta {theta} is not a unit vector")
        if mode == "both" and (ga is None or ge is None):
            problems.append("a column is missing in --both mode")
            continue
        if mode == "empirical" and ge is None:
            problems.append("empirical column missing")
            continue
        ref = ga
        if ga is not None and system.m == s:
            # closed form at every corner of the printed theta's rounding box
            corners = [
                independent_gamma(system.exps, [t + d for t, d in zip(theta, ds)])
                for ds in itertools.product((-5e-7, 5e-7), repeat=s)
            ]
            if not min(corners) - 1e-6 <= ga <= max(corners) + 1e-6:
                problems.append(f"analytic {ga} outside the closed form "
                                f"[{min(corners):.7f}, {max(corners):.7f}]")
        if s == 1:
            ref = growth_root([v[0] for v in system.exps])
        tol = empirical_tol(s, job.params["k_max"])
        if ge is not None and ref is not None and abs(ge - ref) > tol:
            problems.append(f"empirical {ge} differs from {ref:.6f} by more "
                            f"than {tol:.3f}")
    return problems


def brute_counts(system: System, max_len: int) -> dict:
    """Word counts per exponent point over all words of length <= max_len."""
    zero = (0,) * len(system.axes)
    counts = Counter({zero: 1})
    for n in range(1, max_len + 1):
        for word in itertools.product(range(1, system.m + 1), repeat=n):
            counts[system.word_exps(word)] += 1
    return counts


def axis_closed_form(system: System):
    """m(z) for generators that each lie on one axis with one value per
    axis: multinomial(k) * prod(c_i ** k_i) with z_i = a_i k_i.  None when
    the generators are not of that form."""
    value, mult = {}, Counter()
    for v in system.exps:
        nz = [(i, x) for i, x in enumerate(v) if x]
        if len(nz) != 1 or nz[0][1] <= 0:
            return None
        i, x = nz[0]
        if value.setdefault(i, x) != x:
            return None
        mult[i] += 1
    if len(value) != len(system.axes):
        return None

    def count(z):
        ks = []
        for i, zi in enumerate(z):
            if zi < 0 or zi % value[i]:
                return 0
            ks.append(zi // value[i])
        total = math.factorial(sum(ks))
        for i, k in enumerate(ks):
            total = total // math.factorial(k) * mult[i] ** k
        return total

    return count


def half_space_alphas(exps):
    """The functionals alpha with ||alpha||_1 <= 1 that maximise the least
    slack min_j alpha . X_j, the certificate froblip's tables are cut by.

    Returns [alpha] when it is unique, the two ends of the optimal segment
    when it is not, and None when this benchmark cannot tell (three or more
    axes with generators off the axes).  Axis generators have the unique
    alpha_i = (1 / c_i) / sum_k (1 / c_k), c_i the least value on axis i.
    In two dimensions the optimum has norm 1, so it lies on one of the four
    edges of the l1 sphere, at an end or at a crossing of two slacks.
    """
    s = len(exps[0])
    least = {}
    for v in exps:
        nz = [(i, x) for i, x in enumerate(v) if x]
        if len(nz) != 1 or nz[0][1] <= 0:
            break
        i, x = nz[0]
        least[i] = min(least.get(i, x), x)
    else:
        if len(least) == s:
            total = sum(Fraction(1, c) for c in least.values())
            return [tuple(Fraction(1, least[i]) / total for i in range(s))]
    if s != 2:
        return None
    best, ends = None, []
    for s1, s2 in itertools.product((1, -1), repeat=2):
        # slack_j(lam) = c_j + d_j lam along alpha = (s1 lam, s2 (1 - lam))
        lines = [(s2 * v[1], s1 * v[0] - s2 * v[1]) for v in exps]
        lams = {Fraction(0), Fraction(1)}
        for (c1, d1), (c2, d2) in itertools.combinations(lines, 2):
            if d1 != d2 and 0 <= Fraction(c2 - c1, d1 - d2) <= 1:
                lams.add(Fraction(c2 - c1, d1 - d2))
        for lam in lams:
            slack = min(c + d * lam for c, d in lines)
            alpha = (s1 * lam, s2 * (1 - lam))
            if best is None or slack > best:
                best, ends = slack, [alpha]
            elif slack == best and alpha not in ends:
                ends.append(alpha)
    if best <= 0:
        return None
    return [min(ends), max(ends)] if len(ends) > 1 else ends


def table_region(system: System, bound: Fraction, alphas):
    """(must, may): the points of nonnegative generator combinations with
    z . alpha <= bound for every alpha in ``alphas``, and for at least
    one.  Every optimal alpha lies between the two ends, so a table cut by
    any of them holds all of ``must`` and nothing outside ``may``."""
    # exact integer scores, every alpha scaled by the common denominator;
    # ``seen`` maps a point to its scores under the first and last alpha
    den = math.lcm(*(a.denominator for alpha in alphas for a in alpha))
    cap = math.floor(bound * den)
    moves = []
    for v in system.exps:
        st = [int(sum(a * x for a, x in zip(alpha, v)) * den) for alpha in alphas]
        moves.append((v, st[0], st[-1]))
    zero = (0,) * len(system.axes)
    seen = {zero: (0, 0)}
    todo = [zero]
    while todo:
        z = todo.pop()
        lo, hi = seen[z]
        for v, dlo, dhi in moves:
            nz = tuple(map(operator.add, z, v))
            if nz not in seen and min(lo + dlo, hi + dhi) <= cap:
                seen[nz] = (lo + dlo, hi + dhi)
                todo.append(nz)
    must = {z for z, (lo, hi) in seen.items() if max(lo, hi) <= cap}
    return must, set(seen)


SHORT_WORDS = 3000  # words enumerated by the brute-force check


def check_multiplicity(job, text: str, rc: int) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        header, rows = _read_csv(text)
        table = {tuple(int(c) for c in row[:-1]): int(row[-1]) for row in rows}
    except (ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc}"]
    system = System(job.docs["system"])
    s = len(system.axes)
    if header != [f"z_{i + 1}" for i in range(s)] + ["m"]:
        return [f"unexpected CSV header {header}"]
    zero = (0,) * s
    problems = []
    if table.get(zero) != 1:
        problems.append("the origin is missing or its count is not 1")
    # the region: every positive point with z . alpha <= bound, for the
    # benchmark's own optimal alpha
    bound = Fraction(job.args[job.args.index("--bound") + 1])
    alphas = half_space_alphas(system.exps)
    if alphas is not None:
        must, may = table_region(system, bound, alphas)
        missing = must - set(table)
        extra = set(table) - may
        if missing:
            problems.append(f"{len(missing)} positive points with z . alpha <= "
                            f"{bound} are missing, e.g. {min(missing)}")
        if extra:
            problems.append(f"{len(extra)} points lie outside z . alpha <= "
                            f"{bound}, e.g. {min(extra)}")
    # brute force on the short-word region: every word reaching a point z
    # with -log ratio(z) < (L + 1) * min step has length <= L
    max_len, total = 0, 1
    while total + system.m ** (max_len + 1) <= SHORT_WORDS:
        max_len += 1
        total += system.m ** max_len
    brute = brute_counts(system, max_len)
    log_p = [math.log(p) for p in system.axes]
    reach = (max_len + 1) * min(system.logs) - 1e-9
    score = lambda z: sum(a * b for a, b in zip(z, log_p))

    closed = axis_closed_form(system)
    for z, c in table.items():
        if c < 1:
            problems.append(f"non-positive count at {z}")
        if score(z) < reach and brute.get(z, 0) != c:
            problems.append(f"m{z} = {c}, brute force gives {brute.get(z, 0)}")
        if closed is not None:
            want = closed(z)
            if want != c:
                problems.append(f"m{z} = {c}, multinomial gives {want}")
        # every predecessor scores lower, so it is in the table whenever z
        # is: the last-letter recurrence holds exactly at every point (the
        # closed form already pins every count of axis generators)
        elif z != zero and c != sum(table.get(tuple(map(operator.sub, z, v)), 0)
                                    for v in system.exps):
            problems.append(f"m{z} = {c} breaks m(z) = sum_j m(z - X_j)")
        if len(problems) >= 5:
            break
    return problems[:5]


def check_cutset(job, text: str, rc: int) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        doc = json.loads(text)
        words = [_word(entry["word"]) for entry in doc]
        shown = [Fraction(entry["ratio_as_string"]) for entry in doc]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable cut-set: {exc}"]
    system = System(job.docs["system"])
    t = parse_threshold(job)
    problems = []
    if len(set(words)) != len(words):
        problems.append("repeated words")
    # (numerator, denominator, -log) of every prefix, built letter by letter
    # without reducing the fractions
    prefix = {(): (1, 1, 0.0)}
    letters = [(r.numerator, r.denominator, lg)
               for r, lg in zip(system.ratios, system.logs)]

    def of(word):
        if word not in prefix:
            n, d, lg = of(word[:-1])
            ln, ld, llg = letters[word[-1] - 1]
            prefix[word] = (n * ln, d * ld, lg + llg)
        return prefix[word]

    def below(word):
        n, d, lg = of(word)
        if isinstance(t, Fraction):
            return n * t.denominator <= t.numerator * d
        return below_threshold(system, lg, lambda: Fraction(n, d), t)

    delta = float(dimension(system.ratios))
    mass = 0.0
    for w, r_shown in zip(words, shown):
        if not w or any(not 1 <= c <= system.m for c in w):
            problems.append(f"word {w} is not over the alphabet")
            continue
        n, d, _ = of(w)
        if n * r_shown.denominator != r_shown.numerator * d:
            problems.append(f"word {w}: ratio {r_shown}, expected {Fraction(n, d)}")
        if not below(w):
            problems.append(f"word {w} lies above the threshold")
        if len(w) > 1 and below(w[:-1]):
            problems.append(f"parent of word {w} already lies below the threshold")
        mass += (n / d) ** delta
        if len(problems) >= 5:
            break
    if abs(mass - 1.0) > 1e-9:
        problems.append(f"sum of r(w)^delta is {mass!r}, not 1")
    return problems[:5]


def check_matchable(job, text: str, rc: int) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        doc = json.loads(text)
        feasible, m0 = doc["feasible"], int(doc["m0"])
        witness = doc["witness"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    if not feasible:
        return [f"equivalent pair infeasible up to m0 {job.params['m0_limit']}"]
    if not 1 <= m0 <= job.params["m0_limit"]:
        return [f"m0 {m0} outside [1, {job.params['m0_limit']}]"]
    a, b = common_axes(System(job.docs["a"]), System(job.docs["b"]))
    t = parse_threshold(job)
    if witness is None:
        log_t = -math.log(t) if isinstance(t, Fraction) else float(t[1])
        sizes = [cut_size(x, log_t) for x in (a, b)]
        if max(sizes) <= WITNESS_WORDS:
            return [f"no witness for cut-sets of {sizes[0]} and {sizes[1]} "
                    f"words (at most {WITNESS_WORDS})"]
        return []
    return check_witness(a, b, t, m0, [(_word(u), _word(v)) for u, v in witness])


def check_witness(a: System, b: System, t, m0: int, pairs) -> list:
    """Degrees in [1, m0] on both full cut-sets, distances <= m0."""
    left, right = cut_set_words(a, t), cut_set_words(b, t)
    deg_l = Counter(u for u, _ in pairs)
    deg_r = Counter(v for _, v in pairs)
    problems = []
    if len(set(pairs)) != len(pairs):
        problems.append("repeated witness pairs")
    if set(deg_l) - set(left) or set(deg_r) - set(right):
        problems.append("witness relates words outside the cut-sets")
    for side, words, deg in (("left", left, deg_l), ("right", right, deg_r)):
        for w in words:
            if not 1 <= deg[w] <= m0:
                problems.append(f"{side} word {w} has degree {deg[w]}")
                break
    m0_sq = m0 * m0
    for u, v in pairs:
        d2 = sum((x - y) ** 2 for x, y in zip(a.word_exps(u), b.word_exps(v)))
        if d2 > m0_sq:
            problems.append(f"pair {u}-{v} at squared distance {d2} > {m0_sq}")
            break
    return problems


CHECKS = {
    "decide": check_decide,
    "gamma": check_gamma,
    "multiplicity": check_multiplicity,
    "cutset": check_cutset,
    "matchable": check_matchable,
}


def check(job, text: str, rc: int) -> list:
    return CHECKS[job.command](job, text, rc)
