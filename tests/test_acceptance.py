"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
lines.  Each test also prints an ``ACCEPTANCE n: PASS`` line on success so
the gate is visible with ``-s``.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from froblip.cones import Cone, cone_separation, half_space_certificate
from froblip.errors import NoHalfSpace
from froblip.frobenius import (
    build_multiplicity,
    estimate_gamma,
    frobenius_number_1d,
    log_big,
    make_defining_data,
)
from froblip.growth import gamma
from froblip.lattice import Monomial
from froblip.selfsimilar import (
    ExpThreshold,
    build_system,
    cut_multiset,
    cut_set,
    iterate,
    matchable_search,
)
from froblip.equivalence import EQUIVALENT, NOT_EQUIVALENT, decide

F = Fraction


def _ok(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def _brute_counts(vectors, max_len):
    s = len(vectors[0])
    counts = {(0,) * s: 1}
    layer = {(0,) * s: 1}
    for _ in range(max_len):
        nxt = {}
        for z, c in layer.items():
            for v in vectors:
                w = tuple(a + b for a, b in zip(z, v))
                nxt[w] = nxt.get(w, 0) + c
        for z, c in nxt.items():
            counts[z] = counts.get(z, 0) + c
        layer = nxt
    return counts


def test_criterion_1_multiplicity_exactness():
    # 50 random small defining data; DP equals brute force on the region
    # z.alpha <= 8*min_step, where length-8 enumeration is complete
    rng = random.Random(20260823)
    checked = 0
    start = time.time()
    while checked < 50:
        s = rng.randint(1, 3)
        m = rng.randint(2, 4)
        vectors = tuple(
            tuple(rng.randint(-3, 3) for _ in range(s)) for _ in range(m)
        )
        if any(all(x == 0 for x in v) for v in vectors):
            continue
        try:
            alpha = half_space_certificate(Cone(vectors))
        except NoHalfSpace:
            continue
        data = make_defining_data(vectors, alpha)
        min_step = min(data.score(v) for v in vectors)
        bound = 8 * min_step
        table = build_multiplicity(data, bound, point_budget=200_000)
        oracle = _brute_counts(vectors, 8)
        for z, c in oracle.items():
            if data.score(z) <= bound:
                assert table.counts.get(z, 0) == c, (vectors, z)
        for z, c in table.counts.items():
            if c >= 1:
                assert oracle.get(z, 0) == c, (vectors, z)
        checked += 1
    assert time.time() - start < 30
    _ok(1, "multiplicity exactness vs brute force, 50 random data")


def test_criterion_2_binomial_oracle():
    data = make_defining_data(((1, 0), (0, 1)))
    table = build_multiplicity(data, data.score((30, 30)))
    for a in range(31):
        for b in range(31 - a):
            assert table.counts[(a, b)] == math.comb(a + b, a)
    _ok(2, "binomial identity m((a,b)) = C(a+b,a), a+b <= 30")


def test_criterion_3_gamma_agreement():
    start = time.time()
    for vectors in [((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2))]:
        data = make_defining_data(vectors)
        angles = sorted(math.atan2(v[1], v[0]) for v in vectors)
        lo, hi = angles[0], angles[-1]
        pad = (hi - lo) / 18
        bound = F(math.ceil(120 * 0.71 + 8 * 0.71 + 3))
        table = build_multiplicity(data, bound)
        for i in range(9):
            a = lo + pad + (hi - lo - 2 * pad) * i / 8
            theta = (math.cos(a), math.sin(a))
            ga = gamma(data, theta)
            ge = estimate_gamma(data, theta, k_max=120.0, table=table)
            assert abs(ga - ge.gamma_hat) <= 0.05, (vectors, theta)
    # the specific diagonal value sqrt(2) log 2
    data = make_defining_data(((1, 0), (0, 1)))
    est = estimate_gamma(data, (1.0, 1.0), k_max=120.0)
    assert abs(est.gamma_hat - math.sqrt(2) * math.log(2)) <= 0.02
    assert time.time() - start < 60
    _ok(3, "empirical vs analytic gamma <= 0.05; sqrt2*log2 within 0.02")


def test_criterion_4_invariance_20_pairs():
    base = [
        ["1/2", "1/2"],
        ["1/3", "1/3"],
        ["1/2", "1/4"],
        ["1/2", "1/3"],
        ["1/4", "1/8"],
        ["1/2", "1/3", "1/6"],
        ["1/3", "1/9"],
        ["1/5", "1/5", "1/5"],
        ["1/2", "1/4", "1/4"],
        ["1/6", "1/10"],
    ]
    pairs = []
    for i, ratios in enumerate(base):
        s = build_system(ratios)
        pairs.append((s, iterate(s, 2 + (i % 2))))  # iteration pairs
    for ratios in base:
        s = build_system(ratios)
        perm = list(reversed(range(s.m)))
        t = build_system([str(s.ratios[j]) for j in perm])
        pairs.append((s, t))
    assert len(pairs) == 20
    for e, f in pairs:
        assert e.basis == f.basis
        ce, cf = Cone(e.exponents), Cone(f.exponents)
        assert cone_separation(ce, cf) is None
        de = make_defining_data(e.exponents, e.alpha)
        df = make_defining_data(f.exponents, f.alpha)
        centroid = [
            sum(v[i] for v in e.exponents) / e.m for i in range(e.dim)
        ]
        assert abs(gamma(de, centroid) - gamma(df, centroid)) <= 1e-8, \
            (e.ratios, f.ratios)
        ge = estimate_gamma(de, centroid, k_max=60.0)
        gf = estimate_gamma(df, centroid, k_max=60.0)
        assert abs(ge.gamma_hat - gf.gamma_hat) <= 0.05, (e.ratios, f.ratios)
    _ok(4, "cone equality + gamma invariance on 20 iteration/permutation pairs")


def test_criterion_5_paper_decisions():
    start = time.time()
    a = build_system([Monomial.make({"l": 5}), Monomial.make({"l": 1})])
    b = build_system([Monomial.make({"l": 3}), Monomial.make({"l": 2})])
    v = decide(a, b)
    assert v.result == EQUIVALENT

    c = build_system([Monomial.make({"u": 2}), Monomial.make({"v": 1})])
    d = build_system([Monomial.make({"u": 1}), Monomial.make({"v": 2})])
    v = decide(c, d)
    assert v.result == NOT_EQUIVALENT
    assert v.reason == "NO_ITERATION_PERMUTATION"
    assert v.certificate == {"p": 1, "q": 1}

    e = build_system(["1/2", "1/2"])
    f = build_system(["1/4", "1/4", "1/4", "1/4"])
    v = decide(e, f)
    assert v.result == EQUIVALENT
    assert (v.certificate["p"], v.certificate["q"]) == (2, 1)
    assert time.time() - start < 5
    _ok(5, "two-branch special, axis-supported refutation, square iteration")


def test_criterion_6_frobenius_1d():
    def sieve_oracle(gens):
        limit = min(gens) * max(gens)
        reach = {0}
        for v in gens:
            reach |= {x + k * v for x in list(reach)
                      for k in range(limit // v + 1)}
        reach = {x for x in reach if x <= limit}
        return max(x for x in range(limit + 1) if x not in reach)

    assert frobenius_number_1d([3, 5]) == 7 == sieve_oracle([3, 5])
    assert frobenius_number_1d([3, 7]) == 11 == sieve_oracle([3, 7])
    _ok(6, "g(3,5) = 7, g(3,7) = 11, cross-checked")


def test_criterion_7_cutset_and_band():
    s = build_system(["1/2", "1/4"])
    cs = cut_set(s, F(1, 4))
    assert cs.words == ((1, 1), (1, 2), (2,))

    # band inequality on the specified system
    alpha_real = s.basis.alpha_real
    span = -math.log(float(min(s.ratios)))
    for k in (5, 10, 20, 40):
        for b in cut_multiset(s, ExpThreshold(k)):
            score = sum(a * x for a, x in zip(alpha_real, b))
            assert score >= k - 1e-9
            assert score < k + span + 1e-9

    # covering radius on a 2-D system (the 1-D instance has a single
    # hyperplane probe and no stable radius); grid pitch k/200 <= 0.5
    s2 = build_system(["1/2", "1/3"])
    ar = s2.basis.alpha_real
    c1 = {}
    for k in (5, 10, 20, 40):
        pts = np.array(sorted(cut_multiset(s2, ExpThreshold(k))), dtype=float)
        worst = 0.0
        n = 200
        for i in range(n + 1):
            a = (k / ar[0]) * i / n
            b = (k - a * ar[0]) / ar[1]
            if b < 0:
                continue
            d = math.sqrt(
                np.min((pts[:, 0] - a) ** 2 + (pts[:, 1] - b) ** 2)
            )
            worst = max(worst, d)
        c1[k] = worst
    ks = [5, 10, 20, 40]
    for k0, k1 in zip(ks, ks[1:]):
        assert c1[k1] <= 1.10 * c1[k0], c1
    _ok(7, "cut-set {11,12,2}; A_k band; covering radius non-increasing within 10%")


def test_criterion_8_matchable_necessity():
    start = time.time()
    pairs = [
        (build_system([Monomial.make({"l": 5}), Monomial.make({"l": 1})]),
         build_system([Monomial.make({"l": 3}), Monomial.make({"l": 2})])),
        (build_system(["1/2", "1/2"]),
         build_system(["1/4", "1/4", "1/4", "1/4"])),
    ]
    for e, f in pairs:
        for k in range(3, 13):
            rep = matchable_search(e, f, ExpThreshold(F(k)), m0_limit=16)
            assert rep.feasible, (e.ratios, k)
            assert rep.m0 <= 16
    assert time.time() - start < 120
    _ok(8, "equivalent pairs matchable at every k = 3..12 with M0 <= 16")


def test_criterion_9_ratio_boundedness_stabilizes():
    vectors = ((2, 0), (1, 1), (0, 2))
    data = make_defining_data(vectors)
    offsets = [
        (dx, dy)
        for dx, dy in itertools.product(range(-3, 4), repeat=2)
        if (dx, dy) != (0, 0) and dx * dx + dy * dy <= 9
    ]
    fitted = {}
    for K in (40, 80, 160):
        table = build_multiplicity(data, F(K))
        pts = {z for z, m in table.counts.items() if m >= 1}
        c = 0.0
        for z in pts:
            lz = log_big(table.counts[z])
            nz = math.hypot(*z)
            if nz < 1:
                continue
            for dx, dy in offsets:
                w = (z[0] + dx, z[1] + dy)
                if w in pts:
                    diff = lz - log_big(table.counts[w])
                    if diff > 0:
                        c = max(c, diff / math.log(1 + nz))
        fitted[K] = c
    values = list(fitted.values())
    assert max(values) <= 1.2 * min(values), fitted
    _ok(9, "ratio-bound exponent stable across K in {40,80,160} within 20%")
