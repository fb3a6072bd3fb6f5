import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import froblip
from froblip import flows, selfsimilar
from froblip.equivalence import EQUIVALENT, decide
from froblip.errors import (
    FroblipError,
    IncompatibleSymbolicBases,
    ResourceLimit,
)
from froblip.lattice import Monomial
from froblip.selfsimilar import (
    ExpThreshold,
    build_system,
    common_basis,
    cut_multiset,
    cut_set,
    hausdorff_dimension,
    iterate,
    matchable,
    matchable_search,
)

F = Fraction


def _env(**extra):
    """The environment with this froblip first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(froblip.__file__)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_hausdorff_dimension_known_values():
    # frozen closed forms: equal ratios give log m / log(1/r)
    assert abs(hausdorff_dimension([F(1, 3)] * 2) - math.log(2) / math.log(3)) < 1e-12
    assert abs(hausdorff_dimension([F(1, 2)] * 2) - 1.0) < 1e-12
    assert abs(hausdorff_dimension([F(1, 4)] * 2) - 0.5) < 1e-12
    # golden-ratio case: (1/2)^d + (1/4)^d = 1 gives 2^d = golden ratio
    d = hausdorff_dimension([F(1, 2), F(1, 4)])
    assert abs(2 ** d - (1 + math.sqrt(5)) / 2) < 1e-12


def _mp_dimension(ratios):
    """The root of sum r**delta == 1 to 60 digits, by bisection, with as
    many more digits as a ratio near 1 needs to differ from 1."""
    with mpmath.workdps(60 + max(len(str(int(1 / (1 - r)))) for r in ratios)):
        rs = [mpmath.mpf(r.numerator) / r.denominator for r in ratios]

        def f(d):
            return mpmath.fsum(r ** d for r in rs) - 1

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while f(hi) > 0:
            lo, hi = hi, 2 * hi
        for _ in range(230):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return lo


NEAR_ONE = [1 - F(1, 10 ** k) for k in (3, 7, 12, 20, 40, 300)]
TINY = [F(1, 10 ** 400), F(3, 7 ** 500)]


@pytest.mark.parametrize("ratios", [
    [F(1, 3), F(1, 5), F(1, 7), F(2, 11)],
    [F(1, 2), F(1, 4)],
    [F(27, 32), F(1, 9), F(5, 11)],
    [F(9, 10)] * 5,
    *([r, F(1, 2)] for r in NEAR_ONE),
    [NEAR_ONE[1], NEAR_ONE[3], F(1, 3)],
    *([r, F(1, 2)] for r in TINY),
    TINY,
    [NEAR_ONE[2], TINY[0]],
])
def test_hausdorff_dimension_matches_mpmath_root(ratios):
    want = _mp_dimension(ratios)
    assert abs(hausdorff_dimension(ratios) - want) <= 1e-14 * want, ratios


def _ratio():
    near_one = st.integers(1, 40).map(lambda k: 1 - F(1, 10 ** k))
    tiny = st.tuples(st.integers(1, 9), st.integers(310, 400)).map(
        lambda t: F(t[0], 10 ** t[1]))
    plain = st.tuples(st.integers(1, 20), st.integers(2, 30)).filter(
        lambda t: t[0] < t[1]).map(lambda t: F(*t))
    return st.one_of(near_one, tiny, plain)


@given(st.one_of(
    st.tuples(st.lists(_ratio(), min_size=2, max_size=2), st.integers(2, 4)),
    st.tuples(st.lists(_ratio(), min_size=3, max_size=3), st.integers(2, 2))))
@settings(max_examples=30, deadline=None)
def test_system_never_refuted_against_its_iteration(case):
    """Ratios near 1 and below the float range give float dimensions that
    differ in their last bits; no dimension refutation may follow."""
    ratios, p = case
    s = build_system(ratios)
    it = build_system(iterate(s, p).ratios)
    assert decide(s, it).result == EQUIVALENT


def test_hausdorff_dimension_residual():
    rs = [F(1, 3), F(1, 5), F(1, 7), F(2, 11)]
    d = hausdorff_dimension(rs)
    assert abs(sum(float(r) ** d for r in rs) - 1.0) <= 1e-13


def test_hausdorff_dimension_below_float_range():
    # 1/10^400 underflows to 0.0 as a float; its log comes from the integers
    tiny = F(1, 10 ** 400)
    d = hausdorff_dimension([tiny, tiny])
    assert d == pytest.approx(math.log(2) / (400 * math.log(10)), rel=1e-12)
    s = build_system(["1/2", f"1/{10 ** 400}"])
    assert 0 < s.delta < 1
    assert abs(0.5 ** s.delta + math.exp(-s.delta * 400 * math.log(10)) - 1) < 1e-13


def test_build_system_numeric():
    s = build_system(["1/3", "1/3"])
    assert s.ratios == (F(1, 3), F(1, 3))
    assert s.basis.values == (F(1, 3),)
    assert s.exponents == ((1,), (1,))
    assert abs(s.delta - math.log(2) / math.log(3)) < 1e-12


def test_build_system_symbolic():
    s = build_system([Monomial.make({"l": 5}), Monomial.make({"l": 1})])
    assert s.is_symbolic
    assert s.delta is None
    assert s.exponents == ((5,), (1,))


def test_build_system_rejects_floats_and_singletons():
    with pytest.raises(FroblipError):
        build_system([0.5, 0.25])
    with pytest.raises(FroblipError):
        build_system(["1/2"])


def test_iterate_products():
    s = build_system(["1/2", "1/4"])
    s2 = iterate(s, 2)
    assert s2.ratios == (F(1, 4), F(1, 8), F(1, 8), F(1, 16))
    assert s2.exponents == ((2,), (3,), (3,), (4,))
    assert s2.delta == s.delta
    assert iterate(s, 1) is s
    # a ratio below the float range: the dimension needs no re-check
    tiny = F(1, 10 ** 400)
    s = build_system(["1/2", f"1/{10 ** 400}"])
    s2 = iterate(s, 2)
    assert s2.ratios == (F(1, 4), tiny / 2, tiny / 2, tiny * tiny)
    assert s2.exponents == tuple(tuple(a + b for a, b in zip(x, y))
                                 for x in s.exponents for y in s.exponents)
    assert s2.delta == s.delta


def test_iterate_exponent_sums():
    s = build_system(["1/2", "1/3"])
    s3 = iterate(s, 3)
    words = list(itertools.product((1, 2), repeat=3))
    for w, r, e in zip(words, s3.ratios, s3.exponents):
        assert r == s.word_ratio(w)
        assert e == s.word_exponent(w)


def test_cut_set_worked_example():
    # rho=(1/2,1/4) at t=1/4: the cut-set is exactly {11, 12, 2}
    s = build_system(["1/2", "1/4"])
    cs = cut_set(s, F(1, 4))
    assert cs.words == ((1, 1), (1, 2), (2,))
    assert cs.ratios == (F(1, 4), F(1, 8), F(1, 4))


def test_cut_set_antichain_moran_sum():
    # maximal antichain: sum over the cut-set of rho_i^delta == 1
    for ratios, t in [
        (["1/2", "1/4"], F(1, 10)),
        (["1/3", "1/3"], F(1, 7)),
        (["1/2", "1/3", "1/6"], F(1, 5)),
    ]:
        s = build_system(ratios)
        cs = cut_set(s, t)
        total = sum(float(r) ** s.delta for r in cs.ratios)
        assert abs(total - 1.0) < 1e-10


def test_cut_set_threshold_sandwich():
    s = build_system(["1/2", "1/3"])
    t = F(1, 9)
    cs = cut_set(s, t)
    for w, r in zip(cs.words, cs.ratios):
        assert r <= t
        parent = s.word_ratio(w[:-1]) if len(w) > 1 else F(1)
        assert parent > t


def test_cut_set_symbolic_levels():
    s = build_system([Monomial.make({"l": 2}), Monomial.make({"l": 3})])
    cs = cut_set(s, ExpThreshold(F(4)))
    for w, e in zip(cs.words, cs.exponents):
        assert e[0] >= 4
        parent = s.word_exponent(w[:-1])
        assert parent[0] < 4


def test_cut_multiset_matches_cut_set():
    for ratios, t in [
        (["1/2", "1/4"], F(1, 16)),
        (["1/2", "1/3"], F(1, 20)),
        (["1/2", "1/2"], ExpThreshold(F(5))),
    ]:
        s = build_system(ratios)
        cs = cut_set(s, t)
        agg = {}
        for e in cs.exponents:
            agg[e] = agg.get(e, 0) + 1
        assert cut_multiset(s, t) == agg


def test_cut_multiset_deep_threshold_big_counts():
    # 2^n words without enumerating them
    s = build_system(["1/2", "1/2"])
    agg = cut_multiset(s, ExpThreshold(F(40)))
    (point, count), = agg.items()
    level = point[0]
    assert level == math.ceil(40 / math.log(2) - 1e-9)
    assert count == 2 ** level


def test_a_k_band():
    # every cut point satisfies k <= b.alpha_real < k - log(rho_min)
    s = build_system(["1/2", "1/4"])
    alpha_real = s.basis.alpha_real
    span = -math.log(float(min(s.ratios)))
    for k in (5, 10, 20, 40):
        pts = cut_multiset(s, ExpThreshold(k))
        assert pts
        for b in pts:
            score = sum(a * x for a, x in zip(alpha_real, b))
            assert score >= k - 1e-9
            assert score < k + span + 1e-9


def test_threshold_tie_detected():
    # thresholds k within 1e-17 of the exact score 3 log 2 of the point (3,):
    # e^k is irrational, so the exact side decides, from above and below
    s = build_system(["1/2", "1/2"])
    for digits, level in ((2079441541679835927, 3), (2079441541679835929, 4)):
        t = ExpThreshold(F(digits, 10 ** 18))
        assert cut_multiset(s, t) == {(level,): 2 ** level}
        assert set(cut_set(s, t).exponents) == {(level,)}


def _mp_score(system, point):
    """sum_i e_i (-log b_i) to 60 digits, independently of froblip."""
    with mpmath.workdps(60):
        return mpmath.fsum(e * (mpmath.log(v.denominator) - mpmath.log(v.numerator))
                           for v, e in zip(system.basis.values, point))


# numeric systems, among them reduced bases with values far below 2^-1074
# (1/6^700, 1/(15^500 * 7)) and one near 1 (27/32)
ORACLE_SYSTEMS = [
    ["1/2", "1/3"],
    ["1/2", "1/3", "1/5", "2/7"],
    ["3/4", "1/9", "5/11"],
    ["27/32", "729/1024"],
    ["1/2", "1/3", "1/6"],
    [f"1/{6 ** 700}", f"1/{6 ** 1400}"],
    [f"1/{6 ** 700}", f"1/{6 ** 1400}", "1/5"],
    [f"1/{15 ** 500 * 7}", f"1/{15 ** 1000 * 49}", "2/3"],
]


def test_exp_threshold_side_matches_mpmath_oracle():
    """The exact side of e^{-k} on 560 seeded (system, point, k) cases,
    with k from 1e-1 down to 1e-25 away from the point's score, against
    a 60-digit mpmath oracle that never calls froblip."""
    rng = random.Random(20261018)
    cases = tiny = below_floats = 0
    for index, ratios in enumerate(ORACLE_SYSTEMS, 1):
        s = build_system(ratios)
        below_floats += any(v < F(1, 2 ** 1074) for v in s.basis.values)
        while cases < 70 * index:
            point = tuple(rng.randint(-3, 40) for _ in range(s.dim))
            score = _mp_score(s, point)
            if score < 1:
                continue
            gap = F(rng.choice((-1, 1)), 10 ** rng.choice((1, 5, 9, 12, 13, 14, 15, 15,
                                                          16, 20, 25)))
            with mpmath.workdps(60):
                k = F(int(mpmath.floor(score * 10 ** 40)), 10 ** 40) + gap
                diff = score - mpmath.mpf(k.numerator) / k.denominator
            assert abs(diff) > mpmath.mpf(10) ** -26
            assert selfsimilar._ratio_below(s, point, ExpThreshold(k)) == (diff > 0)
            cases += 1
            tiny += abs(gap) <= F(1, 10 ** 15)
    assert cases == 560 and tiny > 150 and below_floats == 3


def _brute_cut_words(system, t):
    """Words whose ratio is <= t while their parent's is > t, by
    breadth-first enumeration with exact ratios; the empty word is always
    a prefix.  On a symbolic system over the one generator l, e^{-k} is
    read as l^k, so a word is at or below it when its degree is >= k; over
    one reduced generator g, a word is at or below a power of g when that
    power divides it."""
    if isinstance(t, ExpThreshold):
        below = lambda r: sum(r.as_dict().values()) >= t.k
    elif isinstance(t, Monomial):
        below = lambda r: all(r.as_dict().get(g, 0) >= e for g, e in t.powers)
    else:
        below = lambda r: r <= t
    letters = list(enumerate(system.ratios, 1))
    out, frontier = [], [((j,), rho) for j, rho in letters]
    while frontier:
        nxt = []
        for word, r in frontier:
            if below(r):
                out.append(word)
            else:
                nxt.extend((word + (j,), r * rho) for j, rho in letters)
        frontier = nxt
    return tuple(sorted(out))


L2, L3 = Monomial.make({"l": 2}), Monomial.make({"l": 3})


@pytest.mark.parametrize("ratios, t", [
    (["1/2", "1/3", "1/6"], F(1, 500)),
    (["1/2", "1/2", "1/4"], F(1, 300)),
    (["1/4", "1/6", "1/9"], F(1, 1000)),
    # symbolic rank 1 over l itself: e^{-12} is l^12
    ([L2, L3, L3], ExpThreshold(F(12))),
    # t >= 1: every letter is at or below t, the empty word stays a prefix
    (["1/2", "1/2", "1/3"], F(1)),
    # t equal to the ratio of several words: (1/6)^2, (1/2)^2 (1/3)^2, ...
    (["1/2", "1/3", "1/6"], F(1, 36)),
])
def test_cut_set_compares_each_point_once(monkeypatch, ratios, t):
    """Many words share an exponent point; each point is compared with the
    threshold once, and the cut-set and its per-point counts are the
    brute-force ones."""
    s = build_system(ratios)
    if s.is_symbolic:
        assert s.basis.values == (Monomial.generator("l"),)
    asked = []
    real = selfsimilar._ratio_below

    def counted(system, exponent, *args):
        asked.append(exponent)
        return real(system, exponent, *args)

    monkeypatch.setattr(selfsimilar, "_ratio_below", counted)
    cs = cut_set(s, t)
    brute = _brute_cut_words(s, t)
    assert cs.words == brute
    assert cs.exponents == tuple(s.word_exponent(w) for w in cs.words)
    assert len(asked) == len(set(asked)) < len(cs.words)
    assert cut_multiset(s, t) == Counter(s.word_exponent(w) for w in brute)


def test_monomial_threshold_on_a_reduced_generator():
    # {uv, u^2 v^2} reduces to the one generator uv: level 4 is (uv)^4
    s = build_system([Monomial.make({"u": 1, "v": 1}),
                      Monomial.make({"u": 2, "v": 2})])
    assert s.basis.values == (Monomial.make({"u": 1, "v": 1}),)
    t = Monomial.make({"u": 4, "v": 4})
    assert cut_set(s, ExpThreshold(4)).words == _brute_cut_words(s, t)
    with pytest.raises(FroblipError, match="unsupported threshold"):
        cut_set(s, t)


def test_cut_walk_refuses_huge_exp_threshold():
    # k = 10^400 has no float: every point lies above e^{-k}, and the
    # walk stops at its budget
    s = build_system(["1/2", "1/3"])
    t = ExpThreshold(10 ** 400)
    with pytest.raises(ResourceLimit, match="cut-set exceeds 50 words"):
        cut_set(s, t, word_budget=50)
    with pytest.raises(ResourceLimit, match="cut-set point budget exceeded"):
        cut_multiset(s, t, point_budget=100)


def test_budget_errors_name_constant_and_keyword():
    s = build_system(["1/2", "1/3", "1/5"])
    with pytest.raises(ResourceLimit, match=r"243 ratios, above 100 \(raise budget; "
                       r"default ITERATION_BUDGET = 1000000\)"):
        iterate(s, 5, budget=100)
    with pytest.raises(ResourceLimit, match=r"over 100 points \(raise point_budget; "
                       r"default DEFAULT_WORD_BUDGET = 500000\)"):
        cut_multiset(s, ExpThreshold(20), point_budget=100)
    with pytest.raises(ResourceLimit, match=r"\(raise word_budget; "
                       r"default DEFAULT_WORD_BUDGET = 500000\)"):
        cut_set(s, ExpThreshold(20), word_budget=100)


def test_cut_set_refuses_before_building_words(monkeypatch):
    # about 10^10 words at e^{-30}, on some 600 points: refused from the
    # per-point counts, before any word is built (500000 words of some 30
    # letters would take far more than 4 MB)
    def no_words(*args):
        raise AssertionError("a word was built")

    s = build_system(["1/2", "1/3"])
    monkeypatch.setattr(selfsimilar.ContractionSystem, "word_ratio", no_words)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="cut-set exceeds 500000 words"):
            cut_set(s, ExpThreshold(30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


DEEP_CUT_SCRIPT = """
from froblip import ExpThreshold, build_system, cut_set
from froblip.errors import ResourceLimit
try:
    cut_set(build_system(["1/2", "1/3"]), ExpThreshold(10 ** 6), word_budget=100)
except ResourceLimit as exc:
    print(exc)
"""


def test_deep_cut_set_is_bounded():
    # every point of the walk lies above e^{-10^6}; the walk stops past
    # 2 * word_budget points
    proc = subprocess.run([sys.executable, "-c", DEEP_CUT_SCRIPT], env=_env(),
                          capture_output=True, text=True, timeout=20, check=True)
    assert proc.stdout == ("cut-set exceeds 100 words (raise word_budget; "
                           "default DEFAULT_WORD_BUDGET = 500000)\n")


def test_common_basis_numeric():
    a = build_system(["1/2", "1/2"])
    b = build_system(["1/4", "1/4", "1/4", "1/4"])
    basis, a2, b2 = common_basis(a, b)
    assert basis.values == (F(1, 2),)
    assert a2.exponents == ((1,), (1,))
    assert b2.exponents == ((2,), (2,), (2,), (2,))
    assert a2.alpha == b2.alpha


def test_common_basis_symbolic_mismatch():
    a = build_system([Monomial.make({"u": 1}), Monomial.make({"u": 2})])
    b = build_system([Monomial.make({"v": 1}), Monomial.make({"v": 2})])
    with pytest.raises(IncompatibleSymbolicBases):
        common_basis(a, b)


def test_matchable_equivalent_pair():
    a = build_system(["1/2", "1/2"])
    b = build_system(["1/4", "1/4", "1/4", "1/4"])
    rep = matchable_search(a, b, ExpThreshold(F(4)))
    assert rep.feasible
    assert rep.m0 <= 2
    assert rep.witness is not None
    # witness degrees within [1, m0] on both sides
    left = Counter(w for w, _ in rep.witness)
    right = Counter(w for _, w in rep.witness)
    cs_a = cut_set(a, ExpThreshold(F(4)))
    cs_b = cut_set(b, ExpThreshold(F(4)))
    assert set(left) == set(cs_a.words)
    assert set(right) == set(cs_b.words)
    assert all(1 <= c <= rep.m0 for c in left.values())
    assert all(1 <= c <= rep.m0 for c in right.values())


def test_matchable_counting_obstruction():
    # (1/2,1/2) vs (1/8,1/8) at t=1/64: cut points coincide but the word
    # counts are 64 vs 4, so degrees force m0 >= 16
    a = build_system(["1/2", "1/2"])
    b = build_system(["1/8", "1/8"])
    t = F(1, 64)
    assert not matchable(a, b, t, 8).feasible
    rep = matchable(a, b, t, 16)
    assert rep.feasible


def test_matchable_infeasible_distance():
    # cut points 8 exponent levels apart: infeasible until m0 covers it
    a = build_system([Monomial.make({"l": 1}), Monomial.make({"l": 1})])
    b = build_system([Monomial.make({"l": 9}), Monomial.make({"l": 9})])
    assert not matchable(a, b, ExpThreshold(F(1)), 1).feasible
    rep = matchable_search(a, b, ExpThreshold(F(1)))
    assert rep.feasible
    assert rep.m0 == 8
    # doubling returns the first feasible power of two: its half fails
    assert not matchable(a, b, ExpThreshold(F(1)), rep.m0 // 2).feasible


def test_degree_constrained_relation_pair_counts():
    # groups of 1 and 2 words on the left, 3 words on the right: at m0 = 1
    # every word has exactly one partner
    left, right, anything = {"a": 1, "b": 2}, {"x": 3}, lambda z, w: True
    relate = flows.degree_constrained_relation
    assert relate(left, right, anything, 1) == {("a", "x"): 1, ("b", "x"): 2}
    assert relate(left, right, lambda z, w: z == "a", 3) is None
    assert relate(left, right, anything, 0) is None


def test_matchable_search_cuts_once(monkeypatch):
    # one pair of cut multisets serves every m0 probe; the feasible probe
    # solves one more flow, on words, for its witness
    cuts, probes = [], []
    real_cut, real_flow = selfsimilar.cut_multiset, flows.degree_constrained_relation

    def counted_cut(*args, **kwargs):
        cuts.append(args)
        return real_cut(*args, **kwargs)

    def counted_flow(*args, **kwargs):
        probes.append(args[3])
        return real_flow(*args, **kwargs)

    monkeypatch.setattr(selfsimilar, "cut_multiset", counted_cut)
    monkeypatch.setattr(flows, "degree_constrained_relation", counted_flow)
    a = build_system(["1/2", "1/2"])
    b = build_system(["1/4", "1/4", "1/4", "1/4"])
    rep = matchable_search(a, b, ExpThreshold(F(2)))
    assert rep.feasible and rep.m0 == 2
    assert probes == [1, 2, 2]
    assert len(cuts) == 2


def test_matchable_walks_each_cut_once(monkeypatch):
    # the witness words are read off the cut multisets: one walk per side
    walks = []
    real_walk = selfsimilar._walk

    def counted_walk(*args, **kwargs):
        walks.append(args[0])
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(selfsimilar, "_walk", counted_walk)
    a = build_system(["1/2", "1/3"])
    b = build_system(["1/4", "1/6", "1/6", "1/9"])
    rep = matchable(a, b, ExpThreshold(4), 4)
    assert rep.feasible and rep.witness
    assert len(walks) == 2
    walks.clear()
    cs_a, cs_b = cut_set(a, ExpThreshold(4)), cut_set(b, ExpThreshold(4))
    assert {w for w, _ in rep.witness} == set(cs_a.words)
    assert {w for _, w in rep.witness} == set(cs_b.words)
    assert len(walks) == 2


def test_matchable_search_rejects_m0_limit_below_1(monkeypatch):
    def no_cut_work(*args, **kwargs):
        raise AssertionError("cut-set work before the m0_limit check")

    monkeypatch.setattr(selfsimilar, "common_basis", no_cut_work)
    monkeypatch.setattr(selfsimilar, "cut_multiset", no_cut_work)
    a = build_system(["1/2", "1/2"])
    b = build_system(["1/4", "1/4", "1/4", "1/4"])
    with pytest.raises(FroblipError, match="m0_limit must be >= 1"):
        matchable_search(a, b, ExpThreshold(F(3)), m0_limit=0)


MATCH_SCRIPT = """
import json
from froblip import ExpThreshold, build_system, matchable
from froblip.serialize import match_report_to_json
rep = matchable(build_system(["1/2", "1/3"]),
                build_system(["1/4", "1/6", "1/6", "1/9"]), ExpThreshold(4), 4)
print(json.dumps(match_report_to_json(rep)))
"""


def test_matchable_witness_independent_of_hash_seed():
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", MATCH_SCRIPT],
                              env=_env(PYTHONHASHSEED=seed),
                              capture_output=True, text=True, timeout=120,
                              check=True)
        outs.append(proc.stdout)
    assert json.loads(outs[0])["witness"]
    assert outs[0] == outs[1]


def test_matchable_deep_aggregated_only():
    # 2^18-word cut-sets: group-level decision, no witness
    a = build_system(["1/2", "1/2"])
    b = build_system(["1/4", "1/4", "1/4", "1/4"])
    rep = matchable_search(a, b, ExpThreshold(F(12)))
    assert rep.feasible
    assert rep.witness is None
