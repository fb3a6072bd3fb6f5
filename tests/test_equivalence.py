import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from froblip import equivalence, frobenius, poly, serialize
from froblip.equivalence import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNDECIDED,
    decide,
    iteration_orders,
    screen_invariants,
)
from froblip.errors import ResourceLimit
from froblip.lattice import Monomial, factor_rationals
from froblip.poly import _brackets
from froblip.selfsimilar import build_system, iterate


def sym(*powers):
    return build_system([Monomial.make(p) for p in powers])


def test_two_branch_special_pair():
    a = sym({"l": 5}, {"l": 1})
    b = sym({"l": 3}, {"l": 2})
    v = decide(a, b)
    assert v.result == EQUIVALENT
    assert v.reason == "TWO_BRANCH_SPECIAL"
    # and symmetrically
    assert decide(b, a).result == EQUIVALENT


def test_two_branch_special_scaled():
    a = sym({"l": 10}, {"l": 2})
    b = sym({"l": 6}, {"l": 4})
    assert decide(a, b).result == EQUIVALENT


def test_two_branch_generic_not_equivalent():
    a = sym({"l": 4}, {"l": 1})
    b = sym({"l": 3}, {"l": 2})
    v = decide(a, b)
    assert v.result == NOT_EQUIVALENT


def test_axis_supported_refutation():
    # axis-supported, so coplanar: {u^2, v} vs {u, v^2} fails the identity
    # at the only iteration pair with 2**p == 2**q that can match, (1, 1)
    a = sym({"u": 2}, {"v": 1})
    b = sym({"u": 1}, {"v": 2})
    v = decide(a, b)
    assert v.result == NOT_EQUIVALENT
    assert v.reason == "NO_ITERATION_PERMUTATION"
    assert v.certificate == {"p": 1, "q": 1}


def test_iteration_permutation_square():
    a = build_system(["1/2", "1/2"])
    b = build_system(["1/4", "1/4", "1/4", "1/4"])
    v = decide(a, b)
    assert v.result == EQUIVALENT
    assert v.reason == "ITERATION_PERMUTATION"
    assert (v.certificate["p"], v.certificate["q"]) == (2, 1)
    perm = v.certificate["permutation"]
    assert sorted(perm) == [0, 1, 2, 3]


def test_reflexivity():
    systems = [
        build_system(["1/2", "1/4"]),
        build_system(["1/2", "1/3"]),
        build_system(["1/6", "1/10", "1/15"]),
        sym({"l": 5}, {"l": 1}),
        sym({"u": 1}, {"v": 1}),
    ]
    for s in systems:
        v = decide(s, s)
        assert v.result == EQUIVALENT, s.ratios


def test_symmetry():
    pairs = [
        (build_system(["1/2", "1/2"]), build_system(["1/4"] * 4)),
        (sym({"l": 5}, {"l": 1}), sym({"l": 3}, {"l": 2})),
        (build_system(["1/2", "1/3"]), build_system(["1/2", "1/4"])),
        (sym({"u": 2}, {"v": 1}), sym({"u": 1}, {"v": 2})),
    ]
    for a, b in pairs:
        assert decide(a, b).result == decide(b, a).result


def test_iteration_closure():
    for ratios in [["1/2", "1/2"], ["1/3", "1/3"], ["1/2", "1/4"]]:
        s = build_system(ratios)
        for p in (2, 3):
            it = build_system([str(r) for r in iterate(s, p).ratios])
            v = decide(s, it)
            assert v.result == EQUIVALENT, (ratios, p)


def test_screen_dimension():
    a = build_system(["1/2", "1/4"])
    b = build_system(["1/3", "1/9"])
    v = screen_invariants(a, b)
    assert v is not None
    assert v.result == NOT_EQUIVALENT
    assert v.reason == "dimension"


def test_screen_symbolic_dimension_gcd():
    # x^5 + x - 1 = (x^2 - x + 1)(x^3 + x^2 - 1): {l^5, l} and {l^3, l^2}
    # share their dimension-equation root, so screening must pass
    a = sym({"l": 5}, {"l": 1})
    b = sym({"l": 3}, {"l": 2})
    assert screen_invariants(a, b) is None
    # {l^4, l} vs {l^3, l^2}: gcd(x^4+x-1, x^3+x^2-1) is trivial
    c = sym({"l": 4}, {"l": 1})
    v = screen_invariants(c, b)
    assert v is not None and v.reason == "dimension"


def _sympy_same_root(a, b):
    """Oracle: the gcd of sum x**a_j - 1 and sum x**b_j - 1, at the raw
    exponents, has a root in [0, 1]."""
    x = sympy.Symbol("x")
    g = sympy.gcd(*(sympy.Poly(sum(x ** int(v) for v in s) - 1, x)
                    for s in (a, b)))
    return g.total_degree() > 0 and int(sympy.Poly(g, x).count_roots(0, 1)) >= 1


def _rank1_pairs(rng):
    """Seeded exponent pairs (a, b) of rank-1 systems over one generator."""
    for _ in range(25):  # two-branch patterns, c up to 300
        c = rng.randint(1, 300)
        yield rng.choice([([5 * c, c], [3 * c, 2 * c]), ([4 * c, c], [3 * c, 2 * c]),
                          ([5 * c, c], [4 * c, 2 * c])])
    for _ in range(25):  # iterations of one base, scaled by a common factor
        base = [rng.randint(1, 5) for _ in range(rng.randint(2, 3))]
        p, q = rng.sample(range(1, 6 - len(base)), 2)  # at most 9 ratios
        k = rng.randint(1, 40)
        yield tuple([k * sum(w) for w in itertools.product(base, repeat=n)]
                    for n in (p, q))
    for _ in range(25):  # repeated exponents, sides with different own gcds
        ga, gb = rng.sample([1, 2, 3, 4, 6], 2)
        a = [ga * rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
        b = [gb * rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
        yield a + a[:1], b
    for _ in range(25):  # a shared factor x**2 - x + 1 whose roots lie off (0, 1)
        yield ([6 * rng.randint(0, 9) + 5, 6 * rng.randint(0, 9) + 1],
               [6 * rng.randint(0, 9) + 5, 6 * rng.randint(0, 9) + 1])
    for _ in range(25):  # unrelated exponents
        yield ([rng.randint(1, 40) for _ in range(rng.randint(2, 6))],
               [rng.randint(1, 40) for _ in range(rng.randint(2, 6))])


def test_same_dimension_root_matches_sympy():
    seen = Counter()
    for a, b in _rank1_pairs(random.Random(11)):
        want = _sympy_same_root(a, b)
        seen[want] += 1
        v = screen_invariants(sym(*({"l": x} for x in a)),
                              sym(*({"l": x} for x in b)))
        assert (v is not None and v.reason == "dimension") is not want, (a, b, v)
    assert seen[True] >= 25 and seen[False] >= 25, seen


def test_numeric_rank1_dimension_matches_sympy():
    """Numeric pairs over one prime: the certificate carries both float
    dimensions and a delta* between them."""
    rng = random.Random(12)
    seen = Counter()
    for a, b in _rank1_pairs(rng):
        d = math.gcd(*a, *b)  # keep the ratios small
        a, b = [x // d for x in a], [x // d for x in b]
        if max(a + b) > 40 or len(a + b) > 12:
            continue
        p = rng.choice([2, 3, 5])
        e = build_system([Fraction(1, p ** x) for x in a])
        f = build_system([Fraction(1, p ** x) for x in b])
        v = screen_invariants(e, f)
        refuted = v is not None and v.reason == "dimension"
        assert refuted is not _sympy_same_root(a, b), (a, b, v)
        seen[refuted] += 1
        if refuted:
            lo, hi = sorted([e.delta, f.delta])
            assert v.certificate["values"] == [e.delta, f.delta]
            assert lo < Fraction(v.certificate["delta_star"]) < hi
    assert seen[True] >= 20 and seen[False] >= 20, seen


def test_above_budget_pair_is_fast_and_right():
    """Exponents up to 200001 and 601, far past any polynomial degree that
    a gcd could handle: the roots differ, and the dimension test refutes
    both pairs at once."""
    a = sym({"l": 200001}, {"l": 1})
    b = sym({"l": 150000}, {"l": 2})
    start = time.perf_counter()
    v = decide(a, b)
    assert time.perf_counter() - start < 5
    assert (v.result, v.reason) == (NOT_EQUIVALENT, "dimension")
    a = sym({"l": 601}, {"l": 1}, {"l": 1})
    b = sym({"l": 600}, {"l": 2}, {"l": 1})
    assert not _sympy_same_root([601, 1, 1], [600, 2, 1])
    start = time.perf_counter()
    v = decide(a, b)
    assert time.perf_counter() - start < 5
    assert (v.result, v.reason) == (NOT_EQUIVALENT, "dimension")


@pytest.mark.parametrize("k", [6, 7, 9, 12, 20])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_near_one_ratio_against_its_iteration(k, p):
    """(1 - 10^-k, 1/2) against its written-out p-th iteration: the float
    dimensions differ in their last bits, and the pair reaches the
    iteration identity."""
    s = build_system([str(1 - Fraction(1, 10 ** k)), "1/2"])
    it = build_system([str(r) for r in iterate(s, p).ratios])
    v = decide(s, it)
    assert (v.result, v.reason) == (EQUIVALENT, "ITERATION_PERMUTATION")
    assert (v.certificate["p"], v.certificate["q"]) == (p, 1)


def test_dimension_passes_a_rational_root():
    """A delta* that is the common root ties both sides at 0: no bracket
    resolves either sign, and the pair is passed on."""
    one = Fraction(1)
    for br in _brackets((Fraction(1, 2),)):
        assert br.sign(Counter({(1,): 2}), one) == 0
        assert br.sign(Counter({(1,): 3}), one) == 1
        assert br.sign(Counter({(2,): 3}), one) == -1


def test_screen_cone():
    # same dimension by construction is hard; instead check a rank refusal
    a = sym({"u": 1}, {"v": 1})
    b = sym({"u": 1}, {"u": 1, "v": 1}, {"v": 1})
    v = screen_invariants(a, b)
    assert v is None or v.result == NOT_EQUIVALENT


@pytest.mark.parametrize("a, b", [
    (({"u": 1}, {"v": 1}), ({"u": 1}, {"u": 1, "v": 1})),
    (({"u": 1}, {"u": 1, "v": 1}), ({"u": 1}, {"v": 1})),
    (({"u": 1}, {"v": 1}, {"w": 1}), ({"u": 1, "v": 1}, {"v": 1}, {"w": 1})),
    (({"u": 2, "v": 1}, {"u": 1, "v": 2}), ({"u": 3, "v": 1}, {"u": 1, "v": 1})),
])
def test_cone_refutation_certificate(a, b):
    verdict = decide(sym(*a), sym(*b))
    assert (verdict.result, verdict.reason) == (NOT_EQUIVALENT, "cone")
    cert = json.loads(json.dumps(serialize.verdict_to_json(verdict)))["certificate"]
    values, functional = cert["values"], cert["functional"]
    side, y, j = functional["side"], functional["y"], functional["point"]

    def dot(x):
        return sum(yi * xi for yi, xi in zip(y, x))

    # y is nonnegative on one side's generators, negative at a point of the
    # other side: that point lies outside the first side's cone
    assert all(isinstance(v, int) for v in y)
    assert all(dot(x) >= 0 for x in values[side])
    assert dot(values[1 - side][j]) < 0


def test_no_common_basis_undecided():
    a = sym({"u": 1}, {"u": 2})
    b = sym({"v": 1}, {"v": 2})
    v = decide(a, b)
    assert v.result == UNDECIDED
    assert v.reason == "NO_COMMON_BASIS"


def test_full_rank_decider():
    a = build_system(["1/6", "1/10"])  # exponents rank 2 over primes 2,3,5
    b = build_system(["1/10", "1/6"])
    assert decide(a, b).result == EQUIVALENT
    # same dimension forced by identical ratio multisets only; a distinct
    # full-rank pair with equal dimension is rare, so check the screen
    # already refutes the generic case
    c = build_system(["1/6", "1/15"])
    assert decide(a, c).result == NOT_EQUIVALENT


def test_iteration_orders_match_brute_force():
    # the smallest (p, q) with m**p == n**q, for m, n <= 64, has p, q <= 6
    for m in range(2, 65):
        for n in range(2, 65):
            powers = [(p, q) for p in range(1, 7) for q in range(1, 7)
                      if m ** p == n ** q]
            assert iteration_orders(m, n) == min(powers, default=None), (m, n)
    perfect_powers = {b ** k for b in range(2, 71) for k in range(2, 13)}
    for n in range(2, 5000):
        root, g = equivalence._primitive_root(n)
        assert root ** g == n and root not in perfect_powers, n


def test_primitive_root_of_large_prime_powers():
    # primes above 2^16 leave trial division as one cofactor, whose least
    # root comes from integer k-th roots
    rng = random.Random("large-roots")
    for _ in range(8):
        p, q = (sympy.nextprime(rng.randrange(2 ** 16, 2 ** 40)) for _ in range(2))
        if p == q:
            continue
        for k in range(1, 6):
            assert equivalence._primitive_root(q ** k) == (q, k)
            assert equivalence._primitive_root((p * q) ** k) == (p * q, k)
            assert equivalence._primitive_root(6 ** k * (p * q) ** (2 * k)) \
                == (6 * (p * q) ** 2, k)


@pytest.mark.parametrize("p", [2, 3])
def test_composite_cofactor_system_against_its_iteration(p):
    # 1/(a*b) for primes a, b > 2^16: the coprime base keeps a*b whole
    rng = random.Random(f"cofactor-{p}")
    for _ in range(4):
        a, b = (sympy.nextprime(rng.randrange(2 ** 16, 2 ** 40)) for _ in range(2))
        ratios = [f"1/{a * b}", "1/2"] + ([f"2/{3 * a * b}"] if p == 2 else [])
        e = build_system(ratios)
        assert Fraction(1, a * b) in factor_rationals(e.ratios)[0].values
        v = decide(e, iterate(e, p))
        assert v.result == EQUIVALENT, v


def test_coplanar_search_bound_undecided(monkeypatch):
    # both pairs are coplanar and need one 2 x 2 term product; past a
    # budget of 3 term products the equivalent pair is undecided, while
    # the refuted one differs at the primes (23 != 5**2) and needs none
    u, v, uv = {"u": 1}, {"v": 1}, {"u": 1, "v": 1}
    equivalent = (sym(u, v), sym({"u": 2}, uv, uv, {"v": 2}))
    refuted = (sym({"u": 2}, {"u": 2}, uv, {"v": 2}), sym(u, v))
    assert decide(*equivalent).reason == "ITERATION_PERMUTATION"
    assert decide(*refuted).reason == "NO_ITERATION_PERMUTATION"
    monkeypatch.setattr(poly, "ITERATION_BUDGET", 3)
    v = decide(*equivalent)
    assert (v.result, v.reason) == (UNDECIDED, "SEARCH_BOUND")
    assert v.certificate["budget"] == 3
    v = decide(*refuted)
    assert (v.result, v.reason, v.certificate) == (
        NOT_EQUIVALENT, "NO_ITERATION_PERMUTATION", {"p": 1, "q": 2})


def test_large_axis_supported_pair_is_refuted_without_expansion(monkeypatch):
    # 32 generators against each of them twice: (p0, q0) = (6, 5), and
    # P_e**6 needs more than ITERATION_BUDGET term products; the values
    # at the primes refute the identity without expanding it
    names = [f"u{i}" for i in range(32)]
    e = sym(*({x: 1} for x in names))
    f = sym(*({x: 1} for x in names for _ in range(2)))
    with pytest.raises(ResourceLimit):
        poly._power(Counter(e.exponents), 6)

    def no_expansion(poly, k):
        raise AssertionError("expanded")

    monkeypatch.setattr(poly, "_power", no_expansion)
    v = decide(e, f)
    assert (v.result, v.reason, v.certificate) == (
        NOT_EQUIVALENT, "NO_ITERATION_PERMUTATION", {"p": 6, "q": 5})


def test_permutation_map_past_the_certificate_limit(monkeypatch):
    # a permuted copy (p = 1) always gets its map; a written-out
    # iteration past the limit gets None
    monkeypatch.setattr(equivalence, "PERMUTATION_CERT_LIMIT", 2)
    e = build_system(["1/2", "1/3", "1/6"])
    v = decide(e, build_system(["1/6", "1/2", "1/3"]))
    assert v.certificate == {"p": 1, "q": 1, "permutation": (1, 2, 0)}
    v = decide(iterate(e, 2), e)
    assert v.certificate == {"p": 1, "q": 2, "permutation": tuple(range(9))}
    v = decide(e, iterate(e, 2))
    assert v.certificate == {"p": 2, "q": 1, "permutation": None}


def test_undecided_outside_families_with_diagnostics():
    # non-coplanar, non-full-rank, m=3 vs m=3, same rank-1 group, unequal
    # ratio multisets: outside every decidable family
    a = build_system(["1/2", "1/4", "1/4"])
    b = build_system(["1/4", "1/2", "1/8"])
    v = decide(a, b, diagnostics=True)
    assert v.result in (UNDECIDED, NOT_EQUIVALENT, EQUIVALENT)
    if v.result == UNDECIDED and v.reason == "OUTSIDE_DECIDABLE_FAMILIES":
        assert v.diagnostics is not None
        assert "gap" in v.diagnostics


def _oracle_pairs(rng, count):
    """(a, b, a's exponent vectors, b's, built equivalent) over the primes
    2, 3 or the generators u, v: numeric and symbolic, coplanar and not,
    half of them iterations of one base, shuffled."""
    for i in range(count):
        # numeric pairs not built equivalent mostly fail the dimension screen
        symbolic = i % 4 >= 2 if i % 2 == 0 else i % 8 != 7
        dims = rng.choice([1, 2, 2])
        names = ["u", "v"][:dims] if symbolic else [2, 3][:dims]

        def vectors(m, line=None):
            out = []
            while len(out) < m:
                x = [rng.randint(0, 3) for _ in range(dims)]
                if line is not None:
                    x[-1] = line - sum(x[:-1])
                if min(x) >= 0 and max(x) > 0:
                    out.append(tuple(x))
            return out

        def iterated(base, p):
            return [tuple(map(sum, zip(*w)))
                    for w in itertools.product(base, repeat=p)]

        if i % 2 == 0:  # built equivalent
            base = vectors(rng.choice([2, 3]), rng.choice([None, 2]))
            i_a, i_b = rng.choice([(1, 2), (2, 1)] + (
                [(1, 3), (3, 2)] if len(base) == 2 else []))
            va, vb = iterated(base, i_a), iterated(base, i_b)
        else:  # coplanar ones reach the last stage: both span the quadrant
            c = rng.choice([None, 1, 2, 3])
            d = c and rng.choice([c, 2 * c])
            va = vectors(rng.choice([2, 3, 4]), c)
            vb = vectors(rng.choice([2, 4, 8]), d)
            if c and dims == 2:
                va[:2], vb[:2] = [(c, 0), (0, c)], [(d, 0), (0, d)]
        va, vb = rng.sample(va, len(va)), rng.sample(vb, len(vb))

        def system(vs):
            if symbolic:
                return build_system([Monomial.make(dict(zip(names, x)))
                                     for x in vs])
            return build_system([Fraction(1, sympy.prod(
                p ** k for p, k in zip(names, x))) for x in vs])

        yield system(va), system(vb), va, vb, i % 2 == 0


def _coplanar(vectors):
    """<eta, x> == 1 has a rational solution: rank(X) == rank([X | 1])."""
    x = sympy.Matrix(vectors)
    return x.rank() == x.row_join(sympy.ones(len(vectors), 1)).rank()


def _matches(a, b):
    """Every (p, q) with p, q <= 4 whose iterations are permutations of
    each other, by brute force, smallest first."""
    return sorted(((p, q) for p in range(1, 5) for q in range(1, 5)
                   if a.m ** p == b.m ** q
                   and Counter(iterate(a, p).ratios)
                   == Counter(iterate(b, q).ratios)),
                  key=lambda pq: (pq[0] + pq[1], pq[0]))


def test_decide_against_iteration_brute_force():
    seen = Counter()
    for a, b, va, vb, built in _oracle_pairs(random.Random(7), 120):
        v = decide(a, b)
        seen[v.reason] += 1
        matches = _matches(a, b)
        coplanar = _coplanar(va) and _coplanar(vb)
        if built:
            assert v.result == EQUIVALENT, (va, vb, v)
        if v.reason == "ITERATION_PERMUTATION":
            cert = v.certificate
            assert matches and matches[0] == (cert["p"], cert["q"])
            perm = cert.get("permutation")
            if perm is not None:
                ra, rb = iterate(a, cert["p"]).ratios, iterate(b, cert["q"]).ratios
                assert sorted(perm) == list(range(len(rb)))
                assert all(ra[i] == rb[j] for i, j in enumerate(perm))
        if v.result == NOT_EQUIVALENT:
            assert not matches, (va, vb, v)
        if v.reason in ("NO_ITERATION_PERMUTATION", "NO_ITERATION_CARDINALITY"):
            assert coplanar, (va, vb, v)
        if coplanar and v.reason != "NO_COMMON_BASIS":
            assert v.result != UNDECIDED, (va, vb, v)
    assert seen["ITERATION_PERMUTATION"] and seen["NO_ITERATION_PERMUTATION"], seen


def test_certificate_json_shape():
    a = build_system(["1/2", "1/2"])
    b = build_system(["1/4"] * 4)
    v = decide(a, b)
    assert set(v.certificate) == {"p", "q", "permutation"}


def test_diagnostics_solve_gamma_without_tables(monkeypatch):
    # {u, v, uv} vs {u, v, u^2 v} at theta = (1, 1): sqrt(2) log(1 + sqrt 2)
    # against 1.113354, from the dual formula and no multiplicity table
    def no_table(*args, **kwargs):
        raise AssertionError("a multiplicity table was built")

    monkeypatch.setattr(frobenius, "build_multiplicity", no_table)
    a = sym({"u": 1}, {"v": 1}, {"u": 1, "v": 1})
    b = sym({"u": 1}, {"v": 1}, {"u": 2, "v": 1})
    v = decide(a, b, diagnostics=True)
    assert (v.result, v.reason) == (UNDECIDED, "OUTSIDE_DECIDABLE_FAMILIES")
    d = v.diagnostics
    assert d["theta"] == pytest.approx([math.sqrt(0.5)] * 2, abs=1e-15)
    assert round(d["gamma_e"], 5) == 1.24645 and round(d["gamma_f"], 5) == 1.11335
    assert d["gamma_e"] == pytest.approx(math.sqrt(2) * math.log(1 + math.sqrt(2)),
                                         abs=1e-12)
    assert d["gap"] == pytest.approx(d["gamma_e"] - d["gamma_f"], abs=1e-15)


def test_demo_pair_outside_families_diagnostics():
    # equal dimension 1, but 3**p == 4**q has no solution
    a = build_system(["1/2", "1/4", "1/4"])
    b = build_system(["1/4", "1/4", "1/4", "1/4"])
    v = decide(a, b, diagnostics=True)
    assert (v.result, v.reason) == (UNDECIDED, "OUTSIDE_DECIDABLE_FAMILIES")
    assert set(v.diagnostics) == {"theta", "gamma_e", "gamma_f", "gap"}


@pytest.mark.parametrize("a, b, reason, certificate", [
    (build_system(["1/6", "1/10"]), build_system(["1/10", "1/6"]),
     "ITERATION_PERMUTATION", {"p": 1, "q": 1, "permutation": (1, 0)}),
    (build_system(["1/2", "1/2"]), build_system(["1/4"] * 4),
     "ITERATION_PERMUTATION", {"p": 2, "q": 1, "permutation": (0, 1, 2, 3)}),
    (sym({"l": 5}, {"l": 1}), sym({"l": 3}, {"l": 2}), "TWO_BRANCH_SPECIAL",
     {"tag": "TWO_BRANCH_SPECIAL"}),
], ids=["permutation", "iteration", "two_branch"])
def test_decide_merges_bases_once(monkeypatch, a, b, reason, certificate):
    calls = []
    real = equivalence.common_basis

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(equivalence, "common_basis", counted)
    v = decide(a, b)
    assert (v.reason, v.certificate) == (reason, certificate)
    assert len(calls) == 1


def _permutation_oracle(rows_a, rows_b):
    """The closed-form rule of two coplanar families, which the iteration
    identity must agree with: axis-supported pairs (every vector on one
    axis, one value per axis) and pairs of linearly independent vectors
    are equivalent exactly when their multisets are equal."""
    return EQUIVALENT if sorted(rows_a) == sorted(rows_b) else NOT_EQUIVALENT


def _axis_side(rng, values, copies):
    """copies[i] rows of values[i] on axis i, shuffled."""
    k = len(values)
    rows = [tuple(v if j == i else 0 for j in range(k))
            for i, (v, c) in enumerate(zip(values, copies)) for _ in range(c)]
    return rng.sample(rows, len(rows))


def _axis_pairs(rng, count):
    """Symbolic axis-supported pairs with unequal multisets on 2-3 axes,
    1-3 copies per axis and values 1-3; every fifth pair has 8 vs 4 or
    9 vs 3 ratios on 3 axes, so that (p0, q0) != (1, 1)."""
    sizes = {8: [(3, 3, 2), (3, 2, 3), (2, 3, 3)], 4: [(2, 1, 1), (1, 2, 1), (1, 1, 2)],
             9: [(3, 3, 3)], 3: [(1, 1, 1)]}
    out = []
    while len(out) < count:
        if len(out) % 5 == 4:
            m, n = rng.choice([(8, 4), (9, 3)])
            k = 3
            ca, cb = rng.choice(sizes[m]), rng.choice(sizes[n])
        else:
            k = rng.choice([2, 3])
            ca, cb = ([rng.randint(1, 3) for _ in range(k)] for _ in range(2))
        a = _axis_side(rng, [rng.randint(1, 3) for _ in range(k)], ca)
        b = _axis_side(rng, [rng.randint(1, 3) for _ in range(k)], cb)
        if rng.random() < 0.5:
            a, b = b, a
        if sorted(a) != sorted(b):
            out.append((a, b))
    return out


def _named(rows):
    return sym(*({"uvw"[i]: x for i, x in enumerate(row) if x} for row in rows))


def test_axis_supported_pairs_match_the_counting_rule():
    orders = Counter()
    for a, b in _axis_pairs(random.Random("axis-oracle"), 500):
        v = decide(_named(a), _named(b))
        assert v.result == _permutation_oracle(a, b), (a, b, v)
        assert v.reason in ("NO_ITERATION_PERMUTATION",
                            "NO_ITERATION_CARDINALITY"), (a, b, v)
        if v.reason == "NO_ITERATION_PERMUTATION":
            orders[v.certificate["p"], v.certificate["q"]] += 1
    assert orders[1, 1] and orders[2, 3] and orders[1, 2], orders


def test_full_rank_pairs_match_the_permutation_rule():
    # k independent vectors against the same rays scaled by 1-2: the
    # cones agree, and symbolic pairs of rank > 1 pass the dimension screen
    rng = random.Random("full-rank-oracle")
    seen = Counter()
    for _ in range(200):
        k = rng.choice([2, 3])
        while True:
            rows = [tuple(rng.randint(0, 2) for _ in range(k)) for _ in range(k)]
            if sympy.Matrix(rows).rank() == k:
                break
        scaled = [tuple(c * x for x in row)
                  for row, c in zip(rows, rng.choices([1, 1, 2], k=k))]
        a, b = rng.sample(rows, k), rng.sample(scaled, k)
        v = decide(_named(a), _named(b))
        expect = _permutation_oracle(a, b)
        assert v.result == expect, (a, b, v)
        assert v.reason == {EQUIVALENT: "ITERATION_PERMUTATION",
                            NOT_EQUIVALENT: "NO_ITERATION_PERMUTATION"}[expect]
        assert (v.certificate["p"], v.certificate["q"]) == (1, 1)
        seen[expect] += 1
    assert seen[EQUIVALENT] and seen[NOT_EQUIVALENT], seen


def test_every_equivalent_verdict_carries_a_checkable_certificate():
    rng = random.Random("certificates")
    pool = [(a, b) for a, b, *_ in _oracle_pairs(rng, 60)]
    for ratios in (["1/2", "1/3", "1/6"], ["1/4", "1/6", "1/9"], ["1/2", "1/4", "1/8"]):
        e = build_system(ratios)
        pool.append((e, build_system(rng.sample(ratios, len(ratios)))))
        for p in (2, 3):  # written-out iterations, shuffled
            written = iterate(e, p).ratios
            pool.append((build_system(rng.sample(written, len(written))), e))
    pool += [(sym({"l": 5 * c}, {"l": c}), sym({"l": 3 * c}, {"l": 2 * c}))
             for c in (1, 2, 7)]
    seen = Counter()
    for e, f in pool:
        v = decide(e, f)
        if v.result != EQUIVALENT:
            continue
        seen[v.reason] += 1
        if v.reason == "TWO_BRANCH_SPECIAL":
            assert v.certificate == {"tag": "TWO_BRANCH_SPECIAL"}
            continue
        assert set(v.certificate) == {"p", "q", "permutation"}, v
        p, q, perm = v.certificate["p"], v.certificate["q"], v.certificate["permutation"]
        ra, rb = iterate(e, p).ratios, iterate(f, q).ratios
        assert sorted(perm) == list(range(len(rb))) and len(perm) == len(ra)
        assert all(ra[i] == rb[j] for i, j in enumerate(perm)), v
    assert seen["ITERATION_PERMUTATION"] >= 40 and seen["TWO_BRANCH_SPECIAL"] == 3, seen
