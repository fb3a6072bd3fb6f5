import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from froblip import frobenius
from froblip.errors import (
    DirectionOutsideCone,
    FroblipError,
    GcdNotOne,
    QueryOutOfRange,
    ResourceLimit,
)
from froblip.frobenius import (
    R_CAP,
    build_multiplicity,
    estimate_gamma,
    frobenius_number_1d,
    gamma_table_bound,
    log_big,
    make_defining_data,
    multiplicity_at,
)

F = Fraction


def brute_force_counts(vectors, max_len):
    """Oracle: enumerate all words up to max_len and tally step sums."""
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


def test_counts_match_brute_force_small():
    vectors = ((1, 0), (0, 1), (1, 1))
    data = make_defining_data(vectors)
    min_step = min(data.score(v) for v in vectors)
    bound = 8 * min_step
    table = build_multiplicity(data, bound)
    oracle = brute_force_counts(vectors, 8)
    for z, m in table.counts.items():
        if m >= 1:
            assert oracle[z] == m
    for z, c in oracle.items():
        if data.score(z) <= bound:
            assert table.counts.get(z, 0) == c


def test_counts_negative_coordinates():
    # steps with negative entries still satisfy the half-space condition
    vectors = ((2, -1), (1, 1))
    data = make_defining_data(vectors)
    min_step = min(data.score(v) for v in vectors)
    bound = 8 * min_step
    table = build_multiplicity(data, bound)
    oracle = brute_force_counts(vectors, 8)
    for z, c in oracle.items():
        if data.score(z) <= bound:
            assert table.counts.get(z, 0) == c


def test_binomial_identity():
    data = make_defining_data(((1, 0), (0, 1)))
    table = build_multiplicity(data, data.score((30, 30)))
    for a in range(16):
        for b in range(16):
            assert table.counts[(a, b)] == math.comb(a + b, a)


def test_half_space_violation_rejected():
    with pytest.raises(FroblipError):
        make_defining_data(((1, 0), (-1, 0)))


def test_multiplicity_at_lattice_and_nearest():
    data = make_defining_data(((2,), (3,)))
    table = build_multiplicity(data, F(40))
    # semigroup of 2,3 misses only 1; nearest points of 1 are 0 and 2
    assert multiplicity_at(table, (0.0,)) == 1
    assert multiplicity_at(table, (5.0,)) == table.counts[(5,)]
    # 1 is off the semigroup: nearest are 0 (count 1) and 2 (count 1)
    assert multiplicity_at(table, (1.0,)) == 1
    # 2.4 is nearest to 2
    assert multiplicity_at(table, (2.4,)) == table.counts[(2,)]
    # midpoint tie 2.5: min of the counts at 2 and 3
    assert multiplicity_at(table, (2.5,)) == min(
        table.counts[(2,)], table.counts[(3,)]
    )


def test_multiplicity_at_out_of_range():
    data = make_defining_data(((1, 0), (0, 1)))
    table = build_multiplicity(data, F(10))
    with pytest.raises(QueryOutOfRange):
        multiplicity_at(table, (30.0, 30.0))


def nearest_oracle(table, x):
    """Oracle: scan every table point with exact squared distances (over
    the query's common denominator); ties go to the smallest count."""
    xs = [F(v) for v in x]
    if table.data.score(xs) > table.fully_determined_bound:
        raise QueryOutOfRange("beyond the determined region")
    den = math.lcm(*(v.denominator for v in xs))
    num = [v.numerator * (den // v.denominator) for v in xs]
    d2, m = min((sum((zi * den - n) ** 2 for zi, n in zip(z, num)), m)
                for z, m in table.counts.items())
    if F(d2, den * den) > R_CAP ** 2:
        raise QueryOutOfRange("no point within R_CAP")
    return m


def _oracle_outcome(fn, table, x):
    try:
        return fn(table, x)
    except QueryOutOfRange:
        return QueryOutOfRange


@pytest.mark.parametrize("vectors, bound", [
    (((3,), (5,)), 60),
    (((2, -1), (1, 1)), 24),
    (((2, 0), (1, 1), (0, 2)), 30),
    (((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)), 12),
])
def test_multiplicity_at_matches_nearest_oracle(vectors, bound):
    data = make_defining_data(vectors)
    table = build_multiplicity(data, bound)
    s = data.dim
    rng = random.Random(s * 1009 + len(vectors))
    top = float(bound)
    queries = [(-8.0,) + (0.0,) * (s - 1), (-8.5,) + (0.0,) * (s - 1),
               (-12.5,) * s, (top,) * s]
    for _ in range(100):
        queries.append(tuple(rng.uniform(-2.0, top / 2) for _ in range(s)))
        # half-integers: exact distance ties between lattice points
        queries.append(tuple(rng.randrange(-4, int(top)) / 2 for _ in range(s)))
        queries.append(tuple(F(rng.randrange(-8, 8 * int(top)), 8)
                             for _ in range(s)))
    outcomes = set()
    for x in queries:
        want = _oracle_outcome(nearest_oracle, table, x)
        assert _oracle_outcome(multiplicity_at, table, x) == want, x
        outcomes.add(want is QueryOutOfRange)
    assert outcomes == {True, False}


def test_counts_large_denominator_alpha():
    # a certificate with large denominators (their lcm is about 10^12):
    # the counts still match word enumeration
    vectors = ((1, 0), (0, 1), (1, 1))
    data = make_defining_data(vectors, (F(1, 999983), F(3, 999979)))
    min_step = min(data.score(v) for v in vectors)
    bound = 8 * min_step
    table = build_multiplicity(data, bound)
    oracle = brute_force_counts(vectors, 8)
    want = {z: c for z, c in oracle.items() if data.score(z) <= bound}
    assert table.counts == want


def test_point_budget_is_the_table_size():
    data = make_defining_data(((1, 0), (0, 1), (1, 1)))
    size = len(build_multiplicity(data, 12).counts)
    assert len(build_multiplicity(data, 12, point_budget=size).counts) == size
    with pytest.raises(ResourceLimit, match=r"\(raise point_budget; default "
                       r"DEFAULT_POINT_BUDGET = 2000000\)"):
        build_multiplicity(data, 12, point_budget=size - 1)


def test_log_big():
    assert abs(log_big(10 ** 100) - 100 * math.log(10)) < 1e-9
    assert log_big(1) == 0.0
    big = math.comb(4000, 2000)
    direct = sum(math.log(k) for k in range(2001, 4001)) - sum(
        math.log(k) for k in range(1, 2001)
    )
    assert abs(log_big(big) - direct) < 1e-6


def test_estimate_gamma_binomial_diagonal():
    data = make_defining_data(((1, 0), (0, 1)))
    est = estimate_gamma(data, (1.0, 1.0), k_max=120.0)
    assert abs(est.gamma_hat - math.sqrt(2) * math.log(2)) < 0.02
    assert est.stderr < 0.01
    assert len(est.samples) == 12


def test_estimate_gamma_outside_cone():
    data = make_defining_data(((1, 0), (0, 1)))
    with pytest.raises(DirectionOutsideCone):
        estimate_gamma(data, (-1.0, 1.0))


def test_estimate_gamma_deterministic():
    data = make_defining_data(((2, 0), (1, 1), (0, 2)))
    a = estimate_gamma(data, (1.0, 2.0), k_max=40.0)
    b = estimate_gamma(data, (1.0, 2.0), k_max=40.0)
    assert a == b


def test_estimate_gamma_radii_match_geomspace():
    # oracle: np.geomspace(k_max / 16, k_max, k_count).  Both pinned
    # endpoints agree bit for bit.  The interior radii are 10 ** y on the
    # same grid of y, but numpy takes log10 and the power with its own SIMD
    # kernels, which differ from the C library's in the last bits, so they
    # agree to a relative 1e-14 (about 18 ulps at worst for k_max < 1000)
    rng = random.Random(6)
    data = make_defining_data(((1,), (2,)))
    table = build_multiplicity(data, gamma_table_bound(data, (1.0,), 120.0))
    cases = [(120.0, 12), (60.0, 12), (30.0, 12), (16.0, 12), (1e-3, 5)]
    for _ in range(300):
        k_max = rng.choice([float(rng.randint(1, 120)), 10 ** rng.uniform(-3, 2)])
        cases.append((k_max, rng.randint(2, 40)))
    for k_max, k_count in cases:
        est = estimate_gamma(data, (1.0,), k_max, k_count, table=table)
        ks = [k for k, _ in est.samples]
        ref = np.geomspace(k_max / 16, k_max, k_count).tolist()
        assert (ks[0], ks[-1]) == (ref[0], ref[-1]) == (k_max / 16, k_max)
        assert ks == pytest.approx(ref, rel=1e-14, abs=0)
        assert all(a < b for a, b in zip(ks, ks[1:]))


def test_estimate_gamma_fit_matches_polyfit():
    # oracle: np.polyfit's line and the standard error of its slope, on the
    # samples of seeded 1-D and 2-D systems
    rng = random.Random(7)
    for trial in range(40):
        if trial % 2:
            vectors = [(rng.randint(1, 4),) for _ in range(rng.randint(2, 4))]
            theta = (1.0,)
        else:
            vectors = [(1, 0), (0, 1)] + [(rng.randint(0, 2), rng.randint(0, 2))
                                          for _ in range(rng.randint(0, 2))]
            theta = (rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))
        if any(not any(v) for v in vectors):
            continue
        data = make_defining_data(vectors)
        est = estimate_gamma(data, theta, rng.uniform(8.0, 40.0), rng.randint(3, 30))
        xs = np.array([k for k, _ in est.samples])
        ys = np.array([y for _, y in est.samples])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        stderr = math.sqrt(float(np.sum(resid ** 2)) / max(len(xs) - 2, 1)
                           / float(np.sum((xs - xs.mean()) ** 2)))
        assert est.gamma_hat == pytest.approx(max(slope, 0.0), rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)


def test_frobenius_number_known_values():
    # frozen classical values: g(a,b) = ab - a - b for coprime pairs
    assert frobenius_number_1d([3, 5]) == 7
    assert frobenius_number_1d([3, 7]) == 11
    assert frobenius_number_1d([2, 3]) == 1
    assert frobenius_number_1d([6, 9, 20]) == 43  # Chicken McNugget number
    assert frobenius_number_1d([1, 4]) == -1


def test_frobenius_number_matches_formula_oracle():
    for a, b in itertools.combinations(range(2, 12), 2):
        if math.gcd(a, b) == 1:
            assert frobenius_number_1d([a, b]) == a * b - a - b


def test_frobenius_number_gcd_guard():
    with pytest.raises(GcdNotOne):
        frobenius_number_1d([4, 6])
    with pytest.raises(FroblipError):
        frobenius_number_1d([5])


def _sieve_frobenius(a):
    """Oracle: the largest non-representable number, by a sieve up to
    min(a) * max(a)."""
    limit = min(a) * max(a)
    reach = [True] + [False] * limit
    for i in range(1, limit + 1):
        reach[i] = any(i >= v and reach[i - v] for v in a)
    return max(i for i in range(limit + 1) if not reach[i])


def test_frobenius_number_matches_sieve_oracle():
    rng = random.Random(1979)
    checked = 0
    while checked < 300:
        a = [rng.randint(2, 70) for _ in range(rng.randint(2, 5))]
        if math.gcd(*a) == 1:
            assert frobenius_number_1d(a) == _sieve_frobenius(a), a
            checked += 1


def test_frobenius_number_residue_budget(monkeypatch):
    # consecutive generators (Roberts 1956): g = ((a - 2) // 2) * a + a - 1
    monkeypatch.setattr(frobenius, "DEFAULT_POINT_BUDGET", 10)
    assert frobenius_number_1d([10, 11, 12]) == 49
    monkeypatch.setattr(frobenius, "DEFAULT_POINT_BUDGET", 9)
    with pytest.raises(ResourceLimit, match=r"budget of 9 residues \(DEFAULT_POINT_BUDGET\)"):
        frobenius_number_1d([10, 11, 12])
