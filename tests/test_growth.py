import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from froblip.errors import DirectionOutsideCone, FroblipError, NotConverged
from froblip.frobenius import (build_multiplicity, estimate_gamma,
                               gamma_table_bound, make_defining_data)
from froblip import growth
from froblip.growth import gamma
from froblip.lattice import Monomial, coplanar
from froblip.selfsimilar import build_system, iterate

from lp_oracles import lp_cone_member, lp_minimal_face

SQ2 = math.sqrt(2)
BINOMIAL = ((1, 0), (0, 1))
TRINOMIAL = ((2, 0), (1, 1), (0, 2))


def _scan_max_entropy(weights, lo, hi, n=200_000):
    """Brute-force maximal entropy of weights(u) over u in [lo, hi]."""
    best = 0.0
    for i in range(n + 1):
        h = 0.0
        for p in weights(lo + (hi - lo) * i / n):
            if p > 0:
                h -= p * math.log(p)
        best = max(best, h)
    return best


def _gamma(vectors, theta):
    return gamma(make_defining_data(vectors), theta)


# On coplanar data (<eta, X_j> = 1) the primal form reads gamma(theta) =
# (eta . theta) * H(theta / eta . theta), the maximal entropy of a mean on
# the generators' hyperplane.  The max_entropy tests check that value.

def test_max_entropy_uniform_center():
    # eta = (1, 1): the unit diagonal has scale sqrt 2 and mean (1/2, 1/2)
    assert abs(_gamma(BINOMIAL, (1.0, 1.0)) - SQ2 * math.log(2)) < 1e-10


def test_max_entropy_trinomial_center():
    # frozen oracle: for {(2,0),(1,1),(0,2)} at mean (1,1) the maximizer
    # is uniform (1/3 each) with entropy log 3; the scale is 1/sqrt 2
    assert abs(_gamma(TRINOMIAL, (1.0, 1.0)) - math.log(3) / SQ2) < 1e-10


def test_max_entropy_asymmetric_closed_form():
    # the binomial at mean (t, 1 - t): entropy of Bernoulli(t), times the
    # scale 1 / |(t, 1 - t)| of the unit direction
    for t in (0.1, 0.25, 0.5, 0.9):
        expect = -t * math.log(t) - (1 - t) * math.log(1 - t)
        assert abs(_gamma(BINOMIAL, (t, 1 - t)) * math.hypot(t, 1 - t)
                   - expect) < 1e-10


def test_max_entropy_vertex_target():
    # a lone generator on the ray: one word per point, no growth
    assert _gamma(BINOMIAL, (1.0, 0.0)) == 0.0
    assert _gamma(((1, 0), (0, 1), (1, 1)), (0.0, 3.0)) == 0.0


def test_max_entropy_boundary_face():
    # the mean (1/2, 3/2) lies on the segment between (2,0) and (0,2), and
    # (1,1) lies on it too, so all three carry weight
    g = _gamma(TRINOMIAL, (1.0, 3.0))
    # oracle: the feasible set is the segment p = (t, 0.5-2t, 0.5+t) for
    # t in [0, 0.25]; scan it finely.  The scale is 2 / sqrt 10.
    best = _scan_max_entropy(lambda t: (t, 0.5 - 2 * t, 0.5 + t), 0.0, 0.25)
    assert abs(g * math.sqrt(10) / 2 - best) < 1e-7


def test_max_entropy_duplicate_vectors():
    # duplicates add log-multiplicity: {(1,),(1,)} grows like 2^k
    assert abs(_gamma(((1,), (1,)), (1.0,)) - math.log(2)) < 1e-10


def test_gamma_direction_outside_cone():
    for vectors, theta in [(BINOMIAL, (-1.0, 1.0)), (BINOMIAL, (1.0, -1e-9)),
                           (((1, 1), (1, 2)), (1.0, 0.0)),
                           (((1, 0), (2, 0)), (1.0, 1.0))]:
        with pytest.raises(DirectionOutsideCone):
            _gamma(vectors, theta)


def test_max_entropy_float_target_snapped_off_hull():
    # (2t, 2-2t) lies on the hull's line x + y = 2, but its unit direction
    # is rounded coordinate by coordinate; the solve needs no hull point
    t = 0.41163513999128915
    g = _gamma(TRINOMIAL, (2 * t, 2 - 2 * t))
    # oracle: the feasible set is the segment p = (u, 2t-2u, 1-2t+u) for
    # u in [0, t]; scan it finely.  The scale is 1 / |(2t, 2-2t)|.
    best = _scan_max_entropy(lambda u: (u, 2 * t - 2 * u, 1 - 2 * t + u),
                             0.0, t)
    assert abs(g * math.hypot(2 * t, 2 - 2 * t) - best) < 1e-7


def _system_gamma(ratios, theta):
    s = build_system(ratios)
    return gamma(make_defining_data(s.exponents, s.alpha), theta)


def test_analytic_gamma_binomial():
    # (1/2, 1/3) has exponents (1,0), (0,1) over the basis (1/2, 1/3)
    assert abs(_system_gamma(["1/2", "1/3"], (1.0, 1.0)) - SQ2 * math.log(2)) < 1e-10


def test_analytic_gamma_trinomial_diagonal():
    # (1/4, 1/6, 1/9) has exponents (2,0), (1,1), (0,2): scale 1/sqrt2,
    # target (1,1), entropy log 3
    assert abs(_system_gamma(["1/4", "1/6", "1/9"], (1.0, 1.0))
               - math.log(3) / SQ2) < 1e-10


def test_gamma_noncoplanar_rank_one():
    # {l^5, l}: lambda solves e^(-5 lambda) + e^(-lambda) = 1
    g = _gamma(((5,), (1,)), (1.0,))
    assert f"{g:.6f}" == "0.281200"
    assert abs(math.exp(-5 * g) + math.exp(-g) - 1) < 1e-12


def test_analytic_gamma_concavity_along_arc():
    # gamma is a minimum of linear functions of theta, so it is concave
    # and positively homogeneous: superadditive on unnormalized directions
    for vectors in (BINOMIAL, ((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1), (3, 1))):
        data = make_defining_data(vectors)

        def rate(theta):
            return math.hypot(*theta) * gamma(data, theta)

        for a, b in [((0.3, 0.7), (0.5, 0.5)), ((0.9, 0.2), (0.2, 0.9)),
                     ((1.0, 0.4), (1.0, 0.6))]:
            mid = tuple(x + y for x, y in zip(a, b))
            assert rate(mid) >= rate(a) + rate(b) - 1e-9


def test_analytic_gamma_iteration_invariance():
    # second iteration of {(1,0),(0,1)} is {(2,0),(1,1),(1,1),(0,2)};
    # gamma must be identical in every direction
    data1 = make_defining_data(BINOMIAL)
    data2 = make_defining_data(((2, 0), (1, 1), (1, 1), (0, 2)))
    for theta in [(1.0, 1.0), (1.0, 2.0), (3.0, 1.0), (1.0, 0.2)]:
        assert abs(gamma(data1, theta) - gamma(data2, theta)) < 1e-8


def test_gamma_iteration_invariance_noncoplanar():
    # sum over words of length p of e^(-lambda . X_w) is (sum_j ...)^p, so
    # the constraint set, and gamma, do not change under iteration
    u, v = Monomial.generator("u"), Monomial.generator("v")
    for ratios in ([u, v, u * v], [u, v, u * u * v], [u * v, u ** 3, v * v]):
        e = build_system(ratios)
        assert not coplanar(e.exponents)
        data = make_defining_data(e.exponents, e.alpha)
        e2 = iterate(e, 2)
        data2 = make_defining_data(e2.exponents, e2.alpha)
        for theta in [(1.0, 1.0), (2.0, 1.0), (1.0, 0.7)]:
            try:
                g = gamma(data, theta)
            except DirectionOutsideCone:
                with pytest.raises(DirectionOutsideCone):
                    gamma(data2, theta)
                continue
            assert gamma(data2, theta) == pytest.approx(g, abs=1e-10)


def test_gamma_boundary_faces_and_rank_one():
    # a lone generator on the ray grows not at all
    assert _gamma(((1, 0), (0, 1), (1, 1)), (1.0, 0.0)) == 0.0
    # the ray of (1,0) and (2,0), alone or as a face: x + x^2 = 1 at x = 1/phi
    phi = (1 + math.sqrt(5)) / 2
    for vectors in (((1, 0), (2, 0)), ((1, 0), (2, 0), (0, 1)),
                    ((1, 0), (2, 0), (1, 3))):
        g = _gamma(vectors, (1.0, 0.0))
        assert abs(g - math.log(phi)) < 1e-12
        assert f"{g:.6f}" == "0.481212"
    assert f"{_gamma(((5,), (1,)), (1.0,)):.6f}" == "0.281200"
    # just inside the quadrant the rate is about 1e-300, so the solve's
    # rounding must not leave it below 0 (nor at -0.0, printed "-0.000000")
    for theta in ((1.0, 1e-300), (Fraction(10) ** 400, 1)):
        g = _gamma(BINOMIAL, theta)
        assert 0.0 <= g < 1e-15 and math.copysign(1.0, g) == 1.0


def _kraft_root(a):
    """t > 0 with sum_j exp(-t a_j) = 1, for a_j > 0: the left side is
    convex and decreasing, so Newton's steps from 0 rise to the root."""
    t = 0.0
    while True:
        nxt = t + (sum(math.exp(-t * x) for x in a) - 1) / sum(
            x * math.exp(-t * x) for x in a)
        if not nxt > t:
            return t
        t = nxt


def ray_scan_gamma(vectors, theta, n=400):
    """Oracle in 2-D: the minimum over unit u with u . X_j > 0 for every j
    of t(u) u . theta, where t(u) is the root of sum_j e^(-t u . X_j) = 1;
    a scan of the open arc of such u, refined by golden-section search."""
    norm = math.hypot(*theta)
    theta = (theta[0] / norm, theta[1] / norm)
    normals = [math.atan2(v[1], v[0]) for v in vectors]
    lo, hi = max(normals) - math.pi / 2, min(normals) + math.pi / 2

    def f(phi):
        u = (math.cos(phi), math.sin(phi))
        return (_kraft_root([u[0] * v[0] + u[1] * v[1] for v in vectors])
                * (u[0] * theta[0] + u[1] * theta[1]))

    eps = (hi - lo) * 1e-9
    grid = [lo + eps + (hi - lo - 2 * eps) * i / n for i in range(n + 1)]
    k = min(range(n + 1), key=lambda i: f(grid[i]))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, n)]
    g = (math.sqrt(5) - 1) / 2
    for _ in range(100):
        c, d = b - g * (b - a), a + g * (b - a)
        a, b = (a, d) if f(c) < f(d) else (c, b)
    return f((a + b) / 2)


def test_gamma_matches_dual_ray_scan():
    # the two pinned values: sqrt(2) log(1 + sqrt 2) for {u, v, uv}
    assert abs(_gamma(((1, 0), (0, 1), (1, 1)), (1.0, 1.0))
               - SQ2 * math.log(1 + SQ2)) < 1e-12
    for vectors, want in [(((1, 0), (0, 1), (1, 1)), 1.246450),
                          (((1, 0), (0, 1), (2, 1)), 1.113354)]:
        g = _gamma(vectors, (1.0, 1.0))
        assert abs(g - ray_scan_gamma(vectors, (1.0, 1.0))) < 1e-6
        assert abs(g - want) < 5e-7
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        vectors = [(rng.randint(0, 4), rng.randint(0, 4))
                   for _ in range(rng.randint(2, 5))]
        if not all(any(v) for v in vectors) or len(set(vectors)) < 2:
            continue
        w = [rng.random() + 0.05 for _ in vectors]
        theta = tuple(sum(wj * v[i] for wj, v in zip(w, vectors)) for i in range(2))
        try:
            data = make_defining_data(vectors)
        except Exception:  # no open half-space holds them
            continue
        assert abs(gamma(data, theta) - ray_scan_gamma(vectors, theta)) < 1e-6
        checked += 1


def test_gamma_near_a_facet_matches_dual_ray_scan():
    # directions close to a facet of the quadrant, where a line search on
    # the larger of two residuals stalled from lambda = 0 (exit 4)
    vectors = ((1, 0), (0, 1), (1, 1), (3, 3), (1, 0))
    for theta, want in (((1, 20), 0.254826), ((1, 25), 0.212802)):
        g = _gamma(vectors, theta)
        assert abs(g - ray_scan_gamma(vectors, theta)) < 1e-6
        assert abs(g - want) < 5e-7
    # the axes plus 1-3 vectors with entries 0-3, at the angles pi k / 80
    # next to the two facets; two of these systems stalled
    rng = random.Random(0)
    systems = 0
    while systems < 60:
        vectors = [(1, 0), (0, 1)] + [(rng.randint(0, 3), rng.randint(0, 3))
                                      for _ in range(rng.randint(1, 3))]
        if (0, 0) in vectors:
            continue
        systems += 1
        data = make_defining_data(vectors)
        for k in (1, 2, 38, 39):
            theta = (math.cos(math.pi * k / 80), math.sin(math.pi * k / 80))
            assert abs(gamma(data, theta) - ray_scan_gamma(vectors, theta)) < 1e-6


def _numpy_max_entropy(vectors, point):
    """Oracle: the maximal entropy of a probability vector p with sum_j p_j
    X_j = point, for an exact point of the hull.  Damped Newton on numpy,
    in the full coordinates with a least-squares step, over the support
    that ``lp_minimal_face`` finds; returns (value, residual, support)."""
    support = lp_minimal_face(vectors, point)
    X = np.array([vectors[j] for j in support], dtype=float)
    v = np.array([float(t) for t in point], dtype=float)
    if len(support) == 1:
        return 0.0, 0.0, support
    beta = np.zeros(X.shape[1])

    def moments(b):
        logits = X @ b
        logits -= logits.max()
        w = np.exp(logits)
        p = w / w.sum()
        return p, p @ X

    p, mu = moments(beta)
    res = float(np.max(np.abs(mu - v)))
    for _ in range(80):
        if res <= 1e-12:
            break
        cov = (X.T * p) @ X - np.outer(mu, mu)
        step = -np.linalg.lstsq(cov, mu - v, rcond=None)[0]
        t = 1.0
        for _ in range(60):
            p_new, mu_new = moments(beta + t * step)
            res_new = float(np.max(np.abs(mu_new - v)))
            if res_new < res:
                break
            t *= 0.5
        else:
            break
        beta = beta + t * step
        p, mu, res = p_new, mu_new, res_new
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz))), res, support


def _coplanar_cases():
    """Seeded coplanar generator sets in dimensions 1-3: points of w . x = c
    for positive integer weights w, collinear ones among them in dimension
    3, some with duplicates.  The directions run through a weighted mean or
    the midpoint of two generators, or through a vertex or an edge of the
    simplex x_1 + ... + x_s = c, whose corners c e_i are then generators:
    such a direction lies on a face of the cone."""
    rng = random.Random(11)
    for trial in range(240):
        s, kind = trial % 3 + 1, trial % 4
        w = [1] * s if kind < 2 else [rng.randint(1, 2) for _ in range(s)]
        c = rng.randint(2, 8)
        plane = [x for x in np.ndindex(*(c + 1,) * s)
                 if sum(a * b for a, b in zip(w, x)) == c]
        if not plane:
            continue
        if s == 3 and trial % 8 == 7:  # collinear: a + i d with w . d = 0
            a = rng.choice(plane)
            d = (w[1], -w[0], 0)
            plane = [x for x in plane
                     if any(x == tuple(p + i * q for p, q in zip(a, d))
                            for i in range(-c, c + 1))]
        vectors = [tuple(map(int, x)) for x in
                   rng.sample(plane, min(len(plane), rng.randint(2, 6)))]
        if len(vectors) == 1 or trial % 5 == 0:
            vectors.append(rng.choice(vectors))
        if kind < 2 and s > 1:
            corners = rng.sample(range(s), kind + 1)
            vectors += [tuple(c * (i == k) for i in range(s)) for k in corners]
            theta = [float(i in corners) for i in range(s)]
        elif kind == 2:
            weights = [rng.randint(1, 9) ** 3 for _ in vectors]
            theta = [sum(wj * v[i] for wj, v in zip(weights, vectors))
                     for i in range(s)]
        else:
            i, j = rng.sample(range(len(vectors)), 2)
            theta = [x + y for x, y in zip(vectors[i], vectors[j])]
        yield vectors, tuple(map(float, theta))


def _sympy_eta(vectors):
    """Oracle: a rational eta with <eta, X_j> = 1 for every j, by sympy's
    exact Gauss-Jordan solve with the free parameters at 0."""
    sol, params = sympy.Matrix(vectors).gauss_jordan_solve(
        sympy.ones(len(vectors), 1))
    sol = sol.subs({p: 0 for p in params})
    return [Fraction(int(v.p), int(v.q)) for v in sol]


def test_max_entropy_matches_numpy_newton():
    """gamma on coplanar data is (eta . theta) times the maximal entropy at
    theta / (eta . theta), over |theta|; every direction is in the cone."""
    faces = dims = 0
    for vectors, theta in _coplanar_cases():
        data = make_defining_data(vectors)
        assert lp_cone_member(theta, vectors)
        scale = sum(e * Fraction(t) for e, t in zip(_sympy_eta(vectors), theta))
        value, residual, support = _numpy_max_entropy(
            vectors, [Fraction(t) / scale for t in theta])
        assert residual <= 1e-12
        want = float(scale) * value / math.hypot(*theta)
        assert gamma(data, theta) == pytest.approx(want, rel=0, abs=1e-9), \
            (vectors, theta)
        faces += len(support) < len(vectors)
        dims += len({vectors[j] for j in support}) == 1
    # the sample reaches faces smaller than the hull and 0-dimensional ones
    assert faces > 40 and dims > 20


def test_max_entropy_zero_dimensional_face_is_uniform():
    # three copies of (1,1) on the ray: 3^k words reach k (1,1)
    g = _gamma(((1, 1), (1, 3), (1, 1), (1, 1)), (1.0, 1.0))
    assert g == pytest.approx(math.log(3) / SQ2, abs=1e-15)


def test_analytic_gamma_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(growth, "MAX_NEWTON_ITERS", 0)
    # lambda = 0 solves a lone generator's face; anything else needs a step
    assert _gamma(BINOMIAL, (1.0, 0.0)) == 0.0
    with pytest.raises(NotConverged, match="residual"):
        _gamma(BINOMIAL, (1.0, 1.0))


def _in_cone_directions():
    """600 seeded systems in dimensions 1-3, 2-5 vectors with entries 0-4,
    each with three directions of its cone: a generator, a positive
    integer combination and the sum of two generators.  Most generators
    lie on a face of the cone, so many directions are on its boundary."""
    rng = random.Random(17)
    systems = 0
    while systems < 600:
        s = systems % 3 + 1
        vectors = [tuple(rng.randint(0, 4) for _ in range(s))
                   for _ in range(rng.randint(2, 5))]
        try:
            data = make_defining_data(vectors)
        except FroblipError:  # some vector is 0
            continue
        systems += 1
        i, j = rng.sample(range(len(vectors)), 2)
        weights = [rng.randint(1, 9) for _ in vectors]
        combination = tuple(sum(w * v[k] for w, v in zip(weights, vectors))
                            for k in range(s))
        pair = tuple(x + y for x, y in zip(vectors[i], vectors[j]))
        yield data, [rng.choice(vectors), combination, pair]


def test_in_cone_directions_are_never_refused():
    """A direction of the cone, given as floats or as Fractions over 7, is
    in the cone: gamma and estimate_gamma accept it.  Moved 1e-12 across a
    facet that is tight at a generator, it is refused."""
    directions = crossed = 0
    for data, thetas in _in_cone_directions():
        given = [tuple(map(float, th)) for th in thetas]
        given += [tuple(Fraction(x, 7) for x in th) for th in thetas]
        table = build_multiplicity(data, max(gamma_table_bound(data, th, 2.0)
                                             for th in given))
        for theta in given:
            assert gamma(data, theta) >= 0.0
            estimate_gamma(data, theta, k_max=2.0, k_count=2, table=table)
        directions += len(thetas)
        normals = data.cone.h_representation[1]
        for g in data.vectors:
            for y in (y for y in normals if sum(map(math.prod, zip(y, g))) == 0):
                outside = [x - Fraction(1, 10 ** 12) * c for x, c in zip(g, y)]
                for theta in (outside, [float(x) for x in outside]):
                    with pytest.raises(DirectionOutsideCone):
                        gamma(data, theta)
                    with pytest.raises(DirectionOutsideCone):
                        estimate_gamma(data, theta, k_max=2.0, k_count=2,
                                       table=table)
                crossed += 1
    assert directions == 1800 and crossed > 300
