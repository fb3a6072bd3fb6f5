import math
import random
from fractions import Fraction

import numpy as np
import pytest

from froblip.cones import coplanar_functional, hull_cone
from froblip.errors import NotConverged, NotCoplanar, TargetOutsideHull
from froblip.frobenius import SNAP_DENOM, make_defining_data
from froblip import growth
from froblip.growth import analytic_gamma, max_entropy

from lp_oracles import lp_minimal_face

SQ2 = math.sqrt(2)


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


def test_max_entropy_uniform_center():
    sol = max_entropy([(1, 0), (0, 1)], (0.5, 0.5))
    assert abs(sol.value - math.log(2)) < 1e-10
    assert all(abs(p - 0.5) < 1e-10 for p in sol.p)
    assert sol.residual <= 1e-12


def test_max_entropy_trinomial_center():
    # frozen oracle: for {(2,0),(1,1),(0,2)} at mean (1,1) the maximizer
    # is uniform (1/3 each) with entropy log 3
    sol = max_entropy([(2, 0), (1, 1), (0, 2)], (1.0, 1.0))
    assert abs(sol.value - math.log(3)) < 1e-10
    assert all(abs(p - 1 / 3) < 1e-9 for p in sol.p)


def test_max_entropy_asymmetric_closed_form():
    # one-dimensional family {(0,), (1,)} at mean t: entropy of Bernoulli(t)
    for t in (0.1, 0.25, 0.5, 0.9):
        sol = max_entropy([(0,), (1,)], (t,))
        expect = -t * math.log(t) - (1 - t) * math.log(1 - t)
        assert abs(sol.value - expect) < 1e-10


def test_max_entropy_vertex_target():
    sol = max_entropy([(1, 0), (0, 1)], (1.0, 0.0))
    assert sol.value == 0.0
    assert sol.p == (1.0, 0.0)


def test_max_entropy_boundary_face():
    # target on the edge between (2,0) and (0,2) excludes the interior
    # vector only if it cannot carry weight; here (1,1) lies on that edge,
    # so all three remain active -- compare against the interior solver
    sol = max_entropy([(2, 0), (1, 1), (0, 2)], (0.5, 1.5))
    # oracle: the feasible set is the segment p = (t, 0.5-2t, 0.5+t) for
    # t in [0, 0.25]; scan it finely
    best = _scan_max_entropy(lambda t: (t, 0.5 - 2 * t, 0.5 + t), 0.0, 0.25)
    assert abs(sol.value - best) < 1e-7
    assert sol.residual <= 1e-9


def test_max_entropy_duplicate_vectors():
    # duplicates add log-multiplicity: {(1,),(1,)} at mean 1 gives log 2
    sol = max_entropy([(1,), (1,)], (1.0,))
    assert abs(sol.value - math.log(2)) < 1e-10


def test_max_entropy_outside_hull():
    # float offsets beyond the snap slack are real, not rounding; an exact
    # target one grid step off the hull is rejected as given
    for target in [(1.0, 1.0), (0.4, 0.6 + 1e-9), (0.3, 0.7 + 1e-13),
                   (Fraction(1, 2), Fraction(1, 2) + Fraction(1, SNAP_DENOM))]:
        with pytest.raises(TargetOutsideHull):
            max_entropy([(1, 0), (0, 1)], target)


def test_max_entropy_float_target_snapped_off_hull():
    # (2t, 2-2t) lies on the hull's line x + y = 2, but its coordinates
    # snap to 2^-48 one by one and the snapped sum is not 2; the target
    # must be put back on the line, not rejected
    t = 0.41163513999128915
    sol = max_entropy([(2, 0), (1, 1), (0, 2)], (2 * t, 2 - 2 * t))
    # oracle: the feasible set is the segment p = (u, 2t-2u, 1-2t+u) for
    # u in [0, t]; scan it finely
    best = _scan_max_entropy(lambda u: (u, 2 * t - 2 * u, 1 - 2 * t + u),
                             0.0, t)
    assert abs(sol.value - best) < 1e-7
    assert sol.residual <= 1e-12


def test_analytic_gamma_binomial():
    data = make_defining_data(((1, 0), (0, 1)))
    eta = coplanar_functional(data.vectors)
    g = analytic_gamma(data, eta, (1.0, 1.0))
    assert abs(g - SQ2 * math.log(2)) < 1e-10


def test_analytic_gamma_trinomial_diagonal():
    data = make_defining_data(((2, 0), (1, 1), (0, 2)))
    eta = coplanar_functional(data.vectors)
    g = analytic_gamma(data, eta, (1.0, 1.0))
    # scale = eta.(1,1)/sqrt2 = 1/sqrt2, target (1,1), entropy log 3
    assert abs(g - math.log(3) / SQ2) < 1e-10


def test_analytic_gamma_requires_coplanar():
    data = make_defining_data(((5,), (3,)))
    eta = coplanar_functional(data.vectors)
    with pytest.raises(NotCoplanar):
        analytic_gamma(data, eta, (1.0,))


def test_analytic_gamma_concavity_along_arc():
    # gamma is concave on directions scaled to the hyperplane; check the
    # midpoint inequality on hyperplane targets
    data = make_defining_data(((1, 0), (0, 1)))
    vals = {}
    for t in (0.3, 0.4, 0.5):
        sol = max_entropy(data.vectors, (t, 1 - t))
        vals[t] = sol.value
    assert vals[0.4] >= (vals[0.3] + vals[0.5]) / 2 - 1e-9


def test_analytic_gamma_iteration_invariance():
    # second iteration of {(1,0),(0,1)} is {(2,0),(1,1),(1,1),(0,2)};
    # gamma must be identical in every direction
    data1 = make_defining_data(((1, 0), (0, 1)))
    data2 = make_defining_data(((2, 0), (1, 1), (1, 1), (0, 2)))
    eta1 = coplanar_functional(data1.vectors)
    eta2 = coplanar_functional(data2.vectors)
    for theta in [(1.0, 1.0), (1.0, 2.0), (3.0, 1.0), (1.0, 0.2)]:
        g1 = analytic_gamma(data1, eta1, theta)
        g2 = analytic_gamma(data2, eta2, theta)
        assert abs(g1 - g2) < 1e-8


def _numpy_max_entropy(vectors, target):
    """Oracle: the damped Newton solve on numpy that max_entropy used
    before, in the full coordinates with a least-squares step; it returns
    (p, value, residual)."""
    point = growth._hull_point(vectors, target, hull_cone(vectors))
    support = lp_minimal_face(vectors, point)
    m = len(vectors)
    X = np.array([vectors[j] for j in support], dtype=float)
    v = np.array([float(t) for t in point], dtype=float)
    if len(support) == 1:
        p_full = np.zeros(m)
        p_full[support[0]] = 1.0
        return tuple(p_full), 0.0, 0.0
    beta = np.zeros(X.shape[1])

    def moments(b):
        logits = X @ b
        logits -= logits.max()
        w = np.exp(logits)
        p = w / w.sum()
        return p, p @ X

    p, mu = moments(beta)
    res = float(np.max(np.abs(mu - v)))
    for _ in range(growth.MAX_NEWTON_ITERS):
        if res <= growth.MOMENT_TOL:
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
    p_full = np.zeros(m)
    for j, pj in zip(support, p):
        p_full[j] = pj
    nz = p[p > 0]
    return tuple(p_full), float(-np.sum(nz * np.log(nz))), res


def _entropy_cases():
    """Seeded generator sets in dimensions 1-3 with targets in the
    interior of the hull or on a face of it (a vertex, or the midpoint of
    two generators, which need not be an edge), some with duplicate
    vectors, and collinear sets in dimensions 2 and 3."""
    rng = random.Random(11)
    for trial in range(240):
        s = trial % 3 + 1
        if trial % 8 == 7:  # collinear: a + i d for a few i
            a = [rng.randint(0, 3) for _ in range(s)]
            d = [rng.randint(-2, 2) for _ in range(s)]
            vectors = [tuple(x + i * y for x, y in zip(a, d))
                       for i in rng.sample(range(5), rng.randint(2, 4))]
        else:
            vectors = [tuple(rng.randint(0, 4) for _ in range(s))
                       for _ in range(rng.randint(2, 6))]
        if trial % 5 == 0:
            vectors.append(rng.choice(vectors))
        kind = trial % 4
        if kind == 0:
            target = vectors[rng.randrange(len(vectors))]
        elif kind == 1:
            i, j = rng.sample(range(len(vectors)), 2)
            target = [Fraction(x + y, 2) for x, y in zip(vectors[i], vectors[j])]
        else:
            w = [Fraction(rng.randint(1, 9) ** 3) for _ in vectors]
            target = [sum(wj * v[i] for wj, v in zip(w, vectors)) / sum(w)
                      for i in range(s)]
            if kind == 3:
                target = [float(t) for t in target]
        yield vectors, tuple(target)


def test_max_entropy_matches_numpy_newton():
    faces = dims = 0
    for vectors, target in _entropy_cases():
        sol = max_entropy(vectors, target)
        p, value, residual = _numpy_max_entropy(vectors, target)
        assert sol.p == pytest.approx(p, rel=0, abs=1e-12), (vectors, target)
        assert sol.value == pytest.approx(value, rel=0, abs=1e-12)
        assert sol.residual == pytest.approx(residual, rel=0, abs=1e-12)
        assert sol.residual <= growth.MOMENT_TOL
        # beta has one entry per coordinate and p_j is proportional to
        # exp(beta . X_j) over the active support
        assert len(sol.beta) == len(target)
        logits = [sum(b * x for b, x in zip(sol.beta, vectors[j]))
                  for j in sol.active_support]
        w = [math.exp(t - max(logits)) for t in logits]
        assert [sol.p[j] for j in sol.active_support] == \
            pytest.approx([x / sum(w) for x in w], rel=0, abs=1e-12)
        faces += len(set(sol.active_support)) < len(vectors)
        dims += len({vectors[j] for j in sol.active_support}) == 1
    # the sample reaches faces smaller than the hull and 0-dimensional ones
    assert faces > 40 and dims > 20


def test_max_entropy_zero_dimensional_face_is_uniform():
    sol = max_entropy([(2, 1), (1, 3), (2, 1), (2, 1)], (2, 1))
    assert sol.active_support == (0, 2, 3)
    assert sol.p == (1 / 3, 0.0, 1 / 3, 1 / 3)
    assert sol.value == pytest.approx(math.log(3), abs=1e-15)
    assert sol.beta == (0.0, 0.0) and sol.residual <= 1e-15


def test_analytic_gamma_raises_when_not_converged(monkeypatch):
    data = make_defining_data(((1, 0), (0, 1)))
    eta = coplanar_functional(data.vectors)
    monkeypatch.setattr(growth, "MAX_NEWTON_ITERS", 0)
    assert analytic_gamma(data, eta, (1.0, 1.0)) == pytest.approx(SQ2 * math.log(2))
    with pytest.raises(NotConverged, match="residual"):
        analytic_gamma(data, eta, (1.0, 2.0))
