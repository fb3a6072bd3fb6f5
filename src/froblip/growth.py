"""Analytic directional growth rates via maximum-entropy optimization.

For coplanar step vectors the growth rate along a direction factors into a
geometric scale times the maximum Shannon entropy of a probability vector
with a prescribed first moment.  The interior problem is solved through the
exponential-family dual (damped Newton on the moment map); boundary targets
are first restricted to the minimal face of the hull.  Hull membership and
that face are exact sign tests against the facets of the cone over the
lifted points (X_j, 1), computed once per set of step vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import ratlp
from .cones import Cone, CoplanarFunctional, cone_member, hull_cone, minimal_face
from .errors import DirectionOutsideCone, NotConverged, NotCoplanar, TargetOutsideHull
from .frobenius import SNAP_DENOM, DefiningData, _snap
from .lattice import row_hnf

MOMENT_TOL = 1e-12
MAX_NEWTON_ITERS = 80
# largest move per coordinate that puts a snapped float target onto the
# generators' affine hull: covers the 2^-48 snap of every coordinate and the
# float rounding of targets of moderate size, but no real offset
HULL_SNAP_SLACK = Fraction(4, SNAP_DENOM)


@dataclass(frozen=True)
class EntropySolution:
    """Entropy maximizer over distributions with a fixed mean."""

    p: tuple
    value: float
    beta: tuple
    active_support: tuple
    residual: float


def _affine_projection(vectors, point):
    """Exact orthogonal projection of point onto the affine hull of vectors."""
    def dot(u, w):
        return sum(x * y for x, y in zip(u, w))

    base = [Fraction(c) for c in vectors[0]]
    dirs = [[c - b for c, b in zip(v, base)] for v in vectors[1:]]
    rel = [Fraction(x) - b for x, b in zip(point, base)]
    # the normal equations are always consistent; free coefficients are 0
    coef = ratlp.solve_linear([[dot(d, e) for e in dirs] for d in dirs],
                              [dot(d, rel) for d in dirs])
    return tuple(b + sum(c * d[i] for c, d in zip(coef, dirs))
                 for i, b in enumerate(base))


def _hull_point(vectors, target, hull):
    """The exact hull point that target names, or raise TargetOutsideHull.
    ``hull`` is ``hull_cone(vectors)``.

    Float coordinates snap to the grid one by one, so a float target on a
    lower-dimensional hull can land just off that hull's affine span.
    """
    point = tuple(_snap(t) for t in target)
    if cone_member(point + (1,), hull):
        return point
    if any(isinstance(t, float) for t in target):
        proj = _affine_projection(vectors, point)
        if (max(abs(a - b) for a, b in zip(proj, point)) <= HULL_SNAP_SLACK
                and cone_member(proj + (1,), hull)):
            return proj
    raise TargetOutsideHull(f"target {tuple(target)} outside the hull")


def max_entropy(vectors: Sequence[Sequence[int]], target: Sequence,
                hull: Optional[Cone] = None) -> EntropySolution:
    """Maximize entropy of p subject to sum p_j X_j = target, sum p_j = 1.

    Duplicate vectors are kept as distinct indices (multiset semantics), so
    multiplicity contributes to the entropy naturally.  The maximum is
    attained; boundary targets are handled by restriction to the minimal
    face containing them.

    Hull membership is decided exactly.  ``Fraction`` (and int) targets are
    tested exactly as given.  Float coordinates are snapped to the 2^-48 grid
    (``frobenius.SNAP_DENOM``); when the snapped point is not in the hull it
    is replaced by its exact orthogonal projection onto the generators'
    affine hull, provided no coordinate moves by more than HULL_SNAP_SLACK
    (4 * 2^-48, about 1.4e-14) and the projection lies in the hull.  Any
    other target raises TargetOutsideHull.  The moment equations are solved
    for that accepted point, in floats.  ``p_j`` is proportional to
    ``exp(beta . X_j)`` on the active support; ``beta`` is zero off the
    pivot axes of the face's affine hull.  Hull membership and the minimal
    face are sign tests against the facets of ``hull``, which must be
    ``hull_cone(vectors)`` when given (pass ``DefiningData.hull`` to reuse
    its facets across calls).
    """
    if hull is None:
        hull = hull_cone(vectors)
    point = _hull_point(vectors, target, hull)
    support = minimal_face(point + (1,), hull)
    X = [vectors[j] for j in support]
    v = [float(t) for t in point]
    # the pivot axes of the span of X_j - X_0 are coordinates on the
    # face's affine hull, in which the covariance is positive definite
    diffs = [[a - b for a, b in zip(x, X[0])] for x in X[1:]]
    axes = [next(i for i, c in enumerate(row) if c)
            for row in (row_hnf(diffs) if diffs else ())]
    lam = [0.0] * len(axes)

    def moments(lam):
        logits = [math.fsum(l * x[i] for l, i in zip(lam, axes)) for x in X]
        top = max(logits)
        w = [math.exp(t - top) for t in logits]
        total = math.fsum(w)
        p = [wj / total for wj in w]
        mu = [math.fsum(pj * x[i] for pj, x in zip(p, X)) for i in range(len(v))]
        return p, mu, max(abs(a - b) for a, b in zip(mu, v))

    p, mu, res = moments(lam)
    for _ in range(MAX_NEWTON_ITERS):
        if res <= MOMENT_TOL:
            break
        cov = [[math.fsum(pj * x[i] * x[k] for pj, x in zip(p, X)) - mu[i] * mu[k]
                for k in axes] for i in axes]
        step = _solve(cov, [v[i] - mu[i] for i in axes])
        # damping: halve the step while the moment error does not improve
        t = 1.0
        for _ in range(60):
            lam_new = [l + t * d for l, d in zip(lam, step)]
            p_new, mu_new, res_new = moments(lam_new)
            if res_new < res:
                break
            t *= 0.5
        else:
            break
        lam, p, mu, res = lam_new, p_new, mu_new, res_new

    p_full = [0.0] * len(vectors)
    for j, pj in zip(support, p):
        p_full[j] = pj
    beta = [0.0] * len(v)
    for i, l in zip(axes, lam):
        beta[i] = l
    # a term p_j = 1 is -0.0, which would make a vertex's value -0.0
    value = math.fsum(-pj * math.log(pj) for pj in p if 0 < pj < 1)
    return EntropySolution(tuple(p_full), value, tuple(beta), tuple(support), res)


def _solve(A, b):
    """Solution of the small nonsingular system A y = b, by Gaussian
    elimination with partial pivoting."""
    n = len(b)
    M = [row[:] + [bi] for row, bi in zip(A, b)]
    for c in range(n):
        r = max(range(c, n), key=lambda i: abs(M[i][c]))
        M[c], M[r] = M[r], M[c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [a - f * e for a, e in zip(M[i], M[c])]
    y = [0.0] * n
    for c in reversed(range(n)):
        y[c] = (M[c][n] - math.fsum(M[c][k] * y[k] for k in range(c + 1, n))) / M[c][c]
    return y


def analytic_gamma(data: DefiningData, eta: CoplanarFunctional,
                   theta: Sequence[float]) -> float:
    """Closed-form directional growth rate for coplanar defining data.

    Scales theta onto the generators' hyperplane and multiplies the maximal
    entropy there by the scale factor.  Raises NotConverged when the
    entropy solve ends above MOMENT_TOL.
    """
    if not eta.present:
        raise NotCoplanar("defining data admits no coplanarity functional")
    th, th_snap = data.direction(theta)
    # exact scale and target so the target sits exactly on the affine
    # hyperplane <eta, x> = 1; a float target would fail the exact hull test
    scale = sum(Fraction(e) * t for e, t in zip(eta.eta, th_snap))
    if scale <= 0:
        raise DirectionOutsideCone("direction has nonpositive hyperplane scale")
    target = tuple(t / scale for t in th_snap)
    sol = max_entropy(data.vectors, target, data.hull)
    if sol.residual > MOMENT_TOL:
        raise NotConverged(f"entropy solve along {th} stopped at moment "
                           f"residual {sol.residual:.3g} > {MOMENT_TOL:g}")
    return float(scale) * sol.value
