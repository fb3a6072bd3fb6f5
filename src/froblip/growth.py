"""Analytic directional growth rates via maximum-entropy optimization.

For coplanar step vectors the growth rate along a direction factors into a
geometric scale times the maximum Shannon entropy of a probability vector
with a prescribed first moment.  The interior problem is solved through the
exponential-family dual (damped Newton on the moment map); boundary targets
are first restricted to the minimal face of the hull, found by exact LP.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import ratlp
from .cones import Cone, CoplanarFunctional, cone_member
from .errors import DirectionOutsideCone, NotCoplanar, TargetOutsideHull
from .frobenius import SNAP_DENOM, DefiningData, _snap, _unit

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


def _hull_lp_rows(vectors, indices):
    s = len(vectors[0])
    A = [[Fraction(vectors[j][i]) for j in indices] for i in range(s)]
    A.append([Fraction(1)] * len(indices))
    return A


def _hull_membership(vectors, target):
    """Exact convex-hull membership of the (snapped-rational) target."""
    b = [Fraction(t) for t in target] + [Fraction(1)]
    return ratlp.feasible_nonneg(_hull_lp_rows(vectors, range(len(vectors))), b)


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


def _hull_point(vectors, target):
    """The exact hull point that target names, or raise TargetOutsideHull.

    Float coordinates snap to the grid one by one, so a float target on a
    lower-dimensional hull can land just off that hull's affine span.
    """
    point = tuple(_snap(t) for t in target)
    if _hull_membership(vectors, point) is not None:
        return point
    if any(isinstance(t, float) for t in target):
        proj = _affine_projection(vectors, point)
        if (max(abs(a - b) for a, b in zip(proj, point)) <= HULL_SNAP_SLACK
                and _hull_membership(vectors, proj) is not None):
            return proj
    raise TargetOutsideHull(f"target {tuple(target)} outside the hull")


def _minimal_face(vectors, target):
    """Indices that can carry positive weight in some representation."""
    idx = list(range(len(vectors)))
    b = [Fraction(t) for t in target] + [Fraction(1)]
    A = _hull_lp_rows(vectors, idx)
    support = []
    for j in idx:
        obj = [Fraction(0)] * len(idx)
        obj[j] = Fraction(1)
        status, _, value = ratlp.lp_max(obj, A, b)
        if status == ratlp.OPTIMAL and value > 0:
            support.append(j)
    return support


def max_entropy(vectors: Sequence[Sequence[int]], target: Sequence) -> EntropySolution:
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
    for that accepted point.
    """
    import numpy as np

    point = _hull_point(vectors, target)
    support = _minimal_face(vectors, point)
    m = len(vectors)
    X = np.array([vectors[j] for j in support], dtype=float)
    v = np.array([float(t) for t in point], dtype=float)

    if len(support) == 1:
        p_full = np.zeros(m)
        p_full[support[0]] = 1.0
        return EntropySolution(tuple(p_full), 0.0, (0.0,) * len(target),
                               tuple(support), 0.0)

    s = X.shape[1]
    beta = np.zeros(s)

    def moments(b):
        logits = X @ b
        logits -= logits.max()
        w = np.exp(logits)
        p = w / w.sum()
        return p, p @ X

    p, mu = moments(beta)
    res = float(np.max(np.abs(mu - v)))
    for _ in range(MAX_NEWTON_ITERS):
        if res <= MOMENT_TOL:
            break
        cov = (X.T * p) @ X - np.outer(mu, mu)
        step = -np.linalg.lstsq(cov, mu - v, rcond=None)[0]
        # damping: halve the step while the moment error does not improve
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
    value = float(-np.sum(nz * np.log(nz)))
    return EntropySolution(tuple(p_full), value, tuple(beta), tuple(support), res)


def analytic_gamma(data: DefiningData, eta: CoplanarFunctional,
                   theta: Sequence[float]) -> float:
    """Closed-form directional growth rate for coplanar defining data.

    Scales theta onto the generators' hyperplane and multiplies the maximal
    entropy there by the scale factor.
    """
    if not eta.present:
        raise NotCoplanar("defining data admits no coplanarity functional")
    th, th_snap = _unit(theta)
    if not cone_member(th_snap, Cone(tuple(data.vectors))):
        raise DirectionOutsideCone(f"direction {th} outside the cone")
    # exact scale and target so the target sits exactly on the affine
    # hyperplane <eta, x> = 1; a float target would fail the exact hull test
    scale = sum(Fraction(e) * t for e, t in zip(eta.eta, th_snap))
    if scale <= 0:
        raise DirectionOutsideCone("direction has nonpositive hyperplane scale")
    target = tuple(t / scale for t in th_snap)
    sol = max_entropy(data.vectors, target)
    return float(scale) * sol.value
