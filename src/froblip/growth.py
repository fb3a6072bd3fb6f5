"""Directional growth rates of the multiplicity counts, for any defining data.

For step vectors X_1..X_m in an open half-space and a direction theta in
their cone, the counts m(k theta) grow like e^{k gamma(theta)}, with

    gamma(theta) = min { lambda . theta : sum_j e^{-lambda . X_j} <= 1 }   (dual)
                 = max { H(p) / s : sum_j p_j X_j = s theta, p a probability
                         vector }                                         (primal)

The dual gives the upper bound: sum_z m(z) e^{-lambda . z} = 1 / (1 -
sum_j e^{-lambda . X_j}) converges, so m(k theta) = O(e^{k lambda . theta});
counting the words of type p gives the lower bound.  At the optimum p_j =
e^{-lambda . X_j} and lambda . theta = H(p) / s.

A direction on a boundary face of the cone is reached only by words over
that face's generators (a facet normal that is 0 on theta is >= 0 on every
X_j), so the solve runs on ``cones.minimal_face``'s generators, in the
pivot-axis coordinates of their linear span; there the optimality system
is nonsingular.  Duplicate vectors are distinct letters, so multiplicity
enters the rate.
"""
from __future__ import annotations

import math
from typing import Sequence

from .cones import minimal_face
from .errors import NotConverged
from .frobenius import DefiningData
from .lattice import row_hnf

MOMENT_TOL = 1e-12
MAX_NEWTON_ITERS = 80


def gamma(data: DefiningData, theta: Sequence) -> float:
    """The directional growth rate gamma(theta) of the module docstring,
    at the unit vector along theta.  theta is read exactly (a float is the
    rational it stores), so a direction on a face of the cone, such as a
    generator, is on that face.

    Solves sum_j p_j X_j = s theta and sum_j p_j = 1 for lambda and s, with
    p_j = e^{-lambda . X_j} over the minimal face's generators, by damped
    Newton from lambda = 0.  The residual is the larger of |log sum_j
    e^{-lambda . X_j}| and the part of the mean sum_j p_j X_j / sum_j p_j
    across theta, over the largest entry of the X_j; each step is halved
    until it falls.  Raises DirectionOutsideCone for theta outside the
    cone, and NotConverged when MAX_NEWTON_ITERS steps leave a residual
    above MOMENT_TOL.
    """
    th = data.direction(theta)
    X = [data.vectors[j] for j in minimal_face(theta, data.cone)]
    # the pivot axes of the face's span are coordinates on it
    axes = [next(i for i, c in enumerate(row) if c) for row in row_hnf(X)]
    t = [th[i] for i in axes]
    tt = math.fsum(ti * ti for ti in t)
    size = max(abs(c) for x in X for c in x)

    def residual(lam):
        logits = [-math.fsum(l * x[i] for l, i in zip(lam, axes)) for x in X]
        top = max(logits)
        w = [math.exp(v - top) for v in logits]
        total = math.fsum(w)
        p = [wj / total for wj in w]
        mu = [math.fsum(pj * x[i] for pj, x in zip(p, X)) for i in axes]
        log_z = top + math.log(total)
        c = math.fsum(m * ti for m, ti in zip(mu, t)) / tt
        across = max(abs(m - c * ti) for m, ti in zip(mu, t)) / size
        return p, mu, log_z, max(abs(log_z), across)

    lam = [0.0] * len(axes)
    p, mu, log_z, res = residual(lam)
    for _ in range(MAX_NEWTON_ITERS):
        if res <= MOMENT_TOL:
            break
        # Newton on mu = s theta, log Z = 0 in (lambda, s): the step in
        # lambda and the new s solve [[cov, t], [mu, 0]] y = (mu, log Z)
        cov = [[math.fsum(pj * x[i] * x[k] for pj, x in zip(p, X)) - mi * mk
                for k, mk in zip(axes, mu)] for i, mi in zip(axes, mu)]
        step = _solve([row + [ti] for row, ti in zip(cov, t)] + [mu + [0.0]],
                      mu + [log_z])[:-1]
        h = 1.0
        for _ in range(60):
            lam_new = [l + h * d for l, d in zip(lam, step)]
            p_new, mu_new, log_z_new, res_new = residual(lam_new)
            if res_new < res:
                break
            h *= 0.5
        else:
            break
        lam, p, mu, log_z, res = lam_new, p_new, mu_new, log_z_new, res_new
    if res > MOMENT_TOL:
        raise NotConverged(f"entropy solve along {th} stopped at residual "
                           f"{res:.3g} > {MOMENT_TOL:g}")
    # the entropy form is >= 0; near a face of the cone the solve's
    # rounding can leave a tiny negative
    return max(0.0, math.fsum(l * th[i] for l, i in zip(lam, axes)))


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
