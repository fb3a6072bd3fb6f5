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

    Minimizes lambda . theta over the lambda on the surface sum_j
    e^{-lambda . X_j} = 1 of the minimal face's generators X_j.  Points
    move onto the surface along alpha (alpha . X_j > 0, so each move is a
    monotone 1-D solve, ``_level``), lambda = 0 first; there the objective
    g(lambda) is convex, as the least lambda' . theta over the lambda'
    reached along alpha from lambda.  Newton's steps for g run tangent to
    the surface, and each is halved until it lowers g, or, when the change
    it predicts is below the rounding of the largest |lambda . X_j|, the
    residual: the larger of |log sum_j e^{-lambda . X_j}| and the part of
    the mean sum_j p_j X_j across theta (p_j = e^{-lambda . X_j}), over
    the largest entry of the X_j.  The steps stop at a residual within
    MOMENT_TOL * min(g, 1): near a face, where g is small, full steps go
    on while they lower the residual.  Raises DirectionOutsideCone for
    theta outside the cone, and NotConverged when MAX_NEWTON_ITERS steps
    leave a residual above MOMENT_TOL.
    """
    th = data.direction(theta)
    X = [data.vectors[j] for j in minimal_face(theta, data.cone)]
    # the pivot axes of the face's span are coordinates on it; there
    # w . x == alpha . x for every x of the span
    hnf = row_hnf(X)
    axes = [next(i for i, c in enumerate(row) if c) for row in hnf]
    alpha = [float(a) for a in data.alpha]
    w = _solve([[row[i] for i in axes] for row in hnf],
               [math.fsum(a * c for a, c in zip(alpha, row)) for row in hnf])
    b = [math.fsum(a * c for a, c in zip(alpha, x)) for x in X]
    t = [th[i] for i in axes]
    tt = math.fsum(ti * ti for ti in t)
    size = max(abs(c) for x in X for c in x)

    def state(lam, sigma=None):
        """lam moved by sigma w, by default onto the surface, with p, the
        mean, lambda . theta and the residual there."""
        a = [-math.fsum(l * x[i] for l, i in zip(lam, axes)) for x in X]
        if sigma is None:
            sigma = _level(a, b)
        lam = [l + sigma * wk for l, wk in zip(lam, w)]
        log_z, e = _log_sum_exp([aj - sigma * bj for aj, bj in zip(a, b)])
        total = math.fsum(e)
        p = [ej / total for ej in e]
        mu = [math.fsum(pj * x[i] for pj, x in zip(p, X)) for i in axes]
        # mu_i - (mu . t / tt) t_i, summed so that a mean near theta cancels
        across = max(abs(math.fsum(tk * (mi * tk - mk * ti) for mk, tk in zip(mu, t)))
                     for mi, ti in zip(mu, t)) / (tt * size)
        return (lam, p, mu, math.fsum(l * ti for l, ti in zip(lam, t)),
                max(abs(log_z), across))

    lam, p, mu, g, res = state([0.0] * len(axes), 0.0)
    iters = MAX_NEWTON_ITERS
    if len(X) > 1 and iters:  # lambda = 0 is off the surface: move it there
        lam, p, mu, g, res = state(lam)
        iters -= 1
    for _ in range(iters):
        if res <= MOMENT_TOL * min(g, 1.0):
            break
        # the Newton step of g tangent to the surface (mu . y = 0) solves
        # [[kappa cov, mu], [mu, 0]] y = (-theta, 0), where kappa =
        # w . theta / w . mu is g's curvature factor there
        kappa = math.fsum(wk * ti for wk, ti in zip(w, t)) / math.fsum(
            pj * bj for pj, bj in zip(p, b))
        cov = [[kappa * (math.fsum(pj * x[i] * x[k] for pj, x in zip(p, X)) - mi * mk)
                for k, mk in zip(axes, mu)] + [mi] for i, mi in zip(axes, mu)]
        step = _solve(cov + [mu + [0.0]], [-ti for ti in t] + [0.0])[:-1]
        # g's change along the step, and the largest |lambda . X_j|, whose
        # rounding bounds how finely the surface, and so g, is resolved
        slope = math.fsum(ti * d for ti, d in zip(t, step))
        scale = max(abs(math.fsum(l * x[i] for l, i in zip(lam, axes))) for x in X)
        # halve the step until it lowers g, or the residual where the
        # change it predicts is below that rounding; within MOMENT_TOL,
        # only a full step that lowers the residual is taken
        for i in range(60 if res > MOMENT_TOL else 1):
            h = 0.5 ** i
            new = state([l + h * d for l, d in zip(lam, step)])
            g_new, res_new = new[3:]
            if (res_new < res if res <= MOMENT_TOL else
                    g_new < g or scale + h * slope == scale and res_new < res):
                break
        else:
            break
        lam, p, mu, g, res = new
    if res > MOMENT_TOL:
        raise NotConverged(f"entropy solve along {th} stopped at residual "
                           f"{res:.3g} > {MOMENT_TOL:g}")
    # the entropy form is >= 0; near a face of the cone the solve's
    # rounding can leave a tiny negative
    return max(0.0, g)


def _level(a, b) -> float:
    """The sigma with sum_j e^{a_j - sigma b_j} = 1, for b_j > 0.  The log
    of the sum, f, is convex and decreasing in sigma, and at least 0 at
    max_j a_j / b_j, where one term is 1; so Newton's steps from there, or
    from 0 when f(0) >= 0, rise to the root.  They stop when f stops
    falling, at the rounding of the terms."""
    s = 0.0
    f, e = _log_sum_exp(a)
    if f < 0:
        s = max(aj / bj for aj, bj in zip(a, b))
        f, e = _log_sum_exp([aj - s * bj for aj, bj in zip(a, b)])
    while f > 0:
        nxt = s + f * math.fsum(e) / math.fsum(ej * bj for ej, bj in zip(e, b))
        f_nxt, e_nxt = _log_sum_exp([aj - nxt * bj for aj, bj in zip(a, b)])
        if not f_nxt < f:
            break
        s, f, e = nxt, f_nxt, e_nxt
    return s


def _log_sum_exp(v):
    """(log sum_j e^{v_j}, [e^{v_j - max v}]).  The largest term is 1, and
    the others enter the log by log1p, so that a sum near 1 keeps its
    digits."""
    k = max(range(len(v)), key=v.__getitem__)
    e = [math.exp(x - v[k]) for x in v]
    return v[k] + math.log1p(math.fsum(e[:k] + e[k + 1:])), e


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
