"""Exact rational linear programming: dense two-phase simplex, Bland's rule.

Problem sizes here are tiny (a handful of variables and constraints), so a
textbook tableau over ``Fraction`` is both fast enough and free of any
numerical tolerance.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(T, obj, basis, prow, pcol):
    piv = T[prow][pcol]
    T[prow] = [v / piv for v in T[prow]]
    for i, row in enumerate(T):
        if i != prow and row[pcol] != 0:
            f = row[pcol]
            T[i] = [a - f * b for a, b in zip(row, T[prow])]
    if obj[pcol] != 0:
        f = obj[pcol]
        for j in range(len(obj)):
            obj[j] -= f * T[prow][j]
    basis[prow] = pcol


def _run_simplex(T, obj, basis, allowed):
    """Maximize; Bland's rule.  Returns True, or False when unbounded."""
    ncols = len(obj) - 1
    while True:
        pcol = next(
            (j for j in range(ncols) if allowed[j] and obj[j] > 0), None
        )
        if pcol is None:
            return True
        prow = None
        best = None
        for i, row in enumerate(T):
            if row[pcol] > 0:
                ratio = row[-1] / row[pcol]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[prow]
                ):
                    best = ratio
                    prow = i
        if prow is None:
            return False
        _pivot(T, obj, basis, prow, pcol)


def lp_max(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """Maximize c.x subject to A x = b, x >= 0, over exact rationals.

    Returns ``(status, x, value)`` where status is one of OPTIMAL,
    INFEASIBLE, UNBOUNDED; x and value are None unless OPTIMAL.
    """
    m = len(A)
    n = len(c)
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    # columns: n structural + m artificial, then rhs
    T = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    # phase 1: maximize -(sum of artificials)
    obj = [Fraction(0)] * n + [Fraction(-1)] * m + [Fraction(0)]
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] += T[i][j]
    allowed = [True] * (n + m)
    _run_simplex(T, obj, basis, allowed)
    # invariant: obj[-1] == -(current objective value); phase 1 is feasible
    # exactly when the artificial total can be driven to zero
    if obj[-1] > 0:
        return INFEASIBLE, None, None
    # drive artificials out of the basis where possible; dead rows are inert
    for i in range(m):
        if basis[i] >= n:
            pcol = next((j for j in range(n) if T[i][j] != 0), None)
            if pcol is not None:
                _pivot(T, obj, basis, i, pcol)

    # phase 2
    obj = [Fraction(v) for v in c] + [Fraction(0)] * m + [Fraction(0)]
    for i, bv in enumerate(basis):
        if obj[bv] != 0:
            f = obj[bv]
            for j in range(n + m + 1):
                obj[j] -= f * T[i][j]
    allowed = [True] * n + [False] * m
    if not _run_simplex(T, obj, basis, allowed):
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[i][-1]
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return OPTIMAL, x, value
