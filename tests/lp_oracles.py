"""Exact-LP definitions of the cone questions that ``froblip.cones`` now
answers from facets: the oracles the facet-based answers are tested
against.  Each is the LP formulation froblip used before it computed
H-representations."""
from fractions import Fraction

from froblip import ratlp


def feasible_nonneg(A, b):
    """Some x >= 0 with A x = b, or None if none exists."""
    n = len(A[0]) if A else 0
    status, x, _ = ratlp.lp_max([Fraction(0)] * n, A, b)
    return x if status == ratlp.OPTIMAL else None


def lp_cone_member(x, generators):
    """Is x a nonnegative combination of the generators?"""
    s = len(x)
    A = [[Fraction(g[i]) for g in generators] for i in range(s)]
    return feasible_nonneg(A, [Fraction(v) for v in x]) is not None


def lp_cone_equal(a, b):
    """Does each generator set lie in the other's cone?"""
    return all(lp_cone_member(g, b) for g in a) and all(
        lp_cone_member(g, a) for g in b)


def _hull_rows(vectors):
    s = len(vectors[0])
    A = [[Fraction(v[i]) for v in vectors] for i in range(s)]
    A.append([Fraction(1)] * len(vectors))
    return A


def lp_hull_member(vectors, target):
    """Is target a convex combination of the vectors?"""
    b = [Fraction(t) for t in target] + [Fraction(1)]
    return feasible_nonneg(_hull_rows(vectors), b) is not None


def lp_minimal_face(vectors, target):
    """Indices that can carry positive weight in some convex combination
    equal to target: one LP per vector, maximizing its weight."""
    A = _hull_rows(vectors)
    b = [Fraction(t) for t in target] + [Fraction(1)]
    support = []
    for j in range(len(vectors)):
        obj = [Fraction(0)] * len(vectors)
        obj[j] = Fraction(1)
        status, _, value = ratlp.lp_max(obj, A, b)
        if status == ratlp.OPTIMAL and value > 0:
            support.append(j)
    return tuple(support)
