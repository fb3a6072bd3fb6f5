"""Exponent polynomials P = sum_j x**X_j, held as {exponent vector: coefficient}:
products and values for the iteration identity P_e**p == P_f**q, decimal
brackets for the dimension equation and cut scores, and the expansion
1 / (1 - P) = sum_z m(z) x**z of the word counts.  Standard library only."""
from __future__ import annotations

import decimal
import heapq
import math
from collections import Counter
from fractions import Fraction

from .errors import ResourceLimit

ITERATION_BUDGET = 10 ** 6
DIGITS_CAP = 320  # decimal digits past which a bracket that may straddle a tie stops


def _times(a: Counter, b: Counter) -> Counter:
    """Product of polynomials held as {exponent vector: coefficient}."""
    if len(a) * len(b) > ITERATION_BUDGET:
        raise ResourceLimit(f"{len(a)} x {len(b)} term products exceed "
                            f"ITERATION_BUDGET = {ITERATION_BUDGET}")
    out = Counter()
    for x, c in a.items():
        for y, d in b.items():
            out[tuple(i + j for i, j in zip(x, y))] += c * d
    return out


def _power(poly: Counter, k: int) -> Counter:
    """poly**k by repeated squaring; no product exceeds len(poly)**k terms."""
    if k == 1:
        return poly
    half = _power(_times(poly, poly), k // 2)
    return _times(half, poly) if k % 2 else half


def _value(points: Counter) -> Fraction:
    """sum_z m(z) x**z at x_i = the i-th prime, exactly (z may be negative);
    the k-th prime is below 20 k for every k below 10**7 (Rosser)."""
    k = len(next(iter(points)))
    x = [n for n in range(2, 20 * k) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    return sum(c * math.prod(Fraction(b) ** z for b, z in zip(x, point))
               for point, c in points.items())


class _Brackets:
    """Outward-rounded decimal arithmetic at one precision, with one bracket
    (lo, hi) around -ln v = ln(1/v) for each rational value v in (0, 1).

    ``decimal``'s ln and exp are correctly rounded, so widening each result
    by one unit in the last place brackets the true value; every other
    operation rounds down for a lower bound and up for an upper bound.
    """

    def __init__(self, values, digits: int):
        self.near, self.down, self.up = (
            decimal.Context(prec=digits, rounding=r, Emax=decimal.MAX_EMAX,
                            Emin=decimal.MIN_EMIN)
            for r in (decimal.ROUND_HALF_EVEN, decimal.ROUND_FLOOR,
                      decimal.ROUND_CEILING))
        n = self.near
        self.logs = [(n.next_minus(n.ln(self.down.divide(v.denominator, v.numerator))),
                      n.next_plus(n.ln(self.up.divide(v.denominator, v.numerator))))
                     for v in values]

    def score(self, exponent) -> tuple:
        """(lo, hi) around the score -ln(values**exponent)."""
        lo = hi = decimal.Decimal(0)
        for e, (a, b) in zip(exponent, self.logs):
            lo = self.down.fma(e, a if e >= 0 else b, lo)
            hi = self.up.fma(e, b if e >= 0 else a, hi)
        return lo, hi

    def sign(self, points, x: Fraction) -> int:
        """The sign of sum_z m(z) e^(-x s_z) - 1, for a rational x > 0, over
        the points z with multiplicities m(z) and scores s_z; 0 when the
        bracket holds 0."""
        n, p, q = self.near, x.numerator, x.denominator
        lo = hi = decimal.Decimal(-1)
        for z, m in points.items():
            s_lo, s_hi = self.score(z)
            xs_lo = self.down.divide(self.down.multiply(p, s_lo), q)
            xs_hi = self.up.divide(self.up.multiply(p, s_hi), q)
            lo = self.down.fma(m, n.next_minus(n.exp(xs_hi.copy_negate())), lo)
            hi = self.up.fma(m, n.next_plus(n.exp(xs_lo.copy_negate())), hi)
        return (lo > 0) - (hi < 0)


def _brackets(values, cap: int = DIGITS_CAP):
    """_Brackets for the values at 24 digits, then twice as many each time,
    ending at ``cap`` digits."""
    digits = 24
    while digits < cap:
        yield _Brackets(values, digits)
        digits *= 2
    yield _Brackets(values, cap)


def _walk(vectors, alpha, point_budget, over, bound=None, leaf=None):
    """Word counts of the lattice points reached from 0 by the steps.

    Points are visited in increasing (alpha-score, point) order, after all
    their predecessors, and each inner point adds its count to its
    successors' (0 counts 1).  Successors scoring above ``bound``, when
    given, are not visited; a point other than 0 for which ``leaf`` holds
    is counted but not extended.  Returns {inner point: count} and {leaf
    point: count}, in visiting order; visiting more than ``point_budget``
    points raises ResourceLimit(over).
    """
    steps = [(v, sum(Fraction(a) * x for a, x in zip(alpha, v))) for v in vectors]
    zero = (0,) * len(vectors[0])
    inner, leaves = {}, {}
    pending = {zero: 1}  # queued points, with the counts pushed into them so far
    heap = [(0, zero)]
    while heap:
        sc, z = heapq.heappop(heap)
        if len(inner) + len(leaves) >= point_budget:
            raise ResourceLimit(over)
        # every predecessor scores lower: it was visited, and pushed its count
        m = pending.pop(z)
        if leaf is not None and inner and leaf(z):  # inner is empty only at 0
            leaves[z] = m
            continue
        inner[z] = m
        for v, w in steps:
            nxt = tuple(a + b for a, b in zip(z, v))
            if nxt in pending:
                pending[nxt] += m
            elif bound is None or sc + w <= bound:
                pending[nxt] = m
                heapq.heappush(heap, (sc + w, nxt))
    return inner, leaves
