"""Lattice-path counting for defining data in an open half-space.

The central object is the multiplicity table: for integer step vectors
X_1..X_m with X_j . alpha > 0, the number of words over {1..m} whose step
sum reaches a lattice point z.  Counts are exact big integers, the
coefficients of 1 / (1 - P) that ``poly._walk`` expands; the same walk,
with points at a threshold counted but not extended, gives
``selfsimilar``'s cut-sets.  Off the lattice, counts extend by the
nearest-point rule, searched exactly in lattice boxes around the query.
Query points and directions are read exactly as given (a float is the
rational it stores), so cone membership, minimal faces and nearest
points are integer tests of the caller's own input.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .cones import Cone, _integral, _primitive, cone_member, half_space_certificate
from .errors import (
    DirectionOutsideCone,
    FroblipError,
    GcdNotOne,
    QueryOutOfRange,
    ResourceLimit,
)
from .poly import _walk
from .record import Record

R_CAP = 8  # nearest-point search radius cap (Euclidean)
DEFAULT_POINT_BUDGET = 2_000_000
K_COUNT_CAP = 10_000  # radii an empirical growth estimate samples at most


class DefiningData(Record):
    """Integer step vectors together with a strict half-space certificate."""

    _fields = ("vectors", "alpha")

    def __init__(self, vectors: tuple, alpha: tuple):
        for v in vectors:
            if sum(Fraction(a) * x for a, x in zip(alpha, v)) <= 0:
                raise FroblipError(f"vector {v} violates the half-space condition")
        self._set(vectors, alpha)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    @cached_property
    def cone(self) -> Cone:
        """The cone of the vectors, kept so that its facets are computed
        once."""
        return Cone(tuple(self.vectors))

    @cached_property
    def _in_cone(self) -> dict:
        """{primitive integer ray: whether the cone holds it}, for
        ``direction``."""
        return {}

    def direction(self, theta: Sequence) -> tuple:
        """``_unit(theta)``, or DirectionOutsideCone when the exact ray of
        theta is outside the cone; each ray is tested once, however many
        estimates ask."""
        th = _unit(theta)
        ray = _primitive(_integral(theta))
        if ray not in self._in_cone:
            self._in_cone[ray] = cone_member(ray, self.cone)
        if not self._in_cone[ray]:
            raise DirectionOutsideCone(f"direction {th} outside the cone")
        return th

    def score(self, x: Sequence) -> Fraction:
        return sum(Fraction(a) * Fraction(x_i) for a, x_i in zip(self.alpha, x))


def make_defining_data(vectors: Sequence[Sequence[int]],
                       alpha: Optional[Sequence] = None) -> DefiningData:
    """Assemble defining data, deriving a rational certificate when absent."""
    vecs = tuple(tuple(map(int, v)) for v in vectors)
    if alpha is None:
        alpha = half_space_certificate(Cone(vecs))
    return DefiningData(vecs, tuple(Fraction(a) for a in alpha))


class MultiplicityTable(Record):
    """Exact path counts over the truncated region z . alpha <= bound."""

    _fields = ("data", "bound", "counts")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, data: DefiningData, bound: Fraction, counts: dict):
        self._set(data, bound, counts)

    def __repr__(self):
        return f"MultiplicityTable(data={self.data!r}, bound={self.bound!r})"

    @cached_property
    def fully_determined_bound(self) -> Fraction:
        """Score level below which nearest-point queries are safe.

        Leaves room for the R_CAP search ball so that no relevant lattice
        point can be missing from the table.
        """
        alpha_norm = math.sqrt(sum(float(a) ** 2 for a in self.data.alpha))
        margin = Fraction(math.ceil(R_CAP * alpha_norm + 1))
        return self.bound - margin

    @cached_property
    def _determined(self) -> tuple:
        """alpha as integers over the lcm of its denominators, and
        fully_determined_bound times that lcm: a point num / den is safe
        to query when alpha . num <= that bound times den."""
        scale = math.lcm(*(Fraction(a).denominator for a in self.data.alpha))
        return (tuple(int(a * scale) for a in self.data.alpha),
                self.fully_determined_bound * scale)


def build_multiplicity(data: DefiningData, bound,
                       point_budget: int = DEFAULT_POINT_BUDGET) -> MultiplicityTable:
    """Exact DP over lattice points with z . alpha <= bound."""
    bound = Fraction(bound)
    if bound <= 0:
        raise FroblipError("bound must be positive")
    over = (f"multiplicity table exceeded {point_budget} lattice points (raise "
            f"point_budget; default DEFAULT_POINT_BUDGET = {DEFAULT_POINT_BUDGET})")
    counts, _ = _walk(data.vectors, data.alpha, point_budget, over, bound)
    return MultiplicityTable(data, bound, counts)


def multiplicity_at(table: MultiplicityTable, x: Sequence) -> int:
    """Multiplicity at x, extended off-lattice by the nearest-point rule.

    Lattice points of the semigroup return their exact count; any other
    point in the cone returns the minimum count among the nearest semigroup
    points.  The search looks up the lattice points in boxes of half-width
    1, 2, 4, R_CAP around x and stops at the first box holding a table
    point within that half-width (no point outside the box is as near);
    squared distances are exact integers over x's common denominator (a
    float coordinate is the rational it stores).
    """
    xs = tuple(Fraction(v) for v in x)
    den = math.lcm(*(v.denominator for v in xs))
    num = [int(v * den) for v in xs]
    alpha, limit = table._determined
    score = sum(a * n for a, n in zip(alpha, num))
    if score * limit.denominator > limit.numerator * den:
        raise QueryOutOfRange("query beyond the table's determined region")
    for r in (1, 2, 4, R_CAP):
        reach = r * den  # the lattice points within r of x in every coordinate
        box = itertools.product(*(range(-((reach - n) // den), (n + reach) // den + 1)
                                  for n in num))
        near = [(d2, table.counts[z]) for z in box if z in table.counts and
                (d2 := sum((zi * den - n) ** 2 for zi, n in zip(z, num))) <= reach * reach]
        if near:
            return min(near)[1]
    raise QueryOutOfRange("no semigroup point within the search radius")


def log_big(n: int) -> float:
    """Natural log of a positive big integer, relative error < 1e-12."""
    if n <= 0:
        raise FroblipError("log_big needs a positive integer")
    shift = max(n.bit_length() - 53, 0)
    return math.log(n >> shift) + shift * math.log(2)


class GrowthEstimate(Record):
    """OLS estimate of the exponential growth of counts along a ray;
    ``samples`` holds (k, log m(k theta)) pairs at increasing k."""

    _fields = ("theta", "gamma_hat", "samples", "stderr")

    def __init__(self, theta: tuple, gamma_hat: float, samples: tuple, stderr: float):
        self._set(theta, gamma_hat, samples, stderr)


def _unit(theta: Sequence) -> tuple:
    """theta scaled to unit length, in floats; a direction without a
    finite nonzero length raises FroblipError.  The components are divided
    exactly by the largest magnitude first, so that no square underflows
    or overflows, and a float quotient is the one float division gives."""
    try:
        exact = [Fraction(t) for t in theta]
    except (ValueError, OverflowError):  # nan or inf
        exact = []
    big = max(map(abs, exact), default=0)
    if not big:
        raise FroblipError(f"direction ({', '.join(map(str, theta))}) has no "
                           f"finite nonzero length")
    th = tuple(float(t / big) for t in exact)
    norm = math.sqrt(sum(t ** 2 for t in th))
    return tuple(t / norm for t in th)


def _check_radii(k_max: float, k_count: int = 2):
    """Raise FroblipError unless 0 < k_max / 16, k_max < inf and
    k_count >= 2 (the smallest radius is k_max / 16, and its log is taken),
    and ResourceLimit for k_count above K_COUNT_CAP."""
    if not (0 < k_max / 16.0 and k_max < math.inf and k_count >= 2):
        raise FroblipError(f"need 0 < k_max / 16, k_max < inf and k_count >= 2, "
                           f"got k_max={k_max}, k_count={k_count}")
    if k_count > K_COUNT_CAP:
        raise ResourceLimit(f"k_count {k_count} exceeds K_COUNT_CAP = {K_COUNT_CAP}")


def gamma_table_bound(data: DefiningData, theta: Sequence,
                      k_max: float = 120.0) -> Fraction:
    """Table bound at which every estimate_gamma query along theta up to
    k_max is determined; any larger bound gives the same answers.  The
    score is clamped at 0 so that a direction outside the cone, which
    estimate_gamma rejects, still gets a valid bound."""
    _check_radii(k_max)
    theta_score = max(float(data.score(_unit(theta))), 0.0)
    alpha_norm = math.sqrt(sum(float(a) ** 2 for a in data.alpha))
    max_step = float(max(data.score(v) for v in data.vectors))
    return Fraction(math.ceil(k_max * theta_score + R_CAP * alpha_norm + max_step + 2))


def estimate_gamma(data: DefiningData, theta: Sequence,
                   k_max: float = 120.0, k_count: int = 12,
                   table: Optional[MultiplicityTable] = None,
                   point_budget: int = DEFAULT_POINT_BUDGET) -> GrowthEstimate:
    """Empirical directional growth rate: slope of log count versus k.

    Samples k_count geometrically spaced radii up to k_max and fits an
    ordinary least-squares line; the slope estimator suppresses the
    O(log k / k) bias of polynomial prefactors in the counts.  Boundary
    directions are accepted (with slower convergence).  Without a table,
    one is built at ``gamma_table_bound``; a given table must reach it.
    """
    _check_radii(k_max, k_count)
    th = data.direction(theta)
    # the radii of np.geomspace(k_max / 16, k_max, k_count): even steps in
    # log10, both endpoints pinned
    lo = math.log10(k_max / 16.0)
    step = (math.log10(k_max) - lo) / (k_count - 1)
    ks = [k_max / 16.0] + [10.0 ** (i * step + lo) for i in range(1, k_count - 1)] + [k_max]
    if table is None:
        table = build_multiplicity(data, gamma_table_bound(data, theta, k_max),
                                   point_budget)
    samples = tuple((k, log_big(multiplicity_at(table, tuple(k * t for t in th))))
                    for k in ks)
    # closed-form least-squares line, fitted against k / k_max in
    # [1/16, 1] so that no square underflows or overflows
    us = [k / k_max for k in ks]
    ys = [y for _, y in samples]
    u_mean, y_mean = math.fsum(us) / k_count, math.fsum(ys) / k_count
    suu = math.fsum((u - u_mean) ** 2 for u in us)
    slope = math.fsum((u - u_mean) * (y - y_mean) for u, y in zip(us, ys)) / suu
    sse = math.fsum((y - y_mean - slope * (u - u_mean)) ** 2 for u, y in zip(us, ys))
    stderr = math.sqrt(sse / max(k_count - 2, 1) / suu) / k_max
    slope /= k_max
    return GrowthEstimate(th, max(slope, 0.0), samples, stderr)


def frobenius_number_1d(a: Sequence[int]) -> int:
    """Classical Frobenius number, by shortest paths over the residues
    mod a_1 = min(a) (Nijenhuis 1979), relaxed round-robin (Boecker and
    Liptak 2007): n[r] is the least representable number = r mod a_1, and
    g = max(n) - a_1.  O(m a_1) time, O(a_1) memory; a_1 above
    DEFAULT_POINT_BUDGET raises ResourceLimit.

    Returns -1 when 1 is among the generators (every natural number is
    representable, and the convention (g+1+N) within the semigroup gives
    g = -1).
    """
    a = [int(v) for v in a]
    if len(a) < 2 or any(v < 1 for v in a) or all(v < 2 for v in a):
        raise FroblipError("need m >= 2 positive integers, some >= 2")
    g = math.gcd(*a)
    if g != 1:
        raise GcdNotOne(f"gcd of {a} is {g}")
    a1 = min(a)
    if a1 > DEFAULT_POINT_BUDGET:
        raise ResourceLimit(f"smallest generator {a1} exceeds the budget of "
                            f"{DEFAULT_POINT_BUDGET} residues (DEFAULT_POINT_BUDGET)")
    n = [0] + [math.inf] * (a1 - 1)
    for v in a:
        d = math.gcd(a1, v)
        for p in range(d):  # each residue class mod d is one cycle of +v
            best = min(n[p::d])
            if best == math.inf:
                continue
            for _ in range(a1 // d):
                best += v
                r = best % a1
                best = n[r] = min(best, n[r])
    return max(n) - a1
