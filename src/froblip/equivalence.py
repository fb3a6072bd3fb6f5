"""Decision procedures for bi-Lipschitz equivalence of dust-like systems.

Every fact about a pair is read from one pair context, built once per
``decide`` call over a single merged pseudo-basis.  Four stages run in
this order, and the first verdict wins: the invariant screen (common
basis, dimension, rank, cone); the iteration identity P_e**p0 == P_f**q0,
which proves equivalence for any pair; the two-branch decider for rank-1
pairs of two ratios each, the one non-coplanar family decided; and the
coplanar refutations, by the paper's main theorem (see ``decide``).
Dimensions refute only when a rational delta* certifiably lies between
them (``_dimension``).  The polynomial and bracket arithmetic is in
``poly``.  ``decide`` loads no third-party library.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from . import poly
from .cones import cone_separation
from .errors import IncompatibleSymbolicBases, ResourceLimit
from .lattice import coplanar, factor_integer, integer_rank, reduce_to_pseudo_basis
from .record import Record
from .selfsimilar import ContractionSystem, _root, common_basis, iterate

EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"
UNDECIDED = "UNDECIDED"

PERMUTATION_CERT_LIMIT = 10_000


class Verdict(Record):
    _fields = ("result", "reason", "certificate", "diagnostics")

    def __init__(self, result: str, reason: str, certificate: Optional[dict] = None,
                 diagnostics: Optional[dict] = None):
        self._set(result, reason, certificate, diagnostics)


class _Pair(Record):
    """Facts about a pair, computed once.  ``e2``/``f2`` are ``e``/``f``
    over one merged pseudo-basis; ``points_*`` count their exponent points,
    in first-seen order (a repeated point changes no rank, and a repeated
    row of <eta, X_j> = 1 is the same equation)."""

    _fields = ("e", "f", "e2", "f2", "points_e", "points_f", "ranks")

    def __init__(self, e: ContractionSystem, f: ContractionSystem,
                 e2: ContractionSystem, f2: ContractionSystem,
                 points_e: Counter, points_f: Counter, ranks: tuple):
        self._set(e, f, e2, f2, points_e, points_f, ranks)


def _pair(e: ContractionSystem, f: ContractionSystem) -> _Pair:
    """Raises IncompatibleSymbolicBases when the bases cannot be merged."""
    _, e2, f2 = common_basis(e, f)
    points_e, points_f = Counter(e2.exponents), Counter(f2.exponents)
    return _Pair(e, f, e2, f2, points_e, points_f,
                 (integer_rank(list(points_e)), integer_rank(list(points_f))))


def _dimension(pair: _Pair) -> Optional[Verdict]:
    """NOT_EQUIVALENT ``dimension`` when a rational delta* certifiably lies
    between the two dimensions: F(delta) = sum_z m(z) b**(delta z) - 1 over
    a side's points z with multiplicities m(z) decreases through 0 at its
    dimension, and decimal brackets give F(delta*) opposite signs on the
    two sides.  The certificate holds both float roots and delta*.

    The float roots only place delta*, at the shortest decimal between
    them; equal floats, agreeing signs and signs still open at DIGITS_CAP
    digits (delta* may be a rational root) pass the pair on.  Numeric
    pairs use the merged basis b.  A symbolic pair whose points span rank
    1 takes every generator as 1/2: its ratios are then powers t**a_z of
    one t in (0, 1), and x = t**delta, the root of sum_z x**a_z = 1, orders
    the dimensions alike for every t.  Other symbolic pairs pass, as do
    exponents past the float range.
    """
    e, f = pair.e2, pair.f2
    if e.is_symbolic:
        if integer_rank([*pair.points_e, *pair.points_f]) != 1:
            return None
        values = (Fraction(1, 2),) * e.dim
        try:
            roots = [_root([-sum(z) * math.log(2) for z in side.exponents])
                     for side in (e, f)]
        except OverflowError:
            return None
    else:
        values, roots = e.basis.values, [e.delta, f.delta]
    lo, hi = sorted(roots)
    if lo == hi:
        return None
    delta = next((x for x in (Fraction(f"{(lo + hi) / 2:.{n}g}") for n in range(1, 18))
                  if lo < x < hi), (Fraction(lo) + Fraction(hi)) / 2)
    for br in poly._brackets(values):
        signs = [br.sign(points, delta) for points in (pair.points_e, pair.points_f)]
        if 0 not in signs:
            break
    if signs[0] * signs[1] != -1:
        return None
    return Verdict(NOT_EQUIVALENT, "dimension",
                   {"invariant": "dimension", "values": roots,
                    "delta_star": f"{delta.numerator}/{delta.denominator}"})


def _screen(e: ContractionSystem, f: ContractionSystem):
    """(pair context or None, first failing invariant's verdict or None)."""
    try:
        pair = _pair(e, f)
    except IncompatibleSymbolicBases:
        return None, Verdict(UNDECIDED, "NO_COMMON_BASIS")
    verdict = _dimension(pair)
    if verdict is not None:
        return pair, verdict
    rank_e, rank_f = pair.ranks
    if rank_e != rank_f:
        return pair, Verdict(NOT_EQUIVALENT, "rank",
                             {"invariant": "rank", "values": [rank_e, rank_f]})
    separation = cone_separation(pair.e2.cone, pair.f2.cone)
    if separation is not None:
        side, y, j = separation
        return pair, Verdict(NOT_EQUIVALENT, "cone",
                             {"invariant": "cone",
                              "values": [list(map(list, pair.e2.exponents)),
                                         list(map(list, pair.f2.exponents))],
                              "functional": {"side": side, "y": list(y),
                                             "point": j}})
    return pair, None


def screen_invariants(e: ContractionSystem,
                      f: ContractionSystem) -> Optional[Verdict]:
    """Necessary-invariant screen; first failing invariant wins.

    Checks, in order: a common pseudo-basis (UNDECIDED without one),
    Hausdorff dimension (see ``_dimension``), rank and cone equality.
    Returns None when all pass.  A dimension refutation's certificate
    holds a rational ``delta_star`` ("p/q") strictly between the two
    dimensions.  A cone refutation's certificate holds
    both sides' exponent vectors in ``values`` and a separating integer
    functional in ``functional``: ``{"side": i, "y": y, "point": j}``
    with ``y . X >= 0`` for every X in ``values[i]`` and
    ``y . values[1 - i][j] < 0``.
    """
    return _screen(e, f)[1]


def _two_branch(pair: _Pair) -> Optional[Verdict]:
    """Complete decider for rank-1 pairs with m = n = 2: permutation
    (already ruled out by ``decide``), or the one exceptional pair of
    exponent patterns {c, 5c} vs {2c, 3c} over the same rank-1 group."""
    e, f = pair.e, pair.f
    if pair.ranks != (1, 1) or e.m != 2 or f.m != 2:
        return None
    if e.dim == 1 and f.dim == 1 and e.basis == f.basis:
        a = sorted(v[0] for v in e.exponents)
        b = sorted(v[0] for v in f.exponents)
        for x, y in ((a, b), (b, a)):
            c = x[0]
            if c >= 1 and x == [c, 5 * c] and y == [2 * c, 3 * c]:
                return Verdict(EQUIVALENT, "TWO_BRANCH_SPECIAL",
                               {"tag": "TWO_BRANCH_SPECIAL"})
    return Verdict(NOT_EQUIVALENT, "two_branch",
                   {"invariant": "two_branch", "values": []})


def _primitive_root(n: int):
    """(root, exponent) with n == root**exponent and root not a perfect power,
    for every n: no two factor_integer factors share a prime, none is a power."""
    fac = factor_integer(n)
    g = math.gcd(*fac.values())
    return math.prod(p ** (exp // g) for p, exp in fac.items()), g


def iteration_orders(m: int, n: int) -> Optional[tuple]:
    """The smallest (p, q) with m**p == n**q, or None when there is none.

    m**p == n**q forces m = r**a and n = r**b for the one primitive root
    r of both, and then a*p == b*q: every solution is t*(p0, q0) with
    g = gcd(a, b), p0 = b/g and q0 = a/g.
    """
    rm, a = _primitive_root(m)
    rn, b = _primitive_root(n)
    if rm != rn:
        return None
    g = math.gcd(a, b)
    return b // g, a // g


def _permutation_witness(e: ContractionSystem, f: ContractionSystem,
                         p: int, q: int):
    """Index map from the p-th iteration of ``e`` onto equal ratios of the
    q-th iteration of ``f``; always given for p = 1, else None past
    PERMUTATION_CERT_LIMIT ratios (a checker then compares ratio multisets)."""
    if p > 1 and e.m ** p > PERMUTATION_CERT_LIMIT:
        return None
    buckets = {}
    for j, r in reversed(list(enumerate(iterate(f, q).ratios))):
        buckets.setdefault(r, []).append(j)
    return tuple(buckets[r].pop() for r in iterate(e, p).ratios)


def _gamma_diagnostics(pair: _Pair) -> dict:
    """Both sides' growth rates (``growth.gamma``) along the centroid of
    e's points, over one joint basis.  The exact sum of the points is the
    direction, so a centroid on a face of the cone stays on it."""
    from .frobenius import _unit, make_defining_data
    from .growth import gamma

    e2, f2 = pair.e2, pair.f2
    _, joint = reduce_to_pseudo_basis(
        e2.basis, list(e2.exponents) + list(f2.exponents))
    ve, vf = joint[: e2.m], joint[e2.m:]
    centroid = [sum(column) for column in zip(*ve)]
    ge = gamma(make_defining_data(ve), centroid)
    gf = gamma(make_defining_data(vf), centroid)
    return {"theta": list(_unit(centroid)), "gamma_e": ge, "gamma_f": gf,
            "gap": abs(ge - gf)}


def decide(e: ContractionSystem, f: ContractionSystem,
           diagnostics: bool = False) -> Verdict:
    """Full decision pipeline, in the four stages of the module docstring.

    The paper's main theorem: a coplanar pair is Lipschitz equivalent iff
    P_e**p == P_f**q for some p, q and P = sum_j x**X_j over the common
    basis (the p-th iteration of e permutes the q-th of f).  Then m**p ==
    n**q, so (p, q) = t*(p0, q0) (``iteration_orders``); and A**t == B**t
    for A = P_e**p0, B = P_f**q0 makes A/B a root of unity in Q(x), so +-1,
    and positive coefficients force A == B.  So only (p0, q0) is checked.
    Unequal values of A and B at a point of primes (``poly._value``) refute
    it with no budget; equal values prove nothing and lead to the expansion,
    UNDECIDED SEARCH_BOUND past ITERATION_BUDGET term products.  A coplanar
    pair that fails it is NOT_EQUIVALENT, NO_ITERATION_CARDINALITY when
    m**p == n**q has no solution.  Rank-1 pairs of two ratios each, not
    coplanar unless a side repeats its ratio, go to ``_two_branch`` first.

    Special cases need no stage of their own: equal ratio multisets are the
    identity at (1, 1); axis-supported points (one value c_i on each axis
    i) and independent points are coplanar (eta_i = 1/c_i, or appending
    the column of ones to independent rows keeps them independent), and a
    full-rank pair has m == n after the rank screen, so (1, 1) leaves only
    permutation.
    """
    pair, verdict = _screen(e, f)
    if verdict is not None:
        return verdict
    orders = iteration_orders(e.m, f.m)
    if orders is not None:
        p, q = orders
        try:
            holds = (poly._value(pair.points_e) ** p == poly._value(pair.points_f) ** q
                     and poly._power(pair.points_e, p) == poly._power(pair.points_f, q))
        except ResourceLimit:
            return Verdict(UNDECIDED, "SEARCH_BOUND",
                           {"p": p, "q": q, "budget": poly.ITERATION_BUDGET})
        if holds:
            return Verdict(EQUIVALENT, "ITERATION_PERMUTATION",
                           {"p": p, "q": q,
                            "permutation": _permutation_witness(e, f, p, q)})
    verdict = _two_branch(pair)
    if verdict is not None:
        return verdict
    if coplanar(list(pair.points_e)) and coplanar(list(pair.points_f)):
        # the main theorem: no iterations permute each other
        if orders is None:
            return Verdict(NOT_EQUIVALENT, "NO_ITERATION_CARDINALITY",
                           {"invariant": "NO_ITERATION_CARDINALITY",
                            "values": [e.m, f.m]})
        return Verdict(NOT_EQUIVALENT, "NO_ITERATION_PERMUTATION",
                       {"p": orders[0], "q": orders[1]})
    diag = _gamma_diagnostics(pair) if diagnostics else None
    return Verdict(UNDECIDED, "OUTSIDE_DECIDABLE_FAMILIES", None, diag)
