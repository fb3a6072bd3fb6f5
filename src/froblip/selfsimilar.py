"""Contraction systems: dimension, iteration, cut-sets and matchability.

A contraction system packages a vector of similarity ratios with its exact
exponent-lattice coordinates: a pseudo-basis, integer exponent vectors, a
rational half-space certificate, and (for numeric ratios) the Hausdorff
dimension from the dimension equation sum rho_j^delta = 1.  Cut-set
thresholds, e^{-k} among them, split the words exactly, with no tolerance.
Cut-sets, as words or as counts per exponent point, come from the lattice
walk of ``poly``, with the points at or below the threshold as leaves; a
score that floats cannot place is compared in ``poly``'s decimal brackets.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from . import flows
from .cones import Cone, half_space_certificate
from .errors import FroblipError, IncompatibleSymbolicBases, ResourceLimit
from .lattice import (
    Monomial,
    PseudoBasis,
    factor_rationals,
    parse_rational,
    reduce_to_pseudo_basis,
)
from .poly import ITERATION_BUDGET, _Brackets, _walk
from .record import Record

SCORE_ERR = 2.0 ** -45  # float e^{-k} score error per unit of k and denominator bit
K_CAP = Fraction(2 ** 1000)  # stands in for a larger k (no float) in the float test
DEFAULT_WORD_BUDGET = 500_000
WITNESS_BUDGET = 2000  # words per cut-set up to which matchable builds a witness


class ExpThreshold(Record):
    """Threshold e^{-k}; for symbolic rank-1 systems this is the exponent
    level k directly (the generator plays the role of 1/e)."""

    _fields = ("k",)

    def __init__(self, k: Fraction):
        k = Fraction(k)
        if k <= 0:
            raise FroblipError("threshold exponent must be positive")
        self._set(k)


Threshold = Union[Fraction, ExpThreshold]


class ContractionSystem(Record):
    _fields = ("ratios", "basis", "exponents", "delta", "alpha")

    def __init__(self, ratios: tuple, basis: PseudoBasis, exponents: tuple,
                 delta: Optional[float], alpha: tuple):
        self._set(ratios, basis, exponents, delta, alpha)

    @property
    def m(self) -> int:
        return len(self.ratios)

    @property
    def dim(self) -> int:
        return self.basis.size

    @property
    def is_symbolic(self) -> bool:
        return not self.basis.is_numeric

    def word_exponent(self, word: Sequence[int]) -> tuple:
        """Summed exponent vector of a 1-based word over the alphabet."""
        s = self.dim
        acc = [0] * s
        for letter in word:
            for i, e in enumerate(self.exponents[letter - 1]):
                acc[i] += e
        return tuple(acc)

    def word_ratio(self, word: Sequence[int]):
        r = self.ratios[word[0] - 1]
        for letter in word[1:]:
            r = r * self.ratios[letter - 1]
        return r

    @cached_property
    def cone(self) -> Cone:
        """The cone of the exponents, kept so that its facets are computed
        once."""
        return Cone(tuple(self.exponents))


def _root(logs: Sequence[float]) -> float:
    """Unique delta > 0 with sum_j exp(delta * logs_j) == 1, for logs < 0.

    The largest term enters as expm1, so that a term near 1 keeps its
    distance from 1.  The left side is convex and decreasing in delta, so
    Newton's steps from 0 rise to the root; they stop when they stop
    rising."""
    top = max(range(len(logs)), key=logs.__getitem__)
    if logs[top] == 0:
        raise FroblipError("a ratio is too close to 1 for a float dimension")
    rest = logs[:top] + logs[top + 1:]
    d = 0.0
    while True:
        f = math.expm1(d * logs[top]) + math.fsum(math.exp(d * lg) for lg in rest)
        nxt = d - f / math.fsum(math.exp(d * lg) * lg for lg in logs)
        if not nxt > d:
            return d
        d = nxt


def hausdorff_dimension(ratios: Sequence[Fraction]) -> float:
    """Unique delta > 0 with sum ratios**delta == 1, as a float.

    log r comes from the exact 1 - r (log1p) for r > 1/2, else from r's
    numerator and denominator, so that ratios near 1 and ratios whose
    floats underflow keep their digits; see ``_root``."""
    if len(ratios) < 2 or any(not 0 < r < 1 for r in ratios):
        raise FroblipError("need m >= 2 ratios in (0,1)")
    return _root([math.log1p(-float(1 - r)) if 2 * r > 1 else
                  math.log(r.numerator) - math.log(r.denominator) for r in ratios])


def _parse_ratio_value(spec):
    if isinstance(spec, str):
        return parse_rational(spec)
    if isinstance(spec, (Fraction, Monomial)):
        return spec
    if isinstance(spec, (int, float)):
        raise FroblipError(
            "ratios must be exact rationals or formal monomials, not floats"
        )
    raise FroblipError(f"unsupported ratio spec {spec!r}")


def _generators(values) -> list:
    return sorted({g for v in values for g in v.generators})


def _coordinates(values):
    """(basis, vectors) over the reciprocal coprime base or the generators."""
    if not isinstance(values[0], Monomial):
        return factor_rationals(values)
    gens = _generators(values)
    basis = PseudoBasis(tuple(Monomial.generator(g) for g in gens))
    return basis, [tuple(v.as_dict().get(g, 0) for g in gens) for v in values]


def build_system(ratios: Sequence) -> ContractionSystem:
    """Assemble a contraction system from exact ratio specs.

    Rational ratios are factored over a reciprocal coprime base; monomial
    ratios use their named generators.  The basis is then reduced to the exact
    rank of the ratio group, a rational half-space certificate is computed,
    and (numeric case) the Hausdorff dimension is solved.
    """
    values = [_parse_ratio_value(r) for r in ratios]
    if len(values) < 2:
        raise FroblipError("a contraction system needs m >= 2 ratios")
    kinds = {isinstance(v, Monomial) for v in values}
    if len(kinds) > 1:
        raise FroblipError("cannot mix rational and symbolic ratios")
    if kinds == {True}:
        for v in values:
            d = v.as_dict()
            if not d or any(e < 0 for e in d.values()):
                raise FroblipError(
                    f"monomial ratio {v} must have nonnegative, not all zero exponents"
                )
    basis, vectors = _coordinates(values)
    delta = None if kinds == {True} else hausdorff_dimension(values)
    basis, vectors = reduce_to_pseudo_basis(basis, vectors)
    alpha = half_space_certificate(Cone(tuple(vectors)))
    return ContractionSystem(tuple(values), basis, tuple(vectors), delta, alpha)


def iterate(system: ContractionSystem, p: int,
            budget: int = ITERATION_BUDGET) -> ContractionSystem:
    """The p-th iteration: all length-p products, lexicographic word order.

    The dimension carries over unchanged: sum_w r_w^delta over the words
    of length p is (sum_j r_j^delta)^p = 1."""
    if p < 1:
        raise FroblipError("iteration order must be >= 1")
    if system.m ** p > budget:
        raise ResourceLimit(f"iteration produces {system.m ** p} ratios, above {budget} "
                            f"(raise budget; default ITERATION_BUDGET = {ITERATION_BUDGET})")
    if p == 1:
        return system
    ratios = []
    exponents = []
    for word in itertools.product(range(1, system.m + 1), repeat=p):
        ratios.append(system.word_ratio(word))
        exponents.append(system.word_exponent(word))
    return ContractionSystem(tuple(ratios), system.basis, tuple(exponents),
                             system.delta, system.alpha)


def _exceeds_exp(basis: PseudoBasis, exponent, k: Fraction) -> bool:
    """Whether basis**exponent < e^{-k}, for a numeric basis and k > 0.

    Its score -ln(basis**exponent) is irrational (Lindemann-Weierstrass)
    unless it is 0, so some bracket of the score leaves k.  The brackets,
    at twice the digits each time, are kept in ``basis.log_brackets``."""
    known = basis.log_brackets
    for i in itertools.count():
        if i == len(known):
            known.append(_Brackets(basis.values, 24 << i))
        lo, hi = known[i].score(exponent)
        if lo > k or hi < k:
            return lo > k


def _ratio_below(system: ContractionSystem, exponent, t: Threshold) -> bool:
    """Exact decision of basis**exponent <= t."""
    if isinstance(t, Fraction):
        if system.is_symbolic:
            raise FroblipError("rational thresholds need a numeric system")
        return system.basis.eval_exact(exponent) <= t
    if isinstance(t, ExpThreshold):
        if system.is_symbolic:
            if system.dim != 1:
                raise FroblipError(
                    "exponent thresholds on symbolic systems need rank 1"
                )
            return Fraction(exponent[0]) >= t.k
        basis, kf = system.basis, float(min(t.k, K_CAP))
        score = math.fsum(e * a for e, a in zip(exponent, basis.alpha_real))
        margin = SCORE_ERR * (kf + sum(abs(e) * b for e, b in
                                       zip(exponent, basis.denominator_bits)))
        if abs(score - kf) > margin and (score < kf or t.k < K_CAP):
            return score > kf
        return _exceeds_exp(basis, exponent, t.k)
    raise FroblipError(f"unsupported threshold {t!r}")


class CutSet(Record):
    """Maximal antichain of words whose ratio first drops to <= t."""

    _fields = ("threshold", "words", "ratios", "exponents")

    def __init__(self, threshold: Threshold, words: tuple, ratios: tuple,
                 exponents: tuple):
        self._set(threshold, words, ratios, exponents)


def cut_set(system: ContractionSystem, t: Threshold,
            word_budget: int = DEFAULT_WORD_BUDGET) -> CutSet:
    """The cut-set at threshold t, in lexicographic word order.

    Each word w has ratio(w) <= t < ratio(parent of w).  The lattice walk
    counts the words at every point first, comparing each point with t
    once; past ``word_budget`` words nothing is built.  The cut-set is a
    full m-ary tree's leaves, so N words lie on at most 2N - 1 points, and
    the walk stops past 2 * word_budget.  The words are then read off the
    prefix points, letters in increasing order.
    """
    over = (f"cut-set exceeds {word_budget} words (raise word_budget; "
            f"default DEFAULT_WORD_BUDGET = {DEFAULT_WORD_BUDGET})")
    _, cut = _walk(system.exponents, system.alpha, 2 * word_budget, over,
                   leaf=lambda z: _ratio_below(system, z, t))
    if sum(cut.values()) > word_budget:
        raise ResourceLimit(over)
    words, exps = _cut_words(system, cut)
    return CutSet(t, words, tuple(map(system.word_ratio, words)), exps)


def _cut_words(system: ContractionSystem, cut: dict):
    """(words, points) of the cut-set at ``cut``'s points, in word order."""
    found = []  # every child of a prefix point is a prefix or a cut point
    stack = [((), (0,) * system.dim)]
    while stack:
        word, z = stack.pop()
        if z in cut:
            found.append((word, z))
            continue
        for letter in range(system.m, 0, -1):
            step = system.exponents[letter - 1]
            stack.append((word + (letter,), tuple(a + b for a, b in zip(z, step))))
    return tuple(zip(*found))


def cut_multiset(system: ContractionSystem, t: Threshold,
                 point_budget: int = DEFAULT_WORD_BUDGET) -> dict:
    """Cut-set aggregated per lattice point: {exponent point: word count}.

    Counts come from the lattice walk (no word enumeration), so deep
    thresholds with astronomically many words stay cheap: only lattice
    points are visited.
    """
    return _walk(system.exponents, system.alpha, point_budget,
                 f"cut-set point budget exceeded: over {point_budget} points (raise "
                 f"point_budget; default DEFAULT_WORD_BUDGET = {DEFAULT_WORD_BUDGET})",
                 leaf=lambda z: _ratio_below(system, z, t))[1]


def common_basis(a: ContractionSystem, b: ContractionSystem):
    """Re-express two systems over one merged pseudo-basis.

    Numeric systems get the reciprocal coprime base of all their ratios,
    exponents re-derived from the ratios; symbolic systems must share the
    same named generators.
    """
    if a.is_symbolic != b.is_symbolic:
        raise IncompatibleSymbolicBases(
            "cannot merge numeric and symbolic systems"
        )
    gens = [_generators(s.ratios) for s in (a, b) if s.is_symbolic]
    if gens and gens[0] != gens[1]:
        raise IncompatibleSymbolicBases(
            f"generators {gens[0]} vs {gens[1]} have no known relation")
    basis, vectors = _coordinates(a.ratios + b.ratios)
    va, vb = vectors[: a.m], vectors[a.m:]
    alpha = half_space_certificate(Cone(tuple(va) + tuple(vb)))
    a2 = ContractionSystem(a.ratios, basis, tuple(va), a.delta, alpha)
    b2 = ContractionSystem(b.ratios, basis, tuple(vb), b.delta, alpha)
    return basis, a2, b2


class MatchReport(Record):
    _fields = ("feasible", "m0", "relation_size", "witness")

    def __init__(self, feasible: bool, m0: int, relation_size: Optional[int],
                 witness: Optional[tuple]):
        self._set(feasible, m0, relation_size, witness)


def _matcher(e: ContractionSystem, f: ContractionSystem, t: Threshold,
             witness_budget: int = WITNESS_BUDGET):
    """``m0 -> MatchReport``, over one merged basis and one pair of cut
    multisets computed here once; each call solves one flow.  A witness's
    words are read off the same cut multisets."""
    _, e2, f2 = common_basis(e, f)
    left = cut_multiset(e2, t)
    right = cut_multiset(f2, t)
    if not left or not right:
        raise FroblipError("empty cut-set")
    small = max(sum(left.values()), sum(right.values())) <= witness_budget

    def match(m0: int) -> MatchReport:
        m0_sq = m0 * m0

        def allowed(z, w):
            return sum((x - y) ** 2 for x, y in zip(z, w)) <= m0_sq

        pairs = flows.degree_constrained_relation(left, right, allowed, m0)
        if pairs is None:
            return MatchReport(False, m0, None, None)
        witness = None
        if small:
            (words_e, exps_e), (words_f, exps_f) = (_cut_words(e2, left),
                                                    _cut_words(f2, right))
            rel = flows.degree_constrained_relation(
                dict.fromkeys(range(len(words_e)), 1),
                dict.fromkeys(range(len(words_f)), 1),
                lambda i, j: allowed(exps_e[i], exps_f[j]), m0)
            if rel is not None:
                witness = tuple((words_e[i], words_f[j]) for i, j in sorted(rel))
        return MatchReport(True, m0, sum(pairs.values()), witness)

    return match


def matchable(e: ContractionSystem, f: ContractionSystem, t: Threshold,
              m0: int, witness_budget: int = WITNESS_BUDGET) -> MatchReport:
    """Feasibility of a degree-[1, m0] relation between the two cut-sets
    with exponent distance at most m0 on every related pair.

    Decided on the per-lattice-point aggregation (words at one point are
    interchangeable; the underlying flow matrix is totally unimodular, so
    aggregated feasibility equals word-level feasibility).  A word-level
    witness is extracted when both cut-sets are small enough.
    """
    if m0 < 1:
        raise FroblipError("m0 must be >= 1")
    return _matcher(e, f, t, witness_budget)(m0)


def matchable_search(e: ContractionSystem, f: ContractionSystem, t: Threshold,
                     m0_limit: int = 64) -> MatchReport:
    """The first feasible m0 among 1, 2, 4, ... up to ``m0_limit``.

    Doubling only, so a smaller m0 above the last infeasible probe may
    also be feasible.  The cut multisets are computed once for all probes.
    When no probe is feasible, the last probe's report is returned.
    """
    if m0_limit < 1:
        raise FroblipError("m0_limit must be >= 1")
    match = _matcher(e, f, t)
    m0 = 1
    report = None
    while m0 <= m0_limit:
        report = match(m0)
        if report.feasible:
            return report
        m0 *= 2
    return report
