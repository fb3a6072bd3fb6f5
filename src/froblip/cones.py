"""Exact rational conical-hull geometry.

Membership, cone equality, strict half-space certificates and coplanarity
functionals, all decided by exact rational linear algebra.  Generators are
integer exponent vectors; since the data is integral, rational and real
feasibility coincide for every question asked here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import ratlp
from .errors import DimensionMismatch, FroblipError, NoHalfSpace


@dataclass(frozen=True)
class Cone:
    """Conical hull of a nonempty multiset of integer generators."""

    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise FroblipError("cone needs at least one generator")
        s = len(self.generators[0])
        for g in self.generators:
            if len(g) != s:
                raise DimensionMismatch("cone generators of mixed dimension")
        if all(all(x == 0 for x in g) for g in self.generators):
            raise FroblipError("all cone generators are zero")

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def cone_member(x: Sequence, c: Cone) -> bool:
    """Is x a nonnegative rational combination of the cone's generators?"""
    if len(x) != c.dim:
        raise DimensionMismatch("point and cone dimension differ")
    A = [[Fraction(g[i]) for g in c.generators] for i in range(c.dim)]
    return ratlp.feasible_nonneg(A, [Fraction(v) for v in x]) is not None


def cone_combination(x: Sequence, c: Cone) -> Optional[list]:
    """Nonnegative rational coefficients writing x over the generators."""
    if len(x) != c.dim:
        raise DimensionMismatch("point and cone dimension differ")
    A = [[Fraction(g[i]) for g in c.generators] for i in range(c.dim)]
    return ratlp.feasible_nonneg(A, [Fraction(v) for v in x])


def cone_equal(a: Cone, b: Cone) -> bool:
    """True iff the two conical hulls coincide."""
    if a.dim != b.dim:
        raise DimensionMismatch("cones of different dimension")
    return all(cone_member(g, b) for g in a.generators) and all(
        cone_member(g, a) for g in b.generators
    )


@dataclass(frozen=True)
class HalfSpaceCertificate:
    """Exact rational functional with alpha . g > 0 for every generator."""

    alpha: tuple


def half_space_certificate(c: Cone) -> HalfSpaceCertificate:
    """A strict rational separating functional for the cone's generators.

    Found by maximizing the minimum slack t subject to the l1 normalization
    ||alpha||_1 <= 1; any alpha with strictly positive slacks is a valid
    certificate.  Raises NoHalfSpace when none exists.
    """
    gens = c.generators
    s = c.dim
    m = len(gens)
    # variables: u(s), w(s) with alpha = u - w, t, slack_j (m), norm slack
    n = 2 * s + 1 + m + 1
    A = []
    b = []
    for j, g in enumerate(gens):
        row = [Fraction(0)] * n
        for i in range(s):
            row[i] = Fraction(g[i])
            row[s + i] = Fraction(-g[i])
        row[2 * s] = Fraction(-1)
        row[2 * s + 1 + j] = Fraction(-1)
        A.append(row)
        b.append(Fraction(0))
    norm = [Fraction(1)] * (2 * s) + [Fraction(0)] * (1 + m) + [Fraction(1)]
    A.append(norm)
    b.append(Fraction(1))
    obj = [Fraction(0)] * n
    obj[2 * s] = Fraction(1)
    status, x, value = ratlp.lp_max(obj, A, b)
    if status != ratlp.OPTIMAL or value is None or value <= 0:
        raise NoHalfSpace("generators admit no open half-space")
    alpha = tuple(x[i] - x[s + i] for i in range(s))
    return HalfSpaceCertificate(alpha)


@dataclass(frozen=True)
class CoplanarFunctional:
    """Rational eta with <eta, g> == 1 for every generator, if one exists."""

    eta: Optional[tuple]

    @property
    def present(self) -> bool:
        return self.eta is not None


def coplanar_functional(vectors: Sequence[Sequence[int]]) -> CoplanarFunctional:
    """Solve <eta, X_j> = 1 exactly over the rationals.

    Returns the minimum-norm solution within the row space of the vectors
    (eta = A^T c with A A^T c = 1), or an absent functional when the system
    is inconsistent.
    """
    if not vectors:
        raise FroblipError("empty vector list")
    s = len(vectors[0])
    for v in vectors:
        if len(v) != s:
            raise DimensionMismatch("vectors of mixed dimension")
    m = len(vectors)
    gram = [
        [Fraction(sum(int(a) * int(b) for a, b in zip(vectors[i], vectors[j])))
         for j in range(m)]
        for i in range(m)
    ]
    c = ratlp.solve_linear(gram, [Fraction(1)] * m)
    if c is None:
        return CoplanarFunctional(None)
    eta = tuple(
        sum(c[j] * vectors[j][i] for j in range(m)) for i in range(s)
    )
    return CoplanarFunctional(eta)
