"""Exact rational conical-hull geometry.

Every cone carries its exact H-representation, computed once per cone by
the double-description method (Fukuda & Prodon, "Double description
method revisited", 1996) in integer arithmetic: integer equalities that
span the orthogonal complement of the generators, and primitive integer
facet normals.  Membership, cone equality and minimal faces are then
integer sign tests of the exact point asked about (a float is the
rational it stores).  Strict half-space certificates stay exact rational
LPs; coplanarity is an integer rank test, ``lattice.coplanar``.
Generators are integer exponent vectors; since the data is integral,
rational and real feasibility coincide for every question asked here.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from . import ratlp
from .errors import DimensionMismatch, FroblipError, NoHalfSpace, ResourceLimit
from .record import Record

# rays the double description may hold at once: a random cone of 40
# generators in Z^8 has about 2700 facets, found in about 2 s
FACET_BUDGET = 100_000


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _primitive(v) -> tuple:
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _cancel(d, u, c, w) -> tuple:
    """The primitive form of d*u - c*w, which is u itself when c == 0."""
    return _primitive([d * x - c * y for x, y in zip(u, w)]) if c else u


def _double_description(rows, s):
    """(lineality basis, extreme rays) of the cone {y : a . y >= 0 for
    every row a} in Z^s, both as primitive integer vectors.

    The rows are added one at a time to R^s, kept as a lineality basis
    and a list of extreme rays, each ray with the bit set of the rows it
    is tight at.  A row that some lineality vector crosses turns that
    vector into a ray and is cancelled from the others; any other row
    keeps the rays on its nonnegative side and adds one ray per adjacent
    pair across it.  Two rays are adjacent iff no third ray is tight at
    every row they share (the combinatorial test), and only pairs that
    share at least (pointed dimension - 2) rows can be.  Holding more than
    FACET_BUDGET rays raises ResourceLimit.
    """
    lin = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    rays = []
    for k, a in enumerate(rows):
        bit = 1 << k
        i = next((i for i, l in enumerate(lin) if _dot(a, l)), None)
        if i is not None:
            piv = lin.pop(i)
            d = _dot(a, piv)
            if d < 0:
                piv, d = tuple(-x for x in piv), -d
            lin = [_cancel(d, l, _dot(a, l), piv) for l in lin]
            rays = [(_cancel(d, r, _dot(a, r), piv), z | bit) for r, z in rays]
            rays.append((piv, bit - 1))
            continue
        need = s - len(lin) - 2
        pos, neg, kept = [], [], []
        for r, z in rays:
            c = _dot(a, r)
            if c > 0:
                pos.append((r, z, c))
                kept.append((r, z))
            elif c < 0:
                neg.append((r, z, c))
            else:
                kept.append((r, z | bit))
        for p, zp, cp in pos:
            for n, zn, cn in neg:
                common = zp & zn
                if common.bit_count() < need or any(
                        common & z == common and r is not p and r is not n
                        for r, z in rays):
                    continue
                kept.append((_cancel(cp, n, cn, p), common | bit))
                if len(kept) > FACET_BUDGET:
                    raise ResourceLimit(f"double description exceeds {FACET_BUDGET} "
                                        f"rays (FACET_BUDGET)")
        rays = kept
    return lin, [r for r, _ in rays]


def _integral(x) -> tuple:
    """A positive integer multiple of the rational point x."""
    x = [Fraction(v) for v in x]
    scale = math.lcm(*(v.denominator for v in x))
    return tuple(v.numerator * (scale // v.denominator) for v in x)


class Cone(Record):
    """Conical hull of a nonempty multiset of integer generators."""

    _fields = ("generators",)

    def __init__(self, generators: tuple):
        if not generators:
            raise FroblipError("cone needs at least one generator")
        s = len(generators[0])
        for g in generators:
            if len(g) != s:
                raise DimensionMismatch("cone generators of mixed dimension")
        if all(all(x == 0 for x in g) for g in generators):
            raise FroblipError("all cone generators are zero")
        self._set(generators)

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    @cached_property
    def h_representation(self) -> tuple:
        """(equalities, normals): the cone is {x : e . x == 0 for every
        equality e, y . x >= 0 for every normal y}.  The equalities are an
        integer basis of the orthogonal complement of the generators' span
        (empty when they span R^s), the normals one primitive integer
        normal per facet (none when the cone is a linear subspace).  A
        normal is fixed only up to adding a combination of equalities.
        Computed on first use and kept."""
        rows = sorted({_primitive(tuple(map(int, g)))
                       for g in self.generators if any(g)})
        lin, rays = _double_description(rows, self.dim)
        return tuple(lin), tuple(rays)

    def violated(self, x: Sequence) -> Optional[tuple]:
        """An integer functional y that is >= 0 on the cone with y . x < 0:
        a facet normal or a signed equality.  None iff x is in the cone."""
        if len(x) != self.dim:
            raise DimensionMismatch("point and cone dimension differ")
        x = _integral(x)
        equalities, normals = self.h_representation
        for e in equalities:
            c = _dot(e, x)
            if c:
                return tuple(-v for v in e) if c > 0 else e
        return next((y for y in normals if _dot(y, x) < 0), None)


def cone_member(x: Sequence, c: Cone) -> bool:
    """Is x a nonnegative rational combination of the cone's generators?"""
    return c.violated(x) is None


def minimal_face(x: Sequence, c: Cone) -> tuple:
    """Indices of the generators on the smallest face of c containing x,
    which must lie in c: exactly the generators that carry positive weight
    in some nonnegative combination equal to x.  That face is cut out by
    the facets tight at x."""
    x = _integral(x)
    tight = [y for y in c.h_representation[1] if _dot(y, x) == 0]
    return tuple(j for j, g in enumerate(c.generators)
                 if all(_dot(y, g) == 0 for y in tight))


def cone_separation(a: Cone, b: Cone) -> Optional[tuple]:
    """None iff the two conical hulls coincide; otherwise (side, y, j): y
    is >= 0 on the generators of the cone with index ``side`` (0 for a,
    1 for b) and y . g < 0 for generator j of the other cone."""
    if a.dim != b.dim:
        raise DimensionMismatch("cones of different dimension")
    for side, (inner, outer) in enumerate(((a, b), (b, a))):
        for j, g in enumerate(outer.generators):
            y = inner.violated(g)
            if y is not None:
                return side, y, j
    return None


def cone_equal(a: Cone, b: Cone) -> bool:
    """True iff the two conical hulls coincide."""
    return cone_separation(a, b) is None


class HalfSpaceCertificate(Record):
    """Exact rational functional with alpha . g > 0 for every generator."""

    _fields = ("alpha",)

    def __init__(self, alpha: tuple):
        self._set(alpha)


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
