"""Exact exponent-vector coordinates for multiplicative groups of ratios.

A ratio in (0,1) is represented as an integer exponent vector over a
pseudo-basis: a tuple of values in (0,1) (exact rationals, or formal named
generators for symbolic systems) such that every ratio is a monomial in the
basis.  All linear algebra here is exact integer arithmetic.  A numeric
basis holds the reciprocals of an independent coprime base: ``coprime_base``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .errors import DimensionMismatch, FroblipError, ParseError
from .record import Record

TRIAL_LIMIT = 2 ** 16  # trial division tries the divisors below this
EXPONENT_CAP = 1000  # largest decimal exponent magnitude ``read_fraction`` reads


class Monomial(Record):
    """Formal product of named generators with integer exponents.

    ``powers`` is sorted by generator name; zero exponents are dropped.
    """

    _fields = ("powers",)

    def __init__(self, powers: tuple):
        self._set(powers)

    @staticmethod
    def make(powers: dict) -> "Monomial":
        items = tuple(sorted((g, int(e)) for g, e in powers.items() if e != 0))
        return Monomial(items)

    @staticmethod
    def generator(name: str) -> "Monomial":
        return Monomial(((name, 1),))

    @property
    def generators(self) -> tuple:
        return tuple(g for g, _ in self.powers)

    def as_dict(self) -> dict:
        return dict(self.powers)

    def __mul__(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for g, e in other.powers:
            d[g] = d.get(g, 0) + e
        return Monomial.make(d)

    def __pow__(self, k: int) -> "Monomial":
        return Monomial.make({g: e * k for g, e in self.powers})

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        return "*".join(f"{g}^{e}" if e != 1 else g for g, e in self.powers)


RatioValue = Union[Fraction, Monomial]


class PseudoBasis(Record):
    """Ordered basis values; each numeric value must lie in (0,1)."""

    _fields = ("values",)

    def __init__(self, values: tuple):
        if not values:
            raise FroblipError("empty pseudo-basis")
        for v in values:
            if isinstance(v, Fraction) and not (0 < v < 1):
                raise FroblipError(f"basis value {v} outside (0,1)")
        self._set(values)

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def is_numeric(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)

    def eval_exact(self, x: Sequence[int]) -> Fraction:
        """Evaluate basis**x as an exact rational (numeric basis only)."""
        if not self.is_numeric:
            raise FroblipError("symbolic basis has no exact rational value")
        r = Fraction(1)
        for v, e in zip(self.values, x):
            r *= v ** e
        return r

    def eval_monomial(self, x: Sequence[int]) -> Monomial:
        """Evaluate basis**x as a formal monomial (symbolic basis only)."""
        m = Monomial(())
        for v, e in zip(self.values, x):
            if not isinstance(v, Monomial):
                raise FroblipError("eval_monomial requires a symbolic basis")
            m = m * (v ** e)
        return m

    def alpha_real(self) -> tuple:
        """-(log b_1,...,log b_s), as log(denominator) - log(numerator)."""
        return self._alpha_real

    # Per-basis values that every threshold test of a cut walk reads:
    # computed on first use and kept on this instance only.

    @cached_property
    def _alpha_real(self) -> tuple:
        if not self.is_numeric:
            raise FroblipError("symbolic basis has no numeric log values")
        return tuple(math.log(v.denominator) - math.log(v.numerator)
                     for v in self.values)

    @cached_property
    def denominator_bits(self) -> tuple:
        """The bit lengths of the values' denominators."""
        return tuple(v.denominator.bit_length() for v in self.values)

    @cached_property
    def log_brackets(self) -> list:
        """``poly._Brackets`` of the values at 24, 48, 96, ... digits,
        appended by ``selfsimilar._exceeds_exp`` as it needs them."""
        return []


def read_fraction(text: str, name: str) -> Fraction:
    """The exact value of "p/q" or of a decimal with an optional exponent,
    as ``Fraction`` reads them.  An exponent beyond EXPONENT_CAP in
    magnitude is refused before its power of ten is built; it, and any
    other text, raises ParseError naming ``name``."""
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 9 or int(digits) > EXPONENT_CAP):
        raise ParseError(f"bad {name}: decimal exponent beyond "
                         f"EXPONENT_CAP = {EXPONENT_CAP}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {name} {text!r}: {exc}") from None


def parse_rational(text: str) -> Fraction:
    """Parse an exact "p/q" ratio string (``read_fraction``); must lie in
    (0,1)."""
    r = read_fraction(text, "rational")
    if not (0 < r < 1):
        raise ParseError(f"ratio {text!r} outside (0,1)")
    return r


def _least_root(b: int) -> int:
    """The r with b == r**k for the largest k, for b prime or free of primes
    below TRIAL_LIMIT, so r > TRIAL_LIMIT.  After b = r no smaller k can
    succeed, as b was no such power before."""
    k = 2
    while TRIAL_LIMIT ** k <= b:
        r = 1 << -(-b.bit_length() // k)  # Newton falls from above the root
        while (s := ((k - 1) * r + b // r ** (k - 1)) // k) < r:
            r = s
        b, k = (r, k) if r ** k == b else (b, k + 1)
    return b


def coprime_base(numbers: Sequence[int]) -> list:
    """Ascending pairwise-coprime integers > 1, none a perfect power, such
    that every number is a product of their powers.  A prime divides at most
    one of them, so they are multiplicatively independent.  Trial division
    takes out the primes below TRIAL_LIMIT; a cofactor left is one of them or
    coprime to them.  Factor refinement (Bach, Driscoll and Shallit, 1993)
    turns two cofactors with gcd g > 1 into g and both quotients, until no
    two share a factor; each is then replaced by its least root."""
    primes, cofactors, coprime = set(), [], []
    for n in numbers:
        if n < 1:
            raise FroblipError(f"cannot factor {n}")
        d = 2
        while d < TRIAL_LIMIT and d * d <= n:
            while n % d == 0:
                primes.add(d)
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            cofactors.append(n)
    while cofactors:
        x = cofactors.pop()
        for i, b in enumerate(coprime):
            if (g := math.gcd(x, b)) > 1:
                del coprime[i]
                cofactors += [c for c in (g, b // g, x // g) if c > 1]
                break
        else:
            coprime.append(x)
    return sorted(primes.union(map(_least_root, coprime)))


def _valuation(n: int, b: int) -> int:
    e = 0
    while n % b == 0:
        n, e = n // b, e + 1
    return e


def factor_integer(n: int) -> dict:
    """{b: exponent} of a positive integer over ``coprime_base([n])``."""
    return {b: _valuation(n, b) for b in coprime_base([n])}


def factor_rationals(ratios: Sequence[Fraction]):
    """Factor exact rational ratios over one reciprocal coprime base.

    Returns ``(PseudoBasis, vectors)`` with basis (1/b_1,...,1/b_s) over
    the ``coprime_base`` of all numerators and denominators, and for each
    ratio its exponent vector x with ratio == basis**x exactly.  The
    exponent at b is -v_b(ratio), so coordinates may be negative.
    """
    ratios = [Fraction(r) for r in ratios]
    for r in ratios:
        if not (0 < r < 1):
            raise FroblipError(f"ratio {r} outside (0,1)")
    base = coprime_base([n for r in ratios for n in (r.numerator, r.denominator)])
    basis = PseudoBasis(tuple(Fraction(1, b) for b in base))
    vectors = [tuple(_valuation(r.denominator, b) - _valuation(r.numerator, b)
                     for b in base) for r in ratios]
    return basis, vectors


def _check_common_dim(vectors: Sequence[Sequence[int]]) -> int:
    if not vectors:
        raise FroblipError("empty vector list")
    s = len(vectors[0])
    for v in vectors:
        if len(v) != s:
            raise DimensionMismatch("exponent vectors of different lengths")
    return s


def row_hnf(vectors: Sequence[Sequence[int]]):
    """Row-style Hermite normal form with positive pivots.

    Returns the list of nonzero rows (exact integer arithmetic); the rows
    span the same lattice as the input rows.
    """
    _check_common_dim(vectors)
    A = [list(map(int, v)) for v in vectors]
    m = len(A)
    n = len(A[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            while A[i][c] != 0:
                q = A[r][c] // A[i][c]
                A[r] = [a - q * b for a, b in zip(A[r], A[i])]
                A[r], A[i] = A[i], A[r]
        if A[r][c] < 0:
            A[r] = [-a for a in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
    return [tuple(row) for row in A[:r]]


def integer_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of the integer matrix whose rows are the vectors, exactly."""
    return len(row_hnf(vectors))


def coplanar(vectors: Sequence[Sequence[int]]) -> bool:
    """Is there a rational eta with <eta, X_j> = 1 for every vector X_j?
    A eta = 1 is solvable iff appending a column of ones to the rows X_j
    keeps their rank, that is iff the echelon form of the augmented rows
    has no pivot in the appended column; it can only be in the last row."""
    return any(row_hnf([(*v, 1) for v in vectors])[-1][:-1])


def express_over_hnf(hnf_rows, x):
    """Write lattice vector x as an integer combination of HNF rows.

    Raises if x is not in the row lattice.
    """
    n = len(x)
    pivots = []
    for row in hnf_rows:
        c = next(i for i in range(n) if row[i] != 0)
        pivots.append(c)
    rem = list(map(int, x))
    coeffs = []
    for row, c in zip(hnf_rows, pivots):
        q, mod = divmod(rem[c], row[c])
        if mod != 0:
            raise FroblipError(f"{tuple(x)} not in the row lattice")
        coeffs.append(q)
        rem = [a - q * b for a, b in zip(rem, row)]
    if any(rem):
        raise FroblipError(f"{tuple(x)} not in the row lattice")
    return tuple(coeffs)


def reduce_to_pseudo_basis(basis: PseudoBasis, vectors: Sequence[Sequence[int]]):
    """Shrink an oversized basis to the exact rank of the exponent group.

    If rank r < s, the new basis elements are monomials in the old basis
    taken from the row HNF of the exponent matrix, and the vectors are
    re-expressed over them.  Numeric basis values outside (0,1) are replaced
    by their reciprocals (negating the matching coordinate).  If r == s the
    input is returned unchanged.
    """
    s = _check_common_dim(vectors)
    if s != basis.size:
        raise DimensionMismatch("vectors do not match basis size")
    H = row_hnf(vectors)
    r = len(H)
    if r == 0:
        raise FroblipError("rank 0: all exponent vectors are zero")
    if r == s:
        return basis, [tuple(map(int, v)) for v in vectors]
    coords = [express_over_hnf(H, v) for v in vectors]
    new_values = []
    flips = []
    for i, row in enumerate(H):
        if basis.is_numeric:
            val = basis.eval_exact(row)
            if val == 1:
                raise FroblipError("degenerate basis candidate with value 1")
            if val > 1:
                val = 1 / val
                flips.append(i)
            new_values.append(val)
        else:
            new_values.append(basis.eval_monomial(row))
    if flips:
        coords = [
            tuple(-x if i in flips else x for i, x in enumerate(v)) for v in coords
        ]
    return PseudoBasis(tuple(new_values)), coords
