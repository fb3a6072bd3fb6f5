import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from froblip.errors import FroblipError, ParseError
from froblip.lattice import (
    Monomial,
    PseudoBasis,
    coprime_base,
    express_over_hnf,
    factor_integer,
    factor_rationals,
    integer_rank,
    parse_rational,
    reduce_to_pseudo_basis,
    row_hnf,
)


def test_monomial_make_sorts_and_drops_zeros():
    m = Monomial.make({"b": 2, "a": 1, "c": 0})
    assert m.powers == (("a", 1), ("b", 2))
    assert m.generators == ("a", "b")
    assert str(m) == "a*b^2"


def test_monomial_mul_pow():
    a = Monomial.generator("x")
    b = Monomial.make({"x": 2, "y": 1})
    assert (a * b).as_dict() == {"x": 3, "y": 1}
    assert (b ** 3).as_dict() == {"x": 6, "y": 3}
    assert (a * Monomial.make({"x": -1})).as_dict() == {}


def test_parse_rational():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational(" 1/2 ") == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("3/2")
    with pytest.raises(ParseError):
        parse_rational("abc")
    with pytest.raises(ParseError):
        parse_rational("0")


def test_factor_rationals_round_trip():
    ratios = [Fraction(1, 2), Fraction(2, 3), Fraction(4, 9), Fraction(5, 8)]
    basis, vectors = factor_rationals(ratios)
    # ascending reciprocal primes
    assert basis.values == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    for r, x in zip(ratios, vectors):
        assert basis.eval_exact(x) == r


def _large_prime(rng, bits=40):
    return sympy.nextprime(rng.randrange(2 ** 16, 2 ** bits))


def _two_large_primes(rng):
    """p * q with primes above 2^16, so trial division leaves the whole
    product (at least 2^32) as one cofactor."""
    return _large_prime(rng, 24) * _large_prime(rng)


def _seeded(draw):
    return lambda rng: [draw(rng) for _ in range(40)]


FACTOR_FAMILIES = {
    "edges": lambda rng: [1, 2, 3, 4, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                          (2 ** 16 + 1) ** 2, 65521 * 65537, 2 ** 32 - 1,
                          2 ** 32 - 5, 2 ** 61 - 1, 2 ** 89 - 1,
                          (2 ** 61 - 1) ** 6, 12 * (65537 * 65539) ** 4],
    "up_to_1e6": _seeded(lambda rng: rng.randrange(1, 10 ** 6)),
    "up_to_1e12": _seeded(lambda rng: rng.randrange(1, 10 ** 12)),
    "two_large_primes": _seeded(_two_large_primes),
    "up_to_1e30": _seeded(lambda rng: rng.randrange(1, 10 ** 30)),
}


def check_coprime_base(factors: dict, n: int):
    """The factor_integer contract against sympy's prime factorization."""
    primes = sympy.factorint(n)
    assert math.prod(b ** e for b, e in factors.items()) == n
    assert list(factors) == sorted(factors)
    assert all(b > 1 and e > 0 for b, e in factors.items())
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(factors, 2))
    assert not any(sympy.perfect_power(b) for b in factors)
    for p in primes:
        assert sum(b % p == 0 for b in factors) == 1
    if sum(p >= 2 ** 16 for p in primes) <= 1:
        assert factors == {int(p): e for p, e in primes.items()}


@pytest.mark.parametrize("family", sorted(FACTOR_FAMILIES))
def test_factor_integer_matches_sympy(family):
    for n in FACTOR_FAMILIES[family](random.Random(f"factor-{family}")):
        check_coprime_base(factor_integer(n), n)


def test_coprime_base_keeps_an_unsplit_cofactor():
    p, q = 65537, 65539
    assert factor_integer(p * q) == {p * q: 1}
    assert factor_integer((p * q) ** 3) == {p * q: 3}
    assert factor_integer(p ** 4 * q ** 3) == {p ** 4 * q ** 3: 1}
    # another number splits the cofactor
    assert coprime_base([p * q, 2 * p]) == [2, p, q]
    assert coprime_base([p ** 2 * q, p * q]) == [p, q]
    # ... unless their exponents are proportional
    assert coprime_base([(p * q) ** 2, (p * q) ** 3]) == [p * q]


def test_factor_integer_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(FroblipError):
            factor_integer(n)


def test_factor_rationals_rebuilds_seeded_ratios():
    rng = random.Random(5)
    for hi in (10 ** 3, 10 ** 6, 10 ** 12, 10 ** 30):
        ratios = []
        while len(ratios) < 6:
            a, b = rng.randrange(1, hi), rng.randrange(1, hi)
            if a != b:
                ratios.append(Fraction(min(a, b), max(a, b)))
        basis, vectors = factor_rationals(ratios)
        assert list(basis.values) == sorted(basis.values, reverse=True)
        base = [v.denominator for v in basis.values]
        assert all(v.numerator == 1 and not sympy.perfect_power(b)
                   for v, b in zip(basis.values, base))
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
        assert all(any(x[i] for x in vectors) for i in range(len(base)))
        for r, x in zip(ratios, vectors):
            assert basis.eval_exact(x) == r


def _prime_vectors(ratios, primes):
    """Exponent vectors of the ratios over the primes they are made of
    (sympy's factorint is too slow on products of several 40-bit primes)."""
    return [tuple(sympy.multiplicity(p, r.numerator)
                  - sympy.multiplicity(p, r.denominator) for p in primes)
            for r in ratios]


def test_rank_over_coprime_base_matches_primes():
    rng = random.Random("coprime-rank")
    composite = 0
    for _ in range(40):
        primes = [_large_prime(rng) for _ in range(rng.randrange(2, 5))]
        assert all(sympy.isprime(p) for p in primes)
        # products of one or two large primes, which other blocks may split
        blocks = [math.prod(rng.sample(primes, rng.randrange(1, 3)))
                  for _ in range(3)] + rng.sample([2, 3, 5, 7], 2)
        ratios, size = [], rng.randrange(2, 5)
        while len(ratios) < size:
            num = rng.choice(blocks) ** rng.randrange(0, 3)
            den = math.prod(rng.choice(blocks) ** rng.randrange(1, 4)
                            for _ in range(2))
            if num < den:
                ratios.append(Fraction(num, den))
        basis, vectors = factor_rationals(ratios)
        for r, x in zip(ratios, vectors):
            assert basis.eval_exact(x) == r
        want = integer_rank(_prime_vectors(ratios, primes + [2, 3, 5, 7]))
        assert integer_rank(vectors) == want, ratios
        composite += not all(sympy.isprime(v.denominator) for v in basis.values)
    assert composite >= 10, composite  # bases that keep an unsplit cofactor


def test_factor_rationals_negative_exponents():
    # 2/3 = (1/2)^-1 (1/3)^1
    _, vectors = factor_rationals([Fraction(2, 3)])
    assert vectors == [(-1, 1)]


def test_factor_rationals_rejects_out_of_range():
    with pytest.raises(FroblipError):
        factor_rationals([Fraction(3, 2)])


def test_row_hnf_known_matrix():
    # frozen oracle: hand-reduced HNF of [[2,4],[1,3]] is [[1,1],[0,2]]
    assert row_hnf([(2, 4), (1, 3)]) == [(1, 1), (0, 2)]


def test_row_hnf_rank_deficient():
    rows = row_hnf([(1, 2), (2, 4), (3, 6)])
    assert rows == [(1, 2)]
    assert integer_rank([(1, 2), (2, 4), (3, 6)]) == 1


def test_row_hnf_positive_pivots_and_reduction():
    rows = row_hnf([(-2, 0, 1), (0, -3, 0)])
    for r in rows:
        lead = next(x for x in r if x != 0)
        assert lead > 0
    assert integer_rank([(-2, 0, 1), (0, -3, 0)]) == 2


def test_integer_rank_matches_sympy():
    import sympy

    mats = [
        [(1, 2, 3), (4, 5, 6), (7, 8, 9)],
        [(2, 0), (0, 2), (1, 1)],
        [(5,), (3,)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    ]
    for rows in mats:
        assert integer_rank(rows) == sympy.Matrix(rows).rank()


def test_express_over_hnf():
    H = row_hnf([(2, 4), (1, 3)])
    c = express_over_hnf(H, (3, 7))
    got = tuple(sum(ci * row[i] for ci, row in zip(c, H)) for i in range(2))
    assert got == (3, 7)
    with pytest.raises(FroblipError):
        express_over_hnf(H, (0, 1))  # second coord must be even


def test_reduce_to_pseudo_basis_drops_unused_prime():
    # ratios 1/2, 1/8 over primes {2}: already rank 1, unchanged; but the
    # pair 1/6, 1/36 over primes {2, 3} spans a rank-1 group
    basis, vectors = factor_rationals([Fraction(1, 6), Fraction(1, 36)])
    assert basis.size == 2
    nb, nv = reduce_to_pseudo_basis(basis, vectors)
    assert nb.size == 1
    assert nb.values == (Fraction(1, 6),)
    assert nv == [(1,), (2,)]


def test_reduce_to_pseudo_basis_reciprocal_flip():
    # group generated by 2/3 inside basis (1/2, 1/3): HNF row (-1, 1)
    # evaluates to 3/2 > 1 and must be replaced by its reciprocal
    basis = PseudoBasis((Fraction(1, 2), Fraction(1, 3)))
    nb, nv = reduce_to_pseudo_basis(basis, [(-1, 1), (-2, 2)])
    assert all(0 < v < 1 for v in nb.values)
    for old, new in zip([(-1, 1), (-2, 2)], nv):
        assert nb.eval_exact(new) == basis.eval_exact(old)


def test_reduce_to_pseudo_basis_full_rank_unchanged():
    basis = PseudoBasis((Fraction(1, 2), Fraction(1, 3)))
    vectors = [(1, 0), (0, 1)]
    nb, nv = reduce_to_pseudo_basis(basis, vectors)
    assert nb == basis
    assert nv == vectors


def test_reduce_to_pseudo_basis_symbolic():
    basis = PseudoBasis((Monomial.generator("u"), Monomial.generator("v")))
    nb, nv = reduce_to_pseudo_basis(basis, [(1, 1), (2, 2)])
    assert nb.size == 1
    assert nb.values[0].as_dict() == {"u": 1, "v": 1}
    assert nv == [(1,), (2,)]
