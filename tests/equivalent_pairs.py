"""Seeded pairs of systems that are bi-Lipschitz equivalent by construction:
the ground truth of the soundness gate (``test_soundness.py``).

Families, each drawn by ``FAMILIES[name](rng)`` as a pair of systems:

- ``cut``: two random cuts of one random ancestor G, with 0-3 leaf
  expansions each.  An expansion replaces a ratio r by r*rho_1, ...,
  r*rho_m for G's ratios rho_j; the cut's maps have G's attractor, and
  dust-like sets with equal ratio multisets are bi-Lipschitz (Falconer and
  Marsh 1992), so each cut is equivalent to G.
- ``iteration``: the p-th and q-th iterations of one system, an iteration
  being the uniform cut, each in a random order.
- ``permutation``: a system and a shuffled copy.
- ``two_branch``: {c, 5c} vs {2c, 3c}, exponents of one ratio at random c.

Ancestors are numeric or symbolic with equal odds, of dimension 1-3 and 2-3
ratios.  A numeric ratio is 2^a 3^b 5^c below 1 with entries -1..2 over the
first 1-3 primes, so that some exponents are negative; a symbolic one is a
monomial in u, v, w with entries 0-2.
"""
from fractions import Fraction

from froblip.lattice import Monomial
from froblip.selfsimilar import build_system, iterate

PRIMES = (2, 3, 5)
GENERATORS = ("u", "v", "w")


def _ratio(rng, dim: int, symbolic: bool):
    while True:
        if symbolic:
            powers = [rng.randint(0, 2) for _ in range(dim)]
            if any(powers):
                return Monomial.make(dict(zip(GENERATORS, powers)))
        else:
            value = Fraction(1)
            for p in PRIMES[:dim]:
                value *= Fraction(p) ** rng.randint(-1, 2)
            if value != 1:
                return min(value, 1 / value)


def ancestor(rng) -> list:
    """2-3 ratio values of a random numeric or symbolic system."""
    dim, symbolic = rng.randint(1, 3), rng.random() < 0.5
    return [_ratio(rng, dim, symbolic) for _ in range(rng.randint(2, 3))]


def random_cut(rng, ratios: list) -> list:
    """A cut of the system with these ratios: 0-3 leaf expansions."""
    cut = list(ratios)
    for _ in range(rng.randint(0, 3)):
        leaf = cut.pop(rng.randrange(len(cut)))
        cut += [leaf * rho for rho in ratios]
    rng.shuffle(cut)
    return cut


def _shuffled(rng, ratios) -> list:
    ratios = list(ratios)
    rng.shuffle(ratios)
    return ratios


def cut_pair(rng):
    g = ancestor(rng)
    return build_system(random_cut(rng, g)), build_system(random_cut(rng, g))


def iteration_pair(rng):
    s = build_system(ancestor(rng))
    p, q = (rng.randint(1, 3 if s.m == 2 else 2) for _ in range(2))
    return tuple(build_system(_shuffled(rng, iterate(s, k).ratios)) for k in (p, q))


def permutation_pair(rng):
    g = ancestor(rng)
    return build_system(g), build_system(_shuffled(rng, g))


def two_branch_pair(rng):
    c = rng.randint(1, 4)
    if rng.random() < 0.5:
        base = Monomial.generator("l")
    else:
        base = Fraction(1, rng.choice([2, 3, 6, 10]))
    sides = [[base ** (k * c) for k in pattern] for pattern in ((1, 5), (2, 3))]
    rng.shuffle(sides)
    return tuple(build_system(_shuffled(rng, side)) for side in sides)


FAMILIES = {
    "cut": cut_pair,
    "iteration": iteration_pair,
    "permutation": permutation_pair,
    "two_branch": two_branch_pair,
}
