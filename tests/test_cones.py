import itertools
from fractions import Fraction

import pytest

from froblip.cones import (
    Cone,
    cone_combination,
    cone_equal,
    cone_member,
    coplanar_functional,
    half_space_certificate,
)
from froblip.errors import DimensionMismatch, NoHalfSpace

F = Fraction


def test_cone_member_quadrant():
    c = Cone(((1, 0), (0, 1)))
    assert cone_member((F(3), F(2)), c)
    assert cone_member((F(0), F(0)), c)
    assert not cone_member((F(-1), F(0)), c)


def test_cone_member_narrow():
    c = Cone(((2, 1), (1, 2)))
    assert cone_member((F(3), F(3)), c)
    assert cone_member((F(2), F(1)), c)
    assert not cone_member((F(1), F(0)), c)
    assert not cone_member((F(3), F(1)), c)  # just outside the (2,1) edge


def test_cone_member_matches_dense_grid_oracle():
    # brute-force oracle: x in cone((2,1),(1,3)) iff the two edge
    # determinants have opposite signs (2D cross products)
    g1, g2 = (2, 1), (1, 3)
    c = Cone((g1, g2))
    for x1, x2 in itertools.product(range(-4, 5), repeat=2):
        d1 = g1[0] * x2 - g1[1] * x1  # >= 0 means left of g1
        d2 = g2[0] * x2 - g2[1] * x1  # <= 0 means right of g2
        expected = d1 >= 0 and d2 <= 0
        assert cone_member((F(x1), F(x2)), c) == expected


def test_cone_combination_is_exact():
    c = Cone(((2, 1), (1, 2)))
    coeffs = cone_combination((F(4), F(5)), c)
    assert coeffs is not None
    got = tuple(
        sum(coeffs[j] * c.generators[j][i] for j in range(2)) for i in range(2)
    )
    assert got == (4, 5)
    assert all(v >= 0 for v in coeffs)


def test_cone_equal_and_v_plus():
    a = Cone(((1, 0), (0, 1)))
    b = Cone(((2, 0), (1, 1), (0, 3)))
    assert cone_equal(a, b)
    narrow = Cone(((2, 1), (1, 2)))
    assert not cone_equal(a, narrow)


def test_cone_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cone_member((F(1),), Cone(((1, 0),)))


def test_half_space_certificate_strict():
    for gens in [((1, 0), (0, 1)), ((2, -1), (1, 3)), ((5,), (3,)),
                 ((1, 1, 0), (0, 1, 1), (1, 0, 1))]:
        cert = half_space_certificate(Cone(gens))
        for g in gens:
            assert sum(a * x for a, x in zip(cert.alpha, g)) > 0


def test_half_space_certificate_absent():
    with pytest.raises(NoHalfSpace):
        half_space_certificate(Cone(((1, 0), (-1, 0))))
    with pytest.raises(NoHalfSpace):
        half_space_certificate(Cone(((1,), (-2,))))


def test_coplanar_functional_binomial():
    eta = coplanar_functional([(1, 0), (0, 1)])
    assert eta.present
    assert eta.eta == (F(1), F(1))


def test_coplanar_functional_trinomial():
    eta = coplanar_functional([(2, 0), (1, 1), (0, 2)])
    assert eta.present
    for v in [(2, 0), (1, 1), (0, 2)]:
        assert sum(e * x for e, x in zip(eta.eta, v)) == 1


def test_coplanar_functional_absent():
    # (5) and (3) on one axis: 5 eta = 1 and 3 eta = 1 is inconsistent
    assert not coplanar_functional([(5,), (3,)]).present
    assert not coplanar_functional([(1, 0), (0, 1), (1, 1)]).present


def test_coplanar_functional_rank_deficient_gram():
    # duplicated vectors make the Gram matrix singular; a solution exists
    eta = coplanar_functional([(1, 1), (1, 1), (2, 0)])
    assert eta.present
    for v in [(1, 1), (2, 0)]:
        assert sum(e * x for e, x in zip(eta.eta, v)) == 1


def test_semigroup_span_reaches_deep_cone_points():
    # every integer cone point of ((1,0),(0,1)) is an N-combination; for
    # the narrow cone ((2,1),(1,2)) check N-span membership by brute force
    # against cone membership for points with coordinates <= 12
    gens = ((2, 1), (1, 2))
    c = Cone(gens)
    spanned = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        z = frontier.pop()
        for g in gens:
            w = (z[0] + g[0], z[1] + g[1])
            if w not in spanned and max(w) <= 12:
                spanned.add(w)
                frontier.append(w)
    for x1, x2 in itertools.product(range(13), repeat=2):
        if (x1, x2) in spanned:
            assert cone_member((F(x1), F(x2)), c)
