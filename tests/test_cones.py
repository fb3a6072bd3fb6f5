import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from froblip.cones import (
    Cone,
    cone_member,
    cone_separation,
    half_space_certificate,
    minimal_face,
)
from froblip import cones
from froblip.errors import DimensionMismatch, FroblipError, NoHalfSpace, ResourceLimit
from froblip.lattice import coplanar, integer_rank
from lp_oracles import lp_cone_equal, lp_cone_member, lp_hull_member, lp_minimal_face

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


def test_cone_equal_and_v_plus():
    a = Cone(((1, 0), (0, 1)))
    b = Cone(((2, 0), (1, 1), (0, 3)))
    assert cone_separation(a, b) is None
    narrow = Cone(((2, 1), (1, 2)))
    assert cone_separation(a, narrow) is not None


def test_cone_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cone_member((F(1),), Cone(((1, 0),)))


def test_half_space_certificate_strict():
    for gens in [((1, 0), (0, 1)), ((2, -1), (1, 3)), ((5,), (3,)),
                 ((1, 1, 0), (0, 1, 1), (1, 0, 1))]:
        alpha = half_space_certificate(Cone(gens))
        for g in gens:
            assert sum(a * x for a, x in zip(alpha, g)) > 0


def test_half_space_certificate_absent():
    with pytest.raises(NoHalfSpace):
        half_space_certificate(Cone(((1, 0), (-1, 0))))
    with pytest.raises(NoHalfSpace):
        half_space_certificate(Cone(((1,), (-2,))))


def sympy_coplanar(vectors):
    """Oracle: A eta = 1 is solvable iff the column of ones keeps the rank
    of A, both ranks by sympy."""
    return (sympy.Matrix([[*v, 1] for v in vectors]).rank()
            == sympy.Matrix(vectors).rank())


def test_coplanar_functional_binomial():
    # eta = (1, 1)
    assert coplanar([(1, 0), (0, 1)])
    assert sympy_coplanar([(1, 0), (0, 1)])


def test_coplanar_functional_trinomial():
    # eta = (1/2, 1/2)
    assert coplanar([(2, 0), (1, 1), (0, 2)])
    assert sympy_coplanar([(2, 0), (1, 1), (0, 2)])


def test_coplanar_functional_absent():
    # (5) and (3) on one axis: 5 eta = 1 and 3 eta = 1 is inconsistent
    for vectors in ([(5,), (3,)], [(1, 0), (0, 1), (1, 1)]):
        assert not coplanar(vectors)
        assert not sympy_coplanar(vectors)


def test_coplanar_functional_rank_deficient_gram():
    # a duplicated vector leaves the rank short of the count; eta = (1/2,
    # 1/2) holds
    assert coplanar([(1, 1), (1, 1), (2, 0)])
    assert sympy_coplanar([(1, 1), (1, 1), (2, 0)])
    # (2, 2) = 2 (1, 1), so eta . (2, 2) = 2 whenever eta . (1, 1) = 1
    assert not coplanar([(1, 1), (2, 2), (2, 0)])


def _coplanar_sample(n=2400):
    """Seeded integer vector sets in dimensions 1-4: half of them planted
    on an affine hyperplane w . x = c with c != 0, so coplanar (eta =
    w / c); the other half drawn freely, which makes some coplanar."""
    rng = random.Random(5)
    for trial in range(n):
        s, m = rng.randint(1, 4), rng.randint(1, 6)
        if trial % 2:
            yield [tuple(rng.randint(-4, 4) for _ in range(s)) for _ in range(m)]
            continue
        k = rng.randrange(s)  # w_k = +-1 fixes x_k on the hyperplane
        w = [rng.randint(-3, 3) for _ in range(s)]
        w[k], c = rng.choice((-1, 1)), rng.choice((-1, 1)) * rng.randint(1, 6)
        vectors = []
        for _ in range(m):
            x = [rng.randint(-4, 4) for _ in range(s)]
            x[k] = 0
            x[k] = w[k] * (c - sum(a * b for a, b in zip(w, x)))
            vectors.append(tuple(x))
        if trial % 6 == 0:
            vectors.append(rng.choice(vectors))
        yield vectors


def test_coplanar_matches_sympy_rank_oracle():
    outcomes = {True: 0, False: 0}
    for trial, vectors in enumerate(_coplanar_sample()):
        got = coplanar(vectors)
        assert got == sympy_coplanar(vectors), vectors
        if trial % 2 == 0:
            assert got, vectors  # planted
        outcomes[got] += 1
    assert min(outcomes.values()) > 300


def test_coplanar_rejects_empty_and_mixed_dimensions():
    with pytest.raises(FroblipError):
        coplanar([])
    with pytest.raises(DimensionMismatch):
        coplanar([(1, 0), (1,)])


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


def test_h_representation_small_cones():
    # a quadrant: two facets, no equalities
    eq, normals = Cone(((1, 0), (0, 1))).h_representation
    assert eq == () and sorted(normals) == [(0, 1), (1, 0)]
    # a half-plane (not pointed): one facet
    eq, normals = Cone(((1, 0), (-1, 0), (0, 1))).h_representation
    assert eq == () and normals == ((0, 1),)
    # the whole plane: no inequality at all
    assert Cone(((1, 0), (-1, 0), (0, 1), (0, -1))).h_representation == ((), ())
    # a ray in R^3: two equalities, one facet inside their complement
    c = Cone(((2, 2, 0), (1, 1, 0)))
    eq, normals = c.h_representation
    assert len(eq) == 2 and len(normals) == 1
    assert all(_dot(e, (1, 1, 0)) == 0 for e in eq)
    assert cone_member((F(3), F(3), F(0)), c)
    assert not cone_member((F(-1), F(-1), F(0)), c)
    assert not cone_member((F(1), F(1), F(1)), c)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@st.composite
def integer_cones(draw):
    """Integer generator lists with s <= 6 and m <= 12: the integer span of
    r <= s random vectors (lower-dimensional when r < s or the vectors are
    dependent), some with duplicated generators, some with a generator and
    its negative (not pointed), some with a zero generator."""
    s = draw(st.integers(1, 6))
    r = draw(st.integers(1, s))
    basis = draw(st.lists(st.lists(st.integers(-2, 2), min_size=s, max_size=s),
                          min_size=r, max_size=r))
    coords = draw(st.lists(st.lists(st.integers(-2, 3), min_size=r, max_size=r),
                           min_size=1, max_size=10))
    gens = [tuple(sum(c * b[i] for c, b in zip(co, basis)) for i in range(s))
            for co in coords]
    extra = draw(st.sampled_from(("none", "duplicate", "opposite", "zero")))
    if extra == "duplicate":
        gens += gens[:2]
    elif extra == "opposite":
        gens.append(tuple(-x for x in gens[-1]))
    elif extra == "zero":
        gens.append((0,) * s)
    assume(any(any(g) for g in gens))
    return tuple(gens[:12])


def _test_points(draw, gens):
    """Generators, sums of generator subsets (points on faces and inside),
    differences (often outside), and random points."""
    s = len(gens[0])
    points = list(gens)
    for _ in range(4):
        picks = draw(st.lists(st.integers(0, len(gens) - 1), max_size=4))
        points.append(tuple(sum(gens[j][i] for j in picks) for i in range(s)))
        a, b = draw(st.integers(0, len(gens) - 1)), draw(st.integers(0, len(gens) - 1))
        points.append(tuple(x - y for x, y in zip(gens[a], gens[b])))
    points += draw(st.lists(st.tuples(*[st.integers(-4, 4)] * s), max_size=4))
    return points


@given(integer_cones(), st.data())
@settings(max_examples=150, deadline=None)
def test_facet_membership_matches_lp(gens, data):
    c = Cone(gens)
    equalities, normals = c.h_representation
    # the equalities span the orthogonal complement of the generators
    assert len(equalities) == c.dim - integer_rank(gens)
    assert all(_dot(e, g) == 0 for e in equalities for g in gens)
    assert all(_dot(y, g) >= 0 for y in normals for g in gens)
    for x in _test_points(data.draw, gens):
        expect = lp_cone_member(x, gens)
        assert cone_member(x, c) == expect
        y = c.violated(x)
        assert (y is None) == expect
        if y is not None:  # a separating functional, checked with integers
            assert _dot(y, x) < 0 and all(_dot(y, g) >= 0 for g in gens)
    half = tuple(F(v, 2) for v in gens[0])
    assert cone_member(half, c)


def test_facet_budget_names_its_constant(monkeypatch):
    # a square pyramid: four facets
    pyramid = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    monkeypatch.setattr(cones, "FACET_BUDGET", 4)
    assert len(Cone(pyramid).h_representation[1]) == 4
    monkeypatch.setattr(cones, "FACET_BUDGET", 3)
    with pytest.raises(ResourceLimit, match="exceeds 3 rays .FACET_BUDGET."):
        Cone(pyramid).h_representation


@given(integer_cones(), st.data())
@settings(max_examples=150, deadline=None)
def test_minimal_face_matches_per_generator_lp(vectors, data):
    hull = Cone(tuple(tuple(v) + (1,) for v in vectors))  # over (X_j, 1)
    picks = data.draw(st.lists(st.integers(0, len(vectors) - 1), min_size=1,
                               max_size=4))
    target = tuple(F(sum(vectors[j][i] for j in picks), len(picks))
                   for i in range(len(vectors[0])))
    assert lp_hull_member(vectors, target)
    assert cone_member(target + (1,), hull)
    assert minimal_face(target + (1,), hull) == lp_minimal_face(vectors, target)
    far = tuple(v + 9 for v in target)
    assert cone_member(far + (1,), hull) == lp_hull_member(vectors, far)


@given(integer_cones(), st.data())
@settings(max_examples=150, deadline=None)
def test_cone_equal_matches_lp_definition(gens, data):
    s = len(gens[0])
    how = data.draw(st.sampled_from(("shuffle", "add_sum", "add_point", "drop")))
    other = list(gens)
    if how == "shuffle":
        other = data.draw(st.permutations(other))
        other = [tuple(2 * x for x in g) for g in other]
    elif how == "add_sum":
        other.append(tuple(a + b for a, b in zip(gens[0], gens[-1])))
    elif how == "add_point":
        other.append(data.draw(st.tuples(*[st.integers(-3, 3)] * s)))
    elif len(other) > 1:
        other.pop(data.draw(st.integers(0, len(other) - 1)))
    assume(any(any(g) for g in other))
    a, b = Cone(gens), Cone(tuple(other))
    expect = lp_cone_equal(gens, other)
    sep = cone_separation(a, b)
    assert (sep is None) == expect
    if sep is not None:
        side, y, j = sep
        inner, outer = (gens, other) if side == 0 else (other, gens)
        assert all(_dot(y, g) >= 0 for g in inner) and _dot(y, outer[j]) < 0
