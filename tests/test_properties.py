import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
import sympy

from froblip.errors import FroblipError
from froblip.frobenius import build_multiplicity, make_defining_data
from froblip.growth import gamma
from froblip.lattice import (
    coplanar,
    factor_rationals,
    integer_rank,
    reduce_to_pseudo_basis,
    row_hnf,
)

F = Fraction

rationals_in_unit = st.fractions(
    min_value=F(1, 64), max_value=F(63, 64)
).filter(lambda r: 0 < r < 1)


@given(st.lists(rationals_in_unit, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_factor_round_trip(ratios):
    basis, vectors = factor_rationals(ratios)
    for r, x in zip(ratios, vectors):
        assert basis.eval_exact(x) == r


@given(st.lists(rationals_in_unit, min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_reduce_preserves_values(ratios):
    basis, vectors = factor_rationals(ratios)
    try:
        nb, nv = reduce_to_pseudo_basis(basis, vectors)
    except FroblipError:
        return  # all-zero exponents cannot occur for ratios != 1
    for x, y in zip(vectors, nv):
        assert nb.eval_exact(y) == basis.eval_exact(x)


int_rows = st.lists(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    min_size=1,
    max_size=5,
)


@given(int_rows)
@settings(max_examples=80, deadline=None)
def test_rank_invariances(rows):
    rows = [tuple(r) for r in rows]
    r = integer_rank(rows)
    assert r == integer_rank(list(reversed(rows)))
    scaled = [tuple(3 * x for x in row) for row in rows]
    assert r == integer_rank(scaled)
    doubled = rows + rows
    assert r == integer_rank(doubled)
    # HNF is idempotent
    h = row_hnf(rows)
    if h:
        assert row_hnf(h) == h


step_vectors = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda v: v != (0, 0)
    ),
    min_size=2,
    max_size=4,
)


@given(step_vectors, st.permutations(range(4)))
@settings(max_examples=30, deadline=None)
def test_multiplicity_permutation_invariance(vectors, perm):
    data = make_defining_data(tuple(vectors))
    table = build_multiplicity(data, F(6))
    shuffled = [vectors[i] for i in perm if i < len(vectors)]
    if len(shuffled) != len(vectors):
        shuffled = list(reversed(vectors))
    data2 = make_defining_data(tuple(shuffled), data.alpha)
    table2 = build_multiplicity(data2, F(6))
    assert table.counts == table2.counts


@given(st.floats(0.05, 0.95))
@example(t=0.40317700503989856)
@example(t=0.41048371439560144)
@settings(max_examples=40, deadline=None)
def test_coplanar_entropy_exactness(t):
    # binomial family: closed-form Bernoulli entropy, times the scale
    # 1 / |(t, 1 - t)| of the unit direction
    g = gamma(make_defining_data([(1, 0), (0, 1)]), (t, 1 - t))
    expect = -t * math.log(t) - (1 - t) * math.log(1 - t)
    assert abs(g * math.hypot(t, 1 - t) - expect) < 1e-9


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_coplanar_functional_exact(vectors):
    # oracle: the rank of the matrix with the column of ones appended
    augmented = sympy.Matrix([[*v, 1] for v in vectors]).rank()
    assert coplanar(vectors) == (augmented == sympy.Matrix(vectors).rank())
