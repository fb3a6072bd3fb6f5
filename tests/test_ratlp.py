from fractions import Fraction

import sympy

from froblip import ratlp
from lp_oracles import feasible_nonneg

F = Fraction


def test_lp_max_known_optimum():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0 -> (8/5, 6/5), 14/5
    status, x, value = ratlp.lp_max(
        [F(1), F(1)],
        [[F(1), F(2)], [F(3), F(1)]],
        [F(4), F(6)],
    )
    assert status == ratlp.OPTIMAL
    assert value == F(14, 5)
    assert x == [F(8, 5), F(6, 5)]


def test_lp_max_infeasible():
    # x <= -1 with x >= 0
    status, x, value = ratlp.lp_max([F(1)], [[F(1)]], [F(-1)])
    assert status == ratlp.INFEASIBLE


def test_lp_max_unbounded():
    # max x1 with x1 - x2 = 0: push both to infinity
    status, x, value = ratlp.lp_max([F(1), F(0)], [[F(1), F(-1)]], [F(0)])
    assert status == ratlp.UNBOUNDED


def _sympy_solve(M, b):
    """An exact solution of M y = b with the free variables at 0, by
    sympy's Gauss-Jordan solve, or None when there is none."""
    try:
        sol, params = sympy.Matrix(M).gauss_jordan_solve(sympy.Matrix(b))
    except ValueError:  # inconsistent
        return None
    sol = sol.subs({p: 0 for p in params})
    return [F(int(v.p), int(v.q)) for v in sol]


def _brute_force_lp(c, A, b):
    """Best basic feasible solution by enumerating column subsets."""
    import itertools

    m, n = len(A), len(c)
    best = None
    for cols in itertools.combinations(range(n), m):
        M = [[A[i][j] for j in cols] for i in range(m)]
        y = _sympy_solve(M, b)
        if y is None or any(v < 0 for v in y):
            continue
        val = sum(c[j] * y[k] for k, j in enumerate(cols))
        if best is None or val > best:
            best = val
    return best


def test_lp_max_degenerate_cycling_instance():
    # Beale's cycling-prone data in equality form; Bland's rule must
    # terminate, and the value must match the vertex-enumeration oracle
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    A = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    b = [F(0), F(0), F(1)]
    status, x, value = ratlp.lp_max(c, A, b)
    assert status == ratlp.OPTIMAL
    assert value == _brute_force_lp(c, A, b)


def test_lp_max_matches_brute_force_on_small_instances():
    import itertools

    vals = [F(-2), F(-1), F(0), F(1), F(2)]
    cases = [
        ([F(1), F(2), F(0)], [[F(1), F(1), F(1)]], [F(3)]),
        ([F(1), F(-1), F(2), F(1)],
         [[F(1), F(0), F(1), F(1)], [F(0), F(1), F(2), F(1)]],
         [F(2), F(2)]),
    ]
    for a1, a2 in itertools.product(vals, repeat=2):
        cases.append(([F(1), F(1)], [[a1, a2]], [F(1)]))
    for c, A, b in cases:
        status, x, value = ratlp.lp_max(c, A, b)
        oracle = _brute_force_lp(c, A, b)
        if status == ratlp.OPTIMAL:
            assert value == oracle
            # returned point must be feasible
            for row, rhs in zip(A, b):
                assert sum(r * v for r, v in zip(row, x)) == rhs
            assert all(v >= 0 for v in x)
        elif status == ratlp.INFEASIBLE:
            assert oracle is None


def test_feasible_nonneg():
    # x1*(1,0) + x2*(1,1) = (3,2)
    sol = feasible_nonneg([[F(1), F(1)], [F(0), F(1)]], [F(3), F(2)])
    assert sol is not None
    assert sol[0] * 1 + sol[1] * 1 == 3
    assert sol[1] == 2
    # (−1, 0) has no nonnegative representation
    assert feasible_nonneg(
        [[F(1), F(1)], [F(0), F(1)]], [F(-1), F(0)]) is None
