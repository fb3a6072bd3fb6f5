"""Exponent polynomials: products, powers and values against sympy, the
lattice walk against word counts, and the module's import boundary."""
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import froblip
from froblip import poly
from froblip.errors import ResourceLimit
from froblip.poly import _power, _times, _value, _walk


def polynomials(s):
    """Laurent polynomials in s variables with positive coefficients."""
    return st.dictionaries(st.tuples(*[st.integers(-3, 3)] * s), st.integers(1, 5),
                           min_size=1, max_size=5).map(Counter)


def polynomial_pairs():
    return st.integers(1, 3).flatmap(
        lambda s: st.tuples(polynomials(s), polynomials(s)))


def as_sympy(p):
    xs = sympy.symbols(f"x0:{len(next(iter(p)))}")
    return sympy.Add(*(c * sympy.Mul(*(x ** z for x, z in zip(xs, point)))
                       for point, c in p.items())), xs


@given(polynomial_pairs())
@settings(max_examples=60, deadline=None)
def test_times_is_sympy_expansion(pair):
    a, b = pair
    (ea, _), (eb, _), (eab, _) = as_sympy(a), as_sympy(b), as_sympy(_times(a, b))
    assert sympy.expand(ea * eb - eab) == 0


@given(st.integers(1, 3).flatmap(polynomials), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_power_is_sympy_expansion(p, k):
    (e, _), (ek, _) = as_sympy(p), as_sympy(_power(p, k))
    assert sympy.expand(e ** k - ek) == 0


@given(st.integers(1, 3).flatmap(polynomials))
@settings(max_examples=60, deadline=None)
def test_value_is_sympy_substitution_at_the_primes(p):
    e, xs = as_sympy(p)
    v = sympy.Rational(e.subs({x: sympy.prime(i + 1) for i, x in enumerate(xs)}))
    assert _value(p) == Fraction(int(v.p), int(v.q))


def test_times_refuses_past_its_budget(monkeypatch):
    monkeypatch.setattr(poly, "ITERATION_BUDGET", 3)
    a = Counter({(0,): 1, (1,): 1})
    assert _times(a, Counter({(0,): 1})) == a
    with pytest.raises(ResourceLimit, match="ITERATION_BUDGET = 3"):
        _times(a, a)


def _score(alpha, z):
    return sum(Fraction(a) * x for a, x in zip(alpha, z))


def _word_counts(vectors, alpha, bound=None, leaf=None):
    """Words counted one by one: the end points of the words whose steps
    stay within the bound, and that pass no leaf point before their end."""
    zero = (0,) * len(vectors[0])
    inner, leaves = Counter(), Counter()
    stack = [zero]
    while stack:
        z = stack.pop()
        if z != zero and leaf is not None and leaf(z):
            leaves[z] += 1
            continue
        inner[z] += 1
        for v in vectors:
            nxt = tuple(a + b for a, b in zip(z, v))
            if bound is None or _score(alpha, nxt) <= bound:
                stack.append(nxt)
    return inner, leaves


systems = st.integers(1, 3).flatmap(lambda s: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 3)] * s).filter(any), min_size=1, max_size=4),
    st.tuples(*[st.fractions(1, 3)] * s)))


@given(systems, st.fractions(0, 5))
@settings(max_examples=60, deadline=None)
def test_walk_bounded_counts_words(system, bound):
    vectors, alpha = system
    inner, leaves = _walk(vectors, alpha, 10 ** 6, "over", bound)
    assert (Counter(inner), Counter(leaves)) == _word_counts(vectors, alpha, bound)


@given(systems, st.fractions(1, 5))
@settings(max_examples=60, deadline=None)
def test_walk_leaves_count_cut_words(system, level):
    vectors, alpha = system

    def leaf(z):
        return _score(alpha, z) >= level

    inner, leaves = _walk(vectors, alpha, 10 ** 6, "over", leaf=leaf)
    assert (Counter(inner), Counter(leaves)) == _word_counts(vectors, alpha, leaf=leaf)
    # the words of a cut-set are the leaves of a full m-ary tree
    assert sum(leaves.values()) == 1 + (len(vectors) - 1) * sum(inner.values())


def test_walk_refuses_past_its_point_budget():
    with pytest.raises(ResourceLimit, match="too many"):
        _walk([(1,), (2,)], (1,), 10, "too many", bound=100)


BOUNDARY = """
import importlib.util, json, sys
init, path = sys.argv[1:]
spec = importlib.util.spec_from_file_location("froblip", init,
                                              submodule_search_locations=[path])
sys.modules["froblip"] = importlib.util.module_from_spec(spec)
before = set(sys.modules)
import froblip.poly
new = set(sys.modules) - before
print(json.dumps([sorted(m for m in new if m.startswith("froblip")),
                  sorted(m for m in new if not m.startswith("froblip")
                         and m.split(".")[0] not in sys.stdlib_module_names)]))
"""


def test_poly_imports_the_standard_library_and_errors_only():
    # the package object is made but its __init__, which imports the
    # whole library, is not run
    package = Path(froblip.__file__).parent
    proc = subprocess.run([sys.executable, "-c", BOUNDARY, froblip.__file__, str(package)],
                          capture_output=True, text=True, timeout=60, check=True)
    ours, third_party = json.loads(proc.stdout)
    assert ours == ["froblip.errors", "froblip.poly"]
    assert third_party == []
