"""The record classes as values: equality, hashing, reprs, immutability,
copying and pickling, cached properties and constructor checks."""
import copy
import pickle
from fractions import Fraction

import pytest

from froblip import (
    Cone,
    DefiningData,
    DimensionMismatch,
    ExpThreshold,
    FroblipError,
    GrowthEstimate,
    MatchReport,
    Monomial,
    PseudoBasis,
    Verdict,
    build_multiplicity,
    build_system,
    cut_set,
    make_defining_data,
)
from froblip.equivalence import _pair

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
BASIS_REPR = "PseudoBasis(values=(Fraction(1, 2), Fraction(1, 3)))"
DATA_REPR = ("DefiningData(vectors=((1, 0), (0, 1)), "
             "alpha=(Fraction(1, 2), Fraction(1, 2)))")
SYSTEM_REPR = ("ContractionSystem(ratios=(Fraction(1, 2), Fraction(1, 3)), "
               f"basis={BASIS_REPR}, exponents=((1, 0), (0, 1)), "
               "delta=0.7878849110258698, alpha=(Fraction(1, 2), Fraction(1, 2)))")
POINTS_REPR = "Counter({(1, 0): 1, (0, 1): 1})"


def system():
    return build_system(["1/2", "1/3"])


def data():
    return make_defining_data(((1, 0), (0, 1)))


# name -> (build, an unequal value, hashable, repr)
CASES = {
    "Monomial": (lambda: Monomial.make({"u": 2, "v": 1}),
                 Monomial.make({"u": 2}), True,
                 "Monomial(powers=(('u', 2), ('v', 1)))"),
    "PseudoBasis": (lambda: PseudoBasis((HALF, THIRD)),
                    PseudoBasis((HALF,)), True, BASIS_REPR),
    "Cone": (lambda: Cone(((1, 0), (0, 1))), Cone(((1, 0), (1, 1))), True,
             "Cone(generators=((1, 0), (0, 1)))"),
    "Verdict": (lambda: Verdict("EQUIVALENT", "ITERATION_PERMUTATION", {"p": 1}),
                Verdict("EQUIVALENT", "ITERATION_PERMUTATION", {"p": 2}), False,
                "Verdict(result='EQUIVALENT', reason='ITERATION_PERMUTATION', "
                "certificate={'p': 1}, diagnostics=None)"),
    "Verdict-defaults": (lambda: Verdict("UNDECIDED", "NO_COMMON_BASIS"),
                         Verdict("UNDECIDED", "SEARCH_BOUND"), True,
                         "Verdict(result='UNDECIDED', reason='NO_COMMON_BASIS', "
                         "certificate=None, diagnostics=None)"),
    "_Pair": (lambda: _pair(system(), system()),
              _pair(system(), build_system(["1/3", "1/2"])), False,
              f"_Pair(e={SYSTEM_REPR}, f={SYSTEM_REPR}, e2={SYSTEM_REPR}, "
              f"f2={SYSTEM_REPR}, points_e={POINTS_REPR}, points_f={POINTS_REPR}, "
              "ranks=(2, 2))"),
    "DefiningData": (data, make_defining_data(((1, 0), (1, 1))), True, DATA_REPR),
    "MultiplicityTable": (lambda: build_multiplicity(data(), 3),
                          build_multiplicity(data(), 4), False,
                          f"MultiplicityTable(data={DATA_REPR}, bound=Fraction(3, 1))"),
    "GrowthEstimate": (lambda: GrowthEstimate((1.0, 0.0), 0.5, ((1.0, 0.1),), 0.01),
                       GrowthEstimate((1.0, 0.0), 0.5, ((1.0, 0.1),), 0.02), True,
                       "GrowthEstimate(theta=(1.0, 0.0), gamma_hat=0.5, "
                       "samples=((1.0, 0.1),), stderr=0.01)"),
    "ExpThreshold": (lambda: ExpThreshold(3), ExpThreshold(Fraction(7, 2)), True,
                     "ExpThreshold(k=Fraction(3, 1))"),
    "ContractionSystem": (system, build_system(["1/3", "1/2"]), True, SYSTEM_REPR),
    "CutSet": (lambda: cut_set(system(), Fraction(1, 4)),
               cut_set(system(), Fraction(1, 3)), True,
               "CutSet(threshold=Fraction(1, 4), words=((1, 1), (1, 2), (2, 1), "
               "(2, 2)), ratios=(Fraction(1, 4), Fraction(1, 6), Fraction(1, 6), "
               "Fraction(1, 9)), exponents=((2, 0), (1, 1), (1, 1), (0, 2)))"),
    "MatchReport": (lambda: MatchReport(True, 1, 3, None),
                    MatchReport(True, 2, 3, None), True,
                    "MatchReport(feasible=True, m0=1, relation_size=3, witness=None)"),
}

FIELDS = {
    "Monomial": ("powers",),
    "PseudoBasis": ("values",),
    "Cone": ("generators",),
    "Verdict": ("result", "reason", "certificate", "diagnostics"),
    "_Pair": ("e", "f", "e2", "f2", "points_e", "points_f", "ranks"),
    "DefiningData": ("vectors", "alpha"),
    "MultiplicityTable": ("data", "bound", "counts"),
    "GrowthEstimate": ("theta", "gamma_hat", "samples", "stderr"),
    "ExpThreshold": ("k",),
    "ContractionSystem": ("ratios", "basis", "exponents", "delta", "alpha"),
    "CutSet": ("threshold", "words", "ratios", "exponents"),
    "MatchReport": ("feasible", "m0", "relation_size", "witness"),
}

cases = pytest.mark.parametrize("name", list(CASES))


def fields(name):
    return FIELDS[name.split("-")[0]]


def values(record, name):
    return tuple(getattr(record, f) for f in fields(name))


@cases
def test_equality(name):
    build, other, _, _ = CASES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != values(a, name) and values(a, name) != a
    assert a.__eq__(values(a, name)) is NotImplemented


@cases
def test_keyword_construction(name):
    a = CASES[name][0]()
    assert type(a)(**dict(zip(fields(name), values(a, name)))) == a
    assert type(a)(*values(a, name)) == a


@cases
def test_hash(name):
    build, _, hashable, _ = CASES[name]
    a, b = build(), build()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@cases
def test_repr(name):
    build, _, _, text = CASES[name]
    assert repr(build()) == text


@cases
def test_fields_cannot_change(name):
    a = CASES[name][0]()
    first = fields(name)[0]
    if name == "MultiplicityTable":  # the one mutable record
        a.bound = Fraction(5)
        assert a.bound == 5
        return
    before = getattr(a, first)
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    with pytest.raises(AttributeError):
        delattr(a, first)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert getattr(a, first) is before


@cases
def test_copies_and_pickles_are_equal(name):
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a)
        assert b == a
        assert values(b, name) == values(a, name)


def test_multiplicity_table_compares_counts():
    a, b = build_multiplicity(data(), 3), build_multiplicity(data(), 3)
    b.counts[(9, 9)] = 1
    assert a != b


@pytest.mark.parametrize("build, attr", [
    (lambda: PseudoBasis((HALF, THIRD)), "alpha_real"),
    (lambda: PseudoBasis((HALF, THIRD)), "denominator_bits"),
    (lambda: PseudoBasis((HALF, THIRD)), "log_brackets"),
    (lambda: Cone(((1, 0), (0, 1))), "h_representation"),
    (data, "cone"),
    (data, "_in_cone"),
    (lambda: build_multiplicity(data(), 3), "fully_determined_bound"),
    (lambda: build_multiplicity(data(), 3), "_determined"),
    (system, "cone"),
], ids=["alpha_real", "denominator_bits", "log_brackets", "h_representation",
        "data-cone", "in_cone", "fully_determined_bound", "determined",
        "system-cone"])
def test_cached_property_is_computed_once(build, attr):
    a = build()
    assert attr not in vars(a)
    first = getattr(a, attr)
    assert vars(a)[attr] is first
    assert getattr(a, attr) is first
    assert a == build()  # a cached value is not a field


def test_constructor_checks():
    with pytest.raises(FroblipError, match="at least one generator"):
        Cone(())
    with pytest.raises(DimensionMismatch):
        Cone(((1, 0), (1,)))
    with pytest.raises(FroblipError, match="all cone generators are zero"):
        Cone(((0, 0), (0, 0)))
    with pytest.raises(FroblipError, match="empty pseudo-basis"):
        PseudoBasis(())
    with pytest.raises(FroblipError, match="outside"):
        PseudoBasis((HALF, Fraction(3, 2)))
    with pytest.raises(FroblipError, match="positive"):
        ExpThreshold(0)
    with pytest.raises(FroblipError, match="half-space"):
        DefiningData(((1, 0), (-1, 0)), (Fraction(1), Fraction(1)))


def test_exp_threshold_reads_k_as_a_fraction():
    t = ExpThreshold(3)
    assert type(t.k) is Fraction and t.k == 3
    assert ExpThreshold("7/2").k == Fraction(7, 2)
    assert ExpThreshold(1.5) == ExpThreshold(Fraction(3, 2))


def test_verdict_defaults():
    v = Verdict(result="UNDECIDED", reason="X", diagnostics={"a": 1})
    assert v.certificate is None and v.diagnostics == {"a": 1}
    assert Verdict("UNDECIDED", "X").diagnostics is None

