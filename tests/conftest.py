"""Every ``dimension`` refutation made while the tests run is re-checked
here, with mpmath and from the systems' own ratios: the certificate's
delta* must put the two sides of the dimension equation on opposite
signs."""
from fractions import Fraction

import mpmath
import pytest

from froblip import equivalence


def equation_at(system, delta: Fraction):
    """sum_j r_j**delta - 1 at 400 digits; on a symbolic system every
    generator is taken as 1/2, as the dimension test does."""
    with mpmath.workdps(400):
        d = mpmath.mpf(delta.numerator) / delta.denominator
        if system.is_symbolic:
            terms = [mpmath.mpf(2) ** (-d * sum(r.as_dict().values()))
                     for r in system.ratios]
        else:
            terms = [(mpmath.mpf(r.numerator) / r.denominator) ** d
                     for r in system.ratios]
        return mpmath.fsum(terms) - 1


def assert_delta_star(e, f, certificate):
    p, q = map(int, certificate["delta_star"].split("/"))
    fe, ff = equation_at(e, Fraction(p, q)), equation_at(f, Fraction(p, q))
    assert fe * ff < 0, (e.ratios, f.ratios, certificate, fe, ff)


@pytest.fixture(autouse=True, scope="session")
def recheck_dimension_refutations():
    real = equivalence._dimension

    def checked(pair):
        verdict = real(pair)
        if verdict is not None:
            assert_delta_star(pair.e, pair.f, verdict.certificate)
        return verdict

    # the stages are held in tuples, so the check replaces the stage there
    stages = equivalence.SCREEN, equivalence.STAGES
    equivalence.SCREEN, equivalence.STAGES = (
        tuple(checked if stage is real else stage for stage in t) for t in stages)
    yield
    equivalence.SCREEN, equivalence.STAGES = stages
