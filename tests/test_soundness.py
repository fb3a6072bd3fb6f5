"""The soundness gate: ``decide`` and each of its stages, run on pairs that
are equivalent by construction (``equivalent_pairs``), never refute one.

Every stage of ``STAGES`` is also run directly on every pair, whatever the
stages before it found.  ``_two_branch`` and ``_coplanar`` refute only
pairs that ``_identity`` did not prove, so their refutations count only on
pairs that no earlier stage decided; any other stage must never refute.
The decided fraction per family is printed (``pytest -rP``): it is the
measure by which a new deciding stage shows what it adds.
"""
import random
from collections import Counter

from equivalent_pairs import FAMILIES
from froblip import equivalence
from froblip.equivalence import EQUIVALENT, NOT_EQUIVALENT, decide

PAIRS = {"cut": 150, "iteration": 60, "permutation": 100, "two_branch": 100}
CONDITIONAL = (equivalence._two_branch, equivalence._coplanar)


def _check_stages(e, f):
    pair, decided = equivalence._pair(e, f), False
    for stage in equivalence.STAGES:
        verdict = stage(pair)
        if verdict is not None and verdict.result == NOT_EQUIVALENT:
            assert decided and stage in CONDITIONAL, (stage.__name__, verdict,
                                                      e.ratios, f.ratios)
        decided = decided or verdict is not None


def test_no_stage_refutes_an_equivalent_pair():
    assert set(PAIRS) == set(FAMILIES)
    for family, count in PAIRS.items():
        rng = random.Random(f"soundness {family}")
        results = Counter()
        for _ in range(count):
            e, f = FAMILIES[family](rng)
            verdict = decide(e, f)
            assert verdict.result != NOT_EQUIVALENT, (family, verdict, e.ratios, f.ratios)
            results[verdict.result] += 1
            _check_stages(e, f)
        print(f"{family}: {results[EQUIVALENT]}/{count} decided "
              f"({results[EQUIVALENT] / count:.0%}), {dict(results)}")
