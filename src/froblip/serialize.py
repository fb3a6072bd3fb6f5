"""JSON and CSV encodings for the documented external interfaces."""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .equivalence import Verdict
from .errors import ParseError
from .lattice import Monomial, parse_rational
from .selfsimilar import (ContractionSystem, CutSet, MatchReport, _coordinates,
                          build_system)

CSV_HEADER = f"# frobenius-lipschitz v{__version__}"


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _json_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{field} must be a JSON list, not {json.dumps(value)}")
    return value


def ratios_from_json(doc: dict):
    """Decode the ratio-list input schema.

    Either ``{"rationals": ["1/2", "1/3"]}`` or
    ``{"generators": ["a", "b"], "monomials": [[1,0],[0,1]]}``: rationals
    are strings, generators distinct non-empty strings, and exponents
    integers.  Anything else, mixed schemas too, raises ParseError naming
    the field.
    """
    if "rationals" in doc:
        if "generators" in doc or "monomials" in doc:
            raise ParseError("'rationals' cannot be given with 'generators'/'monomials'")
        texts = _json_list(doc["rationals"], "'rationals'")
        for t in texts:
            if not isinstance(t, str):
                raise ParseError(f"'rationals' entry {json.dumps(t)} is not a string")
        return [parse_rational(t) for t in texts]
    if "generators" in doc and "monomials" in doc:
        gens = _json_list(doc["generators"], "'generators'")
        if not all(isinstance(g, str) and g for g in gens) \
                or len(set(gens)) < len(gens):
            raise ParseError(f"'generators' {json.dumps(gens)} are not distinct "
                             "non-empty strings")
        out = []
        for exps in _json_list(doc["monomials"], "'monomials'"):
            if len(_json_list(exps, "a 'monomials' row")) != len(gens):
                raise ParseError(f"'monomials' row {json.dumps(exps)} does not have "
                                 f"one exponent per generator of {json.dumps(gens)}")
            if not all(type(e) is int for e in exps):
                raise ParseError(f"'monomials' row {json.dumps(exps)} has a "
                                 "non-integer exponent")
            out.append(Monomial.make(dict(zip(gens, exps))))
        return out
    raise ParseError("expected 'rationals' or 'generators'+'monomials'")


def load_system(path: str) -> ContractionSystem:
    """Read a ratio-list or serialized-system JSON file and build from it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if "input" in doc:
        doc = doc["input"]
    if isinstance(doc, dict) and ("rationals" in doc or "monomials" in doc):
        return build_system(ratios_from_json(doc))
    raise ParseError(f"{path}: unrecognized system document")


def ratio_input_doc(system: ContractionSystem) -> dict:
    """Canonical ratio-list document reproducing the system on reload."""
    if not system.is_symbolic:
        return {"rationals": [_frac_str(r) for r in system.ratios]}
    basis, vectors = _coordinates(system.ratios)
    return {"generators": [str(g) for g in basis.values],
            "monomials": [list(v) for v in vectors]}


def system_to_json(system: ContractionSystem) -> dict:
    basis = [
        _frac_str(v) if isinstance(v, Fraction) else str(v)
        for v in system.basis.values
    ]
    ratios = [
        _frac_str(r) if isinstance(r, Fraction) else str(r)
        for r in system.ratios
    ]
    return {
        "input": ratio_input_doc(system),
        "ratios": ratios,
        "basis": basis,
        "exponents": [list(v) for v in system.exponents],
        "delta": system.delta,
        "alpha": [_frac_str(a) for a in system.alpha],
    }


def verdict_to_json(v: Verdict) -> dict:
    cert = None
    if v.certificate is not None:
        cert = dict(v.certificate)
        if "permutation" in cert and cert["permutation"] is not None:
            cert["permutation"] = list(cert["permutation"])
    return {
        "result": v.result,
        "reason": v.reason,
        "certificate": cert,
        "diagnostics": v.diagnostics,
    }


def cutset_to_json(cs: CutSet) -> list:
    out = []
    for word, exp, ratio in zip(cs.words, cs.exponents, cs.ratios):
        out.append({
            "word": "".join(map(str, word)),
            "exponent_vector": list(exp),
            "ratio_as_string": _frac_str(ratio) if isinstance(ratio, Fraction)
            else str(ratio),
        })
    return out


def match_report_to_json(report: MatchReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = [["".join(map(str, wi)), "".join(map(str, wj))]
                   for wi, wj in report.witness]
    return {
        "feasible": report.feasible,
        "m0": report.m0,
        "relation_size": report.relation_size,
        "witness": witness,
    }


def table_csv_lines(table) -> list:
    """CSV rows ``z_1,...,z_s,m(z)`` with decimal big integers."""
    s = table.data.dim
    lines = [CSV_HEADER,
             ",".join([f"z_{i + 1}" for i in range(s)] + ["m"])]
    for z in sorted(table.counts):
        lines.append(",".join([str(c) for c in z] + [str(table.counts[z])]))
    return lines


def sweep_csv_lines(rows: Sequence[dict], s: int) -> list:
    """Direction-sweep CSV with analytic and empirical columns."""
    header = [f"theta_{i + 1}" for i in range(s)]
    header += ["gamma_analytic", "gamma_empirical", "stderr"]
    lines = [CSV_HEADER, ",".join(header)]
    for row in rows:
        cells = [f"{t:.6f}" for t in row["theta"]]
        ga: Optional[float] = row.get("gamma_analytic")
        ge: Optional[float] = row.get("gamma_empirical")
        cells.append("" if ga is None else f"{ga:.6f}")
        cells.append("" if ge is None else f"{ge:.6f}")
        se = row.get("stderr")
        cells.append("" if se is None else f"{se:.6f}")
        lines.append(",".join(cells))
    return lines
