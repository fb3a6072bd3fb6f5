"""Per-layer spans and counts, recorded from outside froblip.

``Tracer.install`` replaces every public function of each froblip module
with a timing wrapper, at the module attribute and at every ``from .x
import`` binding in the other froblip modules (the package namespace
included).  A wrapper records a span (inclusive time, and self time: the
span minus its child spans) and lets per-function hooks read counts from
the arguments and the return value.  ``uninstall`` puts the originals
back, so untraced jobs run the unmodified program.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

from metrics import REASONS

LAYERS = ("lattice", "ratlp", "cones", "frobenius", "growth", "selfsimilar",
          "flows", "equivalence", "serialize", "cli")

MOMENT_TOL = 1e-12  # growth's documented Newton moment tolerance
LATTICE_COUNTED = ("factor_rationals", "reduce_to_pseudo_basis", "row_hnf",
                   "integer_rank")
SERIALIZE_LOAD = ("load_system", "ratios_from_json")
SERIALIZE_EMIT = ("system_to_json", "ratio_input_doc", "verdict_to_json",
                  "cutset_to_json", "match_report_to_json", "table_csv_lines",
                  "sweep_csv_lines")


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    return x


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)       # (layer, fn) -> calls
        self.incl = defaultdict(float)      # (layer, fn) -> inclusive seconds
        self.self_s = defaultdict(float)    # (layer, fn) -> self seconds
        self.counts = defaultdict(int)      # metric name -> count
        self.query_times = []
        self._stack = []
        self._job_seen = defaultdict(set)
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "froblip" or name.startswith("froblip.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"froblip.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched = []

    def start_job(self):
        self._job_seen.clear()

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get((layer, name))
        key = (layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                self.calls[key] += 1
                self.incl[key] += dur
                self.self_s[key] += dur - child
            if hook is not None:
                hook(self, args, kwargs, result, dur)
            return result

        return wrapper

    def seen_before(self, kind, key) -> bool:
        seen = self._job_seen[kind]
        if key in seen:
            return True
        seen.add(key)
        return False

    # -- reporting --------------------------------------------------------

    def layer_self(self, layer, names=None) -> float:
        return sum(v for (lay, fn), v in self.self_s.items()
                   if lay == layer and (names is None or fn in names))

    def metrics(self) -> dict:
        c, calls, incl = self.counts, self.calls, self.incl
        lp_calls = calls[("ratlp", "lp_max")]
        cone_calls = sum(v for (lay, _), v in calls.items() if lay == "cones")
        builds = calls[("frobenius", "build_multiplicity")]
        dp_s = incl[("frobenius", "build_multiplicity")]
        agg = calls[("flows", "degree_constrained_relation")]
        ratio = lambda num, den: num / den if den else 0.0
        out = {
            "lattice.calls": sum(calls[("lattice", f)] for f in LATTICE_COUNTED),
            "lattice.self_s": self.layer_self("lattice"),
            "ratlp.lp_calls": lp_calls,
            "ratlp.lp_cells": c["ratlp.lp_cells"],
            "ratlp.self_s": self.layer_self("ratlp"),
            "ratlp.dup_frac": ratio(c["ratlp.dup"], lp_calls),
            "cones.calls": cone_calls,
            "cones.self_s": self.layer_self("cones"),
            "cones.dup_frac": ratio(c["cones.dup"], cone_calls),
            "selfsimilar.build_calls": calls[("selfsimilar", "build_system")],
            "selfsimilar.build_s": incl[("selfsimilar", "build_system")],
            "selfsimilar.common_basis_calls": calls[("selfsimilar", "common_basis")],
            "selfsimilar.iterate_ratios": c["selfsimilar.iterate_ratios"],
            "selfsimilar.iterate_s": incl[("selfsimilar", "iterate")],
            "selfsimilar.cut_points": c["selfsimilar.cut_points"],
            "selfsimilar.cut_dp_s": incl[("selfsimilar", "cut_multiset")],
            "selfsimilar.cutset_words": c["selfsimilar.cutset_words"],
            "selfsimilar.cutset_s": incl[("selfsimilar", "cut_set")],
            "selfsimilar.match_s": self.layer_self(
                "selfsimilar", ("matchable", "matchable_search")),
            "frobenius.dp_builds": builds,
            "frobenius.dp_points": c["frobenius.dp_points"],
            "frobenius.dp_s": dp_s,
            "frobenius.dp_points_per_s": ratio(c["frobenius.dp_points"], dp_s),
            "frobenius.rebuild_frac": ratio(c["frobenius.rebuilds"], builds),
            "frobenius.query_calls": calls[("frobenius", "multiplicity_at")],
            "frobenius.query_s": incl[("frobenius", "multiplicity_at")],
            "frobenius.query_s.p50": (statistics.median(self.query_times)
                                      if self.query_times else 0.0),
            "frobenius.estimate_s": incl[("frobenius", "estimate_gamma")],
            "growth.entropy_calls": calls[("growth", "max_entropy")],
            "growth.self_s": self.layer_self("growth"),
            "growth.nonconverged": c["growth.nonconverged"],
            "flows.agg_calls": agg,
            "flows.agg_nodes": c["flows.agg_nodes"],
            "flows.agg_s": incl[("flows", "degree_constrained_relation")],
            "flows.word_calls": calls[("flows", "word_level_relation")],
            "flows.word_arcs": c["flows.word_arcs"],
            "flows.word_s": incl[("flows", "word_level_relation")],
            "flows.feasible_frac": ratio(c["flows.feasible"], agg),
            "equivalence.self_s": self.layer_self("equivalence"),
        }
        for reason in REASONS:
            out[f"equivalence.reason.{reason}"] = c[f"equivalence.reason.{reason}"]
        out["serialize.load_s"] = self.layer_self("serialize", SERIALIZE_LOAD)
        out["serialize.emit_s"] = self.layer_self("serialize", SERIALIZE_EMIT)
        out["serialize.bytes_out"] = c["serialize.bytes_out"]
        out["cli.self_s"] = self.layer_self("cli")
        return out


# -- hooks: counts from arguments and return values ----------------------


def _lp_max(tr, args, kwargs, result, dur):
    c, A, b = args[:3]
    tr.counts["ratlp.lp_cells"] += len(A) * (len(A[0]) if A else 0)
    if tr.seen_before("lp", (tuple(c), _freeze(A), tuple(b))):
        tr.counts["ratlp.dup"] += 1


def _cones(name):
    def hook(tr, args, kwargs, result, dur):
        if tr.seen_before("cones", (name, _freeze(args), _freeze(kwargs))):
            tr.counts["cones.dup"] += 1
    return hook


def _iterate(tr, args, kwargs, result, dur):
    tr.counts["selfsimilar.iterate_ratios"] += len(result.ratios)


def _cut_multiset(tr, args, kwargs, result, dur):
    tr.counts["selfsimilar.cut_points"] += len(result)


def _cut_set(tr, args, kwargs, result, dur):
    tr.counts["selfsimilar.cutset_words"] += len(result.words)


def _build_multiplicity(tr, args, kwargs, result, dur):
    tr.counts["frobenius.dp_points"] += len(result.counts)
    data = result.data
    if tr.seen_before("dp", (data.vectors, data.alpha)):
        tr.counts["frobenius.rebuilds"] += 1


def _multiplicity_at(tr, args, kwargs, result, dur):
    tr.query_times.append(dur)


def _max_entropy(tr, args, kwargs, result, dur):
    if result.residual > MOMENT_TOL:
        tr.counts["growth.nonconverged"] += 1


def _agg(tr, args, kwargs, result, dur):
    left, right = args[:2]
    tr.counts["flows.agg_nodes"] += len(left) + len(right)
    if result is not None:
        tr.counts["flows.feasible"] += 1


def _word_level(tr, args, kwargs, result, dur):
    edges = args[2] if len(args) > 2 else kwargs["edges"]
    tr.counts["flows.word_arcs"] += len(edges)


def _decide(tr, args, kwargs, result, dur):
    reason = result.reason if result.reason in REASONS else "other"
    tr.counts[f"equivalence.reason.{reason}"] += 1


HOOKS = {
    ("ratlp", "lp_max"): _lp_max,
    ("selfsimilar", "iterate"): _iterate,
    ("selfsimilar", "cut_multiset"): _cut_multiset,
    ("selfsimilar", "cut_set"): _cut_set,
    ("frobenius", "build_multiplicity"): _build_multiplicity,
    ("frobenius", "multiplicity_at"): _multiplicity_at,
    ("growth", "max_entropy"): _max_entropy,
    ("flows", "degree_constrained_relation"): _agg,
    ("flows", "word_level_relation"): _word_level,
    ("equivalence", "decide"): _decide,
}
for _name in ("cone_member", "cone_combination", "cone_equal", "v_plus_equal",
              "half_space_certificate", "coplanar_functional"):
    HOOKS[("cones", _name)] = _cones(_name)
