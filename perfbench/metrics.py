"""Metric definitions, and which end-to-end metric each layer metric moves.

BENCHMARK.json lists the same names; ``selfcheck.py`` checks that the two
agree.  ``MOVES`` records, before any optimisation, the end-to-end metric
and workload a change in each layer metric should show up in.
"""

# name: (unit, better, bound, meaning)
END_TO_END = {
    "jobs_per_s": ("1/s", "higher", 0.25,
                   "jobs completed per second of the timed loop at the "
                   "reference speed (speed.py); every job runs once, on an "
                   "input no other job of the run repeats at exponent level"),
    "job_s.p50": ("s", "lower", 0.25,
                  "median wall time of one CLI job at the reference speed"),
    "job_s.p90": ("s", "lower", 0.25,
                  "90th-percentile job time at the reference speed; a run "
                  "holds >= 100 jobs"),
    "setup_s": ("s", "lower", 0.25,
                "median over 9 fresh interpreters, spread over the run "
                "between rounds, of the time to import froblip.cli, at the "
                "reference speed"),
    "peak_rss_mb": ("MB", "lower", 0.1, "maximum RSS of the workload process"),
    "ok_frac": ("ratio", "higher", 0.01,
                "1 - fail_frac: jobs that exited as their input expects and "
                "passed their oracle, over jobs attempted"),
    "decided_frac": ("ratio", "higher", 0.05,
                     "1 - UNDECIDED verdicts over jobs attempted "
                     "(1 - undecided_frac on decide_mix, 1 elsewhere)"),
}

# name: (unit, better, meaning)
PER_LAYER = {
    "lattice.calls": ("count", "lower",
                      "factor_rationals, reduce_to_pseudo_basis, row_hnf and "
                      "integer_rank calls"),
    "lattice.self_s": ("s", "lower", "self time of lattice functions"),
    "ratlp.lp_calls": ("count", "lower", "lp_max calls"),
    "ratlp.lp_cells": ("count", "lower", "sum of rows x columns over lp_max calls"),
    "ratlp.self_s": ("s", "lower", "self time of ratlp functions"),
    "ratlp.dup_frac": ("ratio", "lower",
                       "share of lp_max calls whose exact inputs were solved "
                       "earlier in the same job"),
    "cones.calls": ("count", "lower", "calls of cones functions"),
    "cones.self_s": ("s", "lower", "self time of cones functions"),
    "cones.dup_frac": ("ratio", "lower",
                       "share of cones calls repeating an earlier call of the job"),
    "selfsimilar.build_calls": ("count", "lower", "build_system calls"),
    "selfsimilar.build_s": ("s", "lower", "inclusive build_system time"),
    "selfsimilar.common_basis_calls": ("count", "lower", "common_basis calls"),
    "selfsimilar.iterate_ratios": ("count", "lower", "ratios produced by iterate"),
    "selfsimilar.iterate_s": ("s", "lower", "inclusive iterate time"),
    "selfsimilar.cut_points": ("count", "lower",
                               "lattice points returned by cut_multiset"),
    "selfsimilar.cut_dp_s": ("s", "lower", "inclusive cut_multiset time"),
    "selfsimilar.cutset_words": ("count", "lower", "words returned by cut_set"),
    "selfsimilar.cutset_s": ("s", "lower", "inclusive cut_set time"),
    "selfsimilar.match_s": ("s", "lower",
                            "self time of matchable and matchable_search"),
    "frobenius.dp_builds": ("count", "lower", "build_multiplicity calls"),
    "frobenius.dp_points": ("count", "lower", "table points built"),
    "frobenius.dp_s": ("s", "lower", "inclusive build_multiplicity time"),
    "frobenius.dp_points_per_s": ("1/s", "higher", "dp_points / dp_s"),
    "frobenius.rebuild_frac": ("ratio", "lower",
                               "builds of data already built in the same job"),
    "frobenius.query_calls": ("count", "lower", "multiplicity_at calls"),
    "frobenius.query_s": ("s", "lower", "inclusive multiplicity_at time"),
    "frobenius.query_s.p50": ("s", "lower", "median multiplicity_at call"),
    "frobenius.estimate_s": ("s", "lower", "inclusive estimate_gamma time"),
    "growth.entropy_calls": ("count", "lower", "max_entropy calls"),
    "growth.self_s": ("s", "lower", "self time of growth functions"),
    "growth.nonconverged": ("count", "lower",
                            "max_entropy results with residual > 1e-12"),
    "flows.agg_calls": ("count", "lower", "degree_constrained_relation calls"),
    "flows.agg_nodes": ("count", "lower", "point groups passed to the aggregated flow"),
    "flows.agg_s": ("s", "lower", "inclusive degree_constrained_relation time"),
    "flows.word_calls": ("count", "lower", "word_level_relation calls"),
    "flows.word_arcs": ("count", "lower", "word pairs passed to word_level_relation"),
    "flows.word_s": ("s", "lower", "inclusive word_level_relation time"),
    "flows.feasible_frac": ("ratio", "higher",
                            "feasible aggregated flow solves / attempts"),
    "equivalence.self_s": ("s", "lower", "self time of equivalence functions"),
}
REASONS = ("dimension", "rank", "cone", "v_plus", "PERMUTATION",
           "full_rank_multiset", "TWO_BRANCH_SPECIAL", "two_branch",
           "ITERATION_COUNTING", "NO_ITERATION_CARDINALITY",
           "ITERATION_PERMUTATION", "SEARCH_BOUND",
           "OUTSIDE_DECIDABLE_FAMILIES", "NO_COMMON_BASIS", "other")
for _reason in REASONS:
    PER_LAYER[f"equivalence.reason.{_reason}"] = (
        "count", "lower" if _reason == "OUTSIDE_DECIDABLE_FAMILIES" else "higher",
        f"decide verdicts with reason {_reason}")
PER_LAYER.update({
    "serialize.load_s": ("s", "lower", "self time of load_system and ratios_from_json"),
    "serialize.emit_s": ("s", "lower", "self time of the JSON/CSV encoders"),
    "serialize.bytes_out": ("B", "lower", "bytes the CLI wrote"),
    "cli.self_s": ("s", "lower", "job time minus all other layer spans"),
    "trace.overhead": ("ratio", "lower",
                       "1 - traced jobs_per_s / untraced jobs_per_s, the "
                       "untraced jobs twins of the traced ones (same "
                       "structures, other labels)"),
})

# layer metric -> [(end-to-end metric, workload), ...]
MOVES = {
    "lattice.*": [("jobs_per_s", "decide_mix")],
    "ratlp.*": [("job_s.p90", "decide_mix"), ("jobs_per_s", "decide_mix")],
    "cones.*": [("jobs_per_s", "decide_mix")],
    "selfsimilar.build_*, common_basis_calls, iterate_*": [("jobs_per_s", "decide_mix")],
    "selfsimilar.cut_points, cut_dp_s": [("job_s.p50", "match_ladder")],
    "selfsimilar.cutset_words, cutset_s": [("jobs_per_s", "table_sweep")],
    "frobenius.dp_*": [("jobs_per_s", "table_sweep"), ("peak_rss_mb", "table_sweep"),
                       ("job_s.p50", "table_sweep")],
    "frobenius.rebuild_frac": [("job_s.p50", "table_sweep")],
    "frobenius.query_*, estimate_s": [("job_s.p50", "table_sweep"),
                                      ("job_s.p90", "table_sweep")],
    "growth.*": [("job_s.p50", "table_sweep")],
    "flows.agg_*": [("job_s.p50", "match_ladder")],
    "flows.word_*, feasible_frac": [("job_s.p90", "match_ladder")],
    "equivalence.*": [("decided_frac", "decide_mix"), ("jobs_per_s", "decide_mix")],
    "serialize.*": [("jobs_per_s", "table_sweep")],
    "cli.self_s": [("jobs_per_s", "all")],
}

# Layer isolation the workloads are designed for: metric -> workloads on
# which it must read 0.
ZERO_ON = {
    "frobenius.dp_points": ("decide_mix", "match_ladder"),
    "flows.agg_calls": ("decide_mix", "table_sweep"),
    "growth.entropy_calls": ("decide_mix",),
}
