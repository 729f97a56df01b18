"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --write-spec``), so the names and units printed by a
run and the ones the file declares come from one place.
"""

RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "oracle_sweep",
        "why": "the four acceptance-1 ordering pairs swept to length 5 through "
               "opwick.sweep: the exact core (reduce, order, expand, both "
               "transforms, oracle) does nearly all the work",
    },
    {
        "name": "cli_mix",
        "why": "seeded run_command requests over the shipped configs, each "
               "reloading its config: the only workload using parsing, config, "
               "render and cli, and the small-dimension Fock path",
    },
    {
        "name": "fock_dense",
        "why": "dense Fock checks (two-mode squeeze at trunc 30, trunc-60 "
               "quadratic identity, dim-900 represent pairs): numpy and scipy "
               "do the work and the exact core is idle",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.01},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


# Per-layer values are averages per traced op ("/op" units), except shares,
# maxima and the tracing overhead.
PER_LAYER = [
    _layer("scalars.poly_mul.calls", "count/op"),
    _layer("scalars.poly_add.calls", "count/op"),
    _layer("scalars.gauss_new.calls", "count/op"),
    _layer("algebra.canonical_reduce.calls", "count/op"),
    _layer("algebra.canonical_reduce.self_s", "s/op"),
    _layer("algebra.canonical_reduce.words_in", "count/op"),
    _layer("algebra.canonical_reduce.terms_out", "count/op"),
    _layer("algebra.canonical_reduce.repeat_share", "frac", "higher"),
    _layer("algebra.opoly_mul.calls", "count/op"),
    _layer("orderings.order_word.calls", "count/op"),
    _layer("orderings.order_word.self_s", "s/op"),
    _layer("orderings.order_word.arrangements", "count/op"),
    _layer("orderings.order_word.distinct_arrangements", "count/op"),
    _layer("orderings.order_word_foreign.calls", "count/op"),
    _layer("orderings.order_word_foreign.self_s", "s/op"),
    _layer("orderings.expand_poly.calls", "count/op"),
    _layer("orderings.expand_poly.self_s", "s/op"),
    _layer("orderings.expand_poly.identity_share", "frac", "higher"),
    _layer("contractions.contraction_def.calls", "count/op"),
    _layer("contractions.contraction_def.self_s", "s/op"),
    _layer("reorder.reorder_substitution.calls", "count/op"),
    _layer("reorder.reorder_substitution.self_s", "s/op"),
    _layer("reorder.reorder_substitution.terms_out", "count/op"),
    _layer("reorder.reorder_exponential.calls", "count/op"),
    _layer("reorder.reorder_exponential.self_s", "s/op"),
    _layer("reorder.reorder_exponential.terms_out", "count/op"),
    _layer("oracle.definitional_order.self_s", "s/op"),
    _layer("oracle.verify_instance.calls", "count/op"),
    _layer("oracle.verify_instance.self_s", "s/op"),
    _layer("fock.represent.calls", "count/op"),
    _layer("fock.represent.self_s", "s/op"),
    _layer("fock.represent.dim_max", "dim"),
    _layer("fock.represent.gflop_computed", "GFLOP/op"),
    _layer("fock.block_compare.self_s", "s/op"),
    _layer("fock.matexp.calls", "count/op"),
    _layer("fock.matexp.self_s", "s/op"),
    _layer("gaussian.squeeze_normal_form.self_s", "s/op"),
    _layer("gaussian.quadratic_identity_check.self_s", "s/op"),
    _layer("gaussian.expm.calls", "count/op"),
    _layer("gaussian.expm.self_s", "s/op"),
    _layer("gaussian.expm.dim_max", "dim"),
    _layer("parsing.parse_expression.self_s", "s/op"),
    _layer("parsing.expression_to_poly.self_s", "s/op"),
    _layer("config.load.self_s", "s/op"),
    _layer("render.self_s", "s/op"),
    _layer("cli.build_parser.self_s", "s/op"),
    _layer("cli.run_command.self_s", "s/op"),
    _layer("trace.overhead_frac", "frac"),
]


def benchmark_json() -> dict:
    """The document written to ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
