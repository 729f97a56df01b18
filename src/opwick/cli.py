"""Command line front end.

Subcommands: ``contract`` (contraction matrix of an ordering pair),
``reorder`` (rewrite an expression into a target ordering), ``verify``
(brute-force sweep), ``numeric`` (truncated-Fock comparison of two
expressions), ``quadratic`` (Gaussian quadratic-form transform), and
``squeeze`` (two-mode squeezing pipeline).  The configuration file comes
from ``--config`` or the ``GWT_CONFIG`` environment variable; ``--format``
selects text, json, or latex output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, OpwickError
from .algebra import canonical_reduce
from .config import RegistryConfig, read_json
from .contractions import contraction_def
from .oracle import sweep
from .parsing import expression_to_poly, parse_expression
from .reorder import reorder_substitution
from .render import (
    contraction_to_json,
    contraction_to_latex,
    poly_to_json,
    poly_to_latex,
    poly_to_text,
)

__all__ = ["main", "run_command", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opwick",
        description="reorder operator products between operator orderings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-c", "--config", help="configuration JSON path")
    parser.add_argument(
        "--format", choices=("text", "json", "latex"), default="text"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    contract = sub.add_parser("contract", help="contraction matrix of a pair")
    contract.add_argument("--from", dest="o_from", required=True)
    contract.add_argument("--to", dest="o_to", required=True)
    contract.add_argument("--basis", default=None)

    reorder = sub.add_parser("reorder", help="rewrite into the target ordering")
    reorder.add_argument("--from", dest="o_from", required=True)
    reorder.add_argument("--to", dest="o_to", required=True)
    reorder.add_argument("--basis", default=None)
    reorder.add_argument("expression")

    verify = sub.add_parser("verify", help="brute-force oracle sweep")
    verify.add_argument("--from", dest="o_from", required=True)
    verify.add_argument("--to", dest="o_to", required=True)
    verify.add_argument("--basis", default=None)
    verify.add_argument("--max-len", type=int, default=3)
    verify.add_argument("--jsonl", action="store_true",
                        help="stream one JSON report per instance")

    numeric = sub.add_parser("numeric", help="truncated-Fock comparison")
    numeric.add_argument("--trunc", type=int, default=None)
    numeric.add_argument("--block", type=int, required=True)
    numeric.add_argument("expr_a")
    numeric.add_argument("expr_b")

    quadratic = sub.add_parser("quadratic", help="Gaussian quadratic transform")
    quadratic.add_argument("--D", dest="d_file", required=True,
                           help="JSON file with the covariance matrix")
    quadratic.add_argument("--from", dest="o_from", required=True)
    quadratic.add_argument("--to", dest="o_to", required=True)
    quadratic.add_argument("--basis", default=None)

    squeeze = sub.add_parser("squeeze", help="two-mode squeezing pipeline")
    squeeze.add_argument("--g", type=float, required=True)
    squeeze.add_argument("--trunc", type=int, required=True)
    squeeze.add_argument("--block", type=int, default=10)

    return parser


def _render_poly(p, fmt):
    if fmt == "json":
        return json.dumps(poly_to_json(p), ensure_ascii=False)
    if fmt == "latex":
        return poly_to_latex(p)
    return poly_to_text(p)


def _cmd_contract(config, args):
    o = config.ordering(args.o_from)
    op = config.ordering(args.o_to)
    basis = config.basis(args.basis)
    c = contraction_def(o, op, basis, config.table)
    if args.format == "json":
        return 0, json.dumps(contraction_to_json(c), ensure_ascii=False)
    if args.format == "latex":
        return 0, contraction_to_latex(c)
    return 0, str(c)


def _cmd_reorder(config, args):
    o = config.ordering(args.o_from)
    op = config.ordering(args.o_to)
    basis = config.basis(args.basis)
    ast = parse_expression(args.expression, config)
    poly = expression_to_poly(ast, config)
    c = contraction_def(o, op, basis, config.table)
    out = reorder_substitution(o, op, basis, c, poly)
    out = canonical_reduce(out, config.table)
    return 0, _render_poly(out, args.format)


def _cmd_verify(config, args):
    o = config.ordering(args.o_from)
    op = config.ordering(args.o_to)
    basis = config.basis(args.basis)
    pool = list(basis.source.values())
    lines = []
    sink = (lambda rep: lines.append(rep.to_json())) if args.jsonl else None
    report = sweep(o, op, basis, config.table, args.max_len, pool, sink=sink)
    status = 0 if report.failed == 0 else 1
    if args.jsonl:
        return status, "\n".join(lines)
    summary = {
        "total": report.total,
        "passed": report.passed,
        "failed": report.failed,
        "orderings": [o.name, op.name],
        "max_len": args.max_len,
    }
    if report.failures:
        summary["failures"] = [
            json.loads(rep.to_json()) for rep in report.failures[:10]
        ]
    if args.format == "json":
        return status, json.dumps(summary, ensure_ascii=False)
    text = (
        f"verified {report.total} words up to length {args.max_len}: "
        f"{report.passed} passed, {report.failed} failed"
    )
    return status, text


def _cmd_numeric(config, args):
    from .fock import block_compare, represent

    reg = config.mode_registry(args.trunc)
    if reg is None:
        raise ConfigError("configuration declares no Fock modes")
    ctx = config.numeric_context()
    polys = []
    for text in (args.expr_a, args.expr_b):
        ast = parse_expression(text, config)
        polys.append(expression_to_poly(ast, config))
    m1 = represent(polys[0], reg, ctx)
    m2 = represent(polys[1], reg, ctx)
    diff = block_compare(m1, m2, args.block)
    doc = {
        "max_abs_difference": diff,
        "block_occupation": args.block,
        "dimension": reg.dimension,
    }
    if args.format == "json":
        return 0, json.dumps(doc)
    return 0, (
        f"max |difference| on occupation <= {args.block}: {diff:.3e} "
        f"(dimension {reg.dimension})"
    )


def _cmd_quadratic(config, args):
    from .gaussian import reorder_quadratic_form

    d_doc = read_json(args.d_file)
    try:
        D = np.array(d_doc["D"] if isinstance(d_doc, dict) else d_doc, dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"covariance file {args.d_file}: {type(exc).__name__}: {exc}"
        ) from None
    o = config.ordering(args.o_from)
    op = config.ordering(args.o_to)
    basis = config.basis(args.basis)
    names = [s.name for s in basis.source.values()]
    if D.shape != (len(names), len(names)):
        raise ConfigError(
            f"covariance shape {D.shape} does not match the {len(names)} "
            f"source symbols {names}"
        )
    c_sym = contraction_def(o, op, basis, config.table)
    ctx = config.numeric_context()
    C = np.array(
        [[c_sym.get(a, b).evaluate(ctx) for b in names] for a in names]
    )
    d_prime, prefactor = reorder_quadratic_form(o, op, C, D)
    doc = {
        "symbols": names,
        "d_prime": [[_cnum(z) for z in row] for row in d_prime],
        "prefactor": _cnum(prefactor),
        "contraction": [[_cnum(z) for z in row] for row in C],
    }
    if args.format == "json":
        return 0, json.dumps(doc)
    lines = [f"symbols: {', '.join(names)}"]
    lines.append("D' rows:")
    for row in d_prime:
        lines.append("  " + "  ".join(f"{z.real:+.12g}{z.imag:+.12g}i" for z in row))
    lines.append(f"prefactor: {prefactor.real:.12g}"
                 + (f"{prefactor.imag:+.12g}i" if abs(prefactor.imag) > 1e-14 else ""))
    return 0, "\n".join(lines)


def _cnum(z):
    z = complex(z)
    return [z.real, z.imag]


def _cmd_squeeze(config, args):
    from .fock import check_block
    from .gaussian import squeeze_normal_form

    check_block(args.block)  # before the pipeline, not after it has run
    report = squeeze_normal_form(args.g, args.trunc)
    block = min(args.block, args.trunc - 2)
    doc = {
        "g": args.g,
        "truncation": args.trunc,
        "block_occupation": block,
        "pipeline_vs_reference": report.block_error("pipeline", block),
        "literal_vs_reference": report.block_error("literal_pipeline", block),
        "printed_vs_reference": report.block_error("printed_form", block),
        "exponent": {k: _cnum(v) for k, v in report.exponent.items()},
        "prefactor": _cnum(report.prefactor),
        "covariance": report.covariance,
        "normalization": report.normalization,
    }
    if args.format == "json":
        return 0, json.dumps(doc)
    lines = [
        f"two-mode squeezing, g={args.g}, truncation {args.trunc}",
        f"  pipeline vs matrix exponential (occ<={block}): "
        f"{doc['pipeline_vs_reference']:.3e}",
        f"  literal-parameter pipeline deviation:          "
        f"{doc['literal_vs_reference']:.3e}",
        f"  printed closed form deviation:                 "
        f"{doc['printed_vs_reference']:.3e}",
        f"  exponent: kappa_down={report.exponent['kappa_down'].real:+.9f}, "
        f"kappa_up={report.exponent['kappa_up'].real:+.9f}, "
        f"nu={report.exponent['nu'].real:+.9f}",
        f"  prefactor: {report.prefactor.real:.9f}",
    ]
    return 0, "\n".join(lines)


_COMMANDS = {
    "contract": _cmd_contract,
    "reorder": _cmd_reorder,
    "verify": _cmd_verify,
    "numeric": _cmd_numeric,
    "quadratic": _cmd_quadratic,
    "squeeze": _cmd_squeeze,
}


def run_command(argv) -> tuple:
    """Parse arguments, dispatch, and return (exit_status, output_text)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RegistryConfig.from_env_or_path(args.config)
        handler = _COMMANDS[args.command]
        return handler(config, args)
    except OpwickError as exc:
        error_doc = {
            "error": {"type": type(exc).__name__, "message": str(exc)}
        }
        return 1, json.dumps(error_doc, ensure_ascii=False)


def main(argv=None) -> int:
    status, output = run_command(
        argv if argv is not None else sys.argv[1:]
    )
    stream = sys.stdout if status == 0 else sys.stderr
    print(output, file=stream)
    return status


if __name__ == "__main__":
    sys.exit(main())
