"""Contract of ``run_command``: every request ends as ``(0, text)`` or as
``(1, typed error JSON)``, and never raises.

Expressions are generated from the ``parsing`` grammar and then mutated:
wrapped in deep nesting, given a zero denominator, and edited character by
character.  Numeric arguments take extreme values, including sizes past the
dimension caps, which must be refused before anything is allocated.

Generated words stay short (degree at most 6, ``exp`` order at most 2), and
the only digit ever inserted is a zero denominator's: reordering a long word
has no work cap yet (``exp(a*a†; 12)`` from Weyl order runs past 25 s), so it
would make a slow example, not a wrong one.
"""

import json
import math
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from opwick import errors
from opwick.cli import run_command
from opwick.parsing import (
    MAX_NESTING,
    Bracket,
    Exp,
    OrderApply,
    Product,
    Scalar,
    Sum,
    SymbolRef,
    print_expression,
)
from opwick.scalars import GaussianRational

CONTRACT = settings(max_examples=60, deadline=None, derandomize=True)


def config_path(name):
    return str(resources.files("opwick") / "configs" / name)


# config, its operator symbols, its orderings, and one (from, to) pair whose
# contraction exists
CONFIGS = [
    (config_path("boson_one_mode.json"), ["a", "a†"],
     ["normal", "antinormal", "weyl"], ("weyl", "normal")),
    (config_path("quadrature.json"), ["a", "a†", "q", "p"],
     ["normal", "antinormal", "weyl", "qp"], ("qp", "normal")),
    (config_path("fermion_timed.json"), ["c1", "c1†", "c2", "c2†"],
     ["time", "normal"], ("time", "normal")),
]

ERROR_TYPES = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.OpwickError)
}


def assert_contract(argv):
    status, out = run_command(argv)
    assert isinstance(out, str)
    if status == 0:
        return
    assert status == 1, (argv, status, out)
    doc = json.loads(out)
    assert doc["error"]["type"] in ERROR_TYPES, (argv, out)
    assert isinstance(doc["error"]["message"], str)


# -- expressions ------------------------------------------------------------------


def degree(node) -> int:
    """Longest word ``node`` can evaluate to."""
    if isinstance(node, Scalar):
        return 0
    if isinstance(node, SymbolRef):
        return 1
    if isinstance(node, Product):
        return sum(degree(f) for f in node.factors)
    if isinstance(node, Sum):
        return max(degree(t) for _, t in node.terms)
    if isinstance(node, Bracket):
        return degree(node.lhs) + degree(node.rhs)
    if isinstance(node, OrderApply):
        return degree(node.body)
    return degree(node.body) * node.order


def asts(symbols, orderings):
    atoms = st.one_of(
        st.sampled_from(symbols).map(SymbolRef),
        st.integers(min_value=0, max_value=9).map(
            lambda n: Scalar(GaussianRational(n))),
        st.just(Scalar(GaussianRational(0, 1))),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda fs: Product(tuple(fs))),
            st.lists(st.tuples(st.sampled_from([1, -1]), children),
                     min_size=2, max_size=3).map(lambda ts: Sum(tuple(ts))),
            st.tuples(st.sampled_from(["comm", "acomm"]), children,
                      children).map(lambda t: Bracket(*t)),
            st.tuples(st.sampled_from(orderings), children).map(
                lambda t: OrderApply(*t)),
            st.tuples(children, st.integers(min_value=0, max_value=2)).map(
                lambda t: Exp(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=6).filter(
        lambda node: degree(node) <= 6)


# Wrappers that nest one more factor.  Orderings wrap only a symbol: ordering
# a word again at every level multiplies the work per level.
NESTINGS = {
    "parenthesis": lambda inner: f"({inner})",
    "unary_minus": lambda inner: f"-{inner}",
    "commutator": lambda inner: f"comm({inner}, 1)",
}
DEPTHS = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=MAX_NESTING - 3, max_value=MAX_NESTING + 3),
    st.sampled_from([400, 1500]),
)
INSERTED = st.sampled_from(list("+-*/()[],; †^_éxi") + ["/0", "comm(", "exp("])


@st.composite
def mutated(draw, text, symbols, orderings):
    kind = draw(st.sampled_from(["none", "nest", "order_nest", "zero", "edit"]))
    if kind == "nest":
        wrap = NESTINGS[draw(st.sampled_from(sorted(NESTINGS)))]
        for _ in range(draw(DEPTHS)):
            text = wrap(text)
    elif kind == "order_nest":
        ordering = draw(st.sampled_from(orderings))
        depth = draw(DEPTHS)
        text = f"{ordering}[" * depth + draw(st.sampled_from(symbols)) + "]" * depth
    elif kind == "zero":
        text = f"{text} + {draw(st.integers(min_value=0, max_value=9))}/0"
    elif kind == "edit":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            at = draw(st.integers(min_value=0, max_value=len(text)))
            if text and draw(st.booleans()):
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + draw(INSERTED) + text[at:]
    return text


@st.composite
def expression_requests(draw):
    path, symbols, orderings, (o, oprime) = draw(st.sampled_from(CONFIGS))
    original = print_expression(draw(asts(symbols, orderings)))
    text = draw(mutated(original, symbols, orderings))
    if draw(st.booleans()):
        fmt = draw(st.sampled_from(["text", "json", "latex"]))
        # "--" keeps an expression that starts with "-" from reading as an option
        return ["-c", path, "--format", fmt, "reorder", "--from", o,
                "--to", oprime, "--", text]
    return ["-c", path, "numeric", "--trunc=6", "--block=3", "--", text,
            original]


@given(expression_requests())
@CONTRACT
def test_expression_requests_end_typed(argv):
    assert_contract(argv)


# -- extreme numeric arguments ---------------------------------------------------

# sizes past the caps are refused before any allocation, so they are cheap
INTS = st.one_of(
    st.integers(min_value=-3, max_value=30),
    st.sampled_from([0, 1, 2, 2001, 10**9, 2**63, -(2**63)]),
)
TRUNCATIONS = st.one_of(
    st.integers(min_value=10, max_value=12),
    st.sampled_from([-(2**63), -1, 0, 9, 45, 3000, 10**9, 2**63]),
)
GS = st.one_of(
    st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e-300, 700.0, 711.0, 711.3,
                     1e300, 1.7976931348623157e308, -1e-300, -2.0,
                     math.inf, -math.inf, math.nan]),
)


@given(st.sampled_from(CONFIGS), INTS, INTS)
@CONTRACT
def test_numeric_extremes_end_typed(config, trunc, block):
    assert_contract(["-c", config[0], "numeric", f"--trunc={trunc}",
                     f"--block={block}", "--", "0", "0"])


@given(GS, TRUNCATIONS)
@CONTRACT
def test_squeeze_extremes_end_typed(g, trunc):
    assert_contract(["-c", CONFIGS[0][0], "squeeze", f"--g={g!r}",
                     f"--trunc={trunc}"])
