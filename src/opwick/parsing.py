"""Expression parser for operator polynomials.

Grammar::

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := NUMBER | SYMBOL | "comm(" expr "," expr ")"
            | "acomm(" expr "," expr ")" | ORDER_NAME "[" expr "]"
            | "exp(" expr ";" INT ")" | "(" expr ")"

Whitespace is insignificant.  NUMBER is an integer or a rational ``p/q``;
``i`` is the imaginary unit unless shadowed by a registry symbol.  Daggers
are written with the suffix ``†`` or ``^+``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ExprSyntaxError,
    StatisticsMismatch,
    UnknownSymbol,
)
from .algebra import FERMION, OperatorPoly, OperatorSymbol, check_word_count
from .orderings import order_poly
from .scalars import GaussianRational, ScalarPoly

__all__ = [
    "Scalar",
    "SymbolRef",
    "Product",
    "Sum",
    "Bracket",
    "OrderApply",
    "Exp",
    "tokenize",
    "parse_expression",
    "print_expression",
    "expression_to_poly",
]


# -- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Scalar:
    value: GaussianRational


@dataclass(frozen=True)
class SymbolRef:
    name: str


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # ((sign, node), ...)


@dataclass(frozen=True)
class Bracket:
    kind: str  # "comm" | "acomm"
    lhs: object
    rhs: object


@dataclass(frozen=True)
class OrderApply:
    ordering: str
    body: object


@dataclass(frozen=True)
class Exp:
    body: object
    order: int


# -- tokenizer ---------------------------------------------------------------

_PUNCT = {"+", "-", "*", "(", ")", "[", "]", ",", ";"}


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | punctuation
    text: str
    position: int


def tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and src[i].isdigit():
                i += 1
            if i < n and src[i] == "/" and i + 1 < n and src[i + 1].isdigit():
                i += 1
                while i < n and src[i].isdigit():
                    i += 1
            tokens.append(Token("number", src[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            # dagger suffix: literal dagger or ^+
            if i < n and src[i] == "†":
                i += 1
            elif i + 1 < n and src[i] == "^" and src[i + 1] == "+":
                i += 2
            text = src[start:i].replace("^+", "†")
            tokens.append(Token("ident", text, start))
            continue
        raise ExprSyntaxError(i, "a token", ch)
    tokens.append(Token("end", "", n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, registry):
        self.tokens = tokens
        self.pos = 0
        self.registry = registry

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.position, repr(kind), tok.text or "end of input")
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(tok.position, "end of input", tok.text)
        return node

    def expr(self):
        terms = []
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        terms.append((sign, self.term()))
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def factor(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if "/" in tok.text:
                p, q = tok.text.split("/")
                return Scalar(GaussianRational(Fraction(int(p), int(q))))
            return Scalar(GaussianRational(int(tok.text)))
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "-":
            self.advance()
            inner = self.factor()
            return Sum(((-1, inner),))
        if tok.kind == "ident":
            return self.ident_factor()
        raise ExprSyntaxError(
            tok.position, "a number, symbol, or parenthesized expression",
            tok.text or "end of input",
        )

    def ident_factor(self):
        tok = self.advance()
        name = tok.text
        nxt = self.peek()
        if name in ("comm", "acomm") and nxt.kind == "(":
            self.advance()
            lhs = self.expr()
            self.expect(",")
            rhs = self.expr()
            self.expect(")")
            node = Bracket(name, lhs, rhs)
            self._check_bracket_statistics(node, tok.position)
            return node
        if name == "exp" and nxt.kind == "(":
            self.advance()
            body = self.expr()
            self.expect(";")
            order_tok = self.expect("number")
            if "/" in order_tok.text:
                raise ExprSyntaxError(
                    order_tok.position, "an integer expansion order", order_tok.text
                )
            self.expect(")")
            return Exp(body, int(order_tok.text))
        if nxt.kind == "[":
            if not self.registry.has_ordering(name):
                raise UnknownSymbol(f"unknown ordering {name!r}")
            self.advance()
            body = self.expr()
            self.expect("]")
            return OrderApply(name, body)
        return self._resolve_symbol(name, tok.position)

    def _resolve_symbol(self, name, position):
        if self.registry.has_operator(name):
            return SymbolRef(name)
        if self.registry.has_scalar(name):
            return SymbolRef(name)
        if name == "i":
            return Scalar(GaussianRational(0, 1))
        raise UnknownSymbol(f"unknown symbol {name!r} at position {position}")

    def _check_bracket_statistics(self, node: Bracket, position):
        stats = set()
        for side in (node.lhs, node.rhs):
            stats |= self.registry.operand_statistics(_collect_symbols(side))
        if node.kind == "comm" and FERMION in stats:
            raise StatisticsMismatch(
                "comm() takes bosonic operands; use acomm() for fermions"
            )
        if node.kind == "acomm" and stats and stats != {FERMION}:
            raise StatisticsMismatch(
                "acomm() takes fermionic operands; use comm() for bosons"
            )


def _collect_symbols(node, out=None):
    if out is None:
        out = set()
    if isinstance(node, SymbolRef):
        out.add(node.name)
    elif isinstance(node, Product):
        for f in node.factors:
            _collect_symbols(f, out)
    elif isinstance(node, Sum):
        for _, t in node.terms:
            _collect_symbols(t, out)
    elif isinstance(node, Bracket):
        _collect_symbols(node.lhs, out)
        _collect_symbols(node.rhs, out)
    elif isinstance(node, (OrderApply, Exp)):
        _collect_symbols(node.body, out)
    return out


class RegistryView:
    """What the parser needs to know about a configuration."""

    def __init__(self, operators=None, scalars=None, orderings=None):
        self.operators = dict(operators or {})
        self.scalars = set(scalars or ())
        self.orderings = dict(orderings or {})

    def has_operator(self, name):
        return name in self.operators

    def has_scalar(self, name):
        return name in self.scalars

    def has_ordering(self, name):
        return name in self.orderings

    def operand_statistics(self, names):
        return {
            self.operators[n].statistics for n in names if n in self.operators
        }


def parse_expression(src: str, registry) -> object:
    """Parse expression text against a registry view."""
    if not isinstance(registry, RegistryView):
        registry = registry.parser_view()
    return _Parser(tokenize(src), registry).parse()


# -- printer -------------------------------------------------------------------


def print_expression(node) -> str:
    """Render an AST back to parseable text."""
    return _print(node, 0)


def _print(node, level):
    # level 0: expression, 1: term, 2: factor
    if isinstance(node, Scalar):
        return _scalar_text(node.value)
    if isinstance(node, SymbolRef):
        return node.name
    if isinstance(node, Product):
        body = "*".join(_print(f, 2) for f in node.factors)
        return f"({body})" if level >= 2 else body
    if isinstance(node, Sum):
        parts = []
        for idx, (sign, term) in enumerate(node.terms):
            rendered = _print(term, 1)
            if idx == 0:
                parts.append(rendered if sign == 1 else f"-{rendered}")
            else:
                parts.append(("+ " if sign == 1 else "- ") + rendered)
        body = " ".join(parts)
        return f"({body})" if level >= 1 else body
    if isinstance(node, Bracket):
        return f"{node.kind}({_print(node.lhs, 0)}, {_print(node.rhs, 0)})"
    if isinstance(node, OrderApply):
        return f"{node.ordering}[{_print(node.body, 0)}]"
    if isinstance(node, Exp):
        return f"exp({_print(node.body, 0)}; {node.order})"
    raise TypeError(f"not an AST node: {node!r}")


def _scalar_text(value: GaussianRational) -> str:
    if value == GaussianRational(0, 1):
        return "i"
    if value.im == 0 and value.re >= 0:
        f = value.re
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    raise ValueError(
        f"scalar literal {value} has no single-token spelling; build it from "
        "integers, rationals, and i"
    )


# -- evaluation --------------------------------------------------------------------

# Words an exp(body; N) series may form, sum_{k <= N} t**k for t body terms.
# exp(a + a†; 8) forms 511 and reorders from Weyl order in 0.7 s on 2 cores;
# each further degree doubles the words and about triples the time.
MAX_SERIES_WORDS = 1000


def expression_to_poly(node, config) -> OperatorPoly:
    """Evaluate an AST into an operator polynomial against a configuration.

    ``config`` provides operator symbols by name, scalar symbol names, and
    orderings by name (a RegistryConfig or anything with the same surface).
    """
    if isinstance(node, Scalar):
        return OperatorPoly.scalar(ScalarPoly.const(node.value))
    if isinstance(node, SymbolRef):
        op = config.operator_symbol(node.name)
        if op is not None:
            return OperatorPoly.from_symbol(op)
        return OperatorPoly.scalar(ScalarPoly.symbol(node.name))
    if isinstance(node, Product):
        out = OperatorPoly.one()
        for f in node.factors:
            out = out * expression_to_poly(f, config)
        return out
    if isinstance(node, Sum):
        return OperatorPoly.combine(
            (expression_to_poly(term, config), sign) for sign, term in node.terms
        )
    if isinstance(node, Bracket):
        lhs = expression_to_poly(node.lhs, config)
        rhs = expression_to_poly(node.rhs, config)
        if node.kind == "comm":
            return lhs * rhs - rhs * lhs
        return lhs * rhs + rhs * lhs
    if isinstance(node, OrderApply):
        body = expression_to_poly(node.body, config)
        return order_poly(config.ordering(node.ordering), body)
    if isinstance(node, Exp):
        body = expression_to_poly(node.body, config)
        check_word_count(len(body.terms), range(node.order + 1),
                         MAX_SERIES_WORDS, f"exp(...; {node.order})")
        powers = [(OperatorPoly.one(), 1)]
        for k in range(1, node.order + 1):
            powers.append((powers[-1][0] * body, Fraction(1, math.factorial(k))))
        return OperatorPoly.combine(powers)
    raise TypeError(f"not an AST node: {node!r}")
