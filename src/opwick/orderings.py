"""Operator orderings and linear basis changes.

A permutation ordering stably sorts a word by a comparator (highest rank
leftmost) and attaches ``signature**inversions`` where only swaps of two
fermionic factors count.  The symmetric (Weyl) ordering averages over all
arrangements of a bosonic word.  An ordering defined on a target symbol set
is applied to source words by expanding them through a linear basis change
(:meth:`BasisChange.expand_word`, the one expansion routine) and ordering the
expanded polynomial with :func:`order_poly`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IncomparableKeys,
    SymbolNotInBasis,
    SymmetricOnFermions,
)
from .algebra import CommutationTable, OperatorPoly, OperatorSymbol
from .scalars import ScalarPoly

__all__ = [
    "Ordering",
    "BasisChange",
    "EqualKeyFermionWarning",
    "order_word",
    "order_poly",
    "order_word_foreign",
]

PERMUTATION = "permutation"
SYMMETRIC = "symmetric"

_RANK_RULES = ("normal", "antinormal", "time", "explicit")


class EqualKeyFermionWarning(UserWarning):
    """Two fermionic factors tied under the comparator; kept stable, no sign."""


@dataclass(frozen=True)
class Ordering:
    """An ordering rule for operator words.

    kind ``permutation``: stable sort, highest comparator rank on the left,
    with ``signature`` (+1 bosonic, -1 fermionic) applied per transposition
    of two fermionic factors.  kind ``symmetric``: equal-weight average over
    all arrangements (bosonic symbols only).
    """

    name: str
    kind: str = PERMUTATION
    rule: str = "normal"
    ranking: tuple = ()
    signature: int = 1

    def __post_init__(self):
        if self.kind not in (PERMUTATION, SYMMETRIC):
            raise ValueError(f"unknown ordering kind {self.kind!r}")
        if self.kind == PERMUTATION and self.rule not in _RANK_RULES:
            raise ValueError(f"unknown comparator rule {self.rule!r}")
        if self.signature not in (1, -1):
            raise ValueError("signature must be +1 or -1")
        object.__setattr__(self, "ranking", tuple(self.ranking))

    # -- comparator -----------------------------------------------------------
    def rank(self, sym: OperatorSymbol):
        """Comparator value; higher rank sorts to the left."""
        if self.kind != PERMUTATION:
            raise IncomparableKeys(f"{self.name} is not a permutation ordering")
        if self.rule == "normal":
            return 1 if sym.dagger else 0
        if self.rule == "antinormal":
            return 0 if sym.dagger else 1
        if self.rule == "time":
            return sym.key
        try:
            return len(self.ranking) - self.ranking.index(sym.name)
        except ValueError:
            raise IncomparableKeys(
                f"symbol {sym.name!r} is not ranked by ordering {self.name!r}"
            ) from None

    def succeeds(self, a: OperatorSymbol, b: OperatorSymbol) -> bool:
        """Step function: True iff ``a`` strictly precedes ``b`` left-to-right."""
        return self.rank(a) > self.rank(b)

    # -- constructors -----------------------------------------------------------
    @classmethod
    def normal(cls, signature=1) -> "Ordering":
        return cls("normal", PERMUTATION, "normal", (), signature)

    @classmethod
    def antinormal(cls, signature=1) -> "Ordering":
        return cls("antinormal", PERMUTATION, "antinormal", (), signature)

    @classmethod
    def time_descending(cls, signature=-1, name="time") -> "Ordering":
        return cls(name, PERMUTATION, "time", (), signature)

    @classmethod
    def explicit(cls, name, ranking, signature=1) -> "Ordering":
        return cls(name, PERMUTATION, "explicit", tuple(ranking), signature)

    @classmethod
    def weyl(cls) -> "Ordering":
        return cls("weyl", SYMMETRIC)

    def __str__(self):
        return self.name


def _graded_inversions(word, ranks) -> int:
    """Count strict comparator inversions between two fermionic factors."""
    count = 0
    n = len(word)
    for i in range(n):
        if not word[i].is_fermion:
            continue
        for j in range(i + 1, n):
            if word[j].is_fermion and ranks[i] < ranks[j]:
                count += 1
    return count


def order_word(o: Ordering, word) -> OperatorPoly:
    """Apply an ordering to a single word.

    Permutation kind returns one word, stably sorted with rank descending,
    with coefficient ``signature**(fermion pair inversions)``.  Symmetric kind
    returns the average over all arrangements with weight ``1/n!``.
    """
    word = tuple(word)
    if o.kind == SYMMETRIC:
        if any(s.is_fermion for s in word):
            raise SymmetricOnFermions(
                f"symmetric ordering {o.name!r} applied to fermionic factors"
            )
        n = len(word)
        if n <= 1:
            return OperatorPoly.from_word(word)
        weight = ScalarPoly.const(Fraction(1, math.factorial(n)))
        terms = {}
        for perm in itertools.permutations(range(n)):
            w = tuple(word[i] for i in perm)
            acc = terms.get(w)
            terms[w] = weight if acc is None else acc + weight
        return OperatorPoly(terms)

    ranks = [o.rank(s) for s in word]
    if o.signature == -1 and o.rule == "time":
        ties = any(
            ranks[i] == ranks[j]
            and word[i].name != word[j].name
            and word[i].is_fermion
            and word[j].is_fermion
            for i in range(len(word))
            for j in range(i + 1, len(word))
        )
        if ties:
            warnings.warn(
                "fermionic factors at equal time; kept in input order "
                "with no sign",
                EqualKeyFermionWarning,
                stacklevel=2,
            )
    inversions = _graded_inversions(word, ranks) if o.signature == -1 else 0
    indexed = sorted(range(len(word)), key=lambda i: (-ranks[i], i))
    sorted_word = tuple(word[i] for i in indexed)
    coeff = 1 if inversions % 2 == 0 else o.signature
    return OperatorPoly.from_word(sorted_word, coeff)


def order_poly(o: Ordering, p) -> OperatorPoly:
    """Linear extension of :func:`order_word`."""
    p = OperatorPoly.coerce(p)
    return OperatorPoly.combine(
        (order_word(o, word), coeff) for word, coeff in p.terms.items()
    )


class BasisChange:
    """Linear expansion of source symbols over target symbols.

    ``entries[(alpha, k)]`` is the scalar coefficient of target symbol ``k``
    in the expansion of source symbol ``alpha``.  Every source row must be
    nonzero.
    """

    def __init__(self, source, target, entries):
        self.source = {s.name: s for s in source}
        self.target = {s.name: s for s in target}
        self.entries = {}
        for (a, k), value in entries.items():
            a = a.name if isinstance(a, OperatorSymbol) else a
            k = k.name if isinstance(k, OperatorSymbol) else k
            if a not in self.source:
                raise SymbolNotInBasis(f"row symbol {a!r} is not a source symbol")
            if k not in self.target:
                raise SymbolNotInBasis(f"column symbol {k!r} is not a target symbol")
            value = ScalarPoly.coerce(value)
            if not value.is_zero:
                self.entries[(a, k)] = value
        self._rows = {}
        for name in self.source:
            row = [
                (self.target[k], v)
                for (a, k), v in self.entries.items()
                if a == name
            ]
            if not row:
                raise SymbolNotInBasis(f"source symbol {name!r} has an empty row")
            self._rows[name] = row
        self.is_identity = self.source == self.target and all(
            len(row) == 1 and row[0][0].name == name and row[0][1] == ScalarPoly.one()
            for name, row in self._rows.items()
        )

    @classmethod
    def identity(cls, symbols) -> "BasisChange":
        symbols = list(symbols)
        return cls(
            symbols,
            symbols,
            {(s.name, s.name): ScalarPoly.one() for s in symbols},
        )

    def row(self, sym) -> list:
        name = sym.name if isinstance(sym, OperatorSymbol) else sym
        try:
            return self._rows[name]
        except KeyError:
            raise SymbolNotInBasis(f"symbol {name!r} has no expansion row") from None

    def expand_word(self, word) -> OperatorPoly:
        """Distribute the expansion of each factor; no reordering performed.

        Each choice of one target per factor is a target word whose
        coefficient is the product of the chosen row entries.
        """
        terms = {}
        for choice in itertools.product(*(self.row(sym) for sym in word)):
            coeff = ScalarPoly.one()
            for _, c in choice:
                coeff = coeff * c
            terms[tuple(target for target, _ in choice)] = coeff
        return OperatorPoly(terms)

    def expand_poly(self, p) -> OperatorPoly:
        """Linear extension of :meth:`expand_word`.

        An identity basis returns ``p`` itself once every symbol of ``p`` is
        found to be the basis's own symbol; any other symbol takes the general
        path, which raises ``SymbolNotInBasis`` for a symbol with no row.
        """
        p = OperatorPoly.coerce(p)
        if self.is_identity and all(
            self.source.get(sym.name) == sym for word in p.terms for sym in word
        ):
            return p
        return OperatorPoly.combine(
            (self.expand_word(word), coeff) for word, coeff in p.terms.items()
        )

    def induced_bracket(self, alpha, beta, target_table: CommutationTable) -> ScalarPoly:
        """Bracket of two source symbols implied by the target table."""
        total = ScalarPoly.zero()
        for k, ck in self.row(alpha):
            for l, cl in self.row(beta):
                total = total + ck * cl * target_table.bracket(k, l)
        return total

    def validate_against(self, source_table: CommutationTable,
                         target_table: CommutationTable) -> bool:
        """Check that expanded brackets reproduce the source table."""
        names = list(self.source)
        for a in names:
            for b in names:
                induced = self.induced_bracket(a, b, target_table)
                if source_table.bracket(a, b) != induced:
                    return False
        return True

    def __repr__(self):
        body = ", ".join(f"{a}<-{k}:{v}" for (a, k), v in self.entries.items())
        return f"BasisChange({body})"


def order_word_foreign(oprime: Ordering, word, basis: BasisChange) -> OperatorPoly:
    """Apply a target-side ordering to a source word through the basis change."""
    return order_poly(oprime, basis.expand_word(word))
