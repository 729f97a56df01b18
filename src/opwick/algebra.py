"""Noncommuting operator words and polynomials, commutation data, and the
canonical rewriting used to decide operator equality.

Operators carry c-number brackets only: ``[a, b]`` for boson pairs and
``{a, b}`` for fermion pairs are elements of the scalar ring.  Canonical
reduction sorts every word into a reference order by adjacent transpositions,
emitting the bracket term at each swap; two polynomials are equal as
operators iff their reductions coincide structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MissingEntry, ParameterOutOfRange, RegistryMismatch
from .scalars import GaussianRational, ScalarPoly, signed_sum, wrap_text

__all__ = [
    "BOSON",
    "FERMION",
    "OperatorSymbol",
    "OperatorPoly",
    "CommutationTable",
    "SymbolRegistry",
    "canonical_reduce",
    "poly_equal",
    "default_ref_rank",
]

BOSON = "boson"
FERMION = "fermion"

HALF = GaussianRational(Fraction(1, 2))
_ONE = ScalarPoly.one()


@dataclass(frozen=True)
class OperatorSymbol:
    """A labeled operator generator.

    ``name`` is the unique id within a registry; ``key`` is a totally ordered
    label (an integer or rational "time") used by comparators; ``dagger`` is
    presentation metadata consulted by the normal/antinormal comparators.
    """

    name: str
    statistics: str = BOSON
    key: Fraction = Fraction(0)
    dagger: bool = False

    def __post_init__(self):
        if self.statistics not in (BOSON, FERMION):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        object.__setattr__(self, "key", Fraction(self.key))

    @property
    def is_fermion(self) -> bool:
        return self.statistics == FERMION

    def __str__(self):
        return self.name

    def __repr__(self):
        flags = []
        if self.statistics == FERMION:
            flags.append("fermion")
        if self.dagger:
            flags.append("dagger")
        tail = (", " + ", ".join(flags)) if flags else ""
        return f"OperatorSymbol({self.name!r}, key={self.key}{tail})"


class SymbolRegistry:
    """Set of operator symbols with unique names."""

    def __init__(self, symbols=()):
        self._by_name = {}
        for sym in symbols:
            self.add(sym)

    def add(self, sym: OperatorSymbol) -> OperatorSymbol:
        existing = self._by_name.get(sym.name)
        if existing is not None and existing != sym:
            raise RegistryMismatch(
                f"symbol {sym.name!r} registered twice with different data"
            )
        self._by_name[sym.name] = sym
        return sym

    def __getitem__(self, name: str) -> OperatorSymbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown operator symbol {name!r}") from None

    def __contains__(self, name):
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self):
        return len(self._by_name)


def _check_consistent_symbols(*polys):
    seen = {}
    for p in polys:
        for word in p.terms:
            for sym in word:
                prev = seen.get(sym.name)
                if prev is None:
                    seen[sym.name] = sym
                elif prev != sym:
                    raise RegistryMismatch(
                        f"symbol {sym.name!r} appears with conflicting metadata"
                    )


class OperatorPoly:
    """Scalar-weighted sum of operator words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for word, coeff in terms.items():
                coeff = ScalarPoly.coerce(coeff)
                if coeff.is_zero:
                    continue
                cleaned[tuple(word)] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorPoly is immutable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls) -> "OperatorPoly":
        return cls()

    @classmethod
    def one(cls) -> "OperatorPoly":
        return cls({(): ScalarPoly.one()})

    @classmethod
    def scalar(cls, value) -> "OperatorPoly":
        return cls({(): ScalarPoly.coerce(value)})

    @classmethod
    def from_word(cls, word, coeff=1) -> "OperatorPoly":
        return cls({tuple(word): ScalarPoly.coerce(coeff)})

    @classmethod
    def from_symbol(cls, sym: OperatorSymbol) -> "OperatorPoly":
        return cls({(sym,): ScalarPoly.one()})

    @classmethod
    def coerce(cls, value) -> "OperatorPoly":
        if isinstance(value, OperatorPoly):
            return value
        if isinstance(value, OperatorSymbol):
            return cls.from_symbol(value)
        if isinstance(value, (int, Fraction, GaussianRational, ScalarPoly)):
            return cls.scalar(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to OperatorPoly")

    # -- linear structure ---------------------------------------------------
    def __add__(self, other):
        other = OperatorPoly.coerce(other)
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            acc = terms.get(word)
            terms[word] = coeff if acc is None else acc + coeff
        return OperatorPoly(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-OperatorPoly.coerce(other))

    def __rsub__(self, other):
        return OperatorPoly.coerce(other) - self

    def __neg__(self):
        return OperatorPoly({w: -c for w, c in self.terms.items()})

    def scale(self, value) -> "OperatorPoly":
        value = ScalarPoly.coerce(value)
        if value.is_zero:
            return OperatorPoly.zero()
        return OperatorPoly({w: c * value for w, c in self.terms.items()})

    @classmethod
    def combine(cls, pairs) -> "OperatorPoly":
        """``sum c * p`` over ``(p, c)`` pairs, added into one term dict; a
        coefficient equal to one is added without a multiplication."""
        terms = {}
        for poly, coeff in pairs:
            # compare an int or Fraction with 1 first: coercing it costs more
            unit = coeff == _ONE if isinstance(coeff, ScalarPoly) else coeff == 1
            if not unit:
                coeff = ScalarPoly.coerce(coeff)
                if coeff.is_zero:
                    continue
            for word, c in poly.terms.items():
                if not unit:
                    c = c * coeff
                acc = terms.get(word)
                terms[word] = c if acc is None else acc + c
        return cls(terms)

    # -- multiplication -------------------------------------------------------
    def __mul__(self, other):
        """Word concatenation, bilinear in coefficients; no reordering."""
        if isinstance(other, (int, Fraction, GaussianRational, ScalarPoly)):
            return self.scale(other)
        other = OperatorPoly.coerce(other)
        _check_consistent_symbols(self, other)
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                coeff = c1 * c2
                acc = terms.get(word)
                terms[word] = coeff if acc is None else acc + coeff
        return OperatorPoly(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, ScalarPoly)):
            return self.scale(other)
        return OperatorPoly.coerce(other) * self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("integer power must be a nonnegative int")
        out = OperatorPoly.one()
        for _ in range(n):
            out = out * self
        return out

    # -- predicates ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        """Structural equality of stored terms (use poly_equal for operator
        equality modulo commutation relations)."""
        if isinstance(other, (int, Fraction, GaussianRational, ScalarPoly,
                              OperatorSymbol)):
            other = OperatorPoly.coerce(other)
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def scalar_part(self) -> ScalarPoly:
        return self.terms.get((), ScalarPoly.zero())

    def operator_part(self) -> "OperatorPoly":
        return OperatorPoly({w: c for w, c in self.terms.items() if w})

    def map_coeffs(self, fn) -> "OperatorPoly":
        return OperatorPoly({w: fn(c) for w, c in self.terms.items()})

    # -- printing ----------------------------------------------------------------
    def sorted_terms(self) -> list:
        """``(word, coefficient)`` pairs in print order: longest words first,
        then by factor names."""
        return sorted(
            self.terms.items(), key=lambda t: (-len(t[0]), [s.name for s in t[0]])
        )

    def __str__(self):
        return signed_sum(
            [(str(c), "*".join(s.name for s in w)) for w, c in self.sorted_terms()],
            "*", wrap_text, spaced=True,
        )

    def __repr__(self):
        return f"OperatorPoly({self})"


class CommutationTable:
    """Map from symbol pairs to the c-number value of their bracket.

    Boson pairs use the commutator ``[a, b]`` (entries antisymmetric),
    fermion pairs the anticommutator ``{a, b}`` (entries symmetric).  Mixed
    boson/fermion pairs follow the sector rule: ``commute`` (default, value
    0) or ``anticommute``; explicit mixed entries are rejected unless a
    sector rule is supplied.
    """

    def __init__(self, registry, entries=None, mixed_rule=None):
        if isinstance(registry, SymbolRegistry):
            self.registry = registry
        else:
            self.registry = SymbolRegistry(registry)
        self.mixed_rule = mixed_rule
        self._entries = {}
        self._reduce_cache = {}
        for (a, b), value in (entries or {}).items():
            self.set_entry(a, b, value)

    def _sym(self, s) -> OperatorSymbol:
        if isinstance(s, OperatorSymbol):
            return s
        return self.registry[s]

    def set_entry(self, a, b, value):
        a, b = self._sym(a), self._sym(b)
        value = ScalarPoly.coerce(value)
        mixed = a.statistics != b.statistics
        if mixed and self.mixed_rule is None:
            raise MissingEntry(
                a.name, b.name,
                "mixed boson/fermion entries need an explicit sector rule",
            )
        prior = self._entries.get((b.name, a.name))
        if prior is not None and (a.name, b.name) != (b.name, a.name):
            expected = prior if self._pair_symmetric(a, b) else -prior
            if value != expected:
                raise ValueError(
                    f"entry ({a.name}, {b.name}) conflicts with ({b.name}, {a.name})"
                )
        if a.name == b.name and not self._pair_symmetric(a, b) and not value.is_zero:
            raise ValueError(f"commutator [{a.name}, {a.name}] must vanish")
        self._entries[(a.name, b.name)] = value
        self._reduce_cache.clear()

    def _pair_symmetric(self, a, b) -> bool:
        """True when the stored bracket is symmetric under operand swap."""
        if a.statistics == b.statistics:
            return a.statistics == FERMION
        return self.mixed_rule == "anticommute"

    def swap_sign(self, a, b) -> int:
        """Sign in ``ab = sign * ba + bracket(a, b)``."""
        a, b = self._sym(a), self._sym(b)
        return -1 if self._pair_symmetric(a, b) else 1

    def bracket(self, a, b) -> ScalarPoly:
        """``[a, b]`` for boson pairs, ``{a, b}`` for fermion pairs."""
        a, b = self._sym(a), self._sym(b)
        direct = self._entries.get((a.name, b.name))
        if direct is not None:
            return direct
        flipped = self._entries.get((b.name, a.name))
        if flipped is not None:
            return flipped if self._pair_symmetric(a, b) else -flipped
        if a.statistics != b.statistics:
            return ScalarPoly.zero()
        if a.name == b.name:
            # [x, x] = 0 always; {x, x} defaults to 0 unless tabled.
            return ScalarPoly.zero()
        raise MissingEntry(a.name, b.name)

    def entries(self):
        return dict(self._entries)

    def __repr__(self):
        body = ", ".join(f"({a},{b})={v}" for (a, b), v in self._entries.items())
        return f"CommutationTable({body})"


def default_ref_rank(sym: OperatorSymbol):
    """Reference order: daggered symbols first, then by key, then by name.

    Makes the canonical form coincide with the normal-ordered form for
    standard mode algebras.
    """
    return (0 if sym.dagger else 1, sym.key, sym.name)


def _reduce_word(word, table):
    """Reduce a single word to canonical form; returns dict word -> ScalarPoly."""
    rank = default_ref_rank
    out = {}
    stack = [(tuple(word), ScalarPoly.one())]
    while stack:
        w, coeff = stack.pop()
        idx = -1
        same_pair = False
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x.name == y.name:
                if x.is_fermion:
                    idx, same_pair = i, True
                    break
                continue
            if rank(x) > rank(y):
                idx = i
                break
        if idx < 0:
            acc = out.get(w)
            out[w] = coeff if acc is None else acc + coeff
            continue
        x, y = w[idx], w[idx + 1]
        shorter = w[:idx] + w[idx + 2:]
        if same_pair:
            # x*x = (1/2){x, x} for a fermionic generator.
            br = table.bracket(x, x)
            if not br.is_zero:
                stack.append((shorter, coeff * br * HALF))
            continue
        sign = table.swap_sign(x, y)
        br = table.bracket(x, y)
        swapped = w[:idx] + (y, x) + w[idx + 2:]
        stack.append((swapped, coeff if sign == 1 else -coeff))
        if not br.is_zero:
            stack.append((shorter, coeff * br))
    return out


def canonical_reduce(p, table: CommutationTable) -> OperatorPoly:
    """Unique canonical form of ``p`` modulo the commutation relations.

    Every word is sorted into the reference order (:func:`default_ref_rank`)
    by adjacent transpositions; each transposition emits the bracket term
    (``xy -> yx + [x,y]`` for bosons, ``xy -> -yx + {x,y}`` for fermions).
    """
    p = OperatorPoly.coerce(p)
    cache = table._reduce_cache
    terms = {}
    for word, coeff in p.terms.items():
        reduced = cache.get(word)
        if reduced is None:
            reduced = cache[word] = _reduce_word(word, table)
        for w2, c2 in reduced.items():
            add = coeff * c2
            acc = terms.get(w2)
            terms[w2] = add if acc is None else acc + add
    return OperatorPoly(terms)


def check_word_count(letters: int, lengths: range, cap: int, request: str):
    """Raise ``ParameterOutOfRange`` unless ``request``, words of the given
    lengths over ``letters`` letters (at least one per length), forms between
    one and ``cap`` words; counting stops at the cap, so any size is cheap."""
    if not lengths:
        raise ParameterOutOfRange(f"{request} forms no word")
    total = 0
    for n in lengths:
        total += max(letters, 1) ** n
        if total > cap:
            raise ParameterOutOfRange(f"{request} forms more than {cap} words")


def poly_equal(a, b, table: CommutationTable) -> bool:
    """True iff ``a`` and ``b`` are equal as operators."""
    diff = OperatorPoly.coerce(a) - OperatorPoly.coerce(b)
    return canonical_reduce(diff, table).is_zero
