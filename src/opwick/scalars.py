"""Exact c-number arithmetic: Gaussian rationals and multivariate polynomials.

Every symbolic coefficient in the package lives in the ring
Q(i)[x1, x2, ...] of polynomials with Gaussian-rational coefficients in
named commuting symbols.  The ring is division-free; anything requiring
inverses or square roots is handled numerically elsewhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import UnassignedSymbol

__all__ = [
    "GaussianRational",
    "ScalarPoly",
    "NumericContext",
    "evaluate_scalar",
]


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    @classmethod
    def i(cls) -> "GaussianRational":
        return cls(0, 1)

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("integer power must be a nonnegative int")
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and conversions ---------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return self.to_string()

    # -- serialization -----------------------------------------------------
    def to_string(self) -> str:
        """Render as ``p/q``, ``r/s i`` or ``p/q+r/s i`` (exact, no floats)."""
        if self.is_zero:
            return "0"
        parts = []
        if self.re != 0:
            parts.append(_frac_str(self.re))
        if self.im != 0:
            im = _frac_str(self.im)
            if im == "1":
                im = "i"
            elif im == "-1":
                im = "-i"
            else:
                im += " i"
            if parts and not im.startswith("-"):
                parts.append("+" + im)
            else:
                parts.append(im)
        return "".join(parts)

    @classmethod
    def from_string(cls, text: str) -> "GaussianRational":
        """Parse the formats produced by :meth:`to_string` (and plain ints)."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty GaussianRational literal")
        re_part = Fraction(0)
        im_part = Fraction(0)
        for sign, body in _split_signed_terms(s):
            if body.endswith(("i", "I", "j")):
                body = body[:-1].rstrip("*")
                frac = Fraction(1) if body == "" else Fraction(body)
                im_part += sign * frac
            else:
                re_part += sign * Fraction(body)
        return cls(re_part, im_part)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _split_signed_terms(s):
    terms = []
    idx = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        idx = 1
    start = idx
    while idx < len(s):
        if s[idx] in "+-" and idx > start:
            terms.append((sign, s[start:idx]))
            sign = -1 if s[idx] == "-" else 1
            start = idx + 1
        idx += 1
    terms.append((sign, s[start:]))
    return terms


ZERO = GaussianRational(0)
ONE = GaussianRational(1)

# A monomial is a tuple of (symbol name, exponent) pairs sorted by name.
Mono = tuple


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e != 0))


def _mono_key(m: Mono):
    # Lexicographic on symbol names, then exponents: deterministic printing.
    return (sum(e for _, e in m), m)


class ScalarPoly:
    """Multivariate polynomial over Gaussian rationals in commuting symbols.

    Terms are stored as a map from monomial to coefficient with no zero
    coefficients, so structural equality decides ring equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = GaussianRational.coerce(coeff)
                if not coeff.is_zero:
                    cleaned[mono] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarPoly is immutable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls()

    @classmethod
    def one(cls) -> "ScalarPoly":
        return cls({(): ONE})

    @classmethod
    def const(cls, value) -> "ScalarPoly":
        if isinstance(value, ScalarPoly):
            return value
        return cls({(): GaussianRational.coerce(value)})

    @classmethod
    def i(cls) -> "ScalarPoly":
        return cls({(): GaussianRational.i()})

    @classmethod
    def symbol(cls, name: str, power: int = 1) -> "ScalarPoly":
        if power < 0:
            raise ValueError("negative powers are outside the ring")
        if power == 0:
            return cls.one()
        return cls({((name, power),): ONE})

    @classmethod
    def coerce(cls, value) -> "ScalarPoly":
        if isinstance(value, ScalarPoly):
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return cls.const(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to ScalarPoly")

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        other = ScalarPoly.coerce(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            terms[mono] = coeff if acc is None else acc + coeff
        return ScalarPoly(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-ScalarPoly.coerce(other))

    def __rsub__(self, other):
        return ScalarPoly.coerce(other) - self

    def __neg__(self):
        return ScalarPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = ScalarPoly.coerce(other)
        if not self.terms or not other.terms:
            return ScalarPoly.zero()
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                coeff = c1 * c2
                acc = terms.get(mono)
                terms[mono] = coeff if acc is None else acc + coeff
        return ScalarPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("integer power must be a nonnegative int")
        out = ScalarPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ScalarPoly.const(other)
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def constant_value(self) -> GaussianRational:
        """Coefficient of the empty monomial; raises if nonconstant."""
        if not self.terms:
            return ZERO
        if set(self.terms) != {()}:
            raise ValueError(f"polynomial {self} is not constant")
        return self.terms[()]

    def free_symbols(self):
        out = set()
        for mono in self.terms:
            for name, _ in mono:
                out.add(name)
        return out

    # -- degree bookkeeping -------------------------------------------------
    def truncate_degree(self, names, degree: int) -> "ScalarPoly":
        """The terms of total degree at most ``degree`` in ``names``."""
        names = set(names)
        kept = {
            mono: coeff
            for mono, coeff in self.terms.items()
            if sum(e for n, e in mono if n in names) <= degree
        }
        return ScalarPoly(kept)

    # -- numeric evaluation ---------------------------------------------------
    def evaluate(self, assignments) -> complex:
        """Substitute numeric values for every free symbol."""
        if isinstance(assignments, NumericContext):
            assignments = assignments.assignments
        total = 0j
        for mono, coeff in self.terms.items():
            value = complex(coeff)
            for name, e in mono:
                if name not in assignments:
                    raise UnassignedSymbol(name)
                value *= complex(assignments[name]) ** e
            total += value
        return total

    # -- printing ----------------------------------------------------------
    def __str__(self):
        terms = []
        for mono in sorted(self.terms, key=_mono_key):
            body = "*".join(f"{n}^{e}" if e != 1 else n for n, e in mono)
            terms.append((self.terms[mono].to_string(), body))
        return signed_sum(terms, "*", wrap_text)

    def __repr__(self):
        return f"ScalarPoly({self})"

    def to_latex(self) -> str:
        terms = []
        for mono in sorted(self.terms, key=_mono_key):
            body = " ".join(f"{n}^{{{e}}}" if e != 1 else n for n, e in mono)
            terms.append((_gaussian_latex(self.terms[mono]), body))
        return signed_sum(terms, "\\,")


def signed_sum(terms, glue, wrap=None, spaced=False) -> str:
    """Print ``(coefficient text, body text)`` pairs as one signed sum.

    Every polynomial printer goes through here and passes only its glyphs:
    ``glue`` joins a coefficient to its body and ``spaced`` puts spaces
    around the signs between terms.  ``wrap(coefficient, body)`` returns the
    coefficient as printed, bracketed where the printer's rule asks.  A
    coefficient of 1 or -1 before a body prints as its sign alone; an empty
    body prints the coefficient alone; no terms print as ``0``.
    """
    parts = []
    for cs, body in terms:
        if body and cs in ("1", "-1"):
            parts.append(cs[:-1] + body)
            continue
        if wrap is not None:
            cs = wrap(cs, body)
        parts.append(cs + glue + body if body else cs)
    if not parts:
        return "0"
    plus, minus = (" + ", " - ") if spaced else ("+", "-")
    out = parts[0]
    for part in parts[1:]:
        out += minus + part[1:] if part.startswith("-") else plus + part
    return out


def wrap_text(cs: str, body: str) -> str:
    """Parenthesize a plain-text coefficient that would not read as one factor."""
    inner_sign = "+" in cs[1:] or "-" in cs[1:]
    if inner_sign or (body and ("*" in cs or cs.endswith("i"))):
        return f"({cs})"
    return cs


def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\tfrac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def _gaussian_latex(c: GaussianRational) -> str:
    if c.im == 0:
        return _frac_latex(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{_frac_latex(c.im)}i"
    im = _gaussian_latex(GaussianRational(0, c.im))
    joined = im if im.startswith("-") else "+" + im
    return f"\\left({_frac_latex(c.re)}{joined}\\right)"


class NumericContext:
    """Assignment of complex values to scalar symbol names."""

    __slots__ = ("assignments",)

    def __init__(self, assignments=None):
        self.assignments = dict(assignments or {})

    def __contains__(self, name):
        return name in self.assignments

    def __getitem__(self, name):
        if name not in self.assignments:
            raise UnassignedSymbol(name)
        return self.assignments[name]

    def __repr__(self):
        return f"NumericContext({self.assignments!r})"


def evaluate_scalar(p: ScalarPoly, ctx) -> complex:
    """Numeric value of ``p`` under the assignments of ``ctx``."""
    return ScalarPoly.coerce(p).evaluate(ctx)
