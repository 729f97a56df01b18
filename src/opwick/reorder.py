"""Derivative machinery and the reordering transforms between orderings.

One derivative, :func:`derive`, serves both statistics: it deletes each
occurrence of a symbol word-wise and, for a fermionic symbol, adds a sign per
fermionic factor passed.  The contraction Laplacian
``(1/2) sum C[a,b] d_b d_a`` generates the exponential form of the
reordering transform; the substitution form replaces each factor ``x`` by
``x + sum_b C[x,b] d_b`` acting on everything to its right.  Both forms end
in the same step: expand through the basis change, then apply the target
ordering (``order_poly(oprime, basis.expand_poly(p))``).  Both agree with
direct reordering on every input, which the oracle module checks instance
by instance.

:func:`exp_laplacian` is the one smoothing path: the scalar-contraction
transforms smooth words over formal shared operators through it.  Every
linear combination of operator polynomials is one
:meth:`OperatorPoly.combine` call, which adds all terms into one dict.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    ContractionMismatch,
    FlavorMismatch,
    NotUnivariate,
)
from .algebra import (
    HALF,
    CommutationTable,
    OperatorPoly,
    OperatorSymbol,
    canonical_reduce,
)
from .contractions import ContractionMatrix
from .orderings import BasisChange, Ordering, order_poly
from .scalars import ScalarPoly

__all__ = [
    "derive",
    "ContractionLaplacian",
    "exp_laplacian",
    "reorder_substitution",
    "reorder_univariate",
    "reorder_multivariate",
    "express_univariate",
    "exponential_series",
    "exponential_series_rhs",
    "exponential_series_check",
]

def derive(p, sym: OperatorSymbol) -> OperatorPoly:
    """Derivative with ``[d_a, x_b] = delta`` (bosons) and ``{d_a, x_b} = delta``
    (fermions): each occurrence of ``sym`` is deleted in place, with sign
    ``(-1)**(fermionic factors left of the hit)`` when ``sym`` is fermionic."""
    p = OperatorPoly.coerce(p)
    grassmann = sym.is_fermion
    terms = {}
    for word, coeff in p.terms.items():
        fermions_left = 0
        for j, factor in enumerate(word):
            if factor.name == sym.name:
                new_word = word[:j] + word[j + 1:]
                c = coeff if (not grassmann or fermions_left % 2 == 0) else -coeff
                acc = terms.get(new_word)
                terms[new_word] = c if acc is None else acc + c
            if factor.is_fermion:
                fermions_left += 1
    return OperatorPoly(terms)


class ContractionLaplacian:
    """Second-order derivative operator built from a contraction matrix.

    Application computes ``(1/2) sum_ab C[a,b] d_b(d_a(p))`` with
    flavor-correct derivatives, so that commuting it past any generator
    reproduces the first-order shift ``sum_b C[a,b] d_b``.
    """

    def __init__(self, contraction: ContractionMatrix):
        self.contraction = contraction
        by_name = {s.name: s for s in contraction.symbols}
        self._pairs = []
        for (a, b), value in contraction.entries.items():
            if value.is_zero:
                continue
            sa, sb = by_name[a], by_name[b]
            if sa.is_fermion != sb.is_fermion:
                raise FlavorMismatch(
                    f"contraction couples {a} and {b} across statistics sectors"
                )
            self._pairs.append((sa, sb, value * HALF))

    def apply(self, p) -> OperatorPoly:
        """One application; degree drops by exactly two."""
        p = OperatorPoly.coerce(p)
        return OperatorPoly.combine(
            (derive(derive(p, sa), sb), weight) for sa, sb, weight in self._pairs
        )

    def apply_exp(self, p) -> OperatorPoly:
        """``sum_m L**m p / m!``, one :meth:`OperatorPoly.combine` of the
        levels; the one smoothing path, finite since each level drops the
        degree by two."""
        levels = []
        term = OperatorPoly.coerce(p)
        while not term.is_zero:
            levels.append((term, Fraction(1, math.factorial(len(levels)))))
            term = self.apply(term)
        return OperatorPoly.combine(levels)


def exp_laplacian(contraction: ContractionMatrix, p) -> OperatorPoly:
    """Apply the exponential of the contraction Laplacian to ``p``."""
    return ContractionLaplacian(contraction).apply_exp(p)


def reorder_exponential(o: Ordering, oprime: Ordering, basis: BasisChange,
                        contraction: ContractionMatrix, p) -> OperatorPoly:
    """Reorder ``o[p]`` via the exponential of the contraction Laplacian.

    Derivatives act slot-wise on the multilinear ordering functional and
    therefore commute with it, so the exponential is applied to ``p`` over
    the source symbols first and the result ordered through the basis
    change.  For an identity basis this coincides with applying the
    exponential to the already-ordered polynomial.
    """
    _check_pair(contraction, o, oprime)
    p = OperatorPoly.coerce(p)
    smoothed = exp_laplacian(contraction, p)
    return order_poly(oprime, basis.expand_poly(smoothed))


def _check_pair(contraction: ContractionMatrix, o: Ordering, oprime: Ordering):
    if contraction.o is not None and contraction.o != o:
        raise ContractionMismatch(
            f"contraction was built for {contraction.o.name}, not {o.name}"
        )
    if contraction.oprime is not None and contraction.oprime != oprime:
        raise ContractionMismatch(
            f"contraction was built against {contraction.oprime.name}, "
            f"not {oprime.name}"
        )


def reorder_substitution(o: Ordering, oprime: Ordering, basis: BasisChange,
                         contraction: ContractionMatrix, p) -> OperatorPoly:
    """Reorder ``o[p]`` into the target ordering by factor substitution.

    Each factor ``x`` becomes ``x + sum_b C[x,b] d_b`` with the derivative
    acting on everything to its right; the expanded polynomial is then
    ordered by ``oprime`` through the basis change.  The result equals
    ``order_poly(o, p)`` as an operator.
    """
    _check_pair(contraction, o, oprime)
    p = OperatorPoly.coerce(p)
    shifts = {
        a.name: [(b, v) for b in contraction.symbols if (v := contraction.get(a, b))]
        for a in contraction.symbols
    }
    cache = {(): OperatorPoly.one()}

    def expand(word):
        if word not in cache:
            head, tail = word[0], expand(word[1:])
            cache[word] = OperatorPoly.combine(
                [(OperatorPoly.from_symbol(head) * tail, 1)]
                + [(derive(tail, b), value) for b, value in shifts[head.name]]
            )
        return cache[word]

    for word in p.terms:
        for sym in word:
            if sym.name not in shifts:
                raise ContractionMismatch(
                    f"symbol {sym.name!r} is outside the contraction index set"
                )
    out = OperatorPoly.combine(
        (expand(word), coeff) for word, coeff in p.terms.items()
    )
    return order_poly(oprime, basis.expand_poly(out))


def reorder_univariate(coeffs, c_value, oprime: Ordering,
                       x_target: OperatorPoly) -> OperatorPoly:
    """Reorder a polynomial in a single shared operator X.

    ``coeffs[m]`` weights ``X**m``; ``c_value`` is the scalar contraction of
    the ordering pair; ``x_target`` expresses X over the target symbols.
    This is the one-operator case of :func:`reorder_multivariate`.
    """
    return reorder_multivariate(
        {(m,): coeff for m, coeff in enumerate(coeffs)}, [[c_value]], oprime,
        [x_target],
    )


def reorder_multivariate(poly_in_x, c_matrix, oprime: Ordering,
                         xs_target) -> OperatorPoly:
    """Several shared operators X^i with scalar contractions ``c_matrix[i][j]``.

    ``poly_in_x`` maps exponent tuples to scalar coefficients.  Each tuple
    is a word over formal bosonic symbols X0, X1, ..., smoothed by
    :func:`exp_laplacian` with ``c_matrix`` as the contraction.  Each word
    of the result becomes the ``oprime``-ordered product of the
    ``xs_target`` it names, and these are summed by one
    :meth:`OperatorPoly.combine`.
    """
    xs_target = [OperatorPoly.coerce(x) for x in xs_target]
    formal = [OperatorSymbol(f"X{i}") for i in range(len(xs_target))]
    terms = {}
    for exps, coeff in dict(poly_in_x).items():
        if len(exps) != len(formal) or min(exps, default=0) < 0:
            raise NotUnivariate(
                f"exponent tuple {exps} needs one nonnegative exponent per operator"
            )
        terms[sum(((x,) * e for x, e in zip(formal, exps)), ())] = coeff
    entries = {
        (a.name, b.name): ScalarPoly.coerce(c_matrix[i][j])
        for i, a in enumerate(formal) for j, b in enumerate(formal)
    }
    smoothed = exp_laplacian(
        ContractionMatrix(formal, entries, "symmetric"), OperatorPoly(terms)
    )

    def target_product(word):
        out = OperatorPoly.one()
        for x in word:
            out = out * xs_target[formal.index(x)]
        return out

    return OperatorPoly.combine(
        (order_poly(oprime, target_product(word)), coeff)
        for word, coeff in smoothed.terms.items()
    )


def express_univariate(p, x, table: CommutationTable) -> list:
    """Write ``p`` as a coefficient list in powers of ``x`` or raise.

    Peels the canonical form degree by degree; raises ``NotUnivariate`` when
    the remainder cannot be matched against the corresponding power.
    """
    p = OperatorPoly.coerce(p)
    x = OperatorPoly.coerce(x)
    degree = p.degree()
    powers = [canonical_reduce(x**m, table) for m in range(degree + 1)]
    remainder = canonical_reduce(p, table)
    coeffs = [ScalarPoly.zero() for _ in range(degree + 1)]
    for m in range(degree, -1, -1):
        top_words = [w for w in remainder.terms if len(w) == m]
        if not top_words:
            continue
        word = top_words[0]
        ref = powers[m].terms.get(word)
        if ref is None:
            raise NotUnivariate(f"term {word} has no counterpart in X**{m}")
        target = remainder.terms[word]
        ratio = _scalar_ratio(target, ref)
        if ratio is None:
            raise NotUnivariate(f"coefficient of {word} is not a multiple of X**{m}'s")
        coeffs[m] = ratio
        remainder = remainder - powers[m].scale(ratio)
        if any(len(w) >= m for w in remainder.terms if w):
            extra = [w for w in remainder.terms if len(w) >= m and w]
            if extra:
                raise NotUnivariate(f"residual terms {extra} at degree {m}")
    if not remainder.is_zero:
        raise NotUnivariate("nonzero remainder after peeling all powers")
    return coeffs


def _scalar_ratio(num: ScalarPoly, den: ScalarPoly):
    """num / den when den is a nonzero constant, else None."""
    from .scalars import GaussianRational

    try:
        c = den.constant_value()
    except ValueError:
        return None
    if c.is_zero:
        return None
    inv = GaussianRational(1) / c
    return ScalarPoly({m: coeff * inv for m, coeff in num.terms.items()})


def exponential_series(o: Ordering, basis: BasisChange, lambdas,
                       max_order: int) -> OperatorPoly:
    """Series of the ordered exponential of ``sum_a lambda_a phi_a``.

    ``lambdas`` maps symbols to scalar weights (typically fresh formal
    symbols); the expansion keeps words up to length ``max_order``.
    """
    terms = _linear_form(lambdas)
    parts = []
    power = OperatorPoly.one()
    for n in range(max_order + 1):
        if n > 0:
            power = power * terms
        parts.append((order_poly(o, basis.expand_poly(power)),
                      Fraction(1, math.factorial(n))))
    return OperatorPoly.combine(parts)


def exponential_series_rhs(oprime: Ordering, basis: BasisChange,
                           contraction: ContractionMatrix, lambdas,
                           max_order: int) -> OperatorPoly:
    """Right side of the exponential identity, truncated consistently.

    The scalar prefactor ``exp((1/2) sum C[a,b] lambda_a lambda_b)`` is
    expanded and the product with the ordered exponential series truncated at
    total degree ``max_order`` in the lambda symbols.
    """
    lam = _normalize_lambdas(lambdas)
    lam_symbols = set()
    for weight in lam.values():
        lam_symbols |= weight.free_symbols()
    quad = ScalarPoly.zero()
    for a, wa in lam.items():
        for b, wb in lam.items():
            value = contraction.get(a, b)
            if not value.is_zero:
                quad = quad + value * wa * wb
    quad = quad * ScalarPoly.const(Fraction(1, 2))
    prefactor = ScalarPoly.one()
    power = ScalarPoly.one()
    for m in range(1, max_order // 2 + 1):
        power = power * quad
        prefactor = prefactor + power * ScalarPoly.const(Fraction(1, math.factorial(m)))
    series = exponential_series(oprime, basis, lambdas, max_order)
    combined = OperatorPoly.combine([(series, prefactor)])
    if lam_symbols:
        combined = combined.map_coeffs(
            lambda c: c.truncate_degree(lam_symbols, max_order)
        )
    return combined


def exponential_series_check(o: Ordering, oprime: Ordering, basis: BasisChange,
                             contraction: ContractionMatrix, lambdas,
                             max_order: int, table: CommutationTable):
    """Compare both sides of the exponential identity term by term."""
    lhs = exponential_series(o, basis, lambdas, max_order)
    rhs = exponential_series_rhs(oprime, basis, contraction, lambdas, max_order)
    diff = canonical_reduce(lhs - rhs, table)
    return lhs, rhs, diff.is_zero


def _normalize_lambdas(lambdas) -> dict:
    out = {}
    for sym, weight in dict(lambdas).items():
        name = sym.name if isinstance(sym, OperatorSymbol) else sym
        out[name] = ScalarPoly.coerce(weight)
    return out


def _linear_form(lambdas) -> OperatorPoly:
    pairs = []
    for sym, weight in dict(lambdas).items():
        if not isinstance(sym, OperatorSymbol):
            raise TypeError("lambdas must be keyed by OperatorSymbol")
        if sym.is_fermion:
            # the scalar ring has commuting symbols only, so exponential
            # series weights cannot anticommute with fermionic factors
            raise FlavorMismatch(
                "exponential series supports bosonic symbols only"
            )
        pairs.append((OperatorPoly.from_symbol(sym), weight))
    return OperatorPoly.combine(pairs)
