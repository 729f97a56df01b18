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
            self._pairs.append((sa, sb, value))

    def apply(self, p) -> OperatorPoly:
        """One application; degree drops by exactly two."""
        p = OperatorPoly.coerce(p)
        out = OperatorPoly.zero()
        half = ScalarPoly.const(Fraction(1, 2))
        for sa, sb, value in self._pairs:
            out = out + derive(derive(p, sa), sb).scale(value * half)
        return out

    def apply_exp(self, p, negate=False) -> OperatorPoly:
        """``sum_m L**m p / m!``; terminates because each step drops degree 2."""
        p = OperatorPoly.coerce(p)
        total = p
        term = p
        m = 0
        while not term.is_zero:
            m += 1
            term = self.apply(term)
            if term.is_zero:
                break
            weighted = term.map_coeffs(lambda c: c * Fraction(1, math.factorial(m)))
            if negate and m % 2 == 1:
                weighted = -weighted
            total = total + weighted
        return total


def exp_laplacian(contraction: ContractionMatrix, p, negate=False) -> OperatorPoly:
    """Apply the exponential of the contraction Laplacian to ``p``."""
    return ContractionLaplacian(contraction).apply_exp(p, negate=negate)


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
    by_name = {s.name: s for s in contraction.symbols}
    cache = {}

    def shift_rows(sym):
        rows = []
        for b in contraction.symbols:
            value = contraction.get(sym, b)
            if not value.is_zero:
                rows.append((b, value))
        return rows

    def expand(word):
        if word in cache:
            return cache[word]
        if not word:
            result = OperatorPoly.one()
        else:
            head, rest = word[0], word[1:]
            tail = expand(rest)
            result = OperatorPoly.from_symbol(head) * tail
            for b, value in shift_rows(head):
                result = result + derive(tail, b).scale(value)
        cache[word] = result
        return result

    out = OperatorPoly.zero()
    for word, coeff in p.terms.items():
        for sym in word:
            if sym.name not in by_name:
                raise ContractionMismatch(
                    f"symbol {sym.name!r} is outside the contraction index set"
                )
        out = out + expand(word).scale(coeff)
    return order_poly(oprime, basis.expand_poly(out))


def smooth_univariate(coeffs, c_value) -> list:
    """Gaussian smoothing ``exp((C/2) d2/dX2)`` of a coefficient list."""
    c_value = ScalarPoly.coerce(c_value)
    degree = len(coeffs) - 1
    out = [ScalarPoly.zero() for _ in range(len(coeffs))]
    half_c = c_value * ScalarPoly.const(Fraction(1, 2))
    for m, coeff in enumerate(coeffs):
        coeff = ScalarPoly.coerce(coeff)
        if coeff.is_zero:
            continue
        for j in range(m // 2 + 1):
            weight = Fraction(
                math.factorial(m),
                math.factorial(j) * math.factorial(m - 2 * j),
            )
            out[m - 2 * j] = out[m - 2 * j] + coeff * (half_c**j) * ScalarPoly.const(weight)
    return out


def reorder_univariate(coeffs, c_value, oprime: Ordering,
                       x_target: OperatorPoly) -> OperatorPoly:
    """Reorder a polynomial in a single shared operator X.

    ``coeffs[m]`` weights ``X**m``; ``c_value`` is the scalar contraction of
    the ordering pair; ``x_target`` expresses X over the target symbols.  The
    smoothing operator is applied term-by-term and the result ordered by the
    target ordering.
    """
    smoothed = smooth_univariate(list(coeffs), c_value)
    x_target = OperatorPoly.coerce(x_target)
    out = OperatorPoly.zero()
    power = OperatorPoly.one()
    for m, coeff in enumerate(smoothed):
        if m > 0:
            power = power * x_target
        if coeff.is_zero:
            continue
        out = out + order_poly(oprime, power).scale(coeff)
    return out


def reorder_multivariate(poly_in_x, c_matrix, oprime: Ordering,
                         xs_target) -> OperatorPoly:
    """Several shared operators X^i with scalar contractions ``c_matrix[i][j]``.

    ``poly_in_x`` maps exponent tuples to scalar coefficients; the smoothing
    operator iterates over ordered pairs ``(i, j)``.
    """
    xs_target = [OperatorPoly.coerce(x) for x in xs_target]
    r = len(xs_target)
    work = {
        tuple(exps): ScalarPoly.coerce(coeff)
        for exps, coeff in dict(poly_in_x).items()
        if not ScalarPoly.coerce(coeff).is_zero
    }
    for exps in work:
        if len(exps) != r:
            raise NotUnivariate(
                f"exponent tuple {exps} does not match {r} shared operators"
            )

    def pair_derivative(terms, i, j):
        out = {}
        for exps, coeff in terms.items():
            if exps[i] == 0:
                continue
            once = list(exps)
            factor = once[i]
            once[i] -= 1
            if once[j] == 0:
                continue
            factor *= once[j]
            once[j] -= 1
            key = tuple(once)
            add = coeff * ScalarPoly.const(factor)
            acc = out.get(key)
            out[key] = add if acc is None else acc + add
        return out

    half = ScalarPoly.const(Fraction(1, 2))
    total = dict(work)
    level = dict(work)
    m = 0
    while level:
        m += 1
        step = {}
        for i in range(r):
            for j in range(r):
                c = ScalarPoly.coerce(c_matrix[i][j])
                if c.is_zero:
                    continue
                for key, value in pair_derivative(level, i, j).items():
                    add = value * c * half
                    acc = step.get(key)
                    step[key] = add if acc is None else acc + add
        inv_m = ScalarPoly.const(Fraction(1, m))
        level = {k: v * inv_m for k, v in step.items() if not v.is_zero}
        for key, value in level.items():
            acc = total.get(key)
            total[key] = value if acc is None else acc + value
    out = OperatorPoly.zero()
    for exps, coeff in total.items():
        if coeff.is_zero:
            continue
        word_poly = OperatorPoly.one()
        for i, e in enumerate(exps):
            word_poly = word_poly * xs_target[i] ** e
        out = out + order_poly(oprime, word_poly).scale(coeff)
    return out


def express_univariate(p, x, table: CommutationTable, max_degree=None,
                       ref_order=None) -> list:
    """Write ``p`` as a coefficient list in powers of ``x`` or raise.

    Peels the canonical form degree by degree; raises ``NotUnivariate`` when
    the remainder cannot be matched against the corresponding power.
    """
    p = OperatorPoly.coerce(p)
    x = OperatorPoly.coerce(x)
    degree = max_degree if max_degree is not None else p.degree()
    powers = [canonical_reduce(x**m, table, ref_order) for m in range(degree + 1)]
    remainder = canonical_reduce(p, table, ref_order)
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
    out = OperatorPoly.zero()
    power = OperatorPoly.one()
    for n in range(max_order + 1):
        if n > 0:
            power = power * terms
        contrib = order_poly(o, basis.expand_poly(power))
        out = out + contrib.map_coeffs(
            lambda c, n=n: c * Fraction(1, math.factorial(n))
        )
    return out


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
    combined = OperatorPoly.zero()
    for word, coeff in series.terms.items():
        combined = combined + OperatorPoly.from_word(word, coeff * prefactor)
    if lam_symbols:
        combined = OperatorPoly(
            {
                w: c.truncate_degree(lam_symbols, max_order)
                for w, c in combined.terms.items()
            }
        )
    return combined


def exponential_series_check(o: Ordering, oprime: Ordering, basis: BasisChange,
                             contraction: ContractionMatrix, lambdas,
                             max_order: int, table: CommutationTable,
                             ref_order=None):
    """Compare both sides of the exponential identity term by term."""
    lhs = exponential_series(o, basis, lambdas, max_order)
    rhs = exponential_series_rhs(oprime, basis, contraction, lambdas, max_order)
    diff = canonical_reduce(lhs - rhs, table, ref_order)
    return lhs, rhs, diff.is_zero


def _normalize_lambdas(lambdas) -> dict:
    out = {}
    for sym, weight in dict(lambdas).items():
        name = sym.name if isinstance(sym, OperatorSymbol) else sym
        out[name] = ScalarPoly.coerce(weight)
    return out


def _linear_form(lambdas) -> OperatorPoly:
    out = OperatorPoly.zero()
    for sym, weight in dict(lambdas).items():
        if not isinstance(sym, OperatorSymbol):
            raise TypeError("lambdas must be keyed by OperatorSymbol")
        if sym.is_fermion:
            # the scalar ring has commuting symbols only, so exponential
            # series weights cannot anticommute with fermionic factors
            raise FlavorMismatch(
                "exponential series supports bosonic symbols only"
            )
        out = out + OperatorPoly.from_symbol(sym).scale(ScalarPoly.coerce(weight))
    return out
