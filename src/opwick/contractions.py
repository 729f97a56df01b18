"""Contraction data between pairs of orderings.

The contraction of a symbol pair is the c-number left over when the two
orderings of the pair are subtracted and the difference is reduced to
canonical form.  The module also provides the direct step-function form,
the target-basis matrix, the scalar contraction for implicitly related
symbol sets, and the split matrix for annihilation/creation fermion fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    FamilyAxiomViolated,
    NotCNumber,
    NotPermutationOrdering,
    RelationViolated,
)
from .algebra import (
    BOSON,
    FERMION,
    CommutationTable,
    OperatorPoly,
    OperatorSymbol,
    canonical_reduce,
)
from .orderings import BasisChange, Ordering, order_poly, order_word, order_word_foreign
from .scalars import ScalarPoly

__all__ = [
    "ContractionMatrix",
    "ScalarContraction",
    "contraction_def",
    "contraction_theta",
    "tilde_contraction",
    "scalar_contraction_implicit",
    "fermion_field_contraction",
    "full_contraction_from_split",
]

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
MIXED = "mixed"


@dataclass
class ContractionMatrix:
    """Matrix of pair contractions between two orderings.

    Entries are symmetric for boson pairs and antisymmetric for fermion
    pairs.  The producing ordering pair and basis change are recorded so the
    reordering engine can reject a matrix built for a different pair.
    """

    symbols: tuple
    entries: dict
    parity: str
    o: Ordering = None
    oprime: Ordering = None
    basis: BasisChange = None

    def get(self, a, b) -> ScalarPoly:
        a = a.name if isinstance(a, OperatorSymbol) else a
        b = b.name if isinstance(b, OperatorSymbol) else b
        return self.entries.get((a, b), ScalarPoly.zero())

    def names(self):
        return [s.name for s in self.symbols]

    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.entries.values())

    def scaled_check_parity(self) -> bool:
        """Entry-wise symmetry/antisymmetry per the statistics of each pair."""
        by_name = {s.name: s for s in self.symbols}
        for a in by_name:
            for b in by_name:
                v_ab = self.get(a, b)
                v_ba = self.get(b, a)
                if by_name[a].is_fermion and by_name[b].is_fermion:
                    if v_ab != -v_ba:
                        return False
                elif not by_name[a].is_fermion and not by_name[b].is_fermion:
                    if v_ab != v_ba:
                        return False
                else:
                    if not (v_ab.is_zero and v_ba.is_zero):
                        return False
        return True

    def __str__(self):
        parts = [
            f"C[{a},{b}] = {v}"
            for (a, b), v in sorted(self.entries.items())
            if not v.is_zero
        ]
        return "; ".join(parts) if parts else "0"


@dataclass
class ScalarContraction:
    """Scalar contraction for an implicit linear relation.

    ``value`` is the ordering difference of the squared shared operator; when
    an explicit basis change exists it equals the lambda-weighted sum of the
    matrix entries.
    """

    value: ScalarPoly
    lambdas: dict = field(default_factory=dict)
    lambdas_tilde: dict = field(default_factory=dict)
    o: Ordering = None
    oprime: Ordering = None


def _statistics_parity(symbols) -> str:
    stats = {s.statistics for s in symbols}
    if stats == {FERMION}:
        return ANTISYMMETRIC
    if stats == {BOSON}:
        return SYMMETRIC
    return MIXED


def contraction_def(o: Ordering, oprime: Ordering, basis: BasisChange,
                    target_table: CommutationTable) -> ContractionMatrix:
    """Definitional contraction: ordering difference of each symbol pair.

    For each ordered pair the two-factor word is ordered both ways, expanded
    to the target basis, and canonically reduced; the operator part must
    vanish and the scalar remainder is the matrix entry.
    """
    symbols = tuple(basis.source.values())
    entries = {}
    for a in symbols:
        for b in symbols:
            lhs = basis.expand_poly(order_word(o, (a, b)))
            rhs = order_word_foreign(oprime, (a, b), basis)
            diff = canonical_reduce(lhs - rhs, target_table)
            if diff.operator_part():
                raise NotCNumber(a.name, b.name, diff)
            value = diff.scalar_part()
            if not value.is_zero:
                entries[(a.name, b.name)] = value
    matrix = ContractionMatrix(
        symbols, entries, _statistics_parity(symbols), o, oprime, basis
    )
    if not matrix.scaled_check_parity():
        # A symmetric remainder in a fermionic sector (or vice versa) cannot
        # be carried by the derivative transforms; reject the pair loudly.
        raise NotCNumber(
            o.name, oprime.name, None,
            f"contraction of ({o.name}, {oprime.name}) violates the "
            "symmetric/antisymmetric parity demanded by the statistics",
        )
    return matrix


def contraction_theta(o: Ordering, oprime: Ordering, basis: BasisChange,
                      target_table: CommutationTable) -> ContractionMatrix:
    """Step-function contraction, evaluated without any canonical reduction.

    ``C[a,b] = sum_kl theta'(l>k) L[a,k] L[b,l] bracket(k,l)
               - theta(b>a) sum_kl L[a,k] L[b,l] bracket(k,l)``
    with theta taken under the respective comparators.  Must agree with
    :func:`contraction_def` entry-wise.
    """
    if o.kind != "permutation" or oprime.kind != "permutation":
        raise NotPermutationOrdering(
            "step-function form needs permutation orderings on both sides"
        )
    symbols = tuple(basis.source.values())
    # Unsigned orderings over fermions do not admit c-number contractions;
    # the definitional route reports that via NotCNumber, so mirror it here.
    if any(s.is_fermion for s in symbols):
        if o.signature == 1 or oprime.signature == 1:
            raise NotCNumber(o.name, oprime.name)
    entries = {}
    for a in symbols:
        for b in symbols:
            term1 = ScalarPoly.zero()
            bracket_ab = ScalarPoly.zero()
            for k, ck in basis.row(a):
                for l, cl in basis.row(b):
                    br = target_table.bracket(k, l)
                    if br.is_zero:
                        continue
                    contrib = ck * cl * br
                    bracket_ab = bracket_ab + contrib
                    if oprime.succeeds(l, k):
                        term1 = term1 + contrib
            value = term1
            if o.succeeds(b, a):
                value = value - bracket_ab
            if not value.is_zero:
                entries[(a.name, b.name)] = value
    return ContractionMatrix(
        symbols, entries, _statistics_parity(symbols), o, oprime, basis
    )


def tilde_contraction(o: Ordering, oprime: Ordering,
                      target_table: CommutationTable) -> ContractionMatrix:
    """Contraction over the target symbols themselves (identity basis)."""
    identity = BasisChange.identity(list(target_table.registry))
    return contraction_def(o, oprime, identity, target_table)


def solve_tilde(basis: BasisChange, contraction: ContractionMatrix) -> ContractionMatrix:
    """Target-basis contraction solved from ``L Ct L^T = C``.

    Needed when the left ordering cannot rank the target symbols, so no
    definitional target-level contraction exists.  The solution uses the
    symmetric completion for boson pairs (antisymmetric for fermions); free
    entries are set to zero.  Raises ValueError when no polynomial solution
    exists.
    """
    from .linsolve import PolyFraction, solve_linear_system

    targets = list(basis.target.values())
    sources = list(basis.source.values())
    parity = _statistics_parity(targets)
    if parity == MIXED:
        raise ValueError("solve_tilde needs a single-statistics target set")
    anti = parity == ANTISYMMETRIC
    unknowns = []
    for i, k in enumerate(targets):
        for j, l in enumerate(targets):
            if j < i:
                continue
            if anti and i == j:
                continue
            unknowns.append((k.name, l.name))
    index = {pair: idx for idx, pair in enumerate(unknowns)}

    def coefficient_row(a, b):
        row = [ScalarPoly.zero() for _ in unknowns]
        for k, ck in basis.row(a):
            for l, cl in basis.row(b):
                weight = ck * cl
                if (k.name, l.name) in index:
                    idx = index[(k.name, l.name)]
                    row[idx] = row[idx] + weight
                elif (l.name, k.name) in index:
                    idx = index[(l.name, k.name)]
                    row[idx] = row[idx] + (-weight if anti else weight)
        return row

    rows, rhs = [], []
    for a in sources:
        for b in sources:
            rows.append(coefficient_row(a, b))
            rhs.append(contraction.get(a, b))
    solution = solve_linear_system(rows, rhs)
    entries = {}
    for pair, idx in index.items():
        value = solution[idx].to_poly()
        if value.is_zero:
            continue
        entries[pair] = value
        if pair[0] != pair[1]:
            entries[(pair[1], pair[0])] = -value if anti else value
    return ContractionMatrix(
        tuple(targets), entries, parity, contraction.o, contraction.oprime, None
    )


def transform_matrix(basis: BasisChange, tilde: ContractionMatrix) -> dict:
    """``sum_kl L[a,k] L[b,l] Ctilde[k,l]`` for every source pair."""
    out = {}
    for a in basis.source.values():
        for b in basis.source.values():
            total = ScalarPoly.zero()
            for k, ck in basis.row(a):
                for l, cl in basis.row(b):
                    total = total + ck * cl * tilde.get(k, l)
            out[(a.name, b.name)] = total
    return out


def scalar_contraction_implicit(lambdas, lambdas_tilde, o: Ordering,
                                oprime: Ordering, phi_basis: BasisChange,
                                vphi_basis: BasisChange,
                                common_table: CommutationTable) -> ScalarContraction:
    """Scalar contraction when only an implicit linear relation holds.

    ``lambdas`` weights the source symbols of ``phi_basis`` and
    ``lambdas_tilde`` those of ``vphi_basis``; both weighted sums must be the
    same operator in the common basis.  Returns the ordering difference of
    the squared shared operator.
    """
    lam = {
        (s.name if isinstance(s, OperatorSymbol) else s): ScalarPoly.coerce(v)
        for s, v in dict(lambdas).items()
    }
    lam_t = {
        (s.name if isinstance(s, OperatorSymbol) else s): ScalarPoly.coerce(v)
        for s, v in dict(lambdas_tilde).items()
    }
    x_phi = OperatorPoly.combine(
        (OperatorPoly.from_symbol(phi_basis.source[name]), weight)
        for name, weight in lam.items()
    )
    x_vphi = OperatorPoly.combine(
        (OperatorPoly.from_symbol(vphi_basis.source[name]), weight)
        for name, weight in lam_t.items()
    )

    lhs_embed = phi_basis.expand_poly(x_phi)
    rhs_embed = vphi_basis.expand_poly(x_vphi)
    if not canonical_reduce(lhs_embed - rhs_embed, common_table).is_zero:
        raise RelationViolated(
            "weighted source and target sums are not the same operator"
        )

    lhs = phi_basis.expand_poly(order_poly(o, x_phi * x_phi))
    rhs = vphi_basis.expand_poly(order_poly(oprime, x_vphi * x_vphi))
    diff = canonical_reduce(lhs - rhs, common_table)
    if diff.operator_part():
        raise NotCNumber("X", "X", diff)
    return ScalarContraction(diff.scalar_part(), lam, lam_t, o, oprime)


def fermion_field_contraction(psis, psidags, o: Ordering, oprime: Ordering,
                              table: CommutationTable) -> dict:
    """Split contraction for annihilation/creation fermion families.

    ``Cbar[a, b] = (theta(a>b) - theta'(a>b)) {psi_a, psidag_b}`` over the
    two families; same-family anticommutators must vanish.
    """
    psis = list(psis)
    psidags = list(psidags)
    for family in (psis, psidags):
        for x in family:
            if not x.is_fermion:
                raise FamilyAxiomViolated(f"{x.name} is not fermionic")
            for y in family:
                if not table.bracket(x, y).is_zero:
                    raise FamilyAxiomViolated(
                        f"{{{x.name}, {y.name}}} must vanish within a family"
                    )
    cbar = {}
    for a in psis:
        for b in psidags:
            theta_o = 1 if o.succeeds(a, b) else 0
            theta_op = 1 if oprime.succeeds(a, b) else 0
            value = table.bracket(a, b) * ScalarPoly.const(theta_o - theta_op)
            cbar[(a.name, b.name)] = value
    return cbar


def full_contraction_from_split(psis, psidags, cbar) -> ContractionMatrix:
    """Assemble the antisymmetric contraction over the interleaved family.

    Same-family entries vanish; mixed entries are ``+Cbar`` with the
    annihilator first and ``-Cbar`` with the creator first.
    """
    symbols = tuple(psis) + tuple(psidags)
    entries = {}
    for a in psis:
        for b in psidags:
            value = cbar[(a.name, b.name)]
            if value.is_zero:
                continue
            entries[(a.name, b.name)] = value
            entries[(b.name, a.name)] = -value
    return ContractionMatrix(symbols, entries, ANTISYMMETRIC)
