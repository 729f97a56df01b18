"""Brute-force verifier for the reordering transforms.

This module deliberately shares no sorting code with ``orderings``: the
definitional route enumerates permutations outright, picks the arrangement
demanded by the comparator, and counts sign pairs by brute force.  Every
verified instance compares three canonical forms: the definitional ordering,
the substitution transform, and the exponential-Laplacian transform.  Exact
triple agreement is required.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IncomparableKeys, ParameterOutOfRange, SymmetricOnFermions
from .algebra import CommutationTable, OperatorPoly, canonical_reduce, check_word_count
from .contractions import ContractionMatrix, contraction_def
from .orderings import BasisChange, Ordering
from .reorder import reorder_exponential, reorder_substitution
from .scalars import ScalarPoly

__all__ = [
    "definitional_order",
    "verify_instance",
    "sweep",
    "VerificationReport",
    "SweepReport",
]

# Words one sweep may verify: a four-symbol pool to length 5 is 1365 words.
MAX_SWEEP_WORDS = 5000
# Arrangements the definitional route enumerates in one sweep from a
# symmetric source, n! per word of length n.  Acceptance 1's four-symbol Weyl
# sweep to length 5 is 129,445; two symbols to length 7 is 695,483 and took
# 15 s on a 2-core VM.
MAX_SWEEP_ARRANGEMENTS = 1_000_000


def definitional_order(o: Ordering, word) -> OperatorPoly:
    """Order a word straight from the definition, by permutation search.

    Permutation kind: enumerate all arrangements, select the one with
    comparator ranks nonincreasing left-to-right and ties kept in input
    order, and count inverted fermion pairs directly.  Symmetric kind:
    average over every arrangement with weight ``1/n!``.
    """
    word = tuple(word)
    n = len(word)
    if o.kind == "symmetric":
        if any(s.is_fermion for s in word):
            raise SymmetricOnFermions(o.name)
        if n == 0:
            return OperatorPoly.one()
        weight = ScalarPoly.const(Fraction(1, math.factorial(n)))
        terms = {}
        for perm in itertools.permutations(range(n)):
            w = tuple(word[i] for i in perm)
            acc = terms.get(w)
            terms[w] = weight if acc is None else acc + weight
        return OperatorPoly(terms)

    if n == 0:
        return OperatorPoly.one()
    ranks = [o.rank(s) for s in word]
    chosen = None
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n - 1):
            ra, rb = ranks[perm[i]], ranks[perm[i + 1]]
            if ra < rb:
                ok = False
                break
            if ra == rb and perm[i] > perm[i + 1]:
                ok = False
                break
        if ok:
            chosen = perm
            break
    if chosen is None:
        raise IncomparableKeys(f"no valid arrangement under {o.name}")
    sign = 1
    if o.signature == -1:
        inverted = 0
        for i in range(n):
            for j in range(i + 1, n):
                if chosen[i] > chosen[j]:
                    if word[chosen[i]].is_fermion and word[chosen[j]].is_fermion:
                        inverted += 1
        if inverted % 2 == 1:
            sign = -1
    return OperatorPoly.from_word(tuple(word[i] for i in chosen), sign)


@dataclass
class VerificationReport:
    """Outcome of one instance check."""

    word: tuple
    ordering: str
    target_ordering: str
    passed: bool
    lhs: OperatorPoly = None
    via_substitution: OperatorPoly = None
    via_laplacian: OperatorPoly = None
    first_difference: str = ""

    def to_json(self) -> str:
        payload = {
            "word": [s.name for s in self.word],
            "ordering": self.ordering,
            "target_ordering": self.target_ordering,
            "passed": self.passed,
        }
        if not self.passed:
            payload["lhs"] = str(self.lhs)
            payload["via_substitution"] = str(self.via_substitution)
            payload["via_laplacian"] = str(self.via_laplacian)
            payload["first_difference"] = self.first_difference
        return json.dumps(payload, sort_keys=True)


def verify_instance(o: Ordering, oprime: Ordering, basis: BasisChange,
                    table: CommutationTable, word,
                    contraction: ContractionMatrix = None) -> VerificationReport:
    """Check triple agreement on a single word.

    The definitional ordering (expanded to the target basis), the
    substitution transform, and the exponential-Laplacian transform must all
    reduce to the same canonical form, with exact scalar equality.
    """
    word = tuple(word)
    if contraction is None:
        contraction = contraction_def(o, oprime, basis, table)

    lhs = canonical_reduce(basis.expand_poly(definitional_order(o, word)), table)
    via_subst = canonical_reduce(
        reorder_substitution(o, oprime, basis, contraction,
                             OperatorPoly.from_word(word)),
        table,
    )
    via_lap = canonical_reduce(
        reorder_exponential(o, oprime, basis, contraction,
                            OperatorPoly.from_word(word)),
        table,
    )

    passed = lhs == via_subst and lhs == via_lap
    first_diff = ""
    if not passed:
        for label, other in (("substitution", via_subst), ("laplacian", via_lap)):
            delta = lhs - other
            if not delta.is_zero:
                some_word = next(iter(delta.terms))
                first_diff = (
                    f"{label} differs at word "
                    f"{'*'.join(s.name for s in some_word) or '1'}: "
                    f"{delta.terms[some_word]}"
                )
                break
    return VerificationReport(
        word, o.name, oprime.name, passed, lhs, via_subst, via_lap, first_diff
    )


@dataclass
class SweepReport:
    """Aggregate of a word enumeration sweep."""

    total: int = 0
    passed: int = 0
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.total - self.passed


def sweep(o: Ordering, oprime: Ordering, basis: BasisChange,
          table: CommutationTable, max_len: int, pool,
          sink=None) -> SweepReport:
    """Verify all words with repetition over ``pool`` up to ``max_len``.

    Enumeration is deterministic (pool order, then lexicographic by factor
    choice).  ``sink`` receives each instance report when provided; a
    JSON-lines stream is one :meth:`VerificationReport.to_json` line per
    report passed to ``sink``, as ``opwick verify --jsonl`` writes it.  A
    sweep of no word or of more than ``MAX_SWEEP_WORDS`` is refused first, and
    from a symmetric ordering so is one of more than ``MAX_SWEEP_ARRANGEMENTS``.
    """
    pool = list(pool)
    lengths = range(max_len + 1)
    request = f"a sweep to length {max_len} over {len(pool)} symbols"
    check_word_count(len(pool), lengths, MAX_SWEEP_WORDS, request)
    if o.kind == "symmetric":
        arrangements = 0
        for n in lengths:  # counting stops at the cap, so any size is cheap
            arrangements += len(pool) ** n * math.factorial(n)
            if arrangements > MAX_SWEEP_ARRANGEMENTS:
                raise ParameterOutOfRange(f"{request} forms more than "
                                          f"{MAX_SWEEP_ARRANGEMENTS} arrangements")
    contraction = contraction_def(o, oprime, basis, table)
    report = SweepReport()
    for n in lengths:
        for combo in itertools.product(pool, repeat=n):
            instance = verify_instance(o, oprime, basis, table, combo, contraction)
            report.total += 1
            if instance.passed:
                report.passed += 1
            else:
                report.failures.append(instance)
            if sink is not None:
                sink(instance)
    return report
