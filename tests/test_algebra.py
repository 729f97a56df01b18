"""Operator words, commutation tables, canonical reduction, operator equality."""

import gc
import random
from fractions import Fraction

import numpy as np
import pytest

from opwick import (
    FERMION,
    CommutationTable,
    OperatorPoly,
    OperatorSymbol,
    ScalarPoly,
    canonical_reduce,
    poly_equal,
)
from opwick.errors import MissingEntry, RegistryMismatch


def word_poly(*syms):
    return OperatorPoly.from_word(tuple(syms))


def test_multiply_concatenates(boson_mode):
    a, ad, _ = boson_mode
    prod = OperatorPoly.from_symbol(a) * OperatorPoly.from_symbol(ad)
    assert prod == word_poly(a, ad)


def test_multiply_bilinear(boson_mode):
    a, ad, _ = boson_mode
    q = OperatorPoly.from_symbol(a) + OperatorPoly.from_symbol(ad)
    out = q * OperatorPoly.from_symbol(a)
    assert out == word_poly(a, a) + word_poly(ad, a)


def test_multiply_absorbing_zero(boson_mode):
    a, _, _ = boson_mode
    assert (OperatorPoly.zero() * OperatorPoly.from_symbol(a)).is_zero


def test_multiply_registry_mismatch():
    a1 = OperatorSymbol("a")
    a2 = OperatorSymbol("a", key=5)
    with pytest.raises(RegistryMismatch):
        OperatorPoly.from_symbol(a1) * OperatorPoly.from_symbol(a2)


def test_bracket_lookup_and_antisymmetry(boson_mode):
    a, ad, table = boson_mode
    assert table.bracket(a, ad) == ScalarPoly.one()
    assert table.bracket(ad, a) == ScalarPoly.const(-1)


def test_bracket_anticommutator_symmetry():
    c = OperatorSymbol("c", FERMION)
    cd = OperatorSymbol("c†", FERMION, dagger=True)
    table = CommutationTable([c, cd], {("c", "c†"): ScalarPoly.one()})
    assert table.bracket(c, cd) == ScalarPoly.one()
    assert table.bracket(cd, c) == ScalarPoly.one()


def test_bracket_missing_entry():
    u = OperatorSymbol("u")
    v = OperatorSymbol("v")
    table = CommutationTable([u, v])
    with pytest.raises(MissingEntry):
        table.bracket(u, v)


def test_mixed_entries_need_sector_rule():
    b = OperatorSymbol("b")
    f = OperatorSymbol("f", FERMION)
    with pytest.raises(MissingEntry):
        CommutationTable([b, f], {("b", "f"): ScalarPoly.one()})
    table = CommutationTable([b, f], {("b", "f"): ScalarPoly.one()},
                             mixed_rule="commute")
    assert table.bracket(b, f) == ScalarPoly.one()
    # default sector rule: mixed pairs commute with vanishing bracket
    table2 = CommutationTable([b, f])
    assert table2.bracket(b, f).is_zero
    assert table2.swap_sign(b, f) == 1


def test_canonical_reduce_single_commutator(boson_mode):
    a, ad, table = boson_mode
    got = canonical_reduce(word_poly(a, ad), table)
    assert got == word_poly(ad, a) + OperatorPoly.one()


def test_canonical_reduce_single_anticommutator():
    c = OperatorSymbol("c", FERMION)
    cd = OperatorSymbol("c†", FERMION, dagger=True)
    table = CommutationTable([c, cd], {("c", "c†"): ScalarPoly.one()})
    got = canonical_reduce(word_poly(c, cd), table)
    assert got == OperatorPoly.one() - word_poly(cd, c)


def test_canonical_reduce_two_steps_matches_matrix_oracle(boson_mode):
    a, ad, table = boson_mode
    got = canonical_reduce(word_poly(a, ad, a), table)
    assert got == word_poly(ad, a, a) + word_poly(a)

    # cross-check on 3x3 truncated ladder matrices
    m_a = np.diag(np.sqrt([1.0, 2.0]), k=1)
    m_ad = m_a.T
    lhs = m_a @ m_ad @ m_a
    rhs = m_ad @ m_a @ m_a + m_a
    assert np.allclose(lhs, rhs)


def test_poly_equal(boson_mode):
    a, ad, table = boson_mode
    assert poly_equal(word_poly(a, ad), word_poly(ad, a) + 1, table)
    assert not poly_equal(word_poly(a, ad), word_poly(ad, a), table)


def test_fermion_square_vanishes():
    c = OperatorSymbol("c", FERMION)
    cd = OperatorSymbol("c†", FERMION, dagger=True)
    table = CommutationTable([c, cd], {("c", "c†"): ScalarPoly.one()})
    assert poly_equal(word_poly(c, c), OperatorPoly.zero(), table)


def test_fermion_square_with_nonzero_self_anticommutator():
    x = OperatorSymbol("x", FERMION)
    y = OperatorSymbol("y", FERMION, key=1)
    table = CommutationTable(
        [x, y],
        {("x", "x"): ScalarPoly.const(Fraction(2, 5)), ("x", "y"): ScalarPoly.zero()},
    )
    got = canonical_reduce(word_poly(x, x), table)
    assert got == OperatorPoly.scalar(Fraction(1, 5))
    # repeated symbol inside a longer word reduces consistently
    got2 = canonical_reduce(word_poly(x, x, y), table)
    assert got2 == OperatorPoly.from_word((y,), Fraction(1, 5))


def _random_table(rng, n_symbols, fermionic):
    syms = [
        OperatorSymbol(f"s{i}", FERMION if fermionic else "boson", key=i)
        for i in range(n_symbols)
    ]
    entries = {}
    for i in range(n_symbols):
        for j in range(i, n_symbols):
            if i == j and not fermionic:
                continue
            val = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            entries[(syms[i].name, syms[j].name)] = ScalarPoly.const(val)
    return syms, CommutationTable(syms, entries)


def _random_bracket_preserving_rewrite(rng, word, table):
    """Apply a few random legal rewrites to a one-word polynomial."""
    poly = OperatorPoly.from_word(word)
    for _ in range(rng.randint(1, 4)):
        words = [w for w in poly.terms if len(w) >= 2]
        if not words:
            break
        w = words[rng.randrange(len(words))]
        coeff = poly.terms[w]
        i = rng.randrange(len(w) - 1)
        x, y = w[i], w[i + 1]
        rest = OperatorPoly({w: coeff})
        if x.name == y.name and x.is_fermion:
            continue
        sign = table.swap_sign(x, y)
        swapped = w[:i] + (y, x) + w[i + 2:]
        shorter = w[:i] + w[i + 2:]
        replacement = OperatorPoly.from_word(swapped, sign).scale(coeff)
        bracket = table.bracket(x, y)
        if not bracket.is_zero:
            replacement = replacement + OperatorPoly.from_word(shorter).scale(
                coeff * bracket
            )
        poly = poly - rest + replacement
    return poly


@pytest.mark.parametrize("fermionic", [False, True])
def test_confluence_under_random_rewrites(fermionic):
    rng = random.Random(20240 + fermionic)
    for trial in range(40):
        syms, table = _random_table(rng, 3, fermionic)
        word = tuple(syms[rng.randrange(3)] for _ in range(rng.randint(2, 6)))
        base = canonical_reduce(OperatorPoly.from_word(word), table)
        rewritten = _random_bracket_preserving_rewrite(rng, word, table)
        assert canonical_reduce(rewritten, table) == base


def test_termination_transposition_bound(boson_mode):
    a, ad, table = boson_mode
    # worst case word: all annihilators left of all creators
    word = (a, a, a, ad, ad, ad)
    stats = {}
    canonical_reduce(OperatorPoly.from_word(word), table, stats=stats)
    n = len(word)
    # the top-degree word needs at most C(n, 2) adjacent transpositions,
    # and every emitted shorter word at most the same bound again
    assert stats["transpositions"] >= 9
    assert stats["transpositions"] <= n * (n - 1) // 2 * 2 ** (n // 2)


def test_reduce_stats_counts_contractions():
    x = OperatorSymbol("x", FERMION)
    table = CommutationTable([x], {("x", "x"): ScalarPoly.one()})
    stats = {}
    canonical_reduce(OperatorPoly.from_word((x, x, x)), table, stats=stats)
    assert stats.get("contractions", 0) >= 1


def test_empty_word_is_identity(boson_mode):
    a, _, table = boson_mode
    one = OperatorPoly.one()
    assert one * OperatorPoly.from_symbol(a) == OperatorPoly.from_symbol(a)
    assert canonical_reduce(one, table) == one


def test_scalar_part_and_operator_part(boson_mode):
    a, ad, table = boson_mode
    p = canonical_reduce(word_poly(a, ad), table)
    assert p.scalar_part() == ScalarPoly.one()
    assert p.operator_part() == word_poly(ad, a)


def test_reduce_cache_keeps_callable_orders_apart(boson_mode):
    # A new callable reference order allocated where a dropped one lived
    # must not be served the dropped one's cached reductions.
    a, ad, table = boson_mode
    word = word_poly(a, ad)
    for _ in range(20):
        daggers_left = lambda sym: 0 if sym.dagger else 1
        canonical_reduce(word, table, daggers_left)
        del daggers_left
        gc.collect()
        daggers_right = lambda sym: 1 if sym.dagger else 0
        fresh = CommutationTable(list(table.registry), table.entries())
        assert canonical_reduce(word, table, daggers_right) == canonical_reduce(
            word, fresh, daggers_right
        )


def _fold_combine(pairs):
    """Reference linear combination: one ``+`` and ``scale`` per pair."""
    out = OperatorPoly.zero()
    for poly, coeff in pairs:
        out = out + poly.scale(coeff)
    return out


def _random_poly(rng, syms):
    s = ScalarPoly.symbol("s")
    coeffs = [ScalarPoly.const(Fraction(rng.randint(-3, 3), rng.randint(1, 4))),
              ScalarPoly.i() * rng.randint(1, 2), s + rng.randint(-1, 1)]
    out = OperatorPoly.zero()
    for _ in range(rng.randint(1, 5)):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 3)))
        out = out + OperatorPoly.from_word(word, rng.choice(coeffs))
    return out


def test_combine_equals_fold_of_add_and_scale(boson_mode):
    a, ad, _ = boson_mode
    rng = random.Random(17)
    s, t = ScalarPoly.symbol("s"), ScalarPoly.symbol("t")
    choices = [0, 1, -1, Fraction(2, 3), ScalarPoly.one(), ScalarPoly.i(),
               s, s * t - 2]
    assert OperatorPoly.combine([]) == OperatorPoly.zero()
    for _ in range(40):
        pairs = [(_random_poly(rng, [a, ad]), rng.choice(choices))
                 for _ in range(rng.randint(1, 4))]
        assert OperatorPoly.combine(pairs) == _fold_combine(pairs)
        # a pair and its negation cancel to zero
        p, c = pairs[0]
        cancel = pairs + [(p, -ScalarPoly.coerce(c))]
        assert OperatorPoly.combine(cancel) == _fold_combine(cancel)
        assert OperatorPoly.combine([(p, c), (p, -ScalarPoly.coerce(c))]).is_zero


def test_combine_adds_unit_coefficients_without_multiplying(boson_mode, monkeypatch):
    a, ad, _ = boson_mode
    p = _random_poly(random.Random(5), [a, ad]) + word_poly(a, ad)
    q = word_poly(ad, a).scale(ScalarPoly.symbol("s"))
    want = p + q

    def refuse(self, other):
        raise AssertionError("a unit coefficient was multiplied")

    monkeypatch.setattr(ScalarPoly, "__mul__", refuse)
    monkeypatch.setattr(ScalarPoly, "__rmul__", refuse)
    assert OperatorPoly.combine([(p, 1), (q, ScalarPoly.one())]) == want
