"""Permutation and symmetric orderings, basis changes, foreign ordering."""

import itertools
import random
import warnings
from fractions import Fraction
from importlib import resources

import pytest

from opwick import (
    FERMION,
    BasisChange,
    CommutationTable,
    OperatorPoly,
    OperatorSymbol,
    Ordering,
    ScalarPoly,
    canonical_reduce,
    order_poly,
    order_word,
    order_word_foreign,
)
from opwick.config import RegistryConfig
from opwick.errors import IncomparableKeys, SymbolNotInBasis, SymmetricOnFermions
from opwick.orderings import EqualKeyFermionWarning

HALF = ScalarPoly.const(Fraction(1, 2))


def test_normal_ordering_single_swap(boson_mode):
    a, ad, _ = boson_mode
    got = order_word(Ordering.normal(), (a, ad))
    assert got == OperatorPoly.from_word((ad, a))


def test_fermionic_time_ordering_sign():
    c = OperatorSymbol("c", FERMION, key=1)
    cd = OperatorSymbol("c†", FERMION, key=2, dagger=True)
    got = order_word(Ordering.time_descending(), (c, cd))
    assert got == OperatorPoly.from_word((cd, c), -1)


def test_weyl_on_pair_matches_exponential_definition():
    # second order in a formal parameter: the symmetric ordering is the one
    # consistent with leaving exponentials of linear forms untouched
    x = OperatorSymbol("X")
    y = OperatorSymbol("Y")
    z = ScalarPoly.symbol("z")
    table = CommutationTable([x, y], {("X", "Y"): z})
    w = Ordering.weyl()
    got = order_word(w, (x, y))
    expected = OperatorPoly({(x, y): HALF, (y, x): HALF})
    assert got == expected

    lx, ly = ScalarPoly.symbol("lx"), ScalarPoly.symbol("ly")
    linear = OperatorPoly.from_symbol(x).scale(lx) + OperatorPoly.from_symbol(y).scale(ly)
    series = OperatorPoly.one() + linear + (linear * linear).scale(HALF)
    ordered = order_poly(w, series)
    assert canonical_reduce(ordered - series, table).is_zero


def test_order_poly_linear(boson_mode):
    a, ad, _ = boson_mode
    p = OperatorPoly.from_word((a, ad)) + 1
    got = order_poly(Ordering.normal(), p)
    assert got == OperatorPoly.from_word((ad, a)) + 1


def test_ordering_fixes_scalars():
    assert order_poly(Ordering.normal(), OperatorPoly.one()) == OperatorPoly.one()
    assert order_poly(Ordering.weyl(), OperatorPoly.scalar(3)) == OperatorPoly.scalar(3)


def test_time_ordering_of_antisymmetrized_pair():
    c = OperatorSymbol("c", FERMION, key=1)
    cd = OperatorSymbol("c†", FERMION, key=2, dagger=True)
    p = OperatorPoly.from_word((c, cd)) - OperatorPoly.from_word((cd, c))
    got = order_poly(Ordering.time_descending(), p)
    assert got == OperatorPoly.from_word((cd, c), -2)


def test_symmetric_ordering_rejects_fermions():
    c = OperatorSymbol("c", FERMION)
    with pytest.raises(SymmetricOnFermions):
        order_word(Ordering.weyl(), (c, c))


def test_explicit_ranking_rejects_unranked(quadrature_basis):
    q, p, basis, _ = quadrature_basis
    qp = Ordering.explicit("qp", ["q", "p"])
    a = OperatorSymbol("a")
    with pytest.raises(IncomparableKeys):
        order_word(qp, (q, a))


def test_foreign_ordering_quadrature_square(quadrature_basis):
    q, p, basis, table = quadrature_basis
    s = ScalarPoly.symbol("s")
    got = order_word_foreign(Ordering.normal(), (q, q), basis)
    a, ad = basis.target["a"], basis.target["a†"]
    expected = OperatorPoly(
        {(a, a): s**2, (ad, a): 2 * s**2, (ad, ad): s**2}
    )
    assert got == expected
    # q*q - N-ordered result = s^2 [a, a†] = s^2, which is 1/2 at s^2 = 1/2
    direct = basis.expand_word((q, q))
    diff = canonical_reduce(direct - got, table)
    assert diff.scalar_part() == s**2
    assert diff.operator_part().is_zero


def test_foreign_identity_reduces_to_order_word(boson_mode):
    a, ad, _ = boson_mode
    basis = BasisChange.identity([a, ad])
    for word in itertools.product([a, ad], repeat=3):
        assert order_word_foreign(Ordering.normal(), word, basis) == order_word(
            Ordering.normal(), word
        )


def test_foreign_single_factor_no_reordering(quadrature_basis):
    q, p, basis, _ = quadrature_basis
    s = ScalarPoly.symbol("s")
    got = order_word_foreign(Ordering.normal(), (q,), basis)
    a, ad = basis.target["a"], basis.target["a†"]
    assert got == OperatorPoly({(a,): s, (ad,): s})


def test_foreign_rejects_symbols_outside_basis(quadrature_basis):
    q, p, basis, _ = quadrature_basis
    stray = OperatorSymbol("r")
    with pytest.raises(SymbolNotInBasis):
        order_word_foreign(Ordering.normal(), (q, stray), basis)


def test_idempotence_of_permutation_orderings(two_boson_modes):
    (a, ad, b, bd), _ = two_boson_modes
    o = Ordering.antinormal()
    for word in itertools.product([a, ad, b, bd], repeat=4):
        out = order_word(o, word)
        ((w, coeff),) = out.terms.items()
        again = order_word(o, w)
        assert again == OperatorPoly.from_word(w)


def test_fermionic_sign_composition_multiplies_parities():
    # distinct keys, all fermionic: signs compose like permutation parities
    syms = [OperatorSymbol(f"f{i}", FERMION, key=i) for i in range(4)]
    o1 = Ordering.explicit("o1", [s.name for s in syms], signature=-1)
    o2 = Ordering.explicit("o2", [s.name for s in reversed(syms)], signature=-1)
    for n in range(1, 5):
        for word in itertools.permutations(syms, n):
            out1 = order_word(o1, word)
            ((w1, c1),) = out1.terms.items()
            out2 = order_word(o2, w1)
            ((w2, c2),) = out2.terms.items()
            direct = order_word(o2, word)
            ((wd, cd),) = direct.terms.items()
            assert w2 == wd
            assert c1 * c2 == cd


def test_stability_on_equal_keys():
    c1 = OperatorSymbol("c1", FERMION, key=1)
    c2 = OperatorSymbol("c2", FERMION, key=1)
    t = Ordering.time_descending()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = order_word(t, (c1, c2))
        assert got == OperatorPoly.from_word((c1, c2))
        got = order_word(t, (c2, c1))
        assert got == OperatorPoly.from_word((c2, c1))
    assert any(issubclass(w.category, EqualKeyFermionWarning) for w in caught)


def test_weyl_coefficients_sum_to_one(two_boson_modes):
    (a, ad, b, bd), _ = two_boson_modes
    for word in [(a, ad), (a, ad, b), (a, a, b, bd)]:
        out = order_word(Ordering.weyl(), word)
        total = ScalarPoly.zero()
        for coeff in out.terms.values():
            total = total + coeff
        assert total == ScalarPoly.one()


def test_basis_change_rejects_empty_row():
    q = OperatorSymbol("q")
    a = OperatorSymbol("a")
    with pytest.raises(SymbolNotInBasis):
        BasisChange([q], [a], {})


# -- basis expansion against the reference product chain ---------------------------


def _expand_word_reference(basis, word):
    """Expansion as the product of each factor's row, one factor at a time."""
    out = OperatorPoly.one()
    for sym in word:
        out = out * OperatorPoly({(target,): c for target, c in basis.row(sym)})
    return out


def _expand_poly_reference(basis, p):
    out = OperatorPoly.zero()
    for word, coeff in p.terms.items():
        out = out + _expand_word_reference(basis, word).scale(coeff)
    return out


def _order_word_foreign_reference(o, word, basis):
    """Order every target word of the distributed expansion, one by one."""
    out = OperatorPoly.zero()
    for choice in itertools.product(*(basis.row(sym) for sym in word)):
        coeff = ScalarPoly.one()
        for _, c in choice:
            coeff = coeff * c
        out = out + order_word(o, tuple(target for target, _ in choice)).scale(coeff)
    return out


def _quadrature_config():
    path = resources.files("opwick") / "configs" / "quadrature.json"
    return RegistryConfig.load(path)


@pytest.mark.parametrize("which", ["quadrature", "identity"])
def test_expansion_matches_reference_product_chain(which):
    cfg = _quadrature_config()
    if which == "quadrature":
        basis = cfg.basis("quadrature")
    else:
        basis = BasisChange.identity(list(cfg.registry))
    orderings = [cfg.ordering(name) for name in ("normal", "antinormal", "weyl")]
    pool = list(basis.source.values())
    s = ScalarPoly.symbol("s")
    coeffs = [ScalarPoly.one(), -ScalarPoly.i(), s**2 - 1, HALF * 3]
    rng = random.Random(f"expansion:{which}")
    for _ in range(30):
        p = OperatorPoly.zero()
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            assert basis.expand_word(word) == _expand_word_reference(basis, word)
            for o in orderings:
                assert order_word_foreign(o, word, basis) == (
                    _order_word_foreign_reference(o, word, basis)
                )
            p = p + OperatorPoly.from_word(word, rng.choice(coeffs))
        assert basis.expand_poly(p) == _expand_poly_reference(basis, p)


def test_identity_expansion_checks_every_symbol():
    cfg = _quadrature_config()
    basis = BasisChange.identity(list(cfg.registry))
    a, ad = cfg.registry["a"], cfg.registry["a†"]
    with pytest.raises(SymbolNotInBasis):
        basis.expand_poly(OperatorPoly.from_word((a, OperatorSymbol("r"), ad)))
    # A symbol named like a basis symbol but carrying other data expands to
    # the basis's own symbol, as the reference chain does.
    relabeled = OperatorPoly.from_word((OperatorSymbol("a", key=7), ad))
    assert basis.expand_poly(relabeled) == _expand_poly_reference(basis, relabeled)
    assert basis.expand_poly(relabeled) == OperatorPoly.from_word((a, ad))
