"""Truncated Fock representations, matrix exponentials, block comparison."""

import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from opwick import (
    BOSON,
    FERMION,
    CommutationTable,
    NumericContext,
    OperatorPoly,
    OperatorSymbol,
    ScalarPoly,
    canonical_reduce,
)
from opwick.errors import (
    DimensionTooLarge,
    ParameterOutOfRange,
    RegistryMismatch,
    TruncationTooSmall,
    UnmappedSymbol,
)
from opwick.fock import (
    MAX_DENSE_DIM,
    MatrixRep,
    ModeRegistry,
    block_compare,
    matexp,
    represent,
    represent_exact,
)
from opwick.gaussian import _nilpotent_exp, squeeze_normal_form


def one_mode_registry(trunc):
    reg = ModeRegistry().add_boson("m", trunc)
    a = OperatorSymbol("a")
    ad = OperatorSymbol("a†", dagger=True)
    reg.map_ladder(a, "m", "lower")
    reg.map_ladder(ad, "m", "raise")
    return reg, a, ad


def test_ladder_matrix_entries():
    reg, a, ad = one_mode_registry(4)
    mat = represent(OperatorPoly.from_symbol(a), reg).data
    expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
    assert np.allclose(mat, expected)


def test_fermion_matrix_single_mode():
    reg = ModeRegistry().add_fermion("f")
    c = OperatorSymbol("c", FERMION)
    reg.map_ladder(c, "f", "lower")
    mat = represent(OperatorPoly.from_symbol(c), reg).data
    assert np.allclose(mat, [[0, 1], [0, 0]])


def test_commutator_representation_shows_truncation_artifact():
    reg, a, ad = one_mode_registry(5)
    comm = OperatorPoly.from_word((a, ad)) - OperatorPoly.from_word((ad, a))
    mat = represent(comm, reg).data
    expected = np.eye(5)
    expected[-1, -1] = -4.0  # top level artifact of the cutoff
    assert np.allclose(mat, expected)


def test_fermion_anticommutators_exact():
    reg = ModeRegistry()
    for name in ("f1", "f2", "f3"):
        reg.add_fermion(name)
    syms = {}
    for i, name in enumerate(("f1", "f2", "f3"), start=1):
        c = OperatorSymbol(f"c{i}", FERMION, key=i)
        cd = OperatorSymbol(f"c{i}†", FERMION, key=i, dagger=True)
        reg.map_ladder(c, name, "lower")
        reg.map_ladder(cd, name, "raise")
        syms[f"c{i}"] = c
        syms[f"c{i}†"] = cd
    eye = np.eye(8)
    for i in range(1, 4):
        for j in range(1, 4):
            ci = represent(OperatorPoly.from_symbol(syms[f"c{i}"]), reg).data
            cjd = represent(OperatorPoly.from_symbol(syms[f"c{j}†"]), reg).data
            anti = ci @ cjd + cjd @ ci
            assert np.allclose(anti, eye if i == j else 0 * eye), (i, j)
            cj = represent(OperatorPoly.from_symbol(syms[f"c{j}"]), reg).data
            assert np.allclose(ci @ cj + cj @ ci, 0 * eye)


def test_represent_linear_combination_with_context():
    reg, a, ad = one_mode_registry(6)
    q = OperatorSymbol("q")
    s = ScalarPoly.symbol("s")
    reg.map_symbol(q, [(s, "m", "lower"), (s, "m", "raise")])
    ctx = NumericContext({"s": 2**-0.5})
    mat = represent(OperatorPoly.from_symbol(q), reg, ctx).data
    A = reg.lowering("m")
    assert np.allclose(mat, 2**-0.5 * (A + A.conj().T))


def test_lowering_cache_cannot_be_edited_by_a_caller():
    reg, a, ad = one_mode_registry(4)
    A = reg.lowering("m")
    with pytest.raises(ValueError):
        A *= 2
    assert reg.lowering("m")[0, 1] == 1


def test_represent_unmapped_symbol():
    reg, a, ad = one_mode_registry(4)
    stray = OperatorSymbol("x")
    with pytest.raises(UnmappedSymbol):
        represent(OperatorPoly.from_symbol(stray), reg)


def test_represent_respects_canonical_reduce_on_safe_block():
    reg, a, ad = one_mode_registry(12)
    table = CommutationTable([a, ad], {("a", "a†"): ScalarPoly.one()})
    p = OperatorPoly.from_word((a, ad, a, ad))
    reduced = canonical_reduce(p, table)
    m1 = represent(p, reg)
    m2 = represent(reduced, reg)
    assert block_compare(m1, m2, 12 - 4) <= 1e-12


def test_matexp_identity_and_diagonal():
    reg, a, ad = one_mode_registry(4)
    zero = MatrixRep(np.zeros((4, 4)), reg)
    assert np.allclose(matexp(zero).data, np.eye(4))
    d = MatrixRep(np.diag([1.0, 2.0, -1.0, 0.5]), reg)
    assert np.allclose(matexp(d).data, np.diag(np.exp([1.0, 2.0, -1.0, 0.5])))


def test_matexp_squeeze_generator_unitary_on_low_block():
    trunc = 20
    reg = ModeRegistry().add_boson("ma", trunc).add_boson("mb", trunc)
    A = reg.lowering("ma")
    B = reg.lowering("mb")
    g = 0.3
    gen = MatrixRep(g * (A @ B - A.conj().T @ B.conj().T), reg)
    u = matexp(gen)
    prod = u.dagger() @ u
    eye = MatrixRep(np.eye(trunc * trunc), reg)
    assert block_compare(prod, eye, 8) <= 1e-8


def test_matexp_dimension_cap():
    reg = ModeRegistry().add_boson("m", 50).add_boson("n", 50)
    big = MatrixRep(np.zeros((2500, 2500)), reg)
    with pytest.raises(DimensionTooLarge):
        matexp(big)


def test_block_compare_identical_and_mismatch():
    reg, a, ad = one_mode_registry(6)
    m = represent(OperatorPoly.from_symbol(a), reg)
    assert block_compare(m, m, 4) == 0.0
    other_reg, a2, ad2 = one_mode_registry(6)
    m2 = represent(OperatorPoly.from_symbol(a2), other_reg)
    with pytest.raises(RegistryMismatch):
        block_compare(m, m2, 4)


def test_block_compare_commutator_identity_and_edge():
    reg, a, ad = one_mode_registry(20)
    lhs = represent(OperatorPoly.from_word((a, ad)), reg)
    table = CommutationTable([a, ad], {("a", "a†"): ScalarPoly.one()})
    rhs = represent(OperatorPoly.from_word((ad, a)) + 1, reg)
    assert block_compare(lhs, rhs, 10) <= 1e-14
    # at the truncation edge the artifact shows up at order one
    assert block_compare(lhs, rhs, 20) >= 1.0


def test_truncation_floor():
    with pytest.raises(TruncationTooSmall):
        ModeRegistry().add_boson("m", 1)


def test_represent_exact_fermions():
    reg = ModeRegistry().add_fermion("f1").add_fermion("f2")
    c1 = OperatorSymbol("c1", FERMION, key=1)
    c2 = OperatorSymbol("c2", FERMION, key=2)
    c1d = OperatorSymbol("c1†", FERMION, key=1, dagger=True)
    reg.map_ladder(c1, "f1", "lower")
    reg.map_ladder(c1d, "f1", "raise")
    reg.map_ladder(c2, "f2", "lower")
    p = OperatorPoly.from_word((c1, c2)) + OperatorPoly.from_word((c1d,), 2)
    exact = represent_exact(p, reg)
    numeric = represent(p, reg).data
    for i in range(4):
        for j in range(4):
            assert complex(exact[i][j]) == pytest.approx(numeric[i, j], abs=0)


def test_represent_exact_rejects_bosons():
    reg, a, ad = one_mode_registry(4)
    with pytest.raises(UnmappedSymbol):
        represent_exact(OperatorPoly.from_symbol(a), reg)


def test_symbolic_reordering_identities_hold_numerically():
    # outputs of the reordering transforms, with scalars evaluated, match
    # the direct word products on safe blocks
    import random

    from opwick import (
        BasisChange,
        CommutationTable,
        NumericContext,
        Ordering,
        contraction_def,
        definitional_order,
        reorder_substitution,
    )
    from opwick.reorder import reorder_exponential

    trunc = 16
    reg, a, ad = one_mode_registry(trunc)
    q = OperatorSymbol("q")
    p = OperatorSymbol("p")
    s = ScalarPoly.symbol("s")
    i = ScalarPoly.i()
    reg.map_symbol(q, [(s, "m", "lower"), (s, "m", "raise")])
    reg.map_symbol(p, [(-i * s, "m", "lower"), (i * s, "m", "raise")])
    table = CommutationTable([a, ad], {("a", "a†"): ScalarPoly.one()})
    basis = BasisChange(
        [q, p], [a, ad],
        {("q", "a"): s, ("q", "a†"): s, ("p", "a"): -i * s, ("p", "a†"): i * s},
    )
    qp = Ordering.explicit("qp", ["q", "p"])
    N = Ordering.normal()
    c = contraction_def(qp, N, basis, table)
    ctx = NumericContext({"s": 2**-0.5})
    rng = random.Random(31)
    worst = 0.0
    for _ in range(15):
        n = rng.randint(0, 4)
        word = tuple((q, p)[rng.randrange(2)] for _ in range(n))
        lhs = represent(definitional_order(qp, word), reg, ctx)
        sub = represent(
            reorder_substitution(qp, N, basis, c, OperatorPoly.from_word(word)),
            reg, ctx,
        )
        exp = represent(
            reorder_exponential(qp, N, basis, c, OperatorPoly.from_word(word)),
            reg, ctx,
        )
        safe = trunc - max(n, 1) - 1
        worst = max(worst, block_compare(lhs, sub, safe), block_compare(lhs, exp, safe))
    assert worst <= 1e-10


# -- ladder maps against the dense product chain ---------------------------------
#
# The reference below is the dense construction the ladder maps replaced:
# Kronecker-product ladder matrices, each symbol summed from its recipe, and
# each word multiplied out factor by factor.  The ladder maps perform the same
# multiplications and additions on the nonzero entries, so where every entry
# of a product is a single product of weights the matrices must be equal.
# Where an entry sums two paths (multi-term recipes), BLAS may fuse a multiply
# into the running sum while the ladder maps round each product first; there
# the ladder maps equal the chain computed with unfused products, and the
# BLAS chain to within a few rounding errors.


def _unfused_matmul(x, y):
    return np.einsum("ik,kj->ij", x, y, optimize=False)


def _kron_lowering(reg, mode_name):
    names = [name for name, _, _ in reg.modes]
    idx = names.index(mode_name)
    target_kind = reg.modes[idx][1]
    out = None
    for i, (_, kind, d) in enumerate(reg.modes):
        if i < idx and kind == FERMION and target_kind == FERMION:
            local = np.diag([1.0, -1.0])
        elif i == idx and kind == FERMION:
            local = np.array([[0.0, 1.0], [0.0, 0.0]])
        elif i == idx:
            local = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
        else:
            local = np.eye(d)
        out = local if out is None else np.kron(out, local)
    return out.astype(complex)


def _dense_represent(p, reg, assignments=None, matmul=np.matmul):
    assignments = assignments or {}
    dim = reg.dimension

    def symbol_matrix(name):
        total = np.zeros((dim, dim), dtype=complex)
        for coeff, mode_name, kind in reg.recipe(name):
            if isinstance(coeff, ScalarPoly):
                value = coeff.evaluate(assignments)
            else:
                value = complex(coeff)
            base = _kron_lowering(reg, mode_name)
            if kind != "lower":
                base = base.conj().T
            total = total + value * base
        return total

    total = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for word, coeff in OperatorPoly.coerce(p).terms.items():
        factor = eye
        for sym in word:
            factor = matmul(factor, symbol_matrix(sym.name))
        total = total + coeff.evaluate(assignments) * factor
    return total


def _ladder_registry(layout):
    """Registry over ``layout`` [(mode, truncation or None for a fermion)],
    with a lowering and a raising symbol mapped to every mode."""
    reg = ModeRegistry()
    symbols = []
    for key, (mode, trunc) in enumerate(layout):
        if trunc is None:
            reg.add_fermion(mode)
            flavor = FERMION
        else:
            reg.add_boson(mode, trunc)
            flavor = BOSON
        low = OperatorSymbol(f"{mode}_", flavor, key=key)
        high = OperatorSymbol(f"{mode}_†", flavor, key=key, dagger=True)
        reg.map_ladder(low, mode, "lower")
        reg.map_ladder(high, mode, "raise")
        symbols += [low, high]
    return reg, symbols


def _random_poly(rng, symbols, coefficients, n_terms=6, max_len=5):
    p = OperatorPoly()
    for _ in range(n_terms):
        word = tuple(rng.choice(symbols) for _ in range(rng.randint(0, max_len)))
        p = p + OperatorPoly.from_word(word, rng.choice(coefficients))
    return p


RATIONALS = [1, -1, Fraction(1, 3), Fraction(-5, 7), 2]


@pytest.mark.parametrize("layout", [
    [("m", 9)],
    [("f1", None), ("f2", None), ("f3", None)],
    [("f1", None), ("ma", 4), ("f2", None), ("mb", 3), ("f3", None)],
], ids=["one_boson", "three_fermions", "bosons_and_fermions"])
def test_represent_equals_dense_product_chain(layout):
    reg, symbols = _ladder_registry(layout)
    for mode, _ in layout:
        assert np.array_equal(reg.lowering(mode), _kron_lowering(reg, mode))
    rng = random.Random(len(layout))
    for _ in range(12):
        p = _random_poly(rng, symbols, RATIONALS)
        assert np.array_equal(represent(p, reg).data, _dense_represent(p, reg))


def test_represent_quadrature_recipe_equals_dense_product_chain():
    reg, a, ad = one_mode_registry(12)
    q = OperatorSymbol("q")
    p = OperatorSymbol("p")
    s = ScalarPoly.symbol("s")
    i = ScalarPoly.i()
    reg.map_symbol(q, [(s, "m", "lower"), (s, "m", "raise")])
    reg.map_symbol(p, [(-i * s, "m", "lower"), (i * s, "m", "raise")])
    ctx = NumericContext({"s": 2**-0.5})
    rng = random.Random(12)
    coefficients = RATIONALS + [s, Fraction(1, 2) * s * s]
    tol = 16 * np.finfo(float).eps
    for _ in range(12):
        poly = _random_poly(rng, [q, p, a, ad], coefficients, max_len=3)
        got = represent(poly, reg, ctx).data
        assert np.array_equal(got, _dense_represent(
            poly, reg, ctx.assignments, _unfused_matmul))
        blas = _dense_represent(poly, reg, ctx.assignments)
        assert np.max(np.abs(got - blas)) <= tol * np.max(np.abs(blas))
    for sym in (q, p):
        poly = OperatorPoly.from_word((sym,), s)
        assert np.array_equal(represent(poly, reg, ctx).data,
                              _dense_represent(poly, reg, ctx.assignments))


@pytest.mark.parametrize("trunc", [10, 30])
def test_nilpotent_series_equals_matrix_exponential(trunc):
    reg = ModeRegistry().add_boson("ma", trunc).add_boson("mb", trunc)
    A = _kron_lowering(reg, "ma")
    B = _kron_lowering(reg, "mb")
    down = reg.ladder("ma", "lower") @ reg.ladder("mb", "lower")
    up = reg.ladder("ma", "raise") @ reg.ladder("mb", "raise")
    for kappa, word, dense in ((0.137, down, A @ B),
                               (-0.21, up, A.conj().T @ B.conj().T)):
        series = _nilpotent_exp(kappa, word).dense()
        expected = scipy.linalg.expm(kappa * dense)
        assert np.max(np.abs(series - expected)) <= 1e-12


# recorded from the dense-product and dense-expm pipeline it replaced
SQUEEZE_DIFFS = {
    0.0: (0.0, 0.0, 0.0),
    0.3: (1.1102230246251565e-15, 0.021367198124201625, 0.46841317465275367),
    0.5: (8.127179484951341e-16, 0.05435758661816126, 0.49350232572027175),
}


@pytest.mark.parametrize("g", sorted(SQUEEZE_DIFFS))
def test_squeeze_diffs_match_dense_pipeline(g):
    diffs = squeeze_normal_form(g, 30).diffs
    names = ("pipeline_vs_reference", "literal_vs_reference",
             "printed_vs_reference")
    for name, recorded in zip(names, SQUEEZE_DIFFS[g]):
        assert abs(diffs[name] - recorded) <= 1e-12, name
    assert diffs["block"] == 10


def test_dimension_cap_checked_before_allocation():
    side = int(MAX_DENSE_DIM**0.5) + 1
    reg = ModeRegistry().add_boson("ma", side).add_boson("mb", side)
    sym = OperatorSymbol("a")
    reg.map_ladder(sym, "ma", "lower")
    with pytest.raises(DimensionTooLarge):
        represent(OperatorPoly.from_symbol(sym), reg)
    with pytest.raises(DimensionTooLarge):
        reg.lowering("ma")
    # 1e20 states: any dim-sized allocation would fail long before the cap
    huge = ModeRegistry().add_boson("ma", 10**10).add_boson("mb", 10**10)
    with pytest.raises(DimensionTooLarge):
        huge.ladder("ma", "raise")


def test_block_compare_rejects_negative_block():
    reg, a, ad = one_mode_registry(4)
    lhs = represent(OperatorPoly.from_word((a, ad)), reg)
    rhs = represent(OperatorPoly.from_word((ad, a)), reg)
    with pytest.raises(ParameterOutOfRange):
        block_compare(lhs, rhs, -1)
