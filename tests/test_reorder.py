"""Derivatives, the contraction Laplacian, and all reordering transforms."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opwick import (
    FERMION,
    BasisChange,
    CommutationTable,
    ContractionLaplacian,
    OperatorPoly,
    OperatorSymbol,
    Ordering,
    ScalarPoly,
    canonical_reduce,
    contraction_def,
    derive,
    exp_laplacian,
    exponential_series_check,
    express_univariate,
    order_poly,
    poly_equal,
    reorder_substitution,
    reorder_univariate,
    reorder_multivariate,
)
from opwick.errors import ContractionMismatch, NotUnivariate
from opwick.reorder import reorder_exponential

HALF = ScalarPoly.const(Fraction(1, 2))


def W(*syms):
    return OperatorPoly.from_word(tuple(syms))


# -- derivatives --------------------------------------------------------------


def test_boson_derivative_deletes_occurrences(boson_mode):
    a, ad, _ = boson_mode
    got = derive(W(a, ad, a), a)
    assert got == W(ad, a) + W(a, ad)


def test_boson_derivative_no_occurrence(boson_mode):
    a, ad, _ = boson_mode
    assert derive(W(ad, ad), a).is_zero


def test_boson_derivative_power_rule():
    q = OperatorSymbol("q")
    got = derive(W(q, q), q)
    assert got == OperatorPoly.from_word((q,), 2)


def test_grassmann_derivative_single():
    c = OperatorSymbol("c", FERMION)
    assert derive(W(c), c) == OperatorPoly.one()


def test_grassmann_derivative_sign_past_other_fermion():
    c = OperatorSymbol("c", FERMION)
    cd = OperatorSymbol("c†", FERMION, dagger=True)
    got = derive(W(cd, c), c)
    assert got == OperatorPoly.from_word((cd,), -1)
    # anticommutation property {d_c, c} = 1 on this word
    table = CommutationTable([c, cd], {("c", "c†"): ScalarPoly.one()})
    lhs = derive(OperatorPoly.from_symbol(c) * W(cd), c) + (
        OperatorPoly.from_symbol(c) * derive(W(cd), c)
    )
    assert poly_equal(lhs, W(cd), table)


def test_grassmann_nilpotent():
    c = OperatorSymbol("c", FERMION)
    cd = OperatorSymbol("c†", FERMION, dagger=True)
    p = W(cd, c) + W(c, cd).scale(3)
    assert derive(derive(p, c), c).is_zero


@st.composite
def fermion_polys(draw):
    syms = [
        OperatorSymbol("c1", FERMION, key=1),
        OperatorSymbol("c1†", FERMION, key=2, dagger=True),
        OperatorSymbol("c2", FERMION, key=3),
    ]
    poly = OperatorPoly.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        length = draw(st.integers(min_value=0, max_value=4))
        word = tuple(
            syms[draw(st.integers(min_value=0, max_value=2))] for _ in range(length)
        )
        coeff = draw(st.integers(min_value=-3, max_value=3))
        poly = poly + OperatorPoly.from_word(word, coeff)
    return syms, poly


@given(fermion_polys())
@settings(max_examples=60, deadline=None)
def test_grassmann_derivatives_anticommute(data):
    syms, poly = data
    c1, c1d, _ = syms
    d12 = derive(derive(poly, c1), c1d)
    d21 = derive(derive(poly, c1d), c1)
    assert (d12 + d21).is_zero
    assert derive(derive(poly, c1), c1).is_zero


# -- contraction Laplacian ------------------------------------------------------


def _an_pair(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    A, N = Ordering.antinormal(), Ordering.normal()
    c = contraction_def(A, N, basis, table)
    return a, ad, table, basis, A, N, c


def test_laplacian_on_single_factor_vanishes(boson_mode):
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    lap = ContractionLaplacian(c)
    assert lap.apply(W(a)).is_zero


def test_laplacian_on_pair(boson_mode):
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    lap = ContractionLaplacian(c)
    assert lap.apply(W(a, ad)) == OperatorPoly.one()


def test_laplacian_squared_on_degree_three_vanishes(boson_mode):
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    lap = ContractionLaplacian(c)
    p = W(a, ad, a) + W(ad, ad, a)
    assert lap.apply(lap.apply(p)).is_zero


def test_laplacian_degree_bound(boson_mode):
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    lap = ContractionLaplacian(c)
    rng = random.Random(11)
    pool = [a, ad]
    for _ in range(20):
        n = rng.randint(0, 5)
        word = tuple(pool[rng.randrange(2)] for _ in range(n))
        p = OperatorPoly.from_word(word)
        m = 0
        while 2 * (m + 1) <= n:
            p = lap.apply(p)
            m += 1
        assert lap.apply(p).is_zero


def test_exp_laplacian_identity_for_zero_contraction(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    N = Ordering.normal()
    c = contraction_def(N, N, basis, table)
    p = W(a, ad, a)
    assert exp_laplacian(c, p) == p


def test_exp_laplacian_reproduces_reduction(boson_mode):
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    got = exp_laplacian(c, order_poly(N, W(a, ad)))
    assert got == W(ad, a) + 1
    assert got == canonical_reduce(W(a, ad), table)


def test_conjugation_identity_first_order(boson_mode):
    # commuting the Laplacian past a generator produces the first-order
    # shift, and the double commutator vanishes
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    lap = ContractionLaplacian(c)
    rng = random.Random(3)
    pool = [a, ad]
    for _ in range(25):
        word = tuple(pool[rng.randrange(2)] for _ in range(rng.randint(0, 4)))
        p = OperatorPoly.from_word(word)
        for alpha in pool:
            shift = OperatorPoly.zero()
            for beta in pool:
                v = c.get(alpha, beta)
                if not v.is_zero:
                    shift = shift + derive(p, beta).scale(v)
            commutator = lap.apply(OperatorPoly.from_symbol(alpha) * p) - (
                OperatorPoly.from_symbol(alpha) * lap.apply(p)
            )
            assert commutator == shift
            # second commutator: the shift is degree-lowering and constant
            # coefficient, so commuting again gives zero
            double = lap.apply(shift) - shift_after(lap, alpha, p, c, pool)
            assert double.is_zero


def shift_after(lap, alpha, p, c, pool):
    inner = lap.apply(p)
    shift = OperatorPoly.zero()
    for beta in pool:
        v = c.get(alpha, beta)
        if not v.is_zero:
            shift = shift + derive(inner, beta).scale(v)
    return shift


def test_conjugation_identity_fermionic(fermion_timed):
    (c1, c1d, c2, c2d), table = fermion_timed
    basis = BasisChange.identity([c1, c1d, c2, c2d])
    T = Ordering.time_descending()
    N = Ordering.normal(signature=-1)
    c = contraction_def(T, N, basis, table)
    lap = ContractionLaplacian(c)
    rng = random.Random(9)
    pool = [c1, c1d, c2, c2d]
    for _ in range(40):
        word = tuple(pool[rng.randrange(4)] for _ in range(rng.randint(0, 4)))
        p = OperatorPoly.from_word(word)
        for alpha in pool:
            shift = OperatorPoly.zero()
            for beta in pool:
                v = c.get(alpha, beta)
                if not v.is_zero:
                    shift = shift + derive(p, beta).scale(v)
            commutator = lap.apply(OperatorPoly.from_symbol(alpha) * p) - (
                OperatorPoly.from_symbol(alpha) * lap.apply(p)
            )
            assert commutator == shift


# -- substitution and exponential transforms -----------------------------------


def test_substitution_boson_pair(boson_mode):
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    got = reorder_substitution(A, N, basis, c, W(a, ad))
    assert poly_equal(got, W(a, ad), table)
    assert got == reorder_exponential(A, N, basis, c, W(a, ad))


def test_substitution_single_factor_trivial(boson_mode):
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    assert reorder_substitution(A, N, basis, c, W(a)) == W(a)


def test_substitution_fermionic_example(fermion_timed):
    (c1, c1d, c2, c2d), table = fermion_timed
    basis = BasisChange.identity([c1, c1d, c2, c2d])
    T = Ordering.time_descending()
    N = Ordering.normal(signature=-1)
    c = contraction_def(T, N, basis, table)
    got = reorder_substitution(T, N, basis, c, W(c1, c1d))
    # annihilator later: the target-ordered form picks up the anticommutator
    assert got == OperatorPoly.one() - W(c1d, c1)


def test_substitution_rejects_foreign_contraction(boson_mode, fermion_timed):
    a, ad, table, basis, A, N, c = _an_pair(boson_mode)
    with pytest.raises(ContractionMismatch):
        reorder_substitution(N, A, basis, c, W(a))


def test_transforms_match_ordering_on_random_words(two_boson_modes):
    (a, ad, b, bd), table = two_boson_modes
    basis = BasisChange.identity([a, ad, b, bd])
    A, N = Ordering.antinormal(), Ordering.normal()
    c = contraction_def(A, N, basis, table)
    rng = random.Random(21)
    pool = [a, ad, b, bd]
    for _ in range(30):
        word = tuple(pool[rng.randrange(4)] for _ in range(rng.randint(0, 5)))
        direct = canonical_reduce(order_poly(A, W(*word)), table)
        sub = canonical_reduce(
            reorder_substitution(A, N, basis, c, W(*word)), table
        )
        lap = canonical_reduce(
            reorder_exponential(A, N, basis, c, W(*word)), table
        )
        assert direct == sub == lap


# -- univariate and multivariate scalar-contraction transforms -------------------


def test_smooth_univariate_quadratic(boson_mode):
    a, ad, table = boson_mode
    N = Ordering.normal()
    x = OperatorPoly.from_symbol(a) + OperatorPoly.from_symbol(ad)
    c = ScalarPoly.symbol("C")
    got = reorder_univariate([0, 0, 1], c, N, x)
    # (1/2)C * 2!/0! -> C: X^2 smooths to O'[X^2] + C
    assert got == order_poly(N, x * x) + OperatorPoly.scalar(c * HALF * 2)


def test_reorder_univariate_square(boson_mode):
    a, ad, table = boson_mode
    N = Ordering.normal()
    x = OperatorPoly.from_symbol(a) + OperatorPoly.from_symbol(ad)
    # X^2 with scalar contraction c: O'[X^2] + c
    c = ScalarPoly.const(Fraction(3, 7))
    got = reorder_univariate([0, 0, 1], c, N, x)
    expected = order_poly(N, x * x) + OperatorPoly.scalar(Fraction(3, 7))
    assert got == expected


def test_reorder_univariate_zero_contraction(boson_mode):
    a, ad, table = boson_mode
    N = Ordering.normal()
    x = OperatorPoly.from_symbol(a) + OperatorPoly.from_symbol(ad)
    got = reorder_univariate([1, 2, 0, 5], ScalarPoly.zero(), N, x)
    expected = order_poly(N, OperatorPoly.one() + x.scale(2) + (x * x * x).scale(5))
    assert got == expected


def test_reorder_univariate_quartic_matches_ordering(boson_mode):
    # A[X^4] for X = a + a† equals the smoothing transform of N[X^4]
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    A, N = Ordering.antinormal(), Ordering.normal()
    cm = contraction_def(A, N, basis, table)
    x = OperatorPoly.from_symbol(a) + OperatorPoly.from_symbol(ad)
    c_scalar = ScalarPoly.zero()
    for na in ["a", "a†"]:
        for nb in ["a", "a†"]:
            c_scalar = c_scalar + cm.get(na, nb)
    got = reorder_univariate([0, 0, 0, 0, 1], c_scalar, N, x)
    direct = order_poly(A, x * x * x * x)
    assert poly_equal(got, direct, table)


def test_reorder_multivariate_matches_univariate(boson_mode):
    a, ad, table = boson_mode
    N = Ordering.normal()
    x = OperatorPoly.from_symbol(a) + OperatorPoly.from_symbol(ad)
    c = ScalarPoly.const(Fraction(3, 7))
    uni = reorder_univariate([0, 1, 2, 1], c, N, x)
    multi = reorder_multivariate(
        {(1,): 1, (2,): 2, (3,): 1}, [[c]], N, [x]
    )
    assert uni == multi


def test_reorder_multivariate_two_operators(boson_mode):
    # F(X1, X2) = X1*X2 between A and N for X1 = a + a†, X2 = a - a†
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    A, N = Ordering.antinormal(), Ordering.normal()
    cm = contraction_def(A, N, basis, table)
    weights = {"X1": {"a": 1, "a†": 1}, "X2": {"a": 1, "a†": -1}}
    xs = [
        OperatorPoly.from_symbol(a) + OperatorPoly.from_symbol(ad),
        OperatorPoly.from_symbol(a) - OperatorPoly.from_symbol(ad),
    ]
    c = [[ScalarPoly.zero()] * 2 for _ in range(2)]
    for i, wi in enumerate(["X1", "X2"]):
        for j, wj in enumerate(["X1", "X2"]):
            acc = ScalarPoly.zero()
            for na, va in weights[wi].items():
                for nb, vb in weights[wj].items():
                    acc = acc + cm.get(na, nb) * ScalarPoly.const(va * vb)
            c[i][j] = acc
    got = reorder_multivariate({(1, 1): 1}, c, N, xs)
    direct = order_poly(A, xs[0] * xs[1])
    assert poly_equal(got, direct, table)


def _reference_multivariate(poly_in_x, c_matrix, oprime, xs_target):
    """Exponent-tuple smoothing: pair derivatives summed level by level."""
    r = len(xs_target)
    work = {
        tuple(exps): ScalarPoly.coerce(coeff)
        for exps, coeff in poly_in_x.items()
        if not ScalarPoly.coerce(coeff).is_zero
    }

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
            out[key] = out[key] + add if key in out else add
        return out

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
                    add = value * c * HALF
                    step[key] = step[key] + add if key in step else add
        inv_m = ScalarPoly.const(Fraction(1, m))
        level = {k: v * inv_m for k, v in step.items() if not v.is_zero}
        for key, value in level.items():
            total[key] = total[key] + value if key in total else value
    out = OperatorPoly.zero()
    for exps, coeff in total.items():
        if coeff.is_zero:
            continue
        word_poly = OperatorPoly.one()
        for i, e in enumerate(exps):
            word_poly = word_poly * xs_target[i] ** e
        out = out + order_poly(oprime, word_poly).scale(coeff)
    return out


@pytest.mark.parametrize("r", [1, 2, 3])
def test_reorder_multivariate_equals_exponent_tuple_smoothing(boson_mode, r):
    a, ad, table = boson_mode
    A = OperatorPoly.from_symbol(a)
    Ad = OperatorPoly.from_symbol(ad)
    s = ScalarPoly.symbol("s")
    xs = [A + Ad, A - Ad, A.scale(2) + Ad.scale(s)][:r]
    # symbolic and not symmetric, with one zero entry
    c_matrix = [
        [ScalarPoly.symbol(f"c{i}{j}") + j for j in range(r)] for i in range(r)
    ]
    c_matrix[r - 1][0] = ScalarPoly.zero()
    rng = random.Random(40 + r)
    for _ in range(6):
        poly = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 4 // r + 1) for _ in range(r))
            poly[exps] = ScalarPoly.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for oprime in (Ordering.normal(), Ordering.weyl()):
            want = _reference_multivariate(poly, c_matrix, oprime, xs)
            assert reorder_multivariate(poly, c_matrix, oprime, xs) == want


def test_express_univariate(boson_mode):
    a, ad, table = boson_mode
    x = OperatorPoly.from_symbol(a) + OperatorPoly.from_symbol(ad)
    p = x * x + x.scale(3) + OperatorPoly.scalar(5)
    coeffs = express_univariate(p, x, table)
    assert coeffs[0] == ScalarPoly.const(5)
    assert coeffs[1] == ScalarPoly.const(3)
    assert coeffs[2] == ScalarPoly.one()
    with pytest.raises(NotUnivariate):
        express_univariate(OperatorPoly.from_symbol(a), x, table)


# -- exponential series -----------------------------------------------------------


def test_exponential_series_order_zero(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    A, N = Ordering.antinormal(), Ordering.normal()
    c = contraction_def(A, N, basis, table)
    lam = {a: ScalarPoly.symbol("la"), ad: ScalarPoly.symbol("lad")}
    lhs, rhs, equal = exponential_series_check(A, N, basis, c, lam, 0, table)
    assert equal
    assert lhs == OperatorPoly.one()


def test_exponential_series_second_order(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    A, N = Ordering.antinormal(), Ordering.normal()
    c = contraction_def(A, N, basis, table)
    lam = {a: ScalarPoly.symbol("la"), ad: ScalarPoly.symbol("lad")}
    lhs, rhs, equal = exponential_series_check(A, N, basis, c, lam, 2, table)
    assert equal
    # coefficient of la*lad in the reduced difference of scalar parts:
    # the prefactor carries exp(C la lad) whose linear term is C la lad
    pref_term = ScalarPoly.symbol("la") * ScalarPoly.symbol("lad")
    reduced = canonical_reduce(rhs, table)
    scalar = reduced.scalar_part()
    target = scalar.terms.get((("la", 1), ("lad", 1)))
    assert target is not None


def test_bch_identity_to_degree_six():
    # two symbols with a central commutator: the left-of/right-of ordering
    # against the symmetric one reproduces the exp(x)exp(y) splitting
    x = OperatorSymbol("X")
    y = OperatorSymbol("Y")
    z = ScalarPoly.symbol("z")
    table = CommutationTable([x, y], {("X", "Y"): z})
    basis = BasisChange.identity([x, y])
    oxy = Ordering.explicit("xy", ["X", "Y"])
    w = Ordering.weyl()
    c = contraction_def(oxy, w, basis, table)
    assert c.get("X", "Y") == z * HALF
    assert c.get("Y", "X") == z * HALF
    lam = {x: ScalarPoly.symbol("lx"), y: ScalarPoly.symbol("ly")}
    lhs, rhs, equal = exponential_series_check(oxy, w, basis, c, lam, 6, table)
    assert equal
