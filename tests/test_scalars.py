"""Exact scalar ring: arithmetic, canonicalization, numeric evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opwick import GaussianRational, NumericContext, ScalarPoly, evaluate_scalar
from opwick.errors import UnassignedSymbol


def test_gaussian_rational_addition_cancels_imaginary():
    one_plus_i = GaussianRational(1, 1)
    one_minus_i = GaussianRational(1, -1)
    assert one_plus_i + one_minus_i == GaussianRational(2)


def test_gaussian_rational_division_exact():
    z = GaussianRational(1, 1) / GaussianRational(0, 1)
    assert z == GaussianRational(1, -1)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_gaussian_rational_string_roundtrip():
    cases = [
        GaussianRational(0),
        GaussianRational(3),
        GaussianRational(Fraction(-3, 4)),
        GaussianRational(0, 1),
        GaussianRational(0, -1),
        GaussianRational(Fraction(1, 2), Fraction(-5, 7)),
    ]
    for z in cases:
        assert GaussianRational.from_string(z.to_string()) == z
    assert GaussianRational.from_string("1/2+1/3 i") == GaussianRational(
        Fraction(1, 2), Fraction(1, 3)
    )


def test_gg_minus_g_squared_cancels():
    g = ScalarPoly.symbol("g")
    assert (g * g - g**2).is_zero


def test_exact_coefficient_arithmetic():
    lam = ScalarPoly.symbol("λ1") * ScalarPoly.symbol("λ2")
    assert ScalarPoly.const(Fraction(1, 2)) * lam * 2 == lam


def test_zero_terms_not_stored():
    g = ScalarPoly.symbol("g")
    p = g - g
    assert p.terms == {}
    assert p.is_zero


def test_evaluate_substitution():
    g = ScalarPoly.symbol("g")
    p = g**2 + 1
    assert evaluate_scalar(p, NumericContext({"g": 0.3})) == pytest.approx(1.09)


def test_evaluate_zero_poly():
    assert evaluate_scalar(ScalarPoly.zero(), NumericContext()) == 0.0


def test_evaluate_imaginary_coefficient():
    p = ScalarPoly.i() * ScalarPoly.symbol("λ")
    assert evaluate_scalar(p, NumericContext({"λ": 2})) == pytest.approx(2j)


def test_evaluate_unassigned_symbol():
    p = ScalarPoly.symbol("g")
    with pytest.raises(UnassignedSymbol):
        evaluate_scalar(p, NumericContext({}))


def test_truncate_degree():
    x, y = ScalarPoly.symbol("x"), ScalarPoly.symbol("y")
    p = x**3 + x * y + y + 1
    assert p.truncate_degree({"x", "y"}, 2) == x * y + y + 1


coeffs = st.integers(min_value=-4, max_value=4)
names = st.sampled_from(["x", "y", "z"])


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    p = ScalarPoly.zero()
    for _ in range(n_terms):
        c = GaussianRational(draw(coeffs), draw(coeffs))
        term = ScalarPoly.const(c)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            term = term * ScalarPoly.symbol(draw(names))
        p = p + term
    return p


@given(polys(), polys(), polys())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ScalarPoly.zero() == a
    assert a * ScalarPoly.one() == a
    assert (a - a).is_zero


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_evaluate_is_ring_homomorphism(a, b):
    ctx = NumericContext({"x": 0.7 + 0.1j, "y": -1.3, "z": 0.25j})
    va, vb = a.evaluate(ctx), b.evaluate(ctx)
    scale = max(1.0, abs(va), abs(vb), abs(va * vb))
    assert abs((a + b).evaluate(ctx) - (va + vb)) <= 1e-12 * scale
    assert abs((a * b).evaluate(ctx) - va * vb) <= 1e-12 * scale


def test_poly_string_forms():
    s = ScalarPoly.symbol("s")
    assert str(ScalarPoly.zero()) == "0"
    assert str(ScalarPoly.one()) == "1"
    assert str(s**2) == "s^2"
    assert str(-s) == "-s"
    assert str(ScalarPoly.i() * s) == "(i)*s"
