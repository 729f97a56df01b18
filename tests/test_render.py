"""Golden text, LaTeX and JSON output for a fixed set of polynomials.

The expected strings were recorded from the printers and must not change:
the CLI and the benchmark compare rendered output byte for byte.
"""

import json
from fractions import Fraction

from opwick import (
    FERMION,
    ContractionMatrix,
    GaussianRational,
    OperatorPoly,
    OperatorSymbol,
    ScalarPoly,
)
from opwick.render import (
    contraction_to_json,
    contraction_to_latex,
    poly_to_json,
    poly_to_latex,
    poly_to_text,
)

A = OperatorSymbol("a")
AD = OperatorSymbol("a†", dagger=True)
C = OperatorSymbol("c", FERMION)
S = ScalarPoly.symbol("s")
T = ScalarPoly.symbol("t")
I = ScalarPoly.i()


def _q(num, den=1, im_num=0, im_den=1):
    """The constant ``num/den + (im_num/im_den) i``."""
    re, im = Fraction(num, den), Fraction(im_num, im_den)
    return ScalarPoly.const(GaussianRational(re, im))


def W(*syms, coeff=1):
    return OperatorPoly.from_word(syms, coeff)


OPERATOR_CASES = {
    "zero": OperatorPoly.zero(),
    "unit_coefficients": W(AD, A) + 1 - W(A, A),
    "negative_first": W(A, AD, coeff=-1) + W(AD, A),
    "pure_imaginary": W(A, coeff=I) + W(AD, coeff=-I) + W(A, A, coeff=_q(0, 1, 3, 2)),
    "mixed_complex": W(A, coeff=_q(1, 1, 2)) + W(AD, A, coeff=_q(1, 2, -1, 3))
    + W(AD, coeff=_q(1, 1, -1)) + W(A, AD, coeff=_q(-1, 1, 1)),
    "tfrac": W(A, AD, coeff=_q(1, 2)) + W(A, coeff=_q(-3, 4)) + _q(5, 2),
    "symbolic": W(A, A, coeff=S**2) + W(AD, coeff=2 * S**3 + I * S)
    + W(A, coeff=-S) + (S + 1) + W(AD, AD, coeff=_q(-1, 2) * S - S**2),
    "multivariate": W(A, AD, A, coeff=S * T**2 - _q(1, 3) * T)
    + W(C, A, coeff=-T**3),
    "constant_rational": OperatorPoly.scalar(Fraction(-1, 2)),
    "constant_complex": OperatorPoly.scalar(GaussianRational(1, -1)),
    "constant_symbolic": OperatorPoly.scalar(S * S - 1),
    "fermion_negative": W(C, AD, coeff=-1) + W(C, coeff=_q(-1, 1, -1)),
}

SCALAR_CASES = {
    "zero": ScalarPoly.zero(),
    "one": ScalarPoly.one(),
    "minus_one": -ScalarPoly.one(),
    "power": S**2,
    "negative_symbol": -S,
    "imaginary_symbol": I * S,
    "mixed": _q(1, 1, 1) * S**2 - _q(1, 2) * S + 3,
    "negative_first": -S**3 + _q(0, 1, -1, 2),
    "imaginary_constant": _q(0, 1, -2, 3),
    "complex_constant": _q(-1, 3, 5, 4),
    "two_symbols": S * T**2 - _q(3, 2, 1) * T + _q(0, 1, 1),
}

GOLDEN_OPERATOR = {'zero': ['0', '0', '0', '{"terms": []}'],
 'unit_coefficients': ['-a*a + a†*a + 1',
                       '-a*a + a†*a + 1',
                       '-a\\,a+a^\\dagger\\,a+1',
                       '{"terms": [{"word": ["a", "a"], "coeff": [{"monomial": [], '
                       '"value": "-1"}]}, {"word": ["a†", "a"], "coeff": [{"monomial": '
                       '[], "value": "1"}]}, {"word": [], "coeff": [{"monomial": [], '
                       '"value": "1"}]}]}'],
 'negative_first': ['-a*a† + a†*a',
                    '-a*a† + a†*a',
                    '-a\\,a^\\dagger+a^\\dagger\\,a',
                    '{"terms": [{"word": ["a", "a†"], "coeff": [{"monomial": [], '
                    '"value": "-1"}]}, {"word": ["a†", "a"], "coeff": [{"monomial": '
                    '[], "value": "1"}]}]}'],
 'pure_imaginary': ['(3/2 i)*a*a + (i)*a + (-i)*a†',
                    '(3/2 i)*a*a + (i)*a + (-i)*a†',
                    '\\tfrac{3}{2}i\\,a\\,a+i\\,a-i\\,a^\\dagger',
                    '{"terms": [{"word": ["a", "a"], "coeff": [{"monomial": [], '
                    '"value": "3/2 i"}]}, {"word": ["a"], "coeff": [{"monomial": [], '
                    '"value": "i"}]}, {"word": ["a†"], "coeff": [{"monomial": [], '
                    '"value": "-i"}]}]}'],
 'mixed_complex': ['((-1+i))*a*a† + ((1/2-1/3 i))*a†*a + ((1+2 i))*a + ((1-i))*a†',
                   '((-1+i))*a*a† + ((1/2-1/3 i))*a†*a + ((1+2 i))*a + ((1-i))*a†',
                   '\\left(\\left(-1+i\\right)\\right)\\,a\\,a^\\dagger+\\left(\\tfrac{1}{2}-\\tfrac{1}{3}i\\right)\\,a^\\dagger\\,a+\\left(\\left(1+2i\\right)\\right)\\,a+\\left(\\left(1-i\\right)\\right)\\,a^\\dagger',
                   '{"terms": [{"word": ["a", "a†"], "coeff": [{"monomial": [], '
                   '"value": "-1+i"}]}, {"word": ["a†", "a"], "coeff": [{"monomial": '
                   '[], "value": "1/2-1/3 i"}]}, {"word": ["a"], "coeff": '
                   '[{"monomial": [], "value": "1+2 i"}]}, {"word": ["a†"], "coeff": '
                   '[{"monomial": [], "value": "1-i"}]}]}'],
 'tfrac': ['1/2*a*a† - 3/4*a + 5/2',
           '1/2*a*a† - 3/4*a + 5/2',
           '\\tfrac{1}{2}\\,a\\,a^\\dagger-\\tfrac{3}{4}\\,a+\\tfrac{5}{2}',
           '{"terms": [{"word": ["a", "a†"], "coeff": [{"monomial": [], "value": '
           '"1/2"}]}, {"word": ["a"], "coeff": [{"monomial": [], "value": "-3/4"}]}, '
           '{"word": [], "coeff": [{"monomial": [], "value": "5/2"}]}]}'],
 'symbolic': ['s^2*a*a + (-1/2*s-s^2)*a†*a† - s*a + ((i)*s+2*s^3)*a† + (1+s)',
              's^2*a*a + (-1/2*s-s^2)*a†*a† - s*a + ((i)*s+2*s^3)*a† + (1+s)',
              's^{2}\\,a\\,a-\\tfrac{1}{2}\\,s-s^{2}\\,a^\\dagger\\,a^\\dagger-s\\,a+\\left(i\\,s+2\\,s^{3}\\right)\\,a^\\dagger+1+s',
              '{"terms": [{"word": ["a", "a"], "coeff": [{"monomial": [["s", 2]], '
              '"value": "1"}]}, {"word": ["a†", "a†"], "coeff": [{"monomial": [["s", '
              '1]], "value": "-1/2"}, {"monomial": [["s", 2]], "value": "-1"}]}, '
              '{"word": ["a"], "coeff": [{"monomial": [["s", 1]], "value": "-1"}]}, '
              '{"word": ["a†"], "coeff": [{"monomial": [["s", 1]], "value": "i"}, '
              '{"monomial": [["s", 3]], "value": "2"}]}, {"word": [], "coeff": '
              '[{"monomial": [], "value": "1"}, {"monomial": [["s", 1]], "value": '
              '"1"}]}]}'],
 'multivariate': ['(-1/3*t+s*t^2)*a*a†*a - t^3*c*a',
                  '(-1/3*t+s*t^2)*a*a†*a - t^3*c*a',
                  '\\left(-\\tfrac{1}{3}\\,t+s '
                  't^{2}\\right)\\,a\\,a^\\dagger\\,a-t^{3}\\,c\\,a',
                  '{"terms": [{"word": ["a", "a†", "a"], "coeff": [{"monomial": [["s", '
                  '1], ["t", 2]], "value": "1"}, {"monomial": [["t", 1]], "value": '
                  '"-1/3"}]}, {"word": ["c", "a"], "coeff": [{"monomial": [["t", 3]], '
                  '"value": "-1"}]}]}'],
 'constant_rational': ['-1/2',
                       '-1/2',
                       '-\\tfrac{1}{2}',
                       '{"terms": [{"word": [], "coeff": [{"monomial": [], "value": '
                       '"-1/2"}]}]}'],
 'constant_complex': ['((1-i))',
                      '((1-i))',
                      '\\left(1-i\\right)',
                      '{"terms": [{"word": [], "coeff": [{"monomial": [], "value": '
                      '"1-i"}]}]}'],
 'constant_symbolic': ['(-1+s^2)',
                       '(-1+s^2)',
                       '-1+s^{2}',
                       '{"terms": [{"word": [], "coeff": [{"monomial": [], "value": '
                       '"-1"}, {"monomial": [["s", 2]], "value": "1"}]}]}'],
 'fermion_negative': ['-c*a† + ((-1-i))*c',
                      '-c*a† + ((-1-i))*c',
                      '-c\\,a^\\dagger+\\left(\\left(-1-i\\right)\\right)\\,c',
                      '{"terms": [{"word": ["c", "a†"], "coeff": [{"monomial": [], '
                      '"value": "-1"}]}, {"word": ["c"], "coeff": [{"monomial": [], '
                      '"value": "-1-i"}]}]}']}

GOLDEN_SCALAR = {'zero': ['0', '0'],
 'one': ['1', '1'],
 'minus_one': ['-1', '-1'],
 'power': ['s^2', 's^{2}'],
 'negative_symbol': ['-s', '-s'],
 'imaginary_symbol': ['(i)*s', 'i\\,s'],
 'mixed': ['3-1/2*s+(1+i)*s^2', '3-\\tfrac{1}{2}\\,s+\\left(1+i\\right)\\,s^{2}'],
 'negative_first': ['-1/2 i-s^3', '-\\tfrac{1}{2}i-s^{3}'],
 'imaginary_constant': ['-2/3 i', '-\\tfrac{2}{3}i'],
 'complex_constant': ['(-1/3+5/4 i)', '\\left(-\\tfrac{1}{3}+\\tfrac{5}{4}i\\right)'],
 'two_symbols': ['i+(-3/2-i)*t+s*t^2', 'i+\\left(-\\tfrac{3}{2}-i\\right)\\,t+s t^{2}']}

GOLDEN_CONTRACTION = {'matrix': ['C[a,a] = (-i)*s+s^2; C[a,a†] = 1/2; C[a†,a] = 1/2; C[a†,a†] = (-1/3+1/2 '
            'i)',
            '\\begin{array}{lcc}\n'
            ' & a & a^\\dagger \\\\\n'
            'a & -i\\,s+s^{2} & \\tfrac{1}{2} \\\\\n'
            'a^\\dagger & \\tfrac{1}{2} & '
            '\\left(-\\tfrac{1}{3}+\\tfrac{1}{2}i\\right)\n'
            '\\end{array}',
            '{"symbols": ["a", "a†"], "parity": "symmetric", "entries": [{"pair": '
            '["a", "a"], "value": [{"monomial": [["s", 1]], "value": "-i"}, '
            '{"monomial": [["s", 2]], "value": "1"}]}, {"pair": ["a", "a†"], "value": '
            '[{"monomial": [], "value": "1/2"}]}, {"pair": ["a†", "a"], "value": '
            '[{"monomial": [], "value": "1/2"}]}, {"pair": ["a†", "a†"], "value": '
            '[{"monomial": [], "value": "-1/3+1/2 i"}]}]}']}


def _contraction():
    entries = {
        ("a", "a†"): _q(1, 2),
        ("a†", "a"): _q(1, 2),
        ("a", "a"): S**2 - I * S,
        ("a†", "a†"): _q(-1, 3, 1, 2),
    }
    return ContractionMatrix((A, AD), entries, "symmetric")


def _render_operator(p):
    return [
        poly_to_text(p),
        str(p),
        poly_to_latex(p),
        json.dumps(poly_to_json(p), ensure_ascii=False),
    ]


def _render_scalar(s):
    return [str(s), s.to_latex()]


def _render_contraction(c):
    return [
        str(c),
        contraction_to_latex(c),
        json.dumps(contraction_to_json(c), ensure_ascii=False),
    ]


def test_operator_printing_golden():
    got = {name: _render_operator(p) for name, p in OPERATOR_CASES.items()}
    assert got == GOLDEN_OPERATOR


def test_scalar_printing_golden():
    got = {name: _render_scalar(s) for name, s in SCALAR_CASES.items()}
    assert got == GOLDEN_SCALAR


def test_contraction_printing_golden():
    assert _render_contraction(_contraction()) == GOLDEN_CONTRACTION["matrix"]
