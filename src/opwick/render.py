"""Text, JSON, and LaTeX rendering of polynomials and contraction data."""

from __future__ import annotations

from .algebra import OperatorPoly
from .contractions import ContractionMatrix
from .scalars import ScalarPoly, signed_sum

__all__ = [
    "poly_to_text",
    "poly_to_json",
    "poly_to_latex",
    "contraction_to_json",
    "contraction_to_latex",
]


def _symbol_latex(name: str) -> str:
    if name.endswith("†"):
        return f"{name[:-1]}^\\dagger"
    return name


def poly_to_text(p: OperatorPoly) -> str:
    return str(p)


def poly_to_json(p: OperatorPoly) -> dict:
    terms = []
    for word, coeff in p.sorted_terms():
        terms.append(
            {
                "word": [s.name for s in word],
                "coeff": _scalar_json(coeff),
            }
        )
    return {"terms": terms}


def _scalar_json(s: ScalarPoly):
    out = []
    for mono, coeff in sorted(s.terms.items()):
        out.append(
            {
                "monomial": [[name, exp] for name, exp in mono],
                "value": coeff.to_string(),
            }
        )
    return out


def poly_to_latex(p: OperatorPoly) -> str:
    terms = [
        (c.to_latex(), "\\,".join(_symbol_latex(s.name) for s in w))
        for w, c in p.sorted_terms()
    ]
    return signed_sum(terms, "\\,", _wrap_latex)


def _wrap_latex(cs: str, body: str) -> str:
    """Bracket a LaTeX coefficient with an inner sign, unless that sign is a
    minus in a coefficient holding a ``\\tfrac``; constants stay bare."""
    if body and ("+" in cs[1:] or ("-" in cs[1:] and "\\tfrac" not in cs)):
        return f"\\left({cs}\\right)"
    return cs


def contraction_to_json(c: ContractionMatrix) -> dict:
    return {
        "symbols": c.names(),
        "parity": c.parity,
        "entries": [
            {"pair": [a, b], "value": _scalar_json(v)}
            for (a, b), v in sorted(c.entries.items())
        ],
    }


def contraction_to_latex(c: ContractionMatrix) -> str:
    names = c.names()
    header = " & ".join([""] + [_symbol_latex(n) for n in names])
    rows = []
    for a in names:
        cells = [_symbol_latex(a)]
        for b in names:
            cells.append(c.get(a, b).to_latex())
        rows.append(" & ".join(cells))
    body = " \\\\\n".join(rows)
    cols = "l" + "c" * len(names)
    return (
        f"\\begin{{array}}{{{cols}}}\n{header} \\\\\n{body}\n\\end{{array}}"
    )
