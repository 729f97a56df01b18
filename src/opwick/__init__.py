"""opwick: symbolic reordering of bosonic/fermionic operator products.

The package rewrites products and functionals of operators with c-number
(anti)commutators between arbitrary operator orderings.  Contractions
between ordering pairs drive two equivalent transforms, a factor
substitution and an exponential derivative smoothing, both verified against
a brute-force definitional oracle and a truncated-Fock-space numeric
backend.
"""

from .errors import OpwickError
from .scalars import GaussianRational, NumericContext, ScalarPoly, evaluate_scalar
from .algebra import (
    BOSON,
    FERMION,
    CommutationTable,
    OperatorPoly,
    OperatorSymbol,
    SymbolRegistry,
    canonical_reduce,
    poly_equal,
)
from .orderings import (
    BasisChange,
    Ordering,
    order_poly,
    order_word,
    order_word_foreign,
)
from .contractions import (
    ContractionMatrix,
    ScalarContraction,
    contraction_def,
    contraction_theta,
    fermion_field_contraction,
    full_contraction_from_split,
    scalar_contraction_implicit,
    tilde_contraction,
)
from .reorder import (
    ContractionLaplacian,
    derive,
    exp_laplacian,
    exponential_series,
    exponential_series_check,
    exponential_series_rhs,
    express_univariate,
    reorder_multivariate,
    reorder_substitution,
    reorder_univariate,
)
from .oracle import SweepReport, VerificationReport, definitional_order, sweep, verify_instance

__version__ = "0.1.0"

__all__ = [
    "OpwickError",
    "GaussianRational",
    "ScalarPoly",
    "NumericContext",
    "evaluate_scalar",
    "BOSON",
    "FERMION",
    "OperatorSymbol",
    "OperatorPoly",
    "CommutationTable",
    "SymbolRegistry",
    "canonical_reduce",
    "poly_equal",
    "Ordering",
    "BasisChange",
    "order_word",
    "order_poly",
    "order_word_foreign",
    "ContractionMatrix",
    "ScalarContraction",
    "contraction_def",
    "contraction_theta",
    "tilde_contraction",
    "scalar_contraction_implicit",
    "fermion_field_contraction",
    "full_contraction_from_split",
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
    "definitional_order",
    "verify_instance",
    "sweep",
    "VerificationReport",
    "SweepReport",
]
