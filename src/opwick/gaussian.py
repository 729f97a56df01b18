"""Gaussian-moment machinery and closed-form reordering of quadratic
exponentials, including the two-mode squeezing pipeline.

This module is numeric: determinants, inverses and square roots live
outside the exact scalar ring.  Everything it claims is cross-checked on
truncated Fock matrices by the caller or the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    IndexOutOfRange,
    NotDefinite,
    ParameterOutOfRange,
    ResultNotDefinite,
    TruncationTooSmall,
)
from .algebra import CommutationTable, OperatorSymbol
from .contractions import contraction_def
from .orderings import BasisChange, Ordering
from .fock import (
    LadderMap,
    MatrixRep,
    ModeRegistry,
    check_dense_dimension,
    matexp,
)
from .scalars import ScalarPoly

__all__ = [
    "isserlis_moment",
    "reorder_quadratic_form",
    "ordered_quadratic_exp_matrix",
    "gaussian_average_exp_quadratic",
    "quadratic_identity_check",
    "squeeze_normal_form",
    "QuadraticReorderReport",
    "SqueezeReport",
]


def isserlis_moment(indices, D) -> complex:
    """Gaussian moment of a product of centered jointly Gaussian variables.

    Odd products vanish; even products are the sum over perfect pairings of
    covariance products, ``(2k-1)!!`` terms in all.
    """
    D = np.asarray(D)
    indices = list(indices)
    n = D.shape[0]
    for i in indices:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"index {i} outside covariance of size {n}")
    if len(indices) % 2 == 1:
        return 0.0
    if not indices:
        return 1.0
    first, rest = indices[0], indices[1:]
    total = 0.0
    for j in range(len(rest)):
        partner = rest[j]
        remaining = rest[:j] + rest[j + 1:]
        total = total + D[first, partner] * isserlis_moment(remaining, D)
    return total


def _definite_sign(matrix, tol=1e-12):
    """+1 for positive definite, -1 for negative definite, 0 otherwise.

    Complex matrices are judged by their Hermitian part.
    """
    m = np.asarray(matrix, dtype=complex)
    herm = (m + m.conj().T) / 2
    eigs = np.linalg.eigvalsh(herm)
    if np.all(eigs > tol):
        return 1
    if np.all(eigs < -tol):
        return -1
    return 0


def reorder_quadratic_form(o, oprime, C, D):
    """Transformed covariance and prefactor for a Gaussian quadratic form.

    For ``O[exp((1/2) D_ab phi_a phi_b)]`` re-expressed in the target
    ordering: ``D' = (D^-1 - C)^-1`` with prefactor ``sqrt(|D'|/|D|)``.
    ``C`` is the numerically evaluated contraction of the ordering pair.
    ``D`` must be definite, and ``D'`` must be definite with the same sign.
    """
    D = np.asarray(D, dtype=complex)
    C = np.asarray(C, dtype=complex)
    sign = _definite_sign(D)
    if sign == 0:
        raise NotDefinite("covariance matrix is not definite")
    if np.allclose(C, 0):
        return D.copy(), 1.0
    d_inv = np.linalg.inv(D)
    try:
        d_prime = np.linalg.inv(d_inv - C)
    except np.linalg.LinAlgError:
        raise ResultNotDefinite(
            "transformed covariance is singular at this contraction"
        ) from None
    if _definite_sign(d_prime) != sign:
        raise ResultNotDefinite(
            "transformed covariance loses definiteness; the closed form "
            "does not apply to this ordering pair at this covariance"
        )
    prefactor = np.sqrt(np.linalg.det(d_prime) / np.linalg.det(D))
    return d_prime, complex(prefactor)


def _expm_stable(m: np.ndarray) -> np.ndarray:
    """Matrix exponential preferring the spectral route for Hermitian input.

    For Hermitian arguments with large norm the eigendecomposition keeps the
    low-occupation block clean: errors in tiny eigenvector components enter
    the entries quadratically instead of as ``exp(norm) * eps``.
    """
    m = np.asarray(m, dtype=complex)
    if np.allclose(m, m.conj().T, atol=1e-13 * max(1.0, np.linalg.norm(m))):
        w, v = np.linalg.eigh(m)
        return (v * np.exp(w)) @ v.conj().T
    return scipy.linalg.expm(m)


def ordered_quadratic_exp_matrix(x_mat, y_mat, dxx, dxy, dyy) -> np.ndarray:
    """Matrix of the ordered exponential of a two-symbol quadratic form.

    Evaluates ``O[exp((1/2)(dxx x^2 + 2 dxy xy + dyy y^2))]`` for the
    ordering that puts every ``x`` left of every ``y``:
    ``expm(dxx X^2/2) (sum_c dxy^c/c! X^c Y^c) expm(dyy Y^2/2)``, the
    middle sum cut once a term is negligible or after ``2 * dim + 10`` terms.
    """
    x_mat = np.asarray(x_mat, dtype=complex)
    y_mat = np.asarray(y_mat, dtype=complex)
    dim = x_mat.shape[0]
    left = _expm_stable(dxx / 2 * (x_mat @ x_mat))
    right = _expm_stable(dyy / 2 * (y_mat @ y_mat))
    middle = np.eye(dim, dtype=complex)
    if dxy != 0:
        term = np.eye(dim, dtype=complex)
        for c in range(1, 2 * dim + 11):
            term = (dxy / c) * (x_mat @ term @ y_mat)
            norm = np.linalg.norm(term)
            middle = middle + term
            if norm == 0.0 or norm < 1e-17 * max(1.0, np.linalg.norm(middle)):
                break
    return left @ middle @ right


@dataclass
class QuadraticReorderReport:
    d_prime: np.ndarray
    prefactor: complex
    lhs: MatrixRep
    rhs: MatrixRep
    max_occupation: int
    max_error: float


def quadratic_identity_check(D, C, source_mats, target_mats, L,
                             registry: ModeRegistry,
                             max_occupation: int) -> QuadraticReorderReport:
    """Check the quadratic reordering identity on truncated Fock matrices.

    ``D`` and ``C`` are over the source pair in the left ordering's
    descending arrangement, ``source_mats``/``target_mats`` are the matching
    matrix pairs (left symbol first), and ``L`` expands the source pair over
    the target pair so the transformed form is ``L^T D' L``.
    """
    from .fock import block_compare

    d_prime, prefactor = reorder_quadratic_form(None, None, C, D)
    D = np.asarray(D, dtype=complex)
    L = np.asarray(L, dtype=complex)
    lhs = ordered_quadratic_exp_matrix(
        source_mats[0], source_mats[1], D[0, 0], D[0, 1], D[1, 1]
    )
    d_t = L.T @ d_prime @ L
    rhs = prefactor * ordered_quadratic_exp_matrix(
        target_mats[0], target_mats[1], d_t[0, 0], d_t[0, 1], d_t[1, 1]
    )
    lhs_rep = MatrixRep(lhs, registry)
    rhs_rep = MatrixRep(rhs, registry)
    err = block_compare(lhs_rep, rhs_rep, max_occupation)
    return QuadraticReorderReport(
        d_prime, prefactor, lhs_rep, rhs_rep, max_occupation, err
    )


def gaussian_average_exp_quadratic(D, Q, J):
    """Average of ``exp((1/2) u^T Q u + (J^T u) . ops)`` over ``u ~ N(0, D)``.

    Returns the scalar prefactor ``det(I - DQ)^(-1/2)`` and the matrix ``K``
    with ``K = (1/2) J^T (D^-1 - Q)^-1 J``; the resulting exponent is the
    commuting quadratic ``sum_ij K_ij op_i op_j``.  ``(D^-1 - Q)^-1`` is
    solved as ``(I - DQ)^-1 D``, so a covariance too small to invert (a
    subnormal ``D`` underflows to zero) still gives a finite ``K``.
    """
    D = np.asarray(D, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    J = np.asarray(J, dtype=complex)
    n = D.shape[0]
    shifted = np.eye(n) - D @ Q
    prefactor = 1.0 / np.sqrt(np.linalg.det(shifted))
    M = np.linalg.solve(shifted, D)
    K = 0.5 * J.T @ M @ J
    return complex(prefactor), K


def _two_mode_registry(truncation: int) -> ModeRegistry:
    reg = ModeRegistry()
    reg.add_boson("m_a", truncation)
    reg.add_boson("m_b", truncation)
    return reg


@dataclass
class SqueezeReport:
    """Outcome of the two-mode squeezing pipeline at one parameter value.

    ``pipeline`` uses the exact Gaussian representation of the squeeze
    unitary; ``literal_pipeline`` uses the covariance printed in the source
    derivation (equal to the squeezing parameter itself) for comparison;
    ``printed_form`` evaluates the printed closed-form answer.  Only
    ``pipeline`` is asserted against ``reference``; the other two report
    their deviations.
    """

    g: float
    truncation: int
    covariance: float
    normalization: float
    contraction_values: dict
    exponent: dict
    prefactor: complex
    pipeline: MatrixRep
    reference: MatrixRep
    literal_pipeline: MatrixRep
    printed_form: MatrixRep
    diffs: dict = field(default_factory=dict)

    def block_error(self, which: str, max_occupation: int) -> float:
        from .fock import block_compare

        return block_compare(
            getattr(self, which), self.reference, max_occupation
        )


def _weyl_normal_contraction_values():
    """The four nonzero (symmetric minus normal) pair contractions, computed
    symbolically and returned as floats keyed by symbol-name pair."""
    a = OperatorSymbol("a", key=0)
    ad = OperatorSymbol("a†", key=0, dagger=True)
    b = OperatorSymbol("b", key=1)
    bd = OperatorSymbol("b†", key=1, dagger=True)
    table = CommutationTable(
        [a, ad, b, bd],
        {
            ("a", "a†"): ScalarPoly.one(),
            ("b", "b†"): ScalarPoly.one(),
            ("a", "b"): ScalarPoly.zero(),
            ("a", "b†"): ScalarPoly.zero(),
            ("a†", "b"): ScalarPoly.zero(),
            ("a†", "b†"): ScalarPoly.zero(),
        },
    )
    basis = BasisChange.identity([a, ad, b, bd])
    c = contraction_def(Ordering.weyl(), Ordering.normal(), basis, table)
    values = {}
    for pair, value in c.entries.items():
        values[pair] = complex(value.evaluate({}))
    return values


def _squeeze_exponent_from_pipeline(g: float, covariance: float):
    """Run the symmetric-to-normal step and the Gaussian integration.

    Returns (prefactor, kappa_down, kappa_up, nu) for the normal-ordered
    exponent ``kappa_down ab + kappa_up a†b† + nu (a†a + b†b)``.
    """
    contraction = _weyl_normal_contraction_values()
    # lambda vectors over the complex Gaussian basis (xi1, xi2, xi1*, xi2*)
    lam = {
        "a": np.array([1, 0, 0, 0], dtype=complex),
        "a†": np.array([0, 1, 0, 0], dtype=complex),
        "b": np.array([0, 0, 1, 0], dtype=complex),
        "b†": np.array([0, 0, 0, -1], dtype=complex),
    }
    S = np.zeros((4, 4), dtype=complex)
    for (na, nb), value in contraction.items():
        S += 0.5 * value * np.outer(lam[na], lam[nb])
    # realify: xi_j = x_j + i y_j with variance covariance/2 per real part
    M_map = np.array(
        [
            [1, 1j, 0, 0],
            [0, 0, 1, 1j],
            [1, -1j, 0, 0],
            [0, 0, 1, -1j],
        ],
        dtype=complex,
    )
    Q = M_map.T @ (S + S.T) @ M_map
    # operator sources over (a, b, a†, b†)
    R = np.zeros((4, 4), dtype=complex)
    R[0, 0] = 1    # xi1 a
    R[2, 1] = 1    # xi1* b
    R[1, 2] = 1    # xi2 a†
    R[3, 3] = -1   # -xi2* b†
    J = M_map.T @ R
    if covariance == 0:
        return 1.0, 0.0, 0.0, 0.0
    D = covariance / 2 * np.eye(4)
    prefactor, K = gaussian_average_exp_quadratic(D, Q, J)
    sym = K + K.T
    kappa_down = sym[0, 1]
    kappa_up = sym[2, 3]
    nu_a = sym[0, 2]
    nu_b = sym[1, 3]
    stray = sym.copy()
    for (i, j) in [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0), (1, 3), (3, 1)]:
        stray[i, j] = 0
    np.fill_diagonal(stray, stray.diagonal())
    if np.max(np.abs(stray)) > 1e-10:
        raise ResultNotDefinite("unexpected exponent structure in squeeze pipeline")
    if abs(nu_a - nu_b) > 1e-12:
        raise ResultNotDefinite("mode asymmetry in squeeze pipeline exponent")
    return prefactor, kappa_down, kappa_up, nu_a


def _nilpotent_exp(kappa, word: LadderMap) -> LadderMap:
    """``exp(kappa * word)`` for a nilpotent ladder word, by its series.

    Each power of the word moves its one diagonal a shift further; once the
    shift leaves the basis the power is the empty map, exactly zero, and the
    series ``sum_k kappa^k/k! word^k`` ends there.
    """
    total = term = LadderMap.diagonal(np.ones(word.dim))
    for k in range(1, word.dim + 1):
        term = (kappa / k) * (term @ word)
        if not term.diagonals:
            break
        total = total + term
    return total


def _normal_exponential_matrix(reg: ModeRegistry, kappa_down, kappa_up, nu,
                               scale) -> np.ndarray:
    """``scale * N[exp(kappa_up a†b† + nu(a†a + b†b) + kappa_down ab)]``.

    Normal ordering factors the exponential into
    ``exp(kappa_up a†b†) (1 + nu)^(n_a + n_b) exp(kappa_down ab)``.  On the
    truncated space ``ab`` and ``a†b†`` are nilpotent (their truncation-th
    powers vanish), so the outer factors are finite series of ladder maps and
    the product is formed diagonal by diagonal, with no dense matrix product
    and no matrix exponential.
    """
    down = _nilpotent_exp(
        kappa_down, reg.ladder("m_a", "lower") @ reg.ladder("m_b", "lower"))
    up = _nilpotent_exp(
        kappa_up, reg.ladder("m_a", "raise") @ reg.ladder("m_b", "raise"))
    middle = LadderMap.diagonal(scale * (1.0 + nu) ** reg.occupations())
    return (up @ middle @ down).dense()


def squeeze_normal_form(g: float, truncation: int) -> SqueezeReport:
    """Normal-ordered form of ``exp(g(ab - a†b†))`` via the Gaussian pipeline.

    The unitary is represented as a Gaussian average of exponentials of
    linear forms, the symmetric-to-normal reordering step is applied inside
    the average using the pair contractions of one half, and the Gaussian
    integral is carried out in closed form.  The representation is exact for
    covariance ``2 tanh(g/2)`` with normalization ``sech(g/2)**2``; the
    literal covariance ``g`` with unit normalization is also evaluated, as
    is the printed closed-form expression, and both are reported against the
    direct matrix exponential rather than asserted.
    """
    if truncation < 10:
        raise TruncationTooSmall("squeezing check needs truncation >= 10")
    if not (g >= 0 and math.isfinite(g)):
        raise ParameterOutOfRange(
            f"squeezing parameter {g} must be finite and nonnegative")
    try:
        c_exact = 1.0 / math.cosh(g / 2.0) ** 2
    except OverflowError:
        raise ParameterOutOfRange(
            f"squeezing parameter {g} is too large: cosh(g/2)**2 overflows"
        ) from None
    reg = _two_mode_registry(truncation)
    check_dense_dimension(reg.dimension)
    ab = reg.ladder("m_a", "lower") @ reg.ladder("m_b", "lower")
    ab_dag = reg.ladder("m_a", "raise") @ reg.ladder("m_b", "raise")
    reference = matexp(MatrixRep((g * (ab - ab_dag)).dense(), reg))

    t_exact = 2.0 * math.tanh(g / 2.0)
    pref, k_dn, k_up, nu = _squeeze_exponent_from_pipeline(g, t_exact)
    pipeline = MatrixRep(
        _normal_exponential_matrix(reg, k_dn, k_up, nu, c_exact * pref),
        reg,
    )

    pref_lit, k_dn_l, k_up_l, nu_l = _squeeze_exponent_from_pipeline(g, g)
    literal = MatrixRep(
        _normal_exponential_matrix(reg, k_dn_l, k_up_l, nu_l, pref_lit),
        reg,
    )

    kp = g / (g * g + 1.0)
    printed_scale = math.sqrt(g * g + 1.0) * math.exp(-2.0 * g * kp)
    printed = MatrixRep(
        _normal_exponential_matrix(reg, kp, -kp, -2.0 * g * kp, printed_scale),
        reg,
    )

    report = SqueezeReport(
        g=g,
        truncation=truncation,
        covariance=t_exact,
        normalization=c_exact,
        contraction_values={
            f"{a},{b}": v for (a, b), v in _weyl_normal_contraction_values().items()
        },
        exponent={
            "kappa_down": complex(k_dn),
            "kappa_up": complex(k_up),
            "nu": complex(nu),
        },
        prefactor=complex(c_exact * pref),
        pipeline=pipeline,
        reference=reference,
        literal_pipeline=literal,
        printed_form=printed,
    )
    block = min(10, truncation - 2)
    report.diffs = {
        "pipeline_vs_reference": report.block_error("pipeline", block),
        "literal_vs_reference": report.block_error("literal_pipeline", block),
        "printed_vs_reference": report.block_error("printed_form", block),
        "block": block,
    }
    return report
