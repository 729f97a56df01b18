"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from opwick import (
    FERMION,
    BasisChange,
    CommutationTable,
    ContractionLaplacian,
    GaussianRational,
    NumericContext,
    OperatorPoly,
    OperatorSymbol,
    Ordering,
    ScalarPoly,
    canonical_reduce,
    contraction_def,
    contraction_theta,
    definitional_order,
    derive,
    exponential_series_check,
    reorder_substitution,
    sweep,
    tilde_contraction,
    verify_instance,
)
from opwick.contractions import solve_tilde, transform_matrix
from opwick.fock import ModeRegistry, block_compare, represent, represent_exact
from opwick.gaussian import (
    quadratic_identity_check,
    reorder_quadratic_form,
    squeeze_normal_form,
)
from opwick.parsing import parse_expression, print_expression
from opwick.reorder import reorder_exponential


def _report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {tag} - {description}{suffix}")
    assert passed, f"criterion {number} failed: {description} {suffix}"


# -- shared builders -----------------------------------------------------------


def _two_mode_boson():
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
    return (a, ad, b, bd), table


def _one_mode_boson():
    a = OperatorSymbol("a")
    ad = OperatorSymbol("a†", dagger=True)
    table = CommutationTable([a, ad], {("a", "a†"): ScalarPoly.one()})
    return (a, ad), table


def _quadrature():
    (a, ad), table = _one_mode_boson()
    s = ScalarPoly.symbol("s")
    i = ScalarPoly.i()
    q = OperatorSymbol("q")
    p = OperatorSymbol("p")
    basis = BasisChange(
        [q, p], [a, ad],
        {("q", "a"): s, ("q", "a†"): s, ("p", "a"): -i * s, ("p", "a†"): i * s},
    )
    return (q, p), basis, table


def _timed_fermions():
    c1 = OperatorSymbol("c1", FERMION, key=4)
    c1d = OperatorSymbol("c1†", FERMION, key=1, dagger=True)
    c2 = OperatorSymbol("c2", FERMION, key=2)
    c2d = OperatorSymbol("c2†", FERMION, key=3, dagger=True)
    table = CommutationTable(
        [c1, c1d, c2, c2d],
        {
            ("c1", "c1†"): ScalarPoly.one(),
            ("c2", "c2†"): ScalarPoly.one(),
            ("c1", "c2"): ScalarPoly.zero(),
            ("c1", "c2†"): ScalarPoly.zero(),
            ("c2", "c1†"): ScalarPoly.zero(),
            ("c1†", "c2†"): ScalarPoly.zero(),
        },
    )
    return (c1, c1d, c2, c2d), table


# -- criterion 1 ---------------------------------------------------------------


def test_acceptance_1_oracle_equivalence_sweep():
    """Triple agreement of definitional / substitution / exponential routes."""
    (a, ad, b, bd), boson_table = _two_mode_boson()
    boson_pool = [a, ad, b, bd]
    boson_basis = BasisChange.identity(boson_pool)
    (q, p), quad_basis, quad_table = _quadrature()
    (c1, c1d, c2, c2d), fermi_table = _timed_fermions()
    fermi_pool = [c1, c1d, c2, c2d]
    fermi_basis = BasisChange.identity(fermi_pool)

    cases = [
        ("antinormal/normal", Ordering.antinormal(), Ordering.normal(),
         boson_basis, boson_table, boson_pool),
        ("weyl/normal", Ordering.weyl(), Ordering.normal(),
         boson_basis, boson_table, boson_pool),
        ("qp/normal", Ordering.explicit("qp", ["q", "p"]), Ordering.normal(),
         quad_basis, quad_table, [q, p]),
        ("time/normal fermionic", Ordering.time_descending(),
         Ordering.normal(signature=-1), fermi_basis, fermi_table, fermi_pool),
    ]
    total = 0
    failed = 0
    details = []
    for label, o, oprime, basis, table, pool in cases:
        report = sweep(o, oprime, basis, table, 5, pool)
        total += report.total
        failed += report.failed
        details.append(f"{label}: {report.passed}/{report.total}")
    _report(
        1,
        "oracle equivalence sweep, words of length <= 5, exact equality",
        failed == 0,
        "; ".join(details),
    )


# -- criterion 2 ---------------------------------------------------------------


def test_acceptance_2_contraction_chain():
    (a, ad), table = _one_mode_boson()
    basis = BasisChange.identity([a, ad])
    N, A, W = Ordering.normal(), Ordering.antinormal(), Ordering.weyl()
    half = ScalarPoly.const(Fraction(1, 2))
    one = ScalarPoly.one()
    wn = contraction_def(W, N, basis, table)
    aw = contraction_def(A, W, basis, table)
    an = contraction_def(A, N, basis, table)
    ok = True
    for pair in (("a", "a†"), ("a†", "a")):
        ok = ok and wn.get(*pair) == half
        ok = ok and aw.get(*pair) == half
        ok = ok and an.get(*pair) == one
    ok = ok and wn.get("a", "a").is_zero and an.get("a†", "a†").is_zero
    _report(2, "contraction chain (W-N)=1/2, (A-W)=1/2, (A-N)=1, exact", ok)


# -- criterion 3 ---------------------------------------------------------------


def test_acceptance_3_exponential_splitting_to_degree_six():
    x = OperatorSymbol("X")
    y = OperatorSymbol("Y")
    z = ScalarPoly.symbol("z")
    table = CommutationTable([x, y], {("X", "Y"): z})
    basis = BasisChange.identity([x, y])
    oxy = Ordering.explicit("xy", ["X", "Y"])
    w = Ordering.weyl()
    c = contraction_def(oxy, w, basis, table)
    half_z = z * ScalarPoly.const(Fraction(1, 2))
    lam = {x: ScalarPoly.symbol("lx"), y: ScalarPoly.symbol("ly")}
    lhs, rhs, equal = exponential_series_check(oxy, w, basis, c, lam, 6, table)
    ok = equal and c.get("X", "Y") == half_z and c.get("Y", "X") == half_z
    _report(
        3,
        "exp(X)exp(Y) = exp(X+Y+[X,Y]/2) series identity to degree 6, exact",
        ok,
    )


# -- criterion 4 ---------------------------------------------------------------


def test_acceptance_4_quadratic_form_reordering():
    (q, p), basis, table = _quadrature()
    qp = Ordering.explicit("qp", ["q", "p"])
    c_sym = contraction_def(qp, Ordering.normal(), basis, table)
    ctx = NumericContext({"s": 2**-0.5})
    c_num = np.array(
        [[c_sym.get(xx, yy).evaluate(ctx) for yy in ("q", "p")]
         for xx in ("q", "p")]
    )

    # C = 0 degenerate case: D' = D and prefactor 1, exactly
    d0 = np.diag([0.8, 0.5])
    d_prime0, pref0 = reorder_quadratic_form(qp, Ordering.normal(),
                                             np.zeros((2, 2)), d0)
    exact_degenerate = np.array_equal(d_prime0, d0.astype(complex)) and pref0 == 1.0

    trunc = 60
    reg = ModeRegistry().add_boson("m", trunc)
    A = reg.lowering("m")
    Ad = A.conj().T
    sv = 2**-0.5
    Qm = sv * (A + Ad)
    Pm = -1j * sv * (A - Ad)
    Lnum = np.array([[sv, sv], [1j * sv, -1j * sv]])

    # the stated covariance magnitudes on the definite branch that converges
    # on a truncated space (see the negative-definite clause of the formula)
    rep_neg = quadratic_identity_check(
        -np.diag([0.8, 0.5]), c_num, (Qm, Pm), (Ad, A), Lnum, reg, 20
    )
    # a positive-definite companion inside the convergent regime
    rep_pos = quadratic_identity_check(
        np.diag([0.3, 0.2]), c_num, (Qm, Pm), (Ad, A), Lnum, reg, 20
    )
    ok = exact_degenerate and rep_neg.max_error <= 1e-8 and rep_pos.max_error <= 1e-8
    _report(
        4,
        "quadratic-form reordering on Fock matrices, trunc 60, occ <= 20, "
        "max error <= 1e-8",
        ok,
        f"negative-definite err={rep_neg.max_error:.2e}, "
        f"positive-definite err={rep_pos.max_error:.2e}, "
        f"degenerate exact={exact_degenerate}",
    )


# -- criterion 5 ---------------------------------------------------------------


def test_acceptance_5_two_mode_squeezing():
    report = squeeze_normal_form(0.3, 30)
    err = report.block_error("pipeline", 10)
    printed = report.block_error("printed_form", 10)
    literal = report.block_error("literal_pipeline", 10)
    ok = err <= 1e-6
    _report(
        5,
        "two-mode squeezing pipeline vs matrix exponential, g=0.3, trunc 30, "
        "occ <= 10, error <= 1e-6",
        ok,
        f"pipeline err={err:.2e}; printed closed form deviates by "
        f"{printed:.2e} and the literal-covariance pipeline by "
        f"{literal:.2e} (reported, not asserted)",
    )


# -- criterion 6 ---------------------------------------------------------------


def test_acceptance_6_fermionic_exactness():
    syms = [
        OperatorSymbol("c1", FERMION, key=6),
        OperatorSymbol("c1†", FERMION, key=1, dagger=True),
        OperatorSymbol("c2", FERMION, key=2),
        OperatorSymbol("c2†", FERMION, key=5, dagger=True),
        OperatorSymbol("c3", FERMION, key=4),
        OperatorSymbol("c3†", FERMION, key=3, dagger=True),
    ]
    entries = {}
    for i in range(6):
        for j in range(i + 1, 6):
            si, sj = syms[i], syms[j]
            paired = si.name.rstrip("†") == sj.name.rstrip("†")
            entries[(si.name, sj.name)] = (
                ScalarPoly.one() if paired and si.dagger != sj.dagger
                else ScalarPoly.zero()
            )
    table = CommutationTable(syms, entries)
    basis = BasisChange.identity(syms)
    T = Ordering.time_descending()
    N = Ordering.normal(signature=-1)
    c = contraction_def(T, N, basis, table)

    reg = ModeRegistry()
    for mode in ("f1", "f2", "f3"):
        reg.add_fermion(mode)
    for idx, mode in enumerate(("f1", "f2", "f3")):
        reg.map_ladder(syms[2 * idx], mode, "lower")
        reg.map_ladder(syms[2 * idx + 1], mode, "raise")

    rng = random.Random(606)
    words = [()]
    words += [(s,) for s in syms]
    words += [w for w in itertools.product(syms, repeat=2)]
    words += [w for w in itertools.product(syms, repeat=3)]
    words += [
        tuple(syms[rng.randrange(6)] for _ in range(rng.choice([4, 5])))
        for _ in range(40)
    ]

    zero = GaussianRational(0)
    max_numeric = 0.0
    exact_ok = True
    for word in words:
        direct = OperatorPoly.from_word(word)
        transformed = reorder_substitution(T, N, basis, c, direct)
        lhs_sym = definitional_order(T, word)
        exact_lhs = represent_exact(lhs_sym, reg)
        exact_rhs = represent_exact(transformed, reg)
        for r in range(8):
            for col in range(8):
                if (exact_lhs[r][col] - exact_rhs[r][col]) != zero:
                    exact_ok = False
        m_lhs = represent(lhs_sym, reg)
        m_rhs = represent(transformed, reg)
        max_numeric = max(max_numeric, float(np.max(np.abs(m_lhs.data - m_rhs.data))))
    ok = exact_ok and max_numeric <= 1e-12
    _report(
        6,
        "fermionic exactness on 8x8 matrices: zero difference on the exact "
        "path, <= 1e-12 numerically",
        ok,
        f"{len(words)} words, max numeric diff {max_numeric:.2e}",
    )


# -- criterion 7 ---------------------------------------------------------------


def _random_boson_setup(rng, n):
    syms = [OperatorSymbol(f"u{i}", key=i) for i in range(n)]
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            entries[(f"u{i}", f"u{j}")] = ScalarPoly.const(
                Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            )
    return syms, CommutationTable(syms, entries)


def _random_fermion_setup(rng, n):
    syms = [
        OperatorSymbol(f"v{i}", FERMION, key=i, dagger=bool(i % 2))
        for i in range(n)
    ]
    entries = {}
    for i in range(n):
        for j in range(i, n):
            if syms[i].dagger == syms[j].dagger:
                entries[(f"v{i}", f"v{j}")] = ScalarPoly.zero()
            else:
                entries[(f"v{i}", f"v{j}")] = ScalarPoly.const(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                )
    return syms, CommutationTable(syms, entries)


def test_acceptance_7_structural_invariants():
    rng = random.Random(2718281)
    checks = {}

    # contraction parity and theta-form agreement over 200 seeded tables
    parity_ok = True
    theta_ok = True
    for trial in range(200):
        fermionic = trial % 2 == 1
        n = rng.randint(2, 4)
        syms, table = (
            _random_fermion_setup(rng, n) if fermionic
            else _random_boson_setup(rng, n)
        )
        basis = BasisChange.identity(syms)
        names = [s.name for s in syms]
        r1, r2 = list(names), list(names)
        rng.shuffle(r1)
        rng.shuffle(r2)
        sig = -1 if fermionic else 1
        o = Ordering.explicit("o1", r1, signature=sig)
        op = Ordering.explicit("o2", r2, signature=sig)
        c_def = contraction_def(o, op, basis, table)
        c_theta = contraction_theta(o, op, basis, table)
        parity_ok = parity_ok and c_def.scaled_check_parity()
        theta_ok = theta_ok and c_def.entries == c_theta.entries
    checks["parity"] = parity_ok
    checks["theta=def x200"] = theta_ok

    # transform identity for the configured basis changes
    (a, ad), one_mode = _one_mode_boson()
    ident = BasisChange.identity([a, ad])
    tilde = tilde_contraction(Ordering.antinormal(), Ordering.normal(), one_mode)
    c_an = contraction_def(Ordering.antinormal(), Ordering.normal(), ident, one_mode)
    ident_ok = all(
        transform_matrix(ident, tilde)[pair] == c_an.get(*pair)
        for pair in transform_matrix(ident, tilde)
    )
    (q, p), quad_basis, quad_table = _quadrature()
    qp = Ordering.explicit("qp", ["q", "p"])
    c_qp = contraction_def(qp, Ordering.normal(), quad_basis, quad_table)
    solved = solve_tilde(quad_basis, c_qp)
    quad_ok = all(
        transform_matrix(quad_basis, solved)[pair] == c_qp.get(*pair)
        for pair in transform_matrix(quad_basis, solved)
    )
    checks["L Ct L^T = C"] = ident_ok and quad_ok

    # Grassmann nilpotency and anticommutation on random polynomials
    (c1, c1d, c2, c2d), fermi_table = _timed_fermions()
    pool = [c1, c1d, c2, c2d]
    nilpotent_ok = True
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(pool[rng.randrange(4)] for _ in range(rng.randint(0, 4)))
            terms[word] = ScalarPoly.const(rng.randint(-3, 3))
        poly = OperatorPoly(terms)
        for s1 in pool:
            if derive(derive(poly, s1), s1).is_zero is False:
                nilpotent_ok = False
            for s2 in pool:
                d12 = derive(derive(poly, s1), s2)
                d21 = derive(derive(poly, s2), s1)
                if not (d12 + d21).is_zero:
                    nilpotent_ok = False
    checks["grassmann nilpotency"] = nilpotent_ok

    # Laplacian degree drop and rewriting termination
    basis2 = BasisChange.identity(pool)
    lap = ContractionLaplacian(
        contraction_def(Ordering.time_descending(),
                        Ordering.normal(signature=-1), basis2, fermi_table)
    )
    degree_ok = True
    for _ in range(40):
        n = rng.randint(0, 5)
        word = tuple(pool[rng.randrange(4)] for _ in range(n))
        poly = OperatorPoly.from_word(word)
        m = 0
        while not poly.is_zero:
            nxt = lap.apply(poly)
            m += 1
            if not nxt.is_zero and nxt.degree() > max(poly.degree() - 2, 0):
                degree_ok = False
            poly = nxt
            if 2 * m > n + 2:
                degree_ok = degree_ok and poly.is_zero
                break
    # each transposition on a fresh table asks it for one swap sign
    (aa, aad), t1 = _one_mode_boson()
    transpositions = []
    swap_sign = t1.swap_sign

    def counted_swap_sign(x, y):
        transpositions.append((x, y))
        return swap_sign(x, y)

    t1.swap_sign = counted_swap_sign
    canonical_reduce(OperatorPoly.from_word((aa, aa, aa, aad, aad, aad)), t1)
    degree_ok = degree_ok and len(transpositions) <= 9 * 2**3
    checks["laplacian degree drop + termination"] = degree_ok

    # parser round trip over generated expression trees
    checks["parser round trip"] = _parser_round_trip(rng)

    ok = all(checks.values())
    detail = ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
    _report(7, "structural invariant suite", ok, detail)


def _parser_round_trip(rng):
    from opwick.parsing import (
        Bracket, Exp, OrderApply, Product, Scalar, Sum, SymbolRef,
        parse_expression, print_expression,
    )

    class _Cfg:
        def __init__(self):
            self.operators = {
                "a": OperatorSymbol("a"),
                "a†": OperatorSymbol("a†", dagger=True),
                "q": OperatorSymbol("q"),
            }
            self.orderings = {"N": Ordering.normal()}
            self.scalars = set()

        def parser_view(self):
            from opwick.parsing import RegistryView

            return RegistryView(self.operators, self.scalars, self.orderings)

    def random_node(depth):
        if depth <= 0 or rng.random() < 0.4:
            choice = rng.randrange(3)
            if choice == 0:
                return SymbolRef(rng.choice(["a", "a†", "q"]))
            if choice == 1:
                return Scalar(GaussianRational(rng.randint(0, 9)))
            return Scalar(GaussianRational(0, 1))
        kind = rng.randrange(5)
        if kind == 0:
            return Product(tuple(random_node(depth - 1) for _ in range(2)))
        if kind == 1:
            return Sum(tuple(
                (rng.choice([1, -1]), random_node(depth - 1)) for _ in range(2)
            ))
        if kind == 2:
            return Bracket("comm", random_node(depth - 1), random_node(depth - 1))
        if kind == 3:
            return OrderApply("N", random_node(depth - 1))
        return Exp(random_node(depth - 1), rng.randint(0, 4))

    cfg = _Cfg()
    for _ in range(200):
        ast = random_node(3)
        text = print_expression(ast)
        if parse_expression(text, cfg) != ast:
            return False
    return True
