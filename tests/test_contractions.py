"""Contraction matrices: definitional, step-function, target-basis, implicit
scalar, and split fermion-field forms."""

import random
from fractions import Fraction

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
    contraction_def,
    contraction_theta,
    fermion_field_contraction,
    full_contraction_from_split,
    scalar_contraction_implicit,
    tilde_contraction,
)
from opwick.contractions import transform_matrix
from opwick.errors import (
    FamilyAxiomViolated,
    NotCNumber,
    NotPermutationOrdering,
    RelationViolated,
)

HALF = ScalarPoly.const(Fraction(1, 2))


def test_antinormal_vs_normal_single_mode(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    c = contraction_def(Ordering.antinormal(), Ordering.normal(), basis, table)
    assert c.get("a", "a†") == ScalarPoly.one()
    assert c.get("a†", "a") == ScalarPoly.one()
    assert c.get("a", "a").is_zero and c.get("a†", "a†").is_zero


def test_weyl_vs_normal_half(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    c = contraction_def(Ordering.weyl(), Ordering.normal(), basis, table)
    assert c.get("a", "a†") == HALF
    assert c.get("a†", "a") == HALF


def test_same_ordering_vanishes(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    c = contraction_def(Ordering.normal(), Ordering.normal(), basis, table)
    assert c.is_zero()


def test_agarwal_wolf_chain(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    N, A, W = Ordering.normal(), Ordering.antinormal(), Ordering.weyl()
    wn = contraction_def(W, N, basis, table)
    aw = contraction_def(A, W, basis, table)
    an = contraction_def(A, N, basis, table)
    for pair in [("a", "a†"), ("a†", "a")]:
        assert wn.get(*pair) == HALF
        assert aw.get(*pair) == HALF
        assert an.get(*pair) == ScalarPoly.one()


def test_quadrature_contraction(quadrature_basis):
    q, p, basis, table = quadrature_basis
    qp = Ordering.explicit("qp", ["q", "p"])
    c = contraction_def(qp, Ordering.normal(), basis, table)
    # i*s**2, which is i/2 at s**2 = 1/2
    s = ScalarPoly.symbol("s")
    assert c.get("q", "p") == ScalarPoly.i() * s**2
    # equals half the commutator [q, p]
    comm = canonical_reduce(
        basis.expand_word((q, p)) - basis.expand_word((p, q)), table
    ).scalar_part()
    assert c.get("q", "p") * 2 == comm
    assert c.get("p", "q") == c.get("q", "p")


def test_dyson_like_unsigned_ordering_on_fermions_rejected(fermion_timed):
    (c1, c1d, c2, c2d), table = fermion_timed
    basis = BasisChange.identity([c1, c1d, c2, c2d])
    dyson = Ordering.time_descending(signature=1, name="dyson")
    with pytest.raises(NotCNumber):
        contraction_def(dyson, Ordering.normal(signature=-1), basis, table)


def test_theta_matches_def_fermionic(fermion_timed):
    (c1, c1d, c2, c2d), table = fermion_timed
    basis = BasisChange.identity([c1, c1d, c2, c2d])
    T = Ordering.time_descending()
    N = Ordering.normal(signature=-1)
    via_def = contraction_def(T, N, basis, table)
    via_theta = contraction_theta(T, N, basis, table)
    assert via_def.entries == via_theta.entries
    # annihilator of mode 1 is later than its creator: contraction 1
    assert via_def.get("c1", "c1†") == ScalarPoly.one()
    # creator of mode 2 is later: both orderings agree, contraction 0
    assert via_def.get("c2", "c2†").is_zero


def test_theta_diagonal_boson_vanishes(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    c = contraction_theta(Ordering.antinormal(), Ordering.normal(), basis, table)
    assert c.get("a", "a").is_zero
    assert c.get("a", "a†") == ScalarPoly.one()


def test_theta_requires_permutation_orderings(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    with pytest.raises(NotPermutationOrdering):
        contraction_theta(Ordering.weyl(), Ordering.normal(), basis, table)


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
    # family structure: even indices annihilator-like, odd creator-like
    syms = [OperatorSymbol(f"v{i}", FERMION, key=i, dagger=bool(i % 2)) for i in range(n)]
    entries = {}
    for i in range(n):
        for j in range(i, n):
            same_family = syms[i].dagger == syms[j].dagger
            if same_family:
                entries[(f"v{i}", f"v{j}")] = ScalarPoly.zero()
            else:
                entries[(f"v{i}", f"v{j}")] = ScalarPoly.const(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                )
    return syms, CommutationTable(syms, entries)


def test_theta_equals_def_on_random_tables():
    rng = random.Random(7091)
    checked = 0
    for trial in range(200):
        fermionic = trial % 2 == 1
        n = rng.randint(2, 4)
        if fermionic:
            syms, table = _random_fermion_setup(rng, n)
            sig = -1
        else:
            syms, table = _random_boson_setup(rng, n)
            sig = 1
        basis = BasisChange.identity(syms)
        names = [s.name for s in syms]
        r1, r2 = list(names), list(names)
        rng.shuffle(r1)
        rng.shuffle(r2)
        o = Ordering.explicit("o1", r1, signature=sig)
        op = Ordering.explicit("o2", r2, signature=sig)
        via_def = contraction_def(o, op, basis, table)
        via_theta = contraction_theta(o, op, basis, table)
        assert via_def.entries == via_theta.entries, f"trial {trial}"
        assert via_def.scaled_check_parity()
        checked += 1
    assert checked == 200


def test_tilde_identity_basis_equals_def(boson_mode):
    a, ad, table = boson_mode
    A, N = Ordering.antinormal(), Ordering.normal()
    tilde = tilde_contraction(A, N, table)
    assert tilde.get("a", "a†") == ScalarPoly.one()
    assert tilde.get("a†", "a") == ScalarPoly.one()


def test_tilde_transform_consistency(quadrature_basis):
    # L Ctilde L^T = C for the quadrature pair: the left ordering cannot
    # rank the target symbols, so the target-level matrix is solved from the
    # transform identity with symmetric completion
    from opwick.contractions import solve_tilde

    q, p, basis, table = quadrature_basis
    qp = Ordering.explicit("qp", ["q", "p"])
    N = Ordering.normal()
    c = contraction_def(qp, N, basis, table)
    tilde = solve_tilde(basis, c)
    transformed = transform_matrix(basis, tilde)
    for x in ["q", "p"]:
        for y in ["q", "p"]:
            assert transformed[(x, y)] == c.get(x, y)
    assert tilde.scaled_check_parity()


def test_tilde_identity_transform_trivial(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    A, N = Ordering.antinormal(), Ordering.normal()
    tilde = tilde_contraction(A, N, table)
    c = contraction_def(A, N, basis, table)
    transformed = transform_matrix(basis, tilde)
    for pair, value in transformed.items():
        assert c.get(*pair) == value


def test_scalar_contraction_implicit_example():
    # sources {f1+f2, f3}, targets {f1, f2+f3}: no explicit basis change
    # exists between them, only the implicit relation through the sum
    rng = random.Random(5)
    f = [OperatorSymbol(f"f{i}", key=i) for i in range(1, 4)]
    entries = {
        ("f1", "f2"): ScalarPoly.const(Fraction(1, 2)),
        ("f1", "f3"): ScalarPoly.const(-2),
        ("f2", "f3"): ScalarPoly.const(Fraction(3, 4)),
    }
    common = CommutationTable(f, entries)
    phi1 = OperatorSymbol("φ1", key=10)
    phi2 = OperatorSymbol("φ2", key=11)
    vphi1 = OperatorSymbol("χ1", key=20)
    vphi2 = OperatorSymbol("χ2", key=21)
    phi_basis = BasisChange(
        [phi1, phi2],
        f,
        {
            ("φ1", "f1"): ScalarPoly.one(),
            ("φ1", "f2"): ScalarPoly.one(),
            ("φ2", "f3"): ScalarPoly.one(),
        },
    )
    vphi_basis = BasisChange(
        [vphi1, vphi2],
        f,
        {
            ("χ1", "f1"): ScalarPoly.one(),
            ("χ2", "f2"): ScalarPoly.one(),
            ("χ2", "f3"): ScalarPoly.one(),
        },
    )
    o = Ordering.explicit("o", ["φ1", "φ2"])
    op = Ordering.explicit("op", ["χ2", "χ1"])
    lam = {"φ1": 1, "φ2": 1}
    lam_t = {"χ1": 1, "χ2": 1}
    got = scalar_contraction_implicit(
        lam, lam_t, o, op, phi_basis, vphi_basis, common
    )

    # independent evaluation straight from the definition
    x = (
        OperatorPoly.from_symbol(f[0])
        + OperatorPoly.from_symbol(f[1])
        + OperatorPoly.from_symbol(f[2])
    )
    lhs = phi_basis.expand_poly(
        OperatorPoly.from_word((phi1, phi1))
        + OperatorPoly.from_word((phi1, phi2))
        + OperatorPoly.from_word((phi2, phi1))
        + OperatorPoly.from_word((phi2, phi2))
    )
    # o keeps φ1 left: φ2 φ1 -> φ1 φ2
    lhs_ordered = phi_basis.expand_word((phi1, phi1)) + 2 * phi_basis.expand_word(
        (phi1, phi2)
    ) + phi_basis.expand_word((phi2, phi2))
    rhs_ordered = vphi_basis.expand_word((vphi2, vphi2)) + 2 * vphi_basis.expand_word(
        (vphi2, vphi1)
    ) + vphi_basis.expand_word((vphi1, vphi1))
    diff = canonical_reduce(lhs_ordered - rhs_ordered, common)
    assert diff.operator_part().is_zero
    assert got.value == diff.scalar_part()
    assert not got.value.is_zero


def test_scalar_contraction_same_ordering_zero():
    f = [OperatorSymbol(f"f{i}", key=i) for i in range(1, 3)]
    common = CommutationTable(f, {("f1", "f2"): ScalarPoly.one()})
    basis = BasisChange.identity(f)
    o = Ordering.explicit("o", ["f1", "f2"])
    got = scalar_contraction_implicit(
        {"f1": 1, "f2": 1}, {"f1": 1, "f2": 1}, o, o, basis, basis, common
    )
    assert got.value.is_zero


def test_scalar_contraction_explicit_case_matches_matrix(quadrature_basis):
    q, p, basis, table = quadrature_basis
    qp = Ordering.explicit("qp", ["q", "p"])
    N = Ordering.normal()
    c_matrix = contraction_def(qp, N, basis, table)
    lam = {"q": ScalarPoly.const(2), "p": ScalarPoly.const(-3)}
    s = ScalarPoly.symbol("s")
    i = ScalarPoly.i()
    lam_t = {
        "a": 2 * s - 3 * (-i) * s,
        "a†": 2 * s - 3 * i * s,
    }
    a, ad = basis.target["a"], basis.target["a†"]
    got = scalar_contraction_implicit(
        lam, lam_t, qp, N, basis, BasisChange.identity([a, ad]), table
    )
    expected = ScalarPoly.zero()
    for na, va in lam.items():
        for nb, vb in lam.items():
            expected = expected + c_matrix.get(na, nb) * va * vb
    assert got.value == expected


def test_scalar_contraction_relation_violated():
    f = [OperatorSymbol(f"f{i}", key=i) for i in range(1, 3)]
    common = CommutationTable(f, {("f1", "f2"): ScalarPoly.one()})
    basis = BasisChange.identity(f)
    o = Ordering.explicit("o", ["f1", "f2"])
    with pytest.raises(RelationViolated):
        scalar_contraction_implicit(
            {"f1": 1, "f2": 1}, {"f1": 1, "f2": 2}, o, o, basis, basis, common
        )


def test_fermion_field_contraction(fermion_timed):
    (c1, c1d, c2, c2d), table = fermion_timed
    T = Ordering.time_descending()
    N = Ordering.normal(signature=-1)
    cbar = fermion_field_contraction([c1, c2], [c1d, c2d], T, N, table)
    assert cbar[("c1", "c1†")] == ScalarPoly.one()
    assert cbar[("c2", "c2†")].is_zero
    assert cbar[("c1", "c2†")].is_zero

    # parity rule of the assembled matrix against the definitional route
    full = full_contraction_from_split([c1, c2], [c1d, c2d], cbar)
    basis = BasisChange.identity([c1, c1d, c2, c2d])
    direct = contraction_def(T, N, basis, table)
    for x in ["c1", "c1†", "c2", "c2†"]:
        for y in ["c1", "c1†", "c2", "c2†"]:
            assert full.get(x, y) == direct.get(x, y)


def test_fermion_family_axiom_violated(fermion_timed):
    (c1, c1d, c2, c2d), table = fermion_timed
    T = Ordering.time_descending()
    N = Ordering.normal(signature=-1)
    with pytest.raises(FamilyAxiomViolated):
        fermion_field_contraction([c1, c1d], [c2d], T, N, table)


def test_same_ordering_cbar_zero(fermion_timed):
    (c1, c1d, c2, c2d), table = fermion_timed
    T = Ordering.time_descending()
    cbar = fermion_field_contraction([c1, c2], [c1d, c2d], T, T, table)
    assert all(v.is_zero for v in cbar.values())
