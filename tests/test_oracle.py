"""Brute-force definitional ordering and instance verification sweeps."""

import itertools
import json
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
    definitional_order,
    order_word,
    sweep,
    verify_instance,
)


def test_definitional_normal_pair(boson_mode):
    a, ad, _ = boson_mode
    got = definitional_order(Ordering.normal(), (a, ad))
    assert got == OperatorPoly.from_word((ad, a))


def test_definitional_already_ordered(boson_mode):
    a, ad, _ = boson_mode
    got = definitional_order(Ordering.normal(), (ad, ad, a))
    assert got == OperatorPoly.from_word((ad, ad, a))


def test_definitional_fermionic_parity():
    f = [OperatorSymbol(f"f{i}", FERMION, key=i) for i in range(3)]
    t = Ordering.time_descending()
    # (f0, f2, f1) -> (f2, f1, f0): permutation needs two transpositions
    got = definitional_order(t, (f[0], f[2], f[1]))
    assert got == OperatorPoly.from_word((f[2], f[1], f[0]), 1)
    # one inversion: sign -1
    got = definitional_order(t, (f[1], f[2]))
    assert got == OperatorPoly.from_word((f[2], f[1]), -1)


def test_definitional_agrees_with_order_word_on_random_words():
    rng = random.Random(424242)
    bos = [OperatorSymbol(f"b{i}", key=i, dagger=bool(i % 2)) for i in range(4)]
    fer = [OperatorSymbol(f"f{i}", FERMION, key=i, dagger=bool(i % 2)) for i in range(4)]
    orders = [
        Ordering.normal(),
        Ordering.antinormal(),
        Ordering.time_descending(signature=1, name="tb"),
        Ordering.weyl(),
        Ordering.normal(signature=-1),
        Ordering.time_descending(),
        Ordering.explicit("e", [s.name for s in fer], signature=-1),
    ]
    checks = 0
    for _ in range(10_000):
        o = orders[rng.randrange(len(orders))]
        fermionic = o.signature == -1 or o.rule == "explicit"
        pool = fer if fermionic else bos
        if o.kind == "symmetric":
            pool = bos
        word = tuple(pool[rng.randrange(4)] for _ in range(rng.randint(0, 4)))
        assert definitional_order(o, word) == order_word(o, word)
        checks += 1
    assert checks == 10_000


def test_verify_instance_trivial_lengths(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    A, N = Ordering.antinormal(), Ordering.normal()
    for word in [(), (a,), (ad,)]:
        rep = verify_instance(A, N, basis, table, word)
        assert rep.passed


def test_verify_instance_reports_json(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    A, N = Ordering.antinormal(), Ordering.normal()
    rep = verify_instance(A, N, basis, table, (a, ad))
    doc = json.loads(rep.to_json())
    assert doc["passed"] is True
    assert doc["word"] == ["a", "a†"]


def test_sweep_single_mode_antinormal(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    report = sweep(
        Ordering.antinormal(), Ordering.normal(), basis, table, 3, [a, ad]
    )
    assert report.total > 0 and report.failed == 0
    assert report.total == 1 + 2 + 4 + 8


def test_sweep_fermionic_timed(fermion_timed):
    (c1, c1d, c2, c2d), table = fermion_timed
    basis = BasisChange.identity([c1, c1d, c2, c2d])
    report = sweep(
        Ordering.time_descending(),
        Ordering.normal(signature=-1),
        basis,
        table,
        4,
        [c1, c1d, c2, c2d],
    )
    assert report.total > 0 and report.failed == 0
    assert report.total == 1 + 4 + 16 + 64 + 256


def test_sweep_random_rational_table_with_mixing_basis():
    rng = random.Random(90125)
    targets = [OperatorSymbol(f"v{i}", key=i) for i in range(3)]
    entries = {}
    for i in range(3):
        for j in range(i + 1, 3):
            entries[(f"v{i}", f"v{j}")] = ScalarPoly.const(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            )
    table = CommutationTable(targets, entries)
    phis = [OperatorSymbol("φ0", key=10), OperatorSymbol("φ1", key=11)]
    basis = BasisChange(
        phis,
        targets,
        {
            ("φ0", "v0"): ScalarPoly.const(Fraction(2, 3)),
            ("φ0", "v1"): ScalarPoly.one(),
            ("φ1", "v1"): ScalarPoly.const(-2),
            ("φ1", "v2"): ScalarPoly.const(Fraction(1, 2)),
        },
    )
    o = Ordering.explicit("o", ["φ0", "φ1"])
    op = Ordering.explicit("op", ["v2", "v0", "v1"])
    report = sweep(o, op, basis, table, 5, phis)
    assert report.total > 0 and report.failed == 0
    assert report.total == 1 + 2 + 4 + 8 + 16 + 32


def test_sweep_collects_json_lines(boson_mode):
    a, ad, table = boson_mode
    basis = BasisChange.identity([a, ad])
    lines = []
    report = sweep(
        Ordering.antinormal(),
        Ordering.normal(),
        basis,
        table,
        2,
        [a, ad],
        sink=lambda rep: lines.append(rep.to_json()),
    )
    assert len(lines) == report.total
    for line in lines:
        assert json.loads(line)["passed"] is True


def test_oracle_independence_is_behavioral(boson_mode):
    # definitional_order enumerates permutations; order_word sorts; both
    # must nevertheless agree identically (10^4 random words covered above).
    # Spot-check that the oracle module does not call the orderings sorter.
    import inspect

    import opwick.oracle as oracle_mod

    src = inspect.getsource(oracle_mod.definitional_order)
    assert "order_word" not in src
    assert "sorted(" not in src
