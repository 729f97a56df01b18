"""The benchmark workloads: inputs from a seed, tasks, and output checks.

A workload is built once from its seed (the set-up) and then hands out
rounds.  A round is a list of tasks whose inputs depend only on the seed and
the round index, so the traced run can replay a round untraced and traced and
compare the two.  Every round of a workload does the same kinds and amounts
of work; the seed changes the inputs and their order, not the mix.
``round_seconds`` is how long one round takes on the 2-core reference
machine; a run of S seconds does round(S / round_seconds) rounds, so every
commit measured does the same work and its percentiles rank the same
samples.

A task runs the program inside ``live()``, which installs the tracer in
traced rounds, and returns one ``Op`` per operation.  Outputs are checked
afterwards, outside the timed region, by ``task.check``.  All three
workloads are closed loops with a single caller: the next operation starts
when the previous one has returned.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass

import numpy as np

from opwick import cli, config, contractions, fock, gaussian, oracle, parsing
from opwick import reorder
from opwick.algebra import (
    FERMION, CommutationTable, OperatorPoly, OperatorSymbol, canonical_reduce,
)
from opwick.orderings import BasisChange, Ordering
from opwick.render import poly_to_latex
from opwick.scalars import GaussianRational, NumericContext, ScalarPoly

CONFIG_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "opwick", "configs",
)


@dataclass
class Op:
    """One operation: its latency (None if it never ran), output, error."""

    latency_s: float | None
    value: object = None
    error: str | None = None


def _call(live, fn):
    """Time one program call; an escaping exception is the op's outcome."""
    with live():
        start = time.perf_counter()
        try:
            value = fn()
        except (Exception, SystemExit) as exc:
            return Op(time.perf_counter() - start, None, type(exc).__name__)
        return Op(time.perf_counter() - start, value)


class CallTask:
    """One program call as one op, and the check of its output."""

    def __init__(self, fn, check):
        self.fn = fn
        self.check = check

    def run(self, live):
        return [_call(live, self.fn)]


def _request(argv, check):
    return CallTask(lambda: cli.run_command(argv), check)


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


# -- shared operator algebras (as in the acceptance suite) ----------------------


def _two_mode_bosons():
    return [
        OperatorSymbol("a", key=0),
        OperatorSymbol("a†", key=0, dagger=True),
        OperatorSymbol("b", key=1),
        OperatorSymbol("b†", key=1, dagger=True),
    ]


def _two_mode_table(syms):
    one, zero = ScalarPoly.one(), ScalarPoly.zero()
    return CommutationTable(syms, {
        ("a", "a†"): one, ("b", "b†"): one, ("a", "b"): zero,
        ("a", "b†"): zero, ("a†", "b"): zero, ("a†", "b†"): zero,
    })


def _quadrature():
    a = OperatorSymbol("a")
    ad = OperatorSymbol("a†", dagger=True)
    s, i = ScalarPoly.symbol("s"), ScalarPoly.i()
    q, p = OperatorSymbol("q"), OperatorSymbol("p")
    basis = BasisChange(
        [q, p], [a, ad],
        {("q", "a"): s, ("q", "a†"): s, ("p", "a"): -i * s, ("p", "a†"): i * s},
    )
    return [q, p], [a, ad], basis


def _quadrature_table(target):
    return CommutationTable(target, {("a", "a†"): ScalarPoly.one()})


def _timed_fermions():
    return [
        OperatorSymbol("c1", FERMION, key=4),
        OperatorSymbol("c1†", FERMION, key=1, dagger=True),
        OperatorSymbol("c2", FERMION, key=2),
        OperatorSymbol("c2†", FERMION, key=3, dagger=True),
    ]


def _fermion_table(syms):
    one, zero = ScalarPoly.one(), ScalarPoly.zero()
    return CommutationTable(syms, {
        ("c1", "c1†"): one, ("c2", "c2†"): one, ("c1", "c2"): zero,
        ("c1", "c2†"): zero, ("c2", "c1†"): zero, ("c1†", "c2†"): zero,
    })


# -- oracle_sweep ------------------------------------------------------------------


MAX_LEN = 5


@dataclass
class _Pair:
    o: Ordering
    oprime: Ordering
    basis: BasisChange
    make_table: object
    pools: list


class SweepTask:
    """One ``opwick.sweep`` over a pool; each verified word is one op.

    The table is built fresh, so the reduce cache starts empty and fills
    within the sweep, as in one ``opwick verify`` call.  Latency is the gap
    between successive ``sink`` callbacks, which keeps any change inside
    ``sweep`` visible.
    """

    def __init__(self, pair, pool):
        self.pair = pair
        self.pool = pool
        self.expected = sum(len(pool) ** n for n in range(MAX_LEN + 1))

    def run(self, live):
        pair = self.pair
        table = pair.make_table()
        ops = []
        last = [0.0]

        def sink(report):
            now = time.perf_counter()
            ops.append(Op(now - last[0], report))
            last[0] = now

        with live():
            last[0] = time.perf_counter()
            try:
                oracle.sweep(pair.o, pair.oprime, pair.basis, table, MAX_LEN,
                             self.pool, sink=sink)
            except Exception as exc:
                ops.append(Op(time.perf_counter() - last[0], None,
                              type(exc).__name__))
        # Words the sweep never reached (it raised or stopped early) failed.
        ops.extend(Op(None, None, "unverified")
                   for _ in range(self.expected - len(ops)))
        return ops

    @staticmethod
    def check(report):
        """Triple agreement, recomputed from the three canonical forms."""
        return (report.passed
                and report.lhs == report.via_substitution
                and report.lhs == report.via_laplacian)


class OracleSweep:
    """The four acceptance-1 pairs, swept to length 5.

    Every round sweeps each two-symbol sub-pool of the two boson modes under
    antinormal->normal and Weyl->normal, and of the two fermion modes under
    time->normal (6 pools each), plus the quadrature pool under qp->normal:
    19 sweeps, 1197 verified words.  Sub-pools keep a round to a few seconds;
    sweeping all of them gives every round the same work.  The seed shuffles
    the sweep order and the enumeration order inside each pool.
    """

    name = "oracle_sweep"
    round_seconds = 4.5

    def __init__(self, seed, workdir):
        self.seed = seed
        bosons = _two_mode_bosons()
        boson_basis = BasisChange.identity(bosons)
        (q, p), quad_target, quad_basis = _quadrature()
        fermions = _timed_fermions()
        fermion_basis = BasisChange.identity(fermions)

        def pools(syms):
            return [list(c) for c in itertools.combinations(syms, 2)]

        self.pairs = [
            _Pair(Ordering.antinormal(), Ordering.normal(), boson_basis,
                  lambda: _two_mode_table(bosons), pools(bosons)),
            _Pair(Ordering.weyl(), Ordering.normal(), boson_basis,
                  lambda: _two_mode_table(bosons), pools(bosons)),
            _Pair(Ordering.explicit("qp", ["q", "p"]), Ordering.normal(),
                  quad_basis, lambda: _quadrature_table(quad_target),
                  [[q, p]]),
            _Pair(Ordering.time_descending(), Ordering.normal(signature=-1),
                  fermion_basis, lambda: _fermion_table(fermions),
                  pools(fermions)),
        ]

    def round(self, index):
        rng = _rng(self.name, self.seed, index)
        tasks = []
        for pair in self.pairs:
            for pool in pair.pools:
                pool = list(pool)
                rng.shuffle(pool)
                tasks.append(SweepTask(pair, pool))
        rng.shuffle(tasks)
        return tasks


# -- cli_mix -------------------------------------------------------------------------


def _config(name):
    return os.path.join(CONFIG_DIR, name + ".json")


# (config, from, to, expression): sums, ORDER[...] brackets and exp(...; N)
# over all four shipped configs.
REORDERS = [
    ("boson_one_mode", "weyl", "normal", "a*a†*a + a†*a*a"),
    ("boson_one_mode", "antinormal", "normal", "exp(a*a†; 3)"),
    ("boson_one_mode", "weyl", "normal", "normal[a*a†*a] + a*a"),
    ("boson_one_mode", "normal", "weyl", "a†*a*a† - 2*a"),
    ("boson_one_mode", "antinormal", "weyl", "a*a† - 1/2*a†*a"),
    ("boson_one_mode", "weyl", "antinormal", "exp(a + a†; 4)"),
    ("quadrature", "qp", "normal", "q*p*q + 2*p"),
    ("quadrature", "weyl", "normal", "exp(q + p; 3)"),
    ("quadrature", "qp", "normal", "antinormal[q*p] + s*q + i*p"),
    ("quadrature", "weyl", "normal", "q*q*p + p*p"),
    ("fermion_timed", "time", "normal", "c1*c1†*c2†*c2"),
    ("fermion_timed", "time", "normal", "c2*c1† + c1†*c2 - c1*c2†*c2"),
    ("fermion_timed", "time", "normal", "exp(c1*c2†; 2)"),
    ("fermion_three_modes", "time", "normal", "c1*c1†*c3†*c2"),
    ("fermion_three_modes", "time", "normal", "c3*c2*c1†*c3†"),
    ("fermion_three_modes", "time", "normal", "normal[c1*c1†] + c2*c3"),
]

CONTRACTS = [
    ("boson_one_mode", "weyl", "normal"),
    ("quadrature", "qp", "normal"),
    ("fermion_three_modes", "time", "normal"),
]

VERIFIES = [
    ("boson_one_mode", "weyl", "normal"),
    ("quadrature", "qp", "normal"),
    ("fermion_timed", "time", "normal"),
]
VERIFY_MAX_LEN = 2
FORMATS = ("text", "json", "latex")
# Seeded numeric identity pairs made per config at set-up; each round draws
# two of each.
NUMERIC_CHOICES = 16
NUMERIC_WORD_LEN = 3

# Tolerances pinned by the acceptance suite: 1e-8 for boson Fock checks
# (criterion 4) and 1e-12 for fermion matrices (criterion 6).
BOSON_TOL = 1e-8
FERMION_TOL = 1e-12


def _covariance(rng, negative):
    """A seeded definite 2x2 covariance in the range where the truncated
    quadratic identity holds to the acceptance-4 tolerance."""
    if negative:
        u, v = rng.uniform(0.4, 0.9), rng.uniform(0.4, 0.9)
        w = rng.uniform(-0.15, 0.15)
        return [[-u, w], [w, -v]]
    u, v = rng.uniform(0.15, 0.3), rng.uniform(0.15, 0.3)
    w = rng.uniform(-0.05, 0.05)
    return [[u, w], [w, v]]


def _decode_scalar(items):
    return ScalarPoly({
        tuple((name, exp) for name, exp in item["monomial"]):
            GaussianRational.from_string(item["value"])
        for item in items
    })


def _named_terms(poly):
    return {tuple(s.name for s in word): c for word, c in poly.terms.items()}


def _oracle_reorder(cfg, o_name, expression):
    """``O[p]`` by the oracle's definitional route, in canonical form.

    The reorder command prints the canonical form of ``O[p]`` whatever the
    target ordering, so the target does not enter the expected value.
    """
    o = cfg.ordering(o_name)
    basis = cfg.basis(None)
    poly = parsing.expression_to_poly(
        parsing.parse_expression(expression, cfg), cfg)
    ordered = OperatorPoly.zero()
    for word, coeff in poly.terms.items():
        ordered = ordered + oracle.definitional_order(o, word).scale(coeff)
    return canonical_reduce(basis.expand_poly(ordered), cfg.table)


def _oracle_contraction(cfg, o_name, oprime_name):
    """Contraction entries straight from the definition, by the oracle."""
    o, oprime = cfg.ordering(o_name), cfg.ordering(oprime_name)
    basis = cfg.basis(None)
    entries = {}
    for a in basis.source.values():
        for b in basis.source.values():
            lhs = basis.expand_poly(oracle.definitional_order(o, (a, b)))
            rhs = OperatorPoly.zero()
            expanded = basis.expand_poly(OperatorPoly.from_word((a, b)))
            for word, coeff in expanded.terms.items():
                rhs = rhs + oracle.definitional_order(oprime, word).scale(coeff)
            diff = canonical_reduce(lhs - rhs, cfg.table)
            if diff.operator_part():
                return None
            if not diff.scalar_part().is_zero:
                entries[(a.name, b.name)] = diff.scalar_part()
    return entries


class CliMix:
    """A seeded stream of ``opwick`` CLI requests over the shipped configs.

    Each round holds 36 requests: 16 reorders (text, json or latex), 3
    contracts, 3 verifies at max length 2, 4 numeric checks (boson trunc 24,
    fermion dim 8), 2 quadratic transforms of seeded covariance files and 8
    malformed requests.  Four of the malformed ones are the inputs known to
    escape ``run_command`` as tracebacks; they count as failed until the
    front end turns them into the typed JSON error.  Every request reloads
    its config, as every real CLI call does.
    """

    name = "cli_mix"
    round_seconds = 0.4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._configs = {}
        self._expected = {}
        self._verdicts = {}
        self._quadrature_fock = None
        rng = _rng(self.name, seed, "setup")
        self.format_offset = rng.randrange(len(FORMATS))
        self.boson_numeric = [
            self._numeric_pair(rng, "boson_one_mode", ["a", "a†"], 10,
                               BOSON_TOL)
            for _ in range(NUMERIC_CHOICES)]
        self.fermion_numeric = [
            self._numeric_pair(rng, "fermion_three_modes",
                               ["c1", "c1†", "c2", "c2†", "c3", "c3†"], 3,
                               FERMION_TOL)
            for _ in range(NUMERIC_CHOICES)]
        self.quadratic_files = [
            self._covariance_file(rng, "D_negative.json", negative=True),
            self._covariance_file(rng, "D_positive.json", negative=False),
        ]
        self.malformed = self._malformed_requests()

    # -- set-up: inputs -------------------------------------------------------------
    def _load(self, name):
        cfg = self._configs.get(name)
        if cfg is None:
            cfg = self._configs[name] = config.RegistryConfig.load(_config(name))
        return cfg

    def _numeric_pair(self, rng, cfg_name, names, block, tol):
        """A seeded word and its canonical form: equal as operators."""
        cfg = self._load(cfg_name)
        word = [cfg.registry[rng.choice(names)] for _ in range(NUMERIC_WORD_LEN)]
        canonical = canonical_reduce(OperatorPoly.from_word(word), cfg.table)
        lhs = "*".join(s.name for s in word)
        argv = ["--config", _config(cfg_name), "--format", "json", "numeric",
                "--block", str(block), "--", lhs, str(canonical)]
        dim = cfg.mode_registry().dimension
        return argv, dim, tol

    def _covariance_file(self, rng, filename, negative):
        matrix = _covariance(rng, negative)
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"D": matrix}, fh)
        return path, matrix

    def _write_config(self, filename, base, edit):
        with open(_config(base), encoding="utf-8") as fh:
            document = json.load(fh)
        edit(document)
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, ensure_ascii=False)
        return path

    def _malformed_requests(self):
        """(argv, expected error type) for eight malformed requests."""

        def drop_row(doc):
            del doc["basis_changes"]["quadrature"]["entries"][0]["row"]

        def drop_mode_name(doc):
            del doc["modes"]["bosonic"][0]["name"]

        def bad_key(doc):
            doc["symbols"][0]["key"] = "1/x"

        no_row = self._write_config("no_row.json", "quadrature", drop_row)
        no_name = self._write_config("no_mode_name.json", "boson_one_mode",
                                     drop_mode_name)
        key = self._write_config("bad_key.json", "fermion_timed", bad_key)
        broken = os.path.join(self.workdir, "broken.json")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        absent = os.path.join(self.workdir, "absent.json")
        boson = _config("boson_one_mode")

        def reorder_req(path, expression, o="weyl"):
            return ["--config", path, "reorder", "--from", o, "--to", "normal",
                    expression]

        return [
            # The four inputs known to escape as tracebacks.
            (reorder_req(no_row, "q*p", "qp"), "ConfigError"),
            (["--config", no_name, "numeric", "--block", "10", "a*a†",
              "a†*a + 1"], "ConfigError"),
            (reorder_req(key, "c1*c1†", "time"), "ConfigError"),
            (reorder_req(absent, "a"), "ConfigError"),
            # Malformed input the front end already reports as typed errors.
            (reorder_req(boson, "a*(a†"), "ExprSyntaxError"),
            (reorder_req(boson, "a*b"), "UnknownSymbol"),
            (reorder_req(boson, "a", "foo"), "ConfigError"),
            (reorder_req(broken, "a"), "ConfigError"),
        ]

    # -- checks ------------------------------------------------------------------------
    def _memo(self, key, compute):
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = bool(compute())
        return verdict

    def _check_reorder(self, index, fmt, value):
        status, out = value
        if status != 0:
            return False

        def compute():
            cfg_name, o_name, _, expression = REORDERS[index]
            expected = self._expected.get(index)
            if expected is None:
                expected = self._expected[index] = _oracle_reorder(
                    self._load(cfg_name), o_name, expression)
            if fmt == "json":
                doc = json.loads(out)
                got = {tuple(t["word"]): _decode_scalar(t["coeff"])
                       for t in doc["terms"]}
                return got == _named_terms(expected)
            # Canonical forms are unique and rendering sorts terms, so
            # equal operators print identically.
            if fmt == "latex":
                return out == poly_to_latex(expected)
            return out == str(expected)

        return self._memo(("reorder", index, fmt, out), compute)

    def _check_contract(self, index, value):
        status, out = value
        if status != 0:
            return False

        def compute():
            cfg_name, o_name, oprime_name = CONTRACTS[index]
            expected = _oracle_contraction(self._load(cfg_name), o_name,
                                           oprime_name)
            doc = json.loads(out)
            got = {tuple(e["pair"]): _decode_scalar(e["value"])
                   for e in doc["entries"]}
            got = {k: v for k, v in got.items() if not v.is_zero}
            return expected is not None and got == expected

        return self._memo(("contract", index, out), compute)

    def _check_verify(self, index, value):
        status, out = value
        if status != 0:
            return False
        cfg = self._load(VERIFIES[index][0])
        pool = len(cfg.basis(None).source)
        total = sum(pool ** n for n in range(VERIFY_MAX_LEN + 1))
        doc = json.loads(out)
        return doc["total"] == total == doc["passed"] and doc["failed"] == 0

    @staticmethod
    def _check_numeric(dim, tol, value):
        status, out = value
        if status != 0:
            return False
        doc = json.loads(out)
        return doc["dimension"] == dim and doc["max_abs_difference"] <= tol

    def _check_quadratic(self, index, value):
        status, out = value
        if status != 0:
            return False
        if self._quadrature_fock is None:
            self._quadrature_fock = _QuadratureFock()
        return self._memo(("quadratic", index, out), lambda: _quadratic_holds(
            self._quadrature_fock, self.quadratic_files[index][1],
            json.loads(out)))

    @staticmethod
    def _check_error(expected_type, value):
        status, out = value
        if status != 1:
            return False
        error = json.loads(out).get("error", {})
        return (error.get("type") == expected_type
                and isinstance(error.get("message"), str))

    # -- rounds ------------------------------------------------------------------------
    def round(self, index):
        rng = _rng(self.name, self.seed, index)
        tasks = []
        for i, (cfg_name, o, oprime, expression) in enumerate(REORDERS):
            # Every template cycles through the formats, so all seeds
            # render the same mix.
            fmt = FORMATS[(i + index + self.format_offset) % len(FORMATS)]
            argv = ["--config", _config(cfg_name), "--format", fmt, "reorder",
                    "--from", o, "--to", oprime, expression]
            tasks.append(_request(
                argv, lambda v, i=i, fmt=fmt: self._check_reorder(i, fmt, v)))
        for i, (cfg_name, o, oprime) in enumerate(CONTRACTS):
            argv = ["--config", _config(cfg_name), "--format", "json",
                    "contract", "--from", o, "--to", oprime]
            tasks.append(_request(argv, lambda v, i=i: self._check_contract(i, v)))
        for i, (cfg_name, o, oprime) in enumerate(VERIFIES):
            argv = ["--config", _config(cfg_name), "--format", "json", "verify",
                    "--from", o, "--to", oprime, "--max-len", str(VERIFY_MAX_LEN)]
            tasks.append(_request(argv, lambda v, i=i: self._check_verify(i, v)))
        numeric = (rng.sample(self.boson_numeric, 2)
                   + rng.sample(self.fermion_numeric, 2))
        for argv, dim, tol in numeric:
            tasks.append(_request(
                argv, lambda v, dim=dim, tol=tol: self._check_numeric(dim, tol, v)))
        for i, (path, _) in enumerate(self.quadratic_files):
            argv = ["--config", _config("quadrature"), "--format", "json",
                    "quadratic", "--D", path, "--from", "qp", "--to", "normal"]
            tasks.append(_request(argv, lambda v, i=i: self._check_quadratic(i, v)))
        for argv, expected in self.malformed:
            tasks.append(_request(
                argv, lambda v, e=expected: self._check_error(e, v)))
        rng.shuffle(tasks)
        return tasks


# -- Fock matrices shared by the quadratic checks -----------------------------------


class _QuadratureFock:
    """Trunc-60 quadrature matrices and the numeric qp->normal contraction."""

    def __init__(self, trunc=60):
        (q, p), target, basis = _quadrature()
        table = _quadrature_table(target)
        c_sym = contractions.contraction_def(
            Ordering.explicit("qp", ["q", "p"]), Ordering.normal(), basis, table)
        ctx = NumericContext({"s": 2 ** -0.5})
        self.contraction = np.array([[c_sym.get(x, y).evaluate(ctx)
                                      for y in ("q", "p")] for x in ("q", "p")])
        self.registry = fock.ModeRegistry().add_boson("m", trunc)
        lower = self.registry.lowering("m")
        raise_ = lower.conj().T
        sv = 2 ** -0.5
        self.source = (sv * (lower + raise_), -1j * sv * (lower - raise_))
        self.target = (raise_, lower)
        self.expansion = np.array([[sv, sv], [1j * sv, -1j * sv]])


def _quadratic_holds(qf, matrix, doc, max_occupation=20):
    """Check a quadratic command's D' and prefactor on trunc-60 matrices."""
    d = np.array(matrix, dtype=complex)
    d_prime = np.array([[complex(*z) for z in row] for row in doc["d_prime"]])
    prefactor = complex(*doc["prefactor"])
    lhs = gaussian.ordered_quadratic_exp_matrix(
        qf.source[0], qf.source[1], d[0, 0], d[0, 1], d[1, 1])
    d_t = qf.expansion.T @ d_prime @ qf.expansion
    rhs = prefactor * gaussian.ordered_quadratic_exp_matrix(
        qf.target[0], qf.target[1], d_t[0, 0], d_t[0, 1], d_t[1, 1])
    err = fock.block_compare(fock.MatrixRep(lhs, qf.registry),
                             fock.MatrixRep(rhs, qf.registry), max_occupation)
    return err <= BOSON_TOL


# -- fock_dense ---------------------------------------------------------------------


SQUEEZE_TRUNC = 30
SQUEEZE_TOL = 1e-6  # acceptance criterion 5
REPRESENT_TRUNC = 30
REPRESENT_PAIRS = 8
# The antinormal-ordered word whose normal form is compared at dim 900.  The
# seed maps it, pair by pair, to one of its images under swapping the modes
# and taking the adjoint; both maps keep the word lengths of the normal form,
# so every pair costs the same number of matrix products and the latency
# percentiles do not depend on the seed.
REPRESENT_WORD = ("a", "a†", "b")
_SWAP = {"a": "b", "a†": "b†", "b": "a", "b†": "a†"}
_ADJOINT = {"a": "a†", "a†": "a", "b": "b†", "b†": "b"}


class FockDense:
    """Dense numeric checks: numpy and scipy do the work.

    Each round runs one two-mode squeeze at trunc 30 and seeded ``g`` in
    [0.1, 0.5] (asserted to 1e-6), the trunc-60 quadratic identity check at
    both acceptance-4 covariances (1e-8), and ``represent`` plus
    ``block_compare`` of eight seeded antinormal->normal reorder identity
    pairs on two boson modes at trunc 30, dim 900 (1e-8).  The symbolic side
    of every pair is built during set-up.

    A run has only about twenty ops, so its highest percentile with ten
    samples above it is near the median: both latency metrics measure the
    represent pairs, and the squeeze shows in ``ops_per_s``.
    """

    name = "fock_dense"
    round_seconds = 10.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.quad = _QuadratureFock()
        syms = _two_mode_bosons()
        by_name = {s.name: s for s in syms}
        table = _two_mode_table(syms)
        basis = BasisChange.identity(syms)
        o, oprime = Ordering.antinormal(), Ordering.normal()
        c = contractions.contraction_def(o, oprime, basis, table)
        self.registry = fock.ModeRegistry()
        self.registry.add_boson("ma", REPRESENT_TRUNC)
        self.registry.add_boson("mb", REPRESENT_TRUNC)
        for sym in syms:
            mode = "ma" if sym.name.startswith("a") else "mb"
            self.registry.map_ladder(sym, mode, "raise" if sym.dagger else "lower")
        self.registry.lowering("ma")
        self.registry.lowering("mb")
        self.pairs = []
        for swap, adjoint in itertools.product((False, True), repeat=2):
            names = [_SWAP[n] if swap else n for n in REPRESENT_WORD]
            names = [_ADJOINT[n] if adjoint else n for n in names]
            word = tuple(by_name[n] for n in names)
            lhs = oracle.definitional_order(o, word)
            rhs = canonical_reduce(
                reorder.reorder_substitution(
                    o, oprime, basis, c, OperatorPoly.from_word(word)),
                table)
            self.pairs.append((lhs, rhs))

    def _squeeze(self, g):
        report = gaussian.squeeze_normal_form(g, SQUEEZE_TRUNC)
        return report.block_error("pipeline", 10)

    def _quadratic(self, covariance):
        qf = self.quad
        return gaussian.quadratic_identity_check(
            covariance, qf.contraction, qf.source, qf.target, qf.expansion,
            qf.registry, 20).max_error

    def _represent(self, lhs, rhs):
        m1 = fock.represent(lhs, self.registry)
        m2 = fock.represent(rhs, self.registry)
        return fock.block_compare(m1, m2, 10)

    def round(self, index):
        rng = _rng(self.name, self.seed, index)
        g = rng.uniform(0.1, 0.5)
        def within(tol):
            return lambda error: error <= tol

        tasks = [
            CallTask(lambda: self._squeeze(g), within(SQUEEZE_TOL)),
            CallTask(lambda: self._quadratic(-np.diag([0.8, 0.5])),
                     within(BOSON_TOL)),
            CallTask(lambda: self._quadratic(np.diag([0.3, 0.2])),
                     within(BOSON_TOL)),
        ]
        for _ in range(REPRESENT_PAIRS):
            lhs, rhs = rng.choice(self.pairs)
            tasks.append(CallTask(lambda lhs=lhs, rhs=rhs: self._represent(lhs, rhs),
                                  within(BOSON_TOL)))
        rng.shuffle(tasks)
        return tasks


WORKLOADS = {w.name: w for w in (OracleSweep, CliMix, FockDense)}


def build(name, seed, workdir):
    """Set up a workload: every input is made here from ``seed``."""
    return WORKLOADS[name](seed, workdir)
