"""Configuration loading and end-to-end command dispatch."""

import json
import os
from importlib import resources

import numpy as np
import pytest

from opwick.cli import run_command
from opwick.config import RegistryConfig, parse_scalar_value
from opwick.errors import ConfigError
from opwick.scalars import GaussianRational, ScalarPoly


def config_path(name):
    return str(resources.files("opwick") / "configs" / name)


BOSON = config_path("boson_one_mode.json")
QUAD = config_path("quadrature.json")
FERMION = config_path("fermion_timed.json")


# -- config ------------------------------------------------------------------


def test_parse_scalar_value_formats():
    assert parse_scalar_value("1/2") == ScalarPoly.const(
        GaussianRational(1, 0) / GaussianRational(2)
    )
    assert parse_scalar_value("1/2+1/3 i") == ScalarPoly.const(
        GaussianRational.from_string("1/2+1/3 i")
    )
    s = ScalarPoly.symbol("s")
    assert parse_scalar_value("2*s", {"s"}) == 2 * s
    assert parse_scalar_value("-i*s", {"s"}) == -ScalarPoly.i() * s
    assert parse_scalar_value(3) == ScalarPoly.const(3)


def test_config_loads_shipped_files():
    for path in (BOSON, QUAD, FERMION):
        cfg = RegistryConfig.load(path)
        assert len(cfg.registry) >= 2
        assert cfg.orderings


def test_config_rejects_reserved_symbol():
    with pytest.raises(ConfigError):
        RegistryConfig(
            {
                "symbols": [{"id": "i"}],
                "orderings": {},
            }
        )


def test_config_rejects_inexact_float_value():
    with pytest.raises(ConfigError):
        RegistryConfig(
            {
                "symbols": [
                    {"id": "a"},
                    {"id": "a†", "dagger": True},
                ],
                "brackets": [{"pair": ["a", "a†"], "value": 0.5}],
            }
        )


def test_config_parity_validation():
    with pytest.raises(ConfigError):
        RegistryConfig(
            {
                "symbols": [{"id": "a"}],
                "brackets": [{"pair": ["a", "a"], "value": "1"}],
            }
        )


def test_config_quadrature_basis_consistency():
    cfg = RegistryConfig.load(QUAD)
    basis = cfg.basis()
    assert sorted(basis.source) == ["p", "q"]
    induced = basis.induced_bracket("q", "p", cfg.table)
    s = ScalarPoly.symbol("s")
    assert induced == 2 * ScalarPoly.i() * s**2


# -- commands -------------------------------------------------------------------


def test_contract_command_single_mode():
    status, out = run_command(
        ["-c", BOSON, "--format", "json", "contract",
         "--from", "antinormal", "--to", "normal"]
    )
    assert status == 0
    doc = json.loads(out)
    entries = {tuple(e["pair"]): e["value"] for e in doc["entries"]}
    assert entries[("a", "a†")] == [{"monomial": [], "value": "1"}]
    assert entries[("a†", "a")] == [{"monomial": [], "value": "1"}]


def test_contract_command_latex():
    status, out = run_command(
        ["-c", BOSON, "--format", "latex", "contract",
         "--from", "weyl", "--to", "normal"]
    )
    assert status == 0
    assert "\\begin{array}" in out
    assert "a^\\dagger" in out


def test_reorder_command():
    status, out = run_command(
        ["-c", BOSON, "reorder", "--from", "antinormal", "--to", "normal",
         "a*a†"]
    )
    assert status == 0
    assert out == "a†*a + 1"


def test_reorder_command_fermionic():
    status, out = run_command(
        ["-c", FERMION, "reorder", "--from", "time", "--to", "normal",
         "c1*c1†"]
    )
    assert status == 0
    assert out == "-c1†*c1 + 1"


def test_verify_command_exit_status_and_counts():
    status, out = run_command(
        ["-c", FERMION, "--format", "json", "verify",
         "--from", "time", "--to", "normal", "--max-len", "4"]
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["total"] == 1 + 4 + 16 + 64 + 256


def test_verify_command_jsonl():
    status, out = run_command(
        ["-c", BOSON, "verify", "--from", "antinormal", "--to", "normal",
         "--max-len", "2", "--jsonl"]
    )
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(json.loads(line)["passed"] for line in lines)


def test_numeric_command():
    status, out = run_command(
        ["-c", BOSON, "--format", "json", "numeric", "--trunc", "20",
         "--block", "10", "a*a†", "a†*a + 1"]
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["max_abs_difference"] <= 1e-12


def test_numeric_command_quadrature():
    status, out = run_command(
        ["-c", QUAD, "--format", "json", "numeric", "--trunc", "24",
         "--block", "10", "q*p - p*q", "i"]
    )
    assert status == 0
    assert json.loads(out)["max_abs_difference"] <= 1e-12


def test_quadratic_command(tmp_path):
    d_file = tmp_path / "D.json"
    d_file.write_text(json.dumps({"D": [[-0.8, 0.0], [0.0, -0.5]]}))
    status, out = run_command(
        ["-c", QUAD, "--format", "json", "quadratic", "--D", str(d_file),
         "--from", "qp", "--to", "normal"]
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["symbols"] == ["q", "p"]
    d_prime = np.array([[complex(re, im) for re, im in row] for row in doc["d_prime"]])
    d = np.diag([-0.8, -0.5]).astype(complex)
    c = np.array([[0.5, 0.5j], [0.5j, 0.5]])
    want = np.linalg.inv(np.linalg.inv(d) - c)
    assert np.allclose(d_prime, want)


def test_squeeze_command():
    status, out = run_command(
        ["--format", "json", "-c", BOSON, "squeeze", "--g", "0.2",
         "--trunc", "12", "--block", "5"]
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["pipeline_vs_reference"] <= 1e-8
    assert doc["printed_vs_reference"] > doc["pipeline_vs_reference"]


def test_error_is_machine_readable():
    status, out = run_command(
        ["-c", BOSON, "reorder", "--from", "antinormal", "--to", "normal",
         "a*zz"]
    )
    assert status == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "UnknownSymbol"


def test_config_from_environment(monkeypatch):
    monkeypatch.setenv("GWT_CONFIG", BOSON)
    status, out = run_command(
        ["reorder", "--from", "antinormal", "--to", "normal", "a*a†"]
    )
    assert status == 0
    assert out == "a†*a + 1"


def test_missing_config_is_reported():
    old = os.environ.pop("GWT_CONFIG", None)
    try:
        status, out = run_command(
            ["reorder", "--from", "antinormal", "--to", "normal", "a"]
        )
        assert status == 1
        assert json.loads(out)["error"]["type"] == "ConfigError"
    finally:
        if old is not None:
            os.environ["GWT_CONFIG"] = old


# -- malformed input ------------------------------------------------------------


def _edited(tmp_path, name, edit):
    with open(config_path(name), encoding="utf-8") as fh:
        document = json.load(fh)
    edit(document)
    path = tmp_path / f"edited_{name}"
    path.write_text(json.dumps(document, ensure_ascii=False), encoding="utf-8")
    return str(path)


def _reorder(path, o, expression):
    return ["-c", path, "reorder", "--from", o, "--to", "normal", expression]


def _numeric(path):
    return ["-c", path, "numeric", "--block", "5", "a*a†", "a†*a + 1"]


def _quadratic(tmp_path, d_text=None):
    d_file = tmp_path / "D.json"
    if d_text is not None:
        d_file.write_text(d_text, encoding="utf-8")
    return ["-c", QUAD, "quadratic", "--D", str(d_file), "--from", "qp",
            "--to", "normal"]


def _quadrature_entry(key):
    return lambda doc: doc["basis_changes"]["quadrature"]["entries"][0].pop(key)


def _timed_symbol(value):
    def edit(doc):
        doc["symbols"][0] = value
    return edit


def _boson_mode(edit):
    return lambda doc: edit(doc["modes"]["bosonic"][0])


MALFORMED = {
    "basis_entry_without_row": lambda tmp: _reorder(
        _edited(tmp, "quadrature.json", _quadrature_entry("row")), "qp", "q*p"),
    "basis_entry_without_col": lambda tmp: _reorder(
        _edited(tmp, "quadrature.json", _quadrature_entry("col")), "qp", "q*p"),
    "mode_without_name": lambda tmp: _numeric(
        _edited(tmp, "boson_one_mode.json", _boson_mode(lambda m: m.pop("name")))),
    "truncation_not_a_number": lambda tmp: _numeric(
        _edited(tmp, "boson_one_mode.json",
                _boson_mode(lambda m: m.update(truncation="x")))),
    "symbol_key_not_a_number": lambda tmp: _reorder(
        _edited(tmp, "fermion_timed.json",
                _timed_symbol({"id": "c1", "statistics": "fermion", "key": "1/x"})),
        "time", "c1*c1†"),
    "symbol_key_zero_denominator": lambda tmp: _reorder(
        _edited(tmp, "fermion_timed.json",
                _timed_symbol({"id": "c1", "statistics": "fermion", "key": "1/0"})),
        "time", "c1*c1†"),
    "symbol_entry_is_a_string": lambda tmp: _reorder(
        _edited(tmp, "fermion_timed.json", _timed_symbol("c1")), "time", "c1*c1†"),
    "config_missing": lambda tmp: _reorder(str(tmp / "absent.json"), "weyl", "a"),
    "config_is_a_directory": lambda tmp: _reorder(str(tmp), "weyl", "a"),
    "covariance_missing": lambda tmp: _quadratic(tmp),
    "covariance_without_D": lambda tmp: _quadratic(tmp, '{"C": [[1, 0], [0, 1]]}'),
    "covariance_not_numeric": lambda tmp: _quadratic(
        tmp, '{"D": [["x", 0], [0, -0.5]]}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_typed_config_error(case, tmp_path):
    status, out = run_command(MALFORMED[case](tmp_path))
    assert status == 1
    assert json.loads(out)["error"]["type"] == "ConfigError"


# -- out-of-range numeric requests ------------------------------------------------

# Each request is refused with the typed error before any matrix is built
# (dimension caps) or before a vacuous result is printed (an empty block, a
# squeeze at a parameter outside the pipeline's range).
OUT_OF_RANGE = {
    "numeric_dimension_over_cap": (
        ["numeric", "--trunc", "100000", "--block", "3", "a", "a"],
        "DimensionTooLarge"),
    "squeeze_dimension_over_cap": (
        ["squeeze", "--g", "0.3", "--trunc", "3000"], "DimensionTooLarge"),
    "numeric_negative_block": (
        ["numeric", "--block", "-1", "a*a†", "a†*a"], "ParameterOutOfRange"),
    "squeeze_negative_block": (
        ["squeeze", "--g", "0.3", "--trunc", "12", "--block", "-5"],
        "ParameterOutOfRange"),
    "squeeze_negative_g": (
        ["squeeze", "--g", "-1", "--trunc", "12"], "ParameterOutOfRange"),
    "squeeze_nan_g": (
        ["squeeze", "--g", "nan", "--trunc", "12"], "ParameterOutOfRange"),
    "squeeze_infinite_g": (
        ["squeeze", "--g", "inf", "--trunc", "12"], "ParameterOutOfRange"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_request_is_a_typed_error(case):
    argv, error_type = OUT_OF_RANGE[case]
    status, out = run_command(["-c", BOSON] + argv)
    assert status == 1
    assert json.loads(out)["error"]["type"] == error_type


def test_squeeze_rejects_negative_block_before_running(monkeypatch):
    def pipeline(g, truncation):
        raise AssertionError("the pipeline ran for a refused request")

    monkeypatch.setattr("opwick.gaussian.squeeze_normal_form", pipeline)
    status, out = run_command(
        ["-c", BOSON, "squeeze", "--g", "0.3", "--trunc", "30", "--block", "-5"])
    assert status == 1
    assert json.loads(out)["error"]["type"] == "ParameterOutOfRange"


# -- work caps ------------------------------------------------------------------

# Each request is refused from its size alone: the guards below fail the test
# if the sweep's contraction or the series' first power is ever formed.
REFUSED_WORK = {
    "verify_negative_max_len": ["verify", "--from", "weyl", "--to", "normal",
                                "--max-len", "-1"],
    "verify_too_many_words": ["verify", "--from", "weyl", "--to", "normal",
                              "--max-len", "20"],
    "exp_degree_too_high": ["reorder", "--from", "weyl", "--to", "normal",
                            "exp(a + a†; 12)"],
    "exp_degree_of_one_term_too_high": ["reorder", "--from", "weyl", "--to",
                                        "normal", "exp(a; 5000)"],
}


@pytest.mark.parametrize("case", sorted(REFUSED_WORK))
def test_oversized_request_is_refused_before_any_work(case, monkeypatch):
    def guard(*args, **kwargs):
        raise AssertionError("work started for a refused request")

    monkeypatch.setattr("opwick.oracle.contraction_def", guard)
    monkeypatch.setattr("opwick.algebra.OperatorPoly.__mul__", guard)
    status, out = run_command(["-c", BOSON] + REFUSED_WORK[case])
    assert status == 1
    assert json.loads(out)["error"]["type"] == "ParameterOutOfRange"
