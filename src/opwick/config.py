"""Registry configuration: one JSON document describing symbols, brackets,
orderings, basis changes, numeric assignments, and Fock mode layouts.

Exact rationals are serialized as strings (``"p/q"``, ``"p/q+r/s i"``) so no
floats contaminate the exact core; general scalar values may also be
expressions in declared scalar symbols (``"2*s"``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from fractions import Fraction

from .errors import ConfigError, SymbolNotInBasis
from .algebra import (
    BOSON,
    FERMION,
    CommutationTable,
    OperatorSymbol,
    SymbolRegistry,
)
from .orderings import BasisChange, Ordering
from .parsing import RegistryView, expression_to_poly, parse_expression
from .scalars import GaussianRational, NumericContext, ScalarPoly

__all__ = ["RegistryConfig", "parse_scalar_value", "read_json"]

_RESERVED = {"i", "comm", "acomm", "exp"}

# What reading a malformed document raises: a missing key, a value of the
# wrong type or form, a zero denominator, or a basis row or column outside
# the basis's symbols.
_MALFORMED = (
    KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError,
    SymbolNotInBasis,
)


def read_json(path):
    """Parse the JSON file at ``path``; a file that cannot be read or parsed
    raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        # JSONDecodeError, or UnicodeDecodeError for a file that is not text
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


@contextmanager
def _section(name):
    """Report a malformed ``name`` section of the document as a ConfigError."""
    try:
        yield
    except _MALFORMED as exc:
        raise ConfigError(
            f"malformed {name!r} section: {type(exc).__name__}: {exc}"
        ) from None


class _ScalarOnlyConfig:
    """Evaluation shim for scalar-valued config expressions."""

    def operator_symbol(self, name):
        return None

    def ordering(self, name):
        raise ConfigError(f"orderings are not allowed in scalar values ({name})")


def parse_scalar_value(text, scalar_names=()) -> ScalarPoly:
    """Parse a config scalar: rational string or expression in scalar symbols."""
    if isinstance(text, (int,)):
        return ScalarPoly.const(text)
    if isinstance(text, float):
        if text != int(text):
            raise ConfigError(
                f"float {text} is not exact; write it as a rational string"
            )
        return ScalarPoly.const(int(text))
    text = str(text)
    try:
        return ScalarPoly.const(GaussianRational.from_string(text))
    except (ValueError, ZeroDivisionError):
        pass
    view = RegistryView(operators={}, scalars=scalar_names, orderings={})
    ast = parse_expression(text, view)
    poly = expression_to_poly(ast, _ScalarOnlyConfig())
    return poly.scalar_part()


def _parse_key(value) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError("symbol key must be a number or rational string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**9)
    if isinstance(value, str):
        return Fraction(value)
    raise ConfigError(f"cannot read ordering key {value!r}")


def _parse_numeric(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    if isinstance(value, str):
        return complex(value.replace(" ", "").replace("i", "j"))
    raise ConfigError(f"cannot read numeric assignment {value!r}")


class RegistryConfig:
    """Validated configuration: symbols, table, orderings, bases, numerics."""

    def __init__(self, document: dict):
        if not isinstance(document, dict):
            raise ConfigError("configuration must be a JSON object")
        self.document = document
        with _section("scalar_symbols"):
            self.scalar_names = self._load_scalars(
                document.get("scalar_symbols", [])
            )
        with _section("symbols"):
            self.registry = self._load_symbols(document.get("symbols", []))
        with _section("brackets"):
            self.table = self._load_table(document)
        with _section("orderings"):
            self.orderings = self._load_orderings(document.get("orderings", {}))
        with _section("basis_changes"):
            self.bases = self._load_bases(document.get("basis_changes", {}))
            default = self.default_basis_name = document.get("default_basis")
            if default and default not in self.bases:
                raise ConfigError(f"default_basis {default!r} is not defined")
        with _section("numeric"):
            self.numeric = {
                name: _parse_numeric(value)
                for name, value in document.get("numeric", {}).items()
            }
        self.modes_spec = document.get("modes", {})
        self.represent_spec = document.get("represent", {})

    # -- loaders -----------------------------------------------------------
    @classmethod
    def load(cls, path) -> "RegistryConfig":
        return cls(read_json(path))

    @classmethod
    def from_env_or_path(cls, path=None) -> "RegistryConfig":
        path = path or os.environ.get("GWT_CONFIG")
        if not path:
            raise ConfigError(
                "no configuration: pass --config or set GWT_CONFIG"
            )
        return cls.load(path)

    def _load_scalars(self, entries):
        names = set()
        for entry in entries:
            name = entry if isinstance(entry, str) else entry.get("name")
            if not name:
                raise ConfigError("scalar_symbols entries need a name")
            if name in _RESERVED:
                raise ConfigError(f"scalar name {name!r} is reserved")
            names.add(name)
        return names

    def _load_symbols(self, entries):
        registry = SymbolRegistry()
        if not entries:
            raise ConfigError("configuration declares no operator symbols")
        for entry in entries:
            sym_id = entry.get("id")
            if not sym_id:
                raise ConfigError("symbol entries need an id")
            if sym_id in _RESERVED:
                raise ConfigError(f"symbol id {sym_id!r} is reserved")
            if sym_id in self.scalar_names:
                raise ConfigError(
                    f"symbol id {sym_id!r} collides with a scalar symbol"
                )
            statistics = entry.get("statistics", BOSON)
            if statistics not in (BOSON, FERMION):
                raise ConfigError(f"unknown statistics {statistics!r}")
            dagger = bool(entry.get("dagger", sym_id.endswith("†")))
            key = _parse_key(entry.get("key", 0))
            registry.add(OperatorSymbol(sym_id, statistics, key, dagger))
        return registry

    def _load_table(self, document):
        entries = {}
        for item in document.get("brackets", []):
            pair = item.get("pair")
            if not pair or len(pair) != 2:
                raise ConfigError("bracket entries need a two-element pair")
            value = parse_scalar_value(item.get("value", "0"), self.scalar_names)
            entries[(pair[0], pair[1])] = value
        return CommutationTable(self.registry, entries, document.get("mixed_rule"))

    def _load_orderings(self, entries):
        orderings = {}
        for name, spec in entries.items():
            kind = spec.get("kind", "permutation")
            if kind == "symmetric":
                orderings[name] = Ordering(name, "symmetric")
                continue
            rule = spec.get("rule", "normal")
            signature = int(spec.get("signature", 1))
            ranking = tuple(spec.get("ranking", ()))
            if rule == "explicit":
                for sym in ranking:
                    if sym not in self.registry:
                        raise ConfigError(
                            f"ordering {name!r} ranks unknown symbol {sym!r}"
                        )
            orderings[name] = Ordering(name, kind, rule, ranking, signature)
        return orderings

    def _load_bases(self, entries):
        bases = {}
        for name, spec in entries.items():
            source = [self.registry[s] for s in spec.get("source", [])]
            target = [self.registry[s] for s in spec.get("target", [])]
            table = {}
            for item in spec.get("entries", []):
                value = parse_scalar_value(item.get("value", "0"), self.scalar_names)
                table[(item["row"], item["col"])] = value
            bases[name] = BasisChange(source, target, table)
        return bases

    # -- accessors ------------------------------------------------------------
    def operator_symbol(self, name):
        return self.registry[name] if name in self.registry else None

    def ordering(self, name) -> Ordering:
        try:
            return self.orderings[name]
        except KeyError:
            raise ConfigError(f"unknown ordering {name!r}") from None

    def basis(self, name=None) -> BasisChange:
        if name:
            try:
                return self.bases[name]
            except KeyError:
                raise ConfigError(f"unknown basis change {name!r}") from None
        if self.default_basis_name:
            return self.bases[self.default_basis_name]
        return BasisChange.identity(list(self.registry))

    def numeric_context(self) -> NumericContext:
        return NumericContext(self.numeric)

    def parser_view(self) -> RegistryView:
        return RegistryView(
            operators={s.name: s for s in self.registry},
            scalars=self.scalar_names,
            orderings=self.orderings,
        )

    def mode_registry(self, truncation=None):
        """Build the Fock registry; None when no modes are configured."""
        from .fock import ModeRegistry

        with _section("modes"):
            bosonic = self.modes_spec.get("bosonic", [])
            fermionic = self.modes_spec.get("fermionic", [])
            if not bosonic and not fermionic:
                return None
            reg = ModeRegistry()
            for mode in bosonic:
                trunc = int(truncation if truncation is not None
                            else mode.get("truncation", 16))
                reg.add_boson(mode["name"], trunc)
            for mode in fermionic:
                name = mode if isinstance(mode, str) else mode["name"]
                reg.add_fermion(name)
        with _section("represent"):
            for sym_name, recipe in self.represent_spec.items():
                if sym_name not in self.registry:
                    raise ConfigError(
                        f"represent entry for unknown symbol {sym_name!r}"
                    )
                expr = []
                for item in recipe:
                    coeff = parse_scalar_value(
                        item.get("coeff", "1"), self.scalar_names
                    )
                    kind = item.get("kind", "lower")
                    if kind not in ("lower", "raise"):
                        raise ConfigError(f"unknown ladder kind {kind!r}")
                    expr.append((coeff, item["mode"], kind))
                reg.map_symbol(sym_name, expr)
        return reg
