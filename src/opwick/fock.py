"""Truncated matrix representations of bosonic modes and exact fermionic
modes, used as the floating-point oracle for the symbolic engine.

Bosonic modes get the standard ladder matrices on a finite occupation
cutoff; fermionic modes are exact on dimension ``2**n`` with graded tensor
signs (a parity string over the fermionic factors to the left).

Every ladder matrix sends each basis state to at most one basis state, a
fixed distance away in the flattened basis: lowering a mode subtracts its
stride, raising adds it.  A ``LadderMap`` therefore holds ladders, words of
ladders and their linear combinations as shifted diagonals, one weight array
per shift: weight ``sqrt(n)`` for bosons, the parity sign for fermions, and
zero where a state has no image.  A word product shifts one weight array
and multiplies it into the next, O(dim) per factor, and a multi-term symbol
recipe multiplies out distributively, paths with equal shifts summed entry by
entry as a dense product sums them (rounding each product, where BLAS may
fuse a multiply into the sum).  ``represent`` scatters each term once into the
dense ``MatrixRep`` it returns; dense matrices are otherwise built only for
callers that ask for one (``ModeRegistry.lowering``, ``LadderMap.dense``),
and ``matexp`` is the one dense matrix function.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import (
    DimensionTooLarge,
    ParameterOutOfRange,
    RegistryMismatch,
    TruncationTooSmall,
    UnmappedSymbol,
)
from .algebra import FERMION, OperatorPoly, OperatorSymbol
from .scalars import GaussianRational, NumericContext, ScalarPoly

__all__ = [
    "ModeRegistry",
    "LadderMap",
    "MatrixRep",
    "represent",
    "represent_exact",
    "matexp",
    "block_compare",
    "occupation_mask",
]

MAX_DENSE_DIM = 2000


def check_dense_dimension(dim: int) -> int:
    """Return ``dim``, or raise ``DimensionTooLarge`` above the dense cap.

    Called before anything of size ``dim`` is allocated.
    """
    if dim > MAX_DENSE_DIM:
        raise DimensionTooLarge(
            f"dimension {dim} exceeds the dense cap {MAX_DENSE_DIM}"
        )
    return dim


def _shifted(weights: np.ndarray, shift: int) -> np.ndarray:
    """``weights[j + shift]`` for every state ``j``; zero past the basis."""
    if shift == 0:
        return weights
    out = np.zeros_like(weights)
    if shift > 0:
        out[:-shift] = weights[shift:]
    else:
        out[-shift:] = weights[:shift]
    return out


class LadderMap:
    """Matrix held as shifted diagonals: ``M[j + s, j] = diagonals[s][j]``.

    A ladder operator or a word of them has one diagonal; a sum of ladders
    or words has one per distinct shift.  Diagonals whose shift leaves the
    basis are dropped, so powers of a nilpotent word end in the empty map.
    """

    __slots__ = ("dim", "diagonals")

    def __init__(self, dim: int, diagonals: dict):
        self.dim = dim
        self.diagonals = diagonals

    @classmethod
    def diagonal(cls, weights) -> "LadderMap":
        """The diagonal matrix with the given entries."""
        weights = np.asarray(weights)
        return cls(len(weights), {0: weights})

    def __add__(self, other: "LadderMap") -> "LadderMap":
        out = dict(self.diagonals)
        for shift, weights in other.diagonals.items():
            out[shift] = out[shift] + weights if shift in out else weights
        return LadderMap(self.dim, out)

    def __sub__(self, other: "LadderMap") -> "LadderMap":
        return self + (-1) * other

    def __mul__(self, scalar) -> "LadderMap":
        return LadderMap(
            self.dim, {s: scalar * w for s, w in self.diagonals.items()}
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "LadderMap") -> "LadderMap":
        """Product: ``other`` sends ``j`` to ``j + t``, then ``self`` by ``s``."""
        out = {}
        for t, right in other.diagonals.items():
            for s, left in self.diagonals.items():
                shift = s + t
                if abs(shift) >= self.dim:
                    continue
                weights = _shifted(left, t) * right
                out[shift] = out[shift] + weights if shift in out else weights
        return LadderMap(self.dim, out)

    def add_to(self, out: np.ndarray, coeff=1.0) -> np.ndarray:
        """Add ``coeff`` times this map to the dense C-ordered ``out``."""
        dim = self.dim
        flat = out.reshape(-1)
        for shift, weights in self.diagonals.items():
            # entry (j + shift, j) sits at flat index j * (dim + 1) + shift * dim
            first = max(0, -shift)
            count = dim - abs(shift)
            start = (first + shift) * dim + first
            flat[start:start + count * (dim + 1):dim + 1] += (
                weights[first:first + count] * coeff
            )
        return out

    def dense(self) -> np.ndarray:
        return self.add_to(np.zeros((self.dim, self.dim), dtype=complex))


class ModeRegistry:
    """Modes with truncation data plus the symbol-to-generator map.

    Modes are laid out in insertion order, the last mode varying fastest;
    fermionic parity strings run over the fermionic modes to the left of the
    acted-on mode only (bosonic and fermionic sectors commute).
    """

    def __init__(self):
        self.modes = []  # (name, kind, dim)
        self._symbol_map = {}
        self._ladders = {}
        self._lowering = {}

    # -- mode construction -------------------------------------------------
    def add_boson(self, name: str, truncation: int) -> "ModeRegistry":
        if truncation < 2:
            raise TruncationTooSmall(f"truncation {truncation} below 2")
        self.modes.append((name, "boson", truncation))
        self._ladders.clear()
        self._lowering.clear()
        return self

    def add_fermion(self, name: str) -> "ModeRegistry":
        self.modes.append((name, FERMION, 2))
        self._ladders.clear()
        self._lowering.clear()
        return self

    @property
    def dimension(self) -> int:
        dim = 1
        for _, _, d in self.modes:
            dim *= d
        return dim

    def occupations(self) -> np.ndarray:
        """Total occupation of each basis state (bosons + fermion bits)."""
        occ = np.zeros(1)
        for _, _, d in self.modes:
            local = np.arange(d)
            occ = (occ[:, None] + local[None, :]).reshape(-1)
        return occ

    # -- elementary generators ------------------------------------------------
    def _mode_index(self, name):
        for i, (n, _, _) in enumerate(self.modes):
            if n == name:
                return i
        raise UnmappedSymbol(f"unknown mode {name!r}")

    def ladder(self, mode_name: str, kind: str) -> LadderMap:
        """Lowering (``kind == "lower"``) or raising map of the mode.

        Built from occupation arithmetic: the state with occupation ``n`` of
        the mode goes to occupation ``n - 1`` with weight ``sqrt(n)`` or to
        ``n + 1`` with weight ``sqrt(n + 1)`` below the cutoff; a fermionic
        mode also takes the parity of the fermionic modes to its left.
        """
        key = (mode_name, kind)
        if key in self._ladders:
            return self._ladders[key]
        idx = self._mode_index(mode_name)
        _, mode_kind, cutoff = self.modes[idx]
        states = np.arange(check_dense_dimension(self.dimension))
        stride = len(states)
        parity = np.zeros(len(states), dtype=int)
        for _, left_kind, d in self.modes[:idx]:
            stride //= d
            if left_kind == FERMION:
                parity += (states // stride) % d
        stride //= cutoff
        occupation = (states // stride) % cutoff
        sign = 1.0 - 2.0 * (parity % 2) if mode_kind == FERMION else 1.0
        if kind == "lower":
            weights = np.sqrt(occupation.astype(float))
            shift = -stride
        else:
            weights = np.where(occupation + 1 < cutoff,
                               np.sqrt(occupation + 1.0), 0.0)
            shift = stride
        out = LadderMap(len(states), {shift: sign * weights})
        self._ladders[key] = out
        return out

    def lowering(self, mode_name: str) -> np.ndarray:
        """Dense annihilation matrix of the mode, with fermionic parity string;
        cached, and read-only so that no caller can edit what others get."""
        if mode_name not in self._lowering:
            dense = self.ladder(mode_name, "lower").dense()
            dense.setflags(write=False)
            self._lowering[mode_name] = dense
        return self._lowering[mode_name]

    # -- symbol mapping ----------------------------------------------------------
    def map_symbol(self, symbol, expr) -> "ModeRegistry":
        """Attach a matrix recipe to an operator symbol.

        ``expr`` is a list of (coefficient, mode_name, kind) triples with
        kind ``lower`` or ``raise``; coefficients may be numbers or scalar
        polynomials evaluated against the numeric context at build time.
        """
        name = symbol.name if isinstance(symbol, OperatorSymbol) else symbol
        self._symbol_map[name] = list(expr)
        return self

    def map_ladder(self, symbol, mode_name: str, kind: str) -> "ModeRegistry":
        return self.map_symbol(symbol, [(1, mode_name, kind)])

    def recipe(self, name: str) -> list:
        """The (coefficient, mode_name, kind) triples mapped to a symbol."""
        if name not in self._symbol_map:
            raise UnmappedSymbol(f"operator symbol {name!r} has no matrix recipe")
        return self._symbol_map[name]

    def symbol_ladder(self, name: str, assignments) -> LadderMap:
        """The symbol's recipe with its coefficients evaluated."""
        total = LadderMap(self.dimension, {})
        for coeff, mode_name, kind in self.recipe(name):
            if isinstance(coeff, ScalarPoly):
                value = coeff.evaluate(assignments)
            else:
                value = complex(coeff)
            total = total + value * self.ladder(mode_name, kind)
        return total


class MatrixRep:
    """Dense complex matrix tied to a mode registry."""

    __slots__ = ("data", "registry")

    def __init__(self, data, registry: ModeRegistry):
        self.data = np.asarray(data, dtype=complex)
        self.registry = registry

    @property
    def dimension(self):
        return self.data.shape[0]

    def __matmul__(self, other):
        if isinstance(other, MatrixRep):
            if other.registry is not self.registry:
                raise RegistryMismatch("matrix representations from different registries")
            return MatrixRep(self.data @ other.data, self.registry)
        return MatrixRep(self.data @ other, self.registry)

    def dagger(self) -> "MatrixRep":
        return MatrixRep(self.data.conj().T, self.registry)

    def __add__(self, other):
        if isinstance(other, MatrixRep):
            if other.registry is not self.registry:
                raise RegistryMismatch("matrix representations from different registries")
            return MatrixRep(self.data + other.data, self.registry)
        return MatrixRep(self.data + other, self.registry)

    def __sub__(self, other):
        other_data = other.data if isinstance(other, MatrixRep) else other
        return MatrixRep(self.data - other_data, self.registry)

    def __mul__(self, scalar):
        return MatrixRep(self.data * scalar, self.registry)

    __rmul__ = __mul__

    def to_json_rows(self):
        return [
            [[float(z.real), float(z.imag)] for z in row] for row in self.data
        ]


def _word_maps(p, identity: LadderMap, symbol_ladder):
    """``(coefficient, ladder map)`` of each word of ``p``, multiplied out from
    ``identity``; ``symbol_ladder(name)`` is called once per symbol."""
    symbols = {}
    for word, coeff in p.terms.items():
        factor = identity
        for sym in word:
            ladder = symbols.get(sym.name)
            if ladder is None:
                ladder = symbols[sym.name] = symbol_ladder(sym.name)
            factor = factor @ ladder
        yield coeff, factor


def represent(p, registry: ModeRegistry, ctx=None) -> MatrixRep:
    """Matrix of an operator polynomial: linear, word-multiplicative.

    Every symbol must have a matrix recipe; every scalar symbol appearing in
    a coefficient must be assigned in ``ctx``.  Each word is multiplied out
    as a ladder map and added once into the dense result.
    """
    p = OperatorPoly.coerce(p)
    if isinstance(ctx, NumericContext):
        assignments = ctx.assignments
    else:
        assignments = dict(ctx or {})
    dim = check_dense_dimension(registry.dimension)
    total = np.zeros((dim, dim), dtype=complex)
    identity = LadderMap.diagonal(np.ones(dim))
    for coeff, factor in _word_maps(
        p, identity, lambda name: registry.symbol_ladder(name, assignments)
    ):
        factor.add_to(total, coeff.evaluate(assignments))
    return MatrixRep(total, registry)


def represent_exact(p, registry: ModeRegistry) -> list:
    """Exact Gaussian-rational matrix for fermion-only registries.

    Fermionic ladder maps have weights 0 and ±1, so words and polynomials
    with exact coefficients stay exact; returns a nested list of
    GaussianRational entries.
    """
    if any(kind != FERMION for _, kind, _ in registry.modes):
        raise UnmappedSymbol("exact representation requires a fermion-only registry")
    p = OperatorPoly.coerce(p)
    dim = check_dense_dimension(registry.dimension)

    def exact_ladder(name):
        total = LadderMap(dim, {})
        for coeff, mode_name, kind in registry.recipe(name):
            if isinstance(coeff, ScalarPoly):
                c = coeff.constant_value()
            elif isinstance(coeff, GaussianRational):
                c = coeff
            else:
                c = GaussianRational(Fraction(coeff))
            diagonals = registry.ladder(mode_name, kind).diagonals
            total = total + LadderMap(dim, {
                shift: np.array([c * int(w) for w in weights], dtype=object)
                for shift, weights in diagonals.items()
            })
        return total

    total = np.full((dim, dim), GaussianRational(0), dtype=object)
    identity = LadderMap.diagonal(np.full(dim, GaussianRational(1), dtype=object))
    for coeff, factor in _word_maps(p, identity, exact_ladder):
        factor.add_to(total, coeff.constant_value())
    return total.tolist()


def matexp(m: MatrixRep) -> MatrixRep:
    """Matrix exponential by scaling and squaring."""
    check_dense_dimension(m.dimension)
    return MatrixRep(scipy.linalg.expm(m.data), m.registry)


def occupation_mask(registry: ModeRegistry, max_occupation) -> np.ndarray:
    return registry.occupations() <= max_occupation


def check_block(max_occupation) -> int:
    """Return the block cutoff, or raise ``ParameterOutOfRange`` if negative.

    A negative cutoff selects no state and would compare nothing, so it is
    refused rather than reported as agreement.
    """
    if max_occupation < 0:
        raise ParameterOutOfRange(
            f"block occupation {max_occupation} is negative: the compared "
            "block would be empty"
        )
    return max_occupation


def block_compare(a: MatrixRep, b: MatrixRep, max_occupation) -> float:
    """Max abs difference on basis states with occupation up to the cutoff."""
    check_block(max_occupation)
    if a.registry is not b.registry:
        raise RegistryMismatch("matrix representations from different registries")
    mask = occupation_mask(a.registry, max_occupation)
    sub_a = a.data[np.ix_(mask, mask)]
    sub_b = b.data[np.ix_(mask, mask)]
    if sub_a.size == 0:
        return 0.0
    return float(np.max(np.abs(sub_a - sub_b)))
