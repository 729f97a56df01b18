"""Per-layer spans and counters, recorded from outside ``opwick``.

Every traced function is replaced, in each ``opwick`` module that holds a
reference to it, by a wrapper that records a span.  Modules import with
``from .algebra import canonical_reduce``, so patching only the defining
module would miss most callers.  A span's self time is its duration minus the
time covered by the spans it encloses.  Spans are folded into per-name totals
as they close rather than kept, because a run closes millions of them.

Scalar ring operations get a counting wrapper only: timing calls that last a
microsecond would distort them.  Bookkeeping a wrapper does before and after
the call (repeat tracking, dimension and arrangement counts) falls outside
every span, so it shows up only in the measured tracing overhead.
"""

from __future__ import annotations

import math
import sys
import time
import types
import weakref
from collections import Counter
from contextlib import contextmanager

from opwick import algebra, cli, config, contractions, fock, gaussian, oracle
from opwick import orderings, parsing, reorder, render, scalars

class _Span:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Accumulates span totals and counters while its patches are installed."""

    def __init__(self):
        self.spans = {}
        self.counts = Counter()
        self.maxima = {}
        self.ops = 0
        self._stack = []
        self._seen_words = weakref.WeakKeyDictionary()
        self._identity = weakref.WeakKeyDictionary()
        self._patches = self._build_patches()

    # -- recording -------------------------------------------------------------
    def _span(self, name, fn, before=None, after=None):
        rec = self.spans.setdefault(name, _Span())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = clock()
            try:
                if before is not None:
                    before(args, kwargs)
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    rec.calls += 1
                    rec.self_s += (end - start) - stack.pop()
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                if stack:
                    stack[-1] += clock() - outer

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _max(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- input properties recorded at layer boundaries ---------------------------
    def _reduce_before(self, args, kwargs):
        p = args[0] if args else kwargs["p"]
        table = args[1] if len(args) > 1 else kwargs["table"]
        ref = args[2] if len(args) > 2 else kwargs.get("ref_order")
        if ref is not None and not callable(ref):
            ref = tuple(ref)
        words = algebra.OperatorPoly.coerce(p).terms
        # Keyed weakly on the table object, not its id(), so a new table at
        # a reused address is never taken for an old one.
        seen = self._seen_words.setdefault(table, set())
        for word in words:
            key = (ref, word)
            if key in seen:
                self.counts["reduce.repeats"] += 1
            else:
                seen.add(key)
        self.counts["reduce.words_in"] += len(words)

    def _reduce_after(self, args, kwargs, result):
        self.counts["reduce.terms_out"] += len(result.terms)

    def _order_word_before(self, args, kwargs):
        o = args[0] if args else kwargs["o"]
        word = tuple(args[1] if len(args) > 1 else kwargs["word"])
        if o.kind == orderings.SYMMETRIC and len(word) > 1:
            distinct = math.factorial(len(word))
            for repeats in Counter(s.name for s in word).values():
                distinct //= math.factorial(repeats)
            self.counts["order.arrangements"] += math.factorial(len(word))
            self.counts["order.distinct"] += distinct
        else:
            self.counts["order.arrangements"] += 1
            self.counts["order.distinct"] += 1

    def _expand_before(self, args, kwargs):
        basis = args[0]
        identity = self._identity.get(basis)
        if identity is None:
            identity = self._identity[basis] = basis.is_identity
        self.counts["expand.identity"] += identity

    def _terms_after(self, key):
        def after(args, kwargs, result):
            self.counts[key] += len(result.terms)
        return after

    def _represent_before(self, args, kwargs):
        p = algebra.OperatorPoly.coerce(args[0] if args else kwargs["p"])
        registry = args[1] if len(args) > 1 else kwargs["registry"]
        dim = registry.dimension
        self._max("represent.dim", dim)
        # One complex dim x dim matrix product (8 real flops per
        # multiply-add) per factor of every word.
        factors = sum(len(word) for word in p.terms)
        self.counts["represent.flop"] += 8 * dim ** 3 * factors

    def _expm_before(self, args, kwargs):
        self._max("expm.dim", args[0].shape[0])

    # -- patching -----------------------------------------------------------------
    def _build_patches(self):
        """List (owner, attribute, original, replacement) for every hook."""
        funcs = [
            (algebra, "canonical_reduce", "algebra.canonical_reduce",
             self._reduce_before, self._reduce_after),
            (orderings, "order_word", "orderings.order_word",
             self._order_word_before, None),
            (orderings, "order_word_foreign", "orderings.order_word_foreign",
             None, None),
            (contractions, "contraction_def", "contractions.contraction_def",
             None, None),
            (reorder, "reorder_substitution", "reorder.reorder_substitution",
             None, self._terms_after("subst.terms_out")),
            (reorder, "reorder_exponential", "reorder.reorder_exponential",
             None, self._terms_after("exp.terms_out")),
            (oracle, "definitional_order", "oracle.definitional_order",
             None, None),
            (oracle, "verify_instance", "oracle.verify_instance", None, None),
            (fock, "represent", "fock.represent", self._represent_before, None),
            (fock, "block_compare", "fock.block_compare", None, None),
            (fock, "matexp", "fock.matexp", None, None),
            (gaussian, "squeeze_normal_form", "gaussian.squeeze_normal_form",
             None, None),
            (gaussian, "quadratic_identity_check",
             "gaussian.quadratic_identity_check", None, None),
            (parsing, "parse_expression", "parsing.parse_expression",
             None, None),
            (parsing, "expression_to_poly", "parsing.expression_to_poly",
             None, None),
            (cli, "build_parser", "cli.build_parser", None, None),
            (cli, "run_command", "cli.run_command", None, None),
        ]
        funcs += [
            (render, fname, "render", None, None)
            for fname in ("poly_to_text", "poly_to_json", "poly_to_latex",
                          "contraction_to_json", "contraction_to_latex")
        ]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "opwick" or name.startswith("opwick.")]
        patches = []
        for home, attr, span, before, after in funcs:
            original = getattr(home, attr)
            wrapper = self._span(span, original, before, after)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, wrapper))

        methods = [
            (scalars.ScalarPoly, ("__mul__", "__rmul__"), "scalars.poly_mul"),
            (scalars.ScalarPoly, ("__add__", "__radd__"), "scalars.poly_add"),
            (scalars.GaussianRational, ("__init__",), "scalars.gauss_new"),
            (algebra.OperatorPoly, ("__mul__",), "algebra.opoly_mul"),
        ]
        for cls, attrs, name in methods:
            for attr in attrs:
                original = cls.__dict__[attr]
                patches.append((cls, attr, original, self._counted(name, original)))
        expand = orderings.BasisChange.__dict__["expand_poly"]
        patches.append((orderings.BasisChange, "expand_poly", expand,
                        self._span("orderings.expand_poly", expand,
                                   self._expand_before)))
        load = config.RegistryConfig.__dict__["load"]
        patches.append((config.RegistryConfig, "load", load,
                        classmethod(self._span("config.load", load.__func__))))
        # gaussian calls scipy.linalg.expm through its module global ``scipy``;
        # fock's own expm call stays inside the fock.matexp span.
        expm = self._span("gaussian.expm", gaussian.scipy.linalg.expm,
                          self._expm_before)
        proxy = types.SimpleNamespace(linalg=types.SimpleNamespace(expm=expm))
        patches.append((gaussian, "scipy", gaussian.scipy, proxy))
        return patches

    @contextmanager
    def installed(self):
        """Route every hooked call through the recording wrappers."""
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------
    def layer_metrics(self, overhead_frac) -> dict:
        """Per-layer values named as in ``spec.PER_LAYER``."""
        ops = max(self.ops, 1)
        c = self.counts
        out = {}
        for name, rec in self.spans.items():
            out[f"{name}.calls"] = rec.calls / ops
            out[f"{name}.self_s"] = rec.self_s / ops
        for name in ("scalars.poly_mul", "scalars.poly_add",
                     "scalars.gauss_new", "algebra.opoly_mul"):
            out[f"{name}.calls"] = c[name] / ops
        words = c["reduce.words_in"]
        out["algebra.canonical_reduce.words_in"] = words / ops
        out["algebra.canonical_reduce.terms_out"] = c["reduce.terms_out"] / ops
        out["algebra.canonical_reduce.repeat_share"] = (
            c["reduce.repeats"] / words if words else 0.0)
        out["orderings.order_word.arrangements"] = c["order.arrangements"] / ops
        out["orderings.order_word.distinct_arrangements"] = (
            c["order.distinct"] / ops)
        expands = self.spans["orderings.expand_poly"].calls
        out["orderings.expand_poly.identity_share"] = (
            c["expand.identity"] / expands if expands else 0.0)
        out["reorder.reorder_substitution.terms_out"] = c["subst.terms_out"] / ops
        out["reorder.reorder_exponential.terms_out"] = c["exp.terms_out"] / ops
        out["fock.represent.dim_max"] = self.maxima.get("represent.dim", 0)
        out["fock.represent.gflop_computed"] = c["represent.flop"] / 1e9 / ops
        out["gaussian.expm.dim_max"] = self.maxima.get("expm.dim", 0)
        out["trace.overhead_frac"] = overhead_frac
        return out
