"""Assumption contexts and sound symbolic predicates.

The descriptor transformations need to answer questions like

* is ``2**(L-1)`` integer-valued for every ``L`` in its loop range?
* is ``J * 2**(L-1) + K`` bounded by ``P/2 - 1`` over the whole nest?
* is one stride an (integer) multiple of another?

under *assumptions*: loop variables range over known (possibly symbolic)
bounds, and program parameters carry positivity / power-of-two facts.
Plain interval arithmetic is too weak here because loop ranges are
correlated (``J``'s upper bound depends on ``L``), so the workhorse is
**monotone bound substitution**: to bound an expression we eliminate loop
variables innermost-first, substituting a variable's extreme endpoint once
the expression is proven monotone in it (by symbolically differencing).

All predicates are *sound but incomplete*: ``True`` is a proof, ``False``
means "could not prove" and callers must stay conservative.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .. import memo
from .expr import (
    CeilDiv,
    Expr,
    ExprLike,
    FloorDiv,
    Max,
    Min,
    Mul,
    Num,
    Pow,
    Pow2,
    Symbol,
    ZERO,
    as_expr,
    divide_exact,
)
from .refute import refute_nonneg

__all__ = ["LoopVar", "Context"]

#: Memo bank for the is_nonneg predicate, keyed by (context
#: fingerprint, expression key).  The predicates are pure functions of
#: (assumptions, expression), so the memo is sound across Context
#: copies with equal fingerprints.
_NONNEG = memo.register("nonneg", 1 << 18)

#: Recording hooks armed by the plan compiler (:mod:`repro.plan`):
#: each is called as ``hook(ctx, ctx_fp, expr, verdict)`` for every
#: is_nonneg query — including memo hits, so a warm process still
#: records full coverage.  A *tuple* of hooks (copy-on-write under
#: ``_RECORD_LOCK``) so any number of concurrent recorders — one per
#: in-flight server request — observe every query; the common empty
#: case costs one load + falsy check per query.  (``None`` is tolerated
#: as empty for older test fixtures that reset the global directly.)
_NONNEG_RECORD: tuple = ()
_RECORD_LOCK = threading.Lock()


def _add_nonneg_record(hook) -> None:
    """Arm ``hook`` (idempotent per object identity)."""
    global _NONNEG_RECORD
    with _RECORD_LOCK:
        current = _NONNEG_RECORD or ()
        if any(h is hook for h in current):
            return
        _NONNEG_RECORD = current + (hook,)


def _remove_nonneg_record(hook) -> None:
    """Disarm ``hook``; unknown hooks are ignored."""
    global _NONNEG_RECORD
    with _RECORD_LOCK:
        _NONNEG_RECORD = tuple(
            h for h in (_NONNEG_RECORD or ()) if h is not hook
        )


@dataclass(frozen=True)
class LoopVar:
    """A loop variable with inclusive symbolic bounds ``lower..upper``.

    Bounds may reference parameters and *outer* loop variables only (the
    standard loop-nest triangularity), which makes innermost-first
    elimination terminate.
    """

    symbol: Symbol
    lower: Expr
    upper: Expr

    def __post_init__(self):
        object.__setattr__(self, "lower", as_expr(self.lower))
        object.__setattr__(self, "upper", as_expr(self.upper))


def _v2(value: Fraction) -> int:
    """2-adic valuation of a nonzero rational."""
    n, d = value.numerator, value.denominator
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    while d % 2 == 0:
        d //= 2
        k -= 1
    return k


def _odd_part(value: Fraction) -> Fraction:
    n, d = value.numerator, value.denominator
    while n % 2 == 0:
        n //= 2
    while d % 2 == 0:
        d //= 2
    return Fraction(n, d)


@dataclass
class Context:
    """Assumption set: parameter facts plus an ordered loop-variable stack.

    Parameters
    ----------
    nonneg:
        names of symbols known to be ``>= 0``.
    positive:
        names of symbols known to be ``>= 1`` (integer parameters such as
        problem sizes and the processor count ``H``).
    pow2:
        map from a parameter name to the symbol of its log-2 exponent,
        e.g. ``{"P": p}`` records the TFFT2 fact ``P == 2**p``.
    integer:
        names of symbols known to be integer-valued; loop variables and
        everything in ``positive`` are integer by construction.
    loops:
        loop variables from outermost to innermost.
    """

    nonneg: set = field(default_factory=set)
    positive: set = field(default_factory=set)
    pow2: dict = field(default_factory=dict)
    integer: set = field(default_factory=set)
    loops: list = field(default_factory=list)
    #: explicit integer lower bounds per symbol name (e.g. N >= 3);
    #: positive implies 1 and nonneg implies 0 unless overridden here.
    minimums: dict = field(default_factory=dict)
    #: optional repro.obs.Collector carried through every derived
    #: context (copies, loop contexts, shifted contexts); excluded from
    #: the fingerprint and from equality — observability must never
    #: change an answer or a cache key.
    obs: object = field(default=None, compare=False, repr=False)
    #: per-context override of the refutation layer (None = process
    #: default), threaded from AnalysisOptions.refutation.
    refutation: object = field(default=None, compare=False, repr=False)

    # -- construction ----------------------------------------------------

    def _fingerprint(self) -> tuple:
        fp = getattr(self, "_fp_cache", None)
        if fp is None:
            fp = (
                tuple(sorted(self.positive)),
                tuple(sorted(self.nonneg)),
                tuple(sorted((k, v.name) for k, v in self.pow2.items())),
                tuple(sorted(self.integer)),
                tuple(sorted(self.minimums.items())),
                tuple(
                    (lv.symbol.name, lv.lower._key(), lv.upper._key())
                    for lv in self.loops
                ),
            )
            self._fp_cache = fp
        return fp

    def _invalidate(self) -> None:
        self._fp_cache = None

    def copy(self) -> "Context":
        # getattr: contexts unpickled from pre-observability cache files
        # may lack the obs/refutation attributes.
        return Context(
            nonneg=set(self.nonneg),
            positive=set(self.positive),
            pow2=dict(self.pow2),
            integer=set(self.integer),
            loops=list(self.loops),
            minimums=dict(self.minimums),
            obs=getattr(self, "obs", None),
            refutation=getattr(self, "refutation", None),
        )

    def portable(self) -> "Context":
        """A picklable copy: no collector, no refutation knob."""
        out = self.copy()
        out.obs = out.refutation = None
        return out

    def assume_positive(self, *syms) -> "Context":
        self._invalidate()
        for s in syms:
            name = s.name if isinstance(s, Symbol) else s
            self.positive.add(name)
            self.nonneg.add(name)
            self.integer.add(name)
        return self

    def assume_nonneg(self, *syms) -> "Context":
        self._invalidate()
        for s in syms:
            name = s.name if isinstance(s, Symbol) else s
            self.nonneg.add(name)
            self.integer.add(name)
        return self

    def assume_pow2(self, param, exponent: Symbol) -> "Context":
        """Record ``param == 2**exponent`` (exponent assumed ``>= 1``)."""
        self._invalidate()
        name = param.name if isinstance(param, Symbol) else param
        self.pow2[name] = exponent
        self.positive.add(name)
        self.nonneg.add(name)
        self.integer.add(name)
        self.assume_positive(exponent)
        return self

    def assume_min(self, symbol, minimum: int) -> "Context":
        """Record ``symbol >= minimum`` (an integer lower bound)."""
        self._invalidate()
        name = symbol.name if isinstance(symbol, Symbol) else symbol
        self.minimums[name] = max(self.minimums.get(name, minimum), minimum)
        self.integer.add(name)
        if minimum >= 1:
            self.positive.add(name)
            self.nonneg.add(name)
        elif minimum >= 0:
            self.nonneg.add(name)
        return self

    def lower_bound_of(self, name: str):
        """The best known constant lower bound of a symbol, or None."""
        if name in self.minimums:
            return self.minimums[name]
        if name in self.positive:
            return 1
        if name in self.nonneg:
            return 0
        return None

    def push_loop(self, var: LoopVar) -> "Context":
        self._invalidate()
        self.loops.append(var)
        self.integer.add(var.symbol.name)
        return self

    def without_loop(self, symbol: Symbol) -> "Context":
        """A copy with one loop variable dropped (still assumed integer)."""
        out = self.copy()
        out.loops = [lv for lv in out.loops if lv.symbol != symbol]
        return out

    def loop_for(self, symbol: Symbol) -> Optional[LoopVar]:
        for lv in self.loops:
            if lv.symbol == symbol:
                return lv
        return None

    def pow2_substitution(self) -> dict:
        """Mapping that rewrites pow2 parameters as explicit ``2**e``."""
        from .expr import pow2 as _pow2

        return {name: _pow2(exp) for name, exp in self.pow2.items()}

    # -- predicates --------------------------------------------------------

    def is_nonneg(self, expr: ExprLike, _depth: int = 0) -> bool:
        """Prove ``expr >= 0`` for every assignment satisfying the context."""
        expr = as_expr(expr)
        if isinstance(expr, Num):
            return expr.value >= 0
        if _depth > 32:
            return False
        key = (self._fingerprint(), expr._key())
        obs = getattr(self, "obs", None)
        record = _NONNEG_RECORD
        cached = _NONNEG.get(key)
        if cached is not None:
            if obs is not None:
                obs.count("prover.cache_hits")
            if record:
                for hook in record:
                    hook(self, key[0], expr, cached)
            return cached
        result = self._is_nonneg_uncached(expr, _depth)
        if obs is not None and result:
            obs.count("prover.proved")
        _NONNEG.put(key, result)
        if record:
            for hook in record:
                hook(self, key[0], expr, result)
        return result

    def _is_nonneg_uncached(self, expr: Expr, _depth: int) -> bool:
        if self._terms_all_nonneg(expr):
            return True
        # Sampled refutation: a context-valid assignment with a negative
        # value settles the (sound) answer ``False`` without paying for
        # the proof search below, which is where failing queries burn
        # their time.
        if refute_nonneg(self, expr):
            obs = getattr(self, "obs", None)
            if obs is not None:
                obs.count("prover.disproved")
            return False
        # Rewrite power-of-two parameters and retry the cheap test.
        subst = self.pow2_substitution()
        if subst:
            rewritten = expr.subs(subst)
            if rewritten != expr and self._terms_all_nonneg(rewritten):
                return True
            expr = rewritten
        # Pow2 dominance: c*2**e + d >= 0 when e >= 0, c >= -d.
        if self._pow2_dominates(expr):
            return True
        # Monotone elimination of the innermost loop variable present.
        if self._eliminate_and_recurse(expr, minimize=True, depth=_depth):
            return True
        # Positive-shift: rewrite every positive symbol s (>= 1) as
        # s~ + 1 with s~ >= 0, which settles facts like ``p - 1 >= 0``.
        result = self._positive_shift_nonneg(expr, _depth)
        if not result:
            # The full proof search ran dry without a refutation witness:
            # the caller must stay conservative.
            obs = getattr(self, "obs", None)
            if obs is not None:
                obs.count("prover.fallback")
        return result

    def is_positive(self, expr: ExprLike) -> bool:
        """Prove ``expr > 0``.

        For integer-valued expressions this is ``expr - 1 >= 0``; otherwise
        we use ``expr >= epsilon`` via product structure.
        """
        expr = as_expr(expr)
        if isinstance(expr, Num):
            return expr.value > 0
        if self.is_integer_valued(expr) and self.is_nonneg(expr - 1):
            return True
        # Single term of positive factors is positive.
        terms = expr.as_terms()
        if len(terms) == 1:
            coeff, mono = expr.as_coeff_mul()
            if coeff > 0 and self._mono_all_positive(mono):
                return True
        return False

    def is_nonpos(self, expr: ExprLike) -> bool:
        return self.is_nonneg(-as_expr(expr))

    def is_le(self, a: ExprLike, b: ExprLike) -> bool:
        """Prove ``a <= b``."""
        return self.is_nonneg(as_expr(b) - as_expr(a))

    def is_lt(self, a: ExprLike, b: ExprLike) -> bool:
        """Prove ``a < b``."""
        return self.is_positive(as_expr(b) - as_expr(a))

    def is_integer_valued(self, expr: ExprLike) -> bool:
        """Prove that the expression is an integer for every assignment."""
        expr = as_expr(expr)
        if all(self._term_integer(t) for t in expr.as_terms()):
            return True
        subst = self.pow2_substitution()
        if subst:
            rewritten = expr.subs(subst)
            if rewritten != expr:
                return all(
                    self._term_integer(t) for t in rewritten.as_terms()
                )
        return False

    def is_multiple_of(self, a: ExprLike, b: ExprLike) -> bool:
        """Prove ``a`` is an integer multiple of ``b`` (b assumed nonzero).

        This is the test behind stride-coalescing's "is a multiple of
        another stride" rule; e.g. ``2**(L-1)`` is a multiple of ``1``,
        and ``2*P*Q`` is a multiple of ``2*P``.
        """
        a, b = as_expr(a), as_expr(b)
        quotient = divide_exact(a, b)
        if quotient is None:
            subst = self.pow2_substitution()
            if subst:
                quotient = divide_exact(a.subs(subst), b.subs(subst))
        if quotient is None:
            return False
        return self.is_integer_valued(quotient)

    # -- bounding ---------------------------------------------------------

    def upper_bound(self, expr: ExprLike) -> Optional[Expr]:
        """Parametric upper bound after eliminating all loop variables."""
        return self._bound(as_expr(expr), maximize=True)

    def lower_bound(self, expr: ExprLike) -> Optional[Expr]:
        """Parametric lower bound after eliminating all loop variables."""
        return self._bound(as_expr(expr), maximize=False)

    def _bound(self, expr: Expr, maximize: bool) -> Optional[Expr]:
        current = expr
        for lv in reversed(self.loops):
            if lv.symbol not in current.free_symbols():
                continue
            direction = self._monotonicity(current, lv)
            if direction is None:
                return None
            if direction == 0:
                # Constant in this variable after simplification.
                continue
            take_upper = (direction > 0) == maximize
            endpoint = lv.upper if take_upper else lv.lower
            current = current.subs({lv.symbol: endpoint})
        return current

    def _monotonicity(self, expr: Expr, lv: LoopVar) -> Optional[int]:
        """+1 nondecreasing, -1 nonincreasing, 0 constant, None unknown."""
        diff = expr.subs({lv.symbol: lv.symbol + 1}) - expr
        if diff.is_zero:
            return 0
        inner = self.without_loop(lv.symbol)
        if inner.is_nonneg(diff):
            return 1
        if inner.is_nonneg(-diff):
            return -1
        return None

    # -- internals ----------------------------------------------------------

    def _positive_shift_nonneg(self, expr: Expr, depth: int) -> bool:
        loop_names = {lv.symbol.name for lv in self.loops}
        targets = [
            s
            for s in expr.free_symbols()
            if s.name not in loop_names
            and not s.name.endswith("~")
            and (self.lower_bound_of(s.name) or 0) >= 1
        ]
        if not targets:
            return False
        shifted = self.copy()
        mapping: dict = {}
        for s in targets:
            fresh = Symbol(s.name + "~")
            mapping[s] = fresh + self.lower_bound_of(s.name)
            shifted.nonneg.add(fresh.name)
            shifted.integer.add(fresh.name)
            # do NOT mark fresh positive: that would re-shift forever
        rewritten = expr.subs(mapping)
        if rewritten == expr:
            return False
        if all(shifted._term_nonneg(t) for t in rewritten.as_terms()):
            return True
        if shifted._pow2_dominates(rewritten):
            return True
        return shifted._eliminate_and_recurse(rewritten, minimize=True, depth=depth + 1)

    def _eliminate_and_recurse(self, expr: Expr, minimize: bool, depth: int) -> bool:
        free = expr.free_symbols()
        for lv in reversed(self.loops):
            if lv.symbol not in free:
                continue
            direction = self._monotonicity(expr, lv)
            if direction is None:
                return False
            endpoint = lv.lower if (direction > 0) == minimize else lv.upper
            reduced = expr.subs({lv.symbol: endpoint})
            inner = self.without_loop(lv.symbol)
            return inner.is_nonneg(reduced, _depth=depth + 1)
        # No loop variable left: eliminate a *parameter* at its lower
        # bound (1 for positive symbols, 0 for nonneg ones) when the
        # expression is provably nondecreasing in it.  This settles
        # mixed-sign facts like H*(2*P*Q - P - 1) + P*Q - P >= 0.
        if not minimize:
            return False
        loop_names = {lv.symbol.name for lv in self.loops}
        # Differencing in a symbol that occurs inside a max/min/floor/ceil
        # atom never terminates: each difference keeps such an atom with
        # a negative coefficient, which no rule here can sign, so the
        # recursion only stops at the depth cap while the expression
        # grows by a term per level.
        opaque = frozenset().union(
            *(
                a.free_symbols()
                for a in expr.atoms()
                if isinstance(a, (Max, Min, CeilDiv, FloorDiv))
            )
        )
        for s in sorted(free, key=lambda x: x.name):
            if s.name in loop_names or s in opaque:
                continue
            bound = self.lower_bound_of(s.name)
            if bound is None:
                continue
            low: Expr = Num(bound)
            diff = expr.subs({s: s + 1}) - expr
            if diff.is_zero:
                continue
            if not self.is_nonneg(diff, _depth=depth + 1):
                continue
            reduced = expr.subs({s: low})
            if reduced == expr:
                continue
            return self.is_nonneg(reduced, _depth=depth + 1)
        return False

    def _terms_all_nonneg(self, expr: Expr) -> bool:
        return all(self._term_nonneg(t) for t in expr.as_terms())

    def _term_nonneg(self, term: Expr) -> bool:
        coeff, mono = term.as_coeff_mul()
        if mono.is_one:
            return coeff >= 0
        if coeff < 0:
            return False
        return self._mono_all_nonneg(mono)

    def _mono_factors(self, mono: Expr):
        return mono.args if isinstance(mono, Mul) else (mono,)

    def _mono_all_nonneg(self, mono: Expr) -> bool:
        return all(self._factor_nonneg(f) for f in self._mono_factors(mono))

    def _mono_all_positive(self, mono: Expr) -> bool:
        return all(self._factor_positive(f) for f in self._mono_factors(mono))

    def _factor_nonneg(self, factor: Expr) -> bool:
        if isinstance(factor, Num):
            return factor.value >= 0
        if isinstance(factor, Pow2):
            return True
        if isinstance(factor, Symbol):
            if factor.name in self.nonneg:
                return True
            lv = self.loop_for(factor)
            return lv is not None and self.without_loop(factor).is_nonneg(lv.lower)
        if isinstance(factor, Pow):
            if factor.exponent % 2 == 0:
                return True
            return self._factor_nonneg(factor.base) or (
                isinstance(factor.base, (Symbol, Num)) is False
                and self.is_nonneg(factor.base)
            )
        if isinstance(factor, (CeilDiv, FloorDiv)):
            num_ok = self.is_nonneg(factor.numer)
            den_ok = self.is_positive(factor.denom) or self.is_nonneg(factor.denom)
            return num_ok and den_ok
        if isinstance(factor, (Max, Min)):
            checks = (self.is_nonneg(a) for a in factor.args)
            return any(checks) if isinstance(factor, Max) else all(
                self.is_nonneg(a) for a in factor.args
            )
        from .expr import Add

        if isinstance(factor, Add):
            return self.is_nonneg(factor)
        return False

    def _factor_positive(self, factor: Expr) -> bool:
        if isinstance(factor, Num):
            return factor.value > 0
        if isinstance(factor, Pow2):
            return True
        if isinstance(factor, Symbol):
            return factor.name in self.positive
        if isinstance(factor, Pow):
            return self._factor_positive(factor.base)
        if isinstance(factor, CeilDiv):
            return self.is_positive(factor.numer) and self.is_positive(factor.denom)
        return False

    def _pow2_dominates(self, expr: Expr) -> bool:
        """Prove nonnegativity via ``c * 2**e >= -d`` with ``e >= 0``.

        Matches sums where exactly the negative part is a rational constant
        and some positive term is ``c * 2**e`` with ``c + d >= 0``; this
        settles facts like ``2**(p-L) - 1 >= 0`` for ``L <= p``.
        """
        negative = Fraction(0)
        candidates: list[tuple[Fraction, Expr]] = []
        others_nonneg = True
        for term in expr.as_terms():
            coeff, mono = term.as_coeff_mul()
            if mono.is_one:
                negative += coeff
                continue
            if coeff < 0:
                return False
            if isinstance(mono, Pow2):
                candidates.append((coeff, mono.exponent))
            elif not self._mono_all_nonneg(mono):
                others_nonneg = False
        if not others_nonneg or negative >= 0:
            # negative >= 0 would already have been caught by the cheap test
            return False
        for coeff, exponent in candidates:
            # smallest integer k with coeff * 2**k + negative >= 0
            k = 0
            while coeff * Fraction(2**k) + negative < 0 and k < 64:
                k += 1
            if k >= 64:
                continue
            if self.is_nonneg(exponent - k):
                return True
        return False

    def _term_integer(self, term: Expr) -> bool:
        coeff, mono = term.as_coeff_mul()
        if mono.is_one:
            return coeff.denominator == 1
        pow2_exponent: Expr = ZERO
        for f in self._mono_factors(mono):
            if isinstance(f, Pow2):
                pow2_exponent = pow2_exponent + f.exponent
            elif isinstance(f, Symbol):
                if f.name not in self.integer and self.loop_for(f) is None:
                    return False
            elif isinstance(f, (CeilDiv, FloorDiv)):
                continue  # floor/ceil of anything is integer
            elif isinstance(f, Pow):
                if f.exponent < 0 or not self._term_integer(f.base):
                    return False
            elif isinstance(f, (Max, Min)):
                if not all(self.is_integer_valued(a) for a in f.args):
                    return False
            else:
                from .expr import Add

                if isinstance(f, Add):
                    if not self.is_integer_valued(f):
                        return False
                else:
                    return False
        if _odd_part(coeff).denominator != 1:
            return False
        shift = _v2(coeff)
        if pow2_exponent.is_zero:
            return shift >= 0
        return self.is_nonneg(pow2_exponent + shift)
