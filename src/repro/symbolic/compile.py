"""Compiled symbolic evaluation: lower ``Expr`` trees to NumPy closures.

:meth:`repro.symbolic.Expr.evalf` interprets the expression tree
recursively with :class:`fractions.Fraction` arithmetic — exact, but it
pays Python dispatch and GCD costs *per node per evaluation point*.  The
§4.3 experiment evaluates the same handful of subscript/bound/stride
expressions millions of times, so this module compiles an expression
once into a straight-line Python function and evaluates it over whole
NumPy vectors at a time.

Exactness contract
------------------
``CompiledExpr(env)`` produces exactly the same values as ``evalf`` on
the same environment, by construction:

* The tree is lowered to an *integer numerator over a static positive
  denominator* ``D`` (the LCM of all rational coefficients): every
  emitted operation maps integers to integers, so there is no rounding
  anywhere.  Opaque atoms (``ceildiv``/``floordiv``/``2**e``/min/max)
  become checked helper calls with the same semantics as their
  ``evalf``.
* Vector evaluation first attempts int64 arithmetic guarded by a
  conservative interval analysis of every intermediate numerator (and by
  runtime checks inside the helpers); whenever a bound cannot be kept
  under ``2**62`` — or a ``2**e`` helper meets a negative or large
  exponent — evaluation transparently falls back to object-dtype arrays
  of Python ints/Fractions, which are arbitrary precision and exact.
* Scalar evaluation always uses exact Python arithmetic.

The only expressions rejected (:class:`UncompilableExpr`) are negative
powers of non-numeric bases — the unexpandable ``Pow(Add, -k)`` residue —
which never appear on the hot paths; callers keep ``evalf`` as fallback.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .. import memo
from .expr import (
    Add,
    CeilDiv,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mul,
    Num,
    Pow,
    Pow2,
    Symbol,
    as_expr,
)

__all__ = [
    "CompiledExpr",
    "UncompilableExpr",
    "compile_expr",
]

#: Largest intermediate numerator magnitude allowed on the int64 path.
_INT64_LIMIT = 1 << 62


class UncompilableExpr(Exception):
    """The expression contains a node outside the compilable family."""


class _NeedExact(Exception):
    """Internal: the int64 fast path cannot represent this evaluation."""


# ---------------------------------------------------------------------------
# code generation:  expr  ->  (numerator source, static denominator)
# ---------------------------------------------------------------------------


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class _Emitter:
    """Walks the tree emitting Python source for the scaled numerator."""

    def __init__(self):
        self.var_of: dict[str, str] = {}

    def var(self, name: str) -> str:
        mapped = self.var_of.get(name)
        if mapped is None:
            mapped = f"_v{len(self.var_of)}"
            self.var_of[name] = mapped
        return mapped

    def emit(self, expr: Expr) -> tuple[str, int]:
        if isinstance(expr, Num):
            v = expr.value
            return f"({v.numerator})", v.denominator
        if isinstance(expr, Symbol):
            return self.var(expr.name), 1
        if isinstance(expr, Add):
            parts = [self.emit(a) for a in expr.args]
            den = reduce(_lcm, (d for _, d in parts), 1)
            terms = []
            for src, d in parts:
                scale = den // d
                terms.append(src if scale == 1 else f"{src}*{scale}")
            return "(" + " + ".join(terms) + ")", den
        if isinstance(expr, Mul):
            parts = [self.emit(a) for a in expr.args]
            den = 1
            for _, d in parts:
                den *= d
            return "(" + "*".join(src for src, _ in parts) + ")", den
        if isinstance(expr, Pow):
            if expr.exponent < 0:
                raise UncompilableExpr(
                    f"negative power {expr} has no integer lowering"
                )
            src, d = self.emit(expr.base)
            return f"({src}**{expr.exponent})", d**expr.exponent
        if isinstance(expr, Pow2):
            src, d = self.emit(expr.exponent)
            return f"P2({src}, {d})", 1
        if isinstance(expr, (CeilDiv, FloorDiv)):
            nsrc, nd = self.emit(expr.numer)
            dsrc, dd = self.emit(expr.denom)
            fn = "CDIV" if isinstance(expr, CeilDiv) else "FDIV"
            return f"{fn}({nsrc}, {nd}, {dsrc}, {dd})", 1
        if isinstance(expr, (Max, Min)):
            parts = [self.emit(a) for a in expr.args]
            den = reduce(_lcm, (d for _, d in parts), 1)
            scaled = []
            for src, d in parts:
                scale = den // d
                scaled.append(src if scale == 1 else f"{src}*{scale}")
            fn = "MX" if isinstance(expr, Max) else "MN"
            return f"{fn}({', '.join(scaled)})", den
        raise UncompilableExpr(f"cannot compile node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# evaluation helpers (one implementation per mode, same call signature)
# ---------------------------------------------------------------------------


def _p2_int(a, d):
    """int64-mode ``2**(a/d)``: integer, nonneg, small — else bail out."""
    if d != 1:
        q = np.floor_divide(a, d)
        if np.any(a - q * d != 0):
            raise ValueError(f"2**{a}/{d}: non-integer exponent")
    else:
        q = a
    qa = np.asarray(q)
    if qa.size:
        if int(qa.min()) < 0 or int(qa.max()) > 62:
            raise _NeedExact()
    return np.left_shift(np.int64(1), q)


def _div_int(an, ad, bn, bd, ceil):
    a = an * bd
    b = bn * ad
    if np.any(np.asarray(b) == 0):
        raise ZeroDivisionError("ceildiv by zero" if ceil else "floordiv by zero")
    if ceil:
        return -np.floor_divide(-a, b)
    return np.floor_divide(a, b)


_INT64_HELPERS = {
    "P2": _p2_int,
    "FDIV": lambda an, ad, bn, bd: _div_int(an, ad, bn, bd, False),
    "CDIV": lambda an, ad, bn, bd: _div_int(an, ad, bn, bd, True),
    "MX": lambda *xs: reduce(np.maximum, xs),
    "MN": lambda *xs: reduce(np.minimum, xs),
}


def _p2_scalar(a, d):
    q = Fraction(a, d) if d != 1 else Fraction(a)
    if q.denominator != 1:
        raise ValueError(f"2**{q}: non-integer exponent")
    k = int(q)
    return 2**k if k >= 0 else Fraction(1, 2**-k)


def _div_scalar(an, ad, bn, bd, ceil):
    d = Fraction(bn, bd) if bd != 1 else Fraction(bn)
    if d == 0:
        raise ZeroDivisionError("ceildiv by zero" if ceil else "floordiv by zero")
    q = (Fraction(an, ad) if ad != 1 else Fraction(an)) / d
    if ceil:
        return -((-q.numerator) // q.denominator)
    return q.numerator // q.denominator


_SCALAR_HELPERS = {
    "P2": _p2_scalar,
    "FDIV": lambda an, ad, bn, bd: _div_scalar(an, ad, bn, bd, False),
    "CDIV": lambda an, ad, bn, bd: _div_scalar(an, ad, bn, bd, True),
    "MX": lambda *xs: max(xs),
    "MN": lambda *xs: min(xs),
}


def _lift(fn, nin):
    """Elementwise object-array application of a scalar helper."""
    ufunc = np.frompyfunc(fn, nin, 1)

    def apply(*args):
        if any(isinstance(a, np.ndarray) for a in args):
            return ufunc(*args)
        return fn(*args)

    return apply


_OBJECT_HELPERS = {
    "P2": _lift(_p2_scalar, 2),
    "FDIV": _lift(lambda an, ad, bn, bd: _div_scalar(an, ad, bn, bd, False), 4),
    "CDIV": _lift(lambda an, ad, bn, bd: _div_scalar(an, ad, bn, bd, True), 4),
    "MX": lambda *xs: reduce(np.maximum, xs),
    "MN": lambda *xs: reduce(np.minimum, xs),
}


# ---------------------------------------------------------------------------
# conservative interval analysis for the int64 tier
# ---------------------------------------------------------------------------


def _numerator_bounds(expr: Expr, iv: Mapping[str, tuple]) -> tuple:
    """Value interval ``(lo, hi, den)`` with overflow checks per node.

    ``iv`` maps symbol names to exact ``(lo, hi)`` Fractions.  Raises
    :class:`_NeedExact` whenever an intermediate *numerator* (the value
    scaled by the node's static denominator, exactly what the generated
    int64 code manipulates) might leave ``[-2**62, 2**62]``.
    """
    lo, hi, den = _bounds_walk(expr, iv)
    return lo, hi, den


def _chk(mag) -> None:
    if mag > _INT64_LIMIT:
        raise _NeedExact()


def _bounds_walk(expr: Expr, iv) -> tuple:
    if isinstance(expr, Num):
        v = expr.value
        _chk(abs(v.numerator))
        return v, v, v.denominator
    if isinstance(expr, Symbol):
        try:
            lo, hi = iv[expr.name]
        except KeyError:
            raise KeyError(
                f"no value bound for symbol {expr.name!r}"
            ) from None
        _chk(max(abs(lo), abs(hi)))
        return lo, hi, 1
    if isinstance(expr, Add):
        parts = [_bounds_walk(a, iv) for a in expr.args]
        den = reduce(_lcm, (d for _, _, d in parts), 1)
        lo = sum(p[0] for p in parts)
        hi = sum(p[1] for p in parts)
        # partial sums of scaled numerators are bounded by the sum of
        # magnitudes, all at the common denominator
        _chk(sum(max(abs(p[0]), abs(p[1])) * den for p in parts))
        return lo, hi, den
    if isinstance(expr, Mul):
        parts = [_bounds_walk(a, iv) for a in expr.args]
        den = 1
        for _, _, d in parts:
            den *= d
        lo, hi = Fraction(1), Fraction(1)
        for plo, phi, _ in parts:
            corners = (lo * plo, lo * phi, hi * plo, hi * phi)
            lo, hi = min(corners), max(corners)
        # every partial product of numerators is bounded by the product
        # of per-factor magnitude bounds (clamped below at 1)
        bound = 1
        for plo, phi, d in parts:
            bound *= max(max(abs(plo), abs(phi)) * d, 1)
        _chk(bound)
        return lo, hi, den
    if isinstance(expr, Pow):
        if expr.exponent < 0:
            raise _NeedExact()
        blo, bhi, bden = _bounds_walk(expr.base, iv)
        k = expr.exponent
        corners = [blo**k, bhi**k]
        lo, hi = min(corners), max(corners)
        if k % 2 == 0 and blo < 0 < bhi:
            lo = Fraction(0)
        _chk(int(max(max(abs(blo), abs(bhi)) * bden, 1) ** k))
        return lo, hi, bden**k
    if isinstance(expr, Pow2):
        elo, ehi, eden = _bounds_walk(expr.exponent, iv)
        if elo < 0 or ehi > 62:
            raise _NeedExact()
        lo = Fraction(2) ** math.ceil(elo)
        hi = Fraction(2) ** math.floor(ehi)
        return lo, hi, 1
    if isinstance(expr, (CeilDiv, FloorDiv)):
        nlo, nhi, nden = _bounds_walk(expr.numer, iv)
        dlo, dhi, dden = _bounds_walk(expr.denom, iv)
        nmag = max(abs(nlo), abs(nhi))
        dmag = max(abs(dlo), abs(dhi))
        _chk(nmag * nden * dden)
        _chk(dmag * dden * nden)
        # |q| <= |n| * dden + 1 because the (integer) scaled denominator
        # has magnitude >= 1 whenever it is nonzero
        mag = nmag * dden + 1
        _chk(mag)
        return -mag, mag, 1
    if isinstance(expr, (Max, Min)):
        parts = [_bounds_walk(a, iv) for a in expr.args]
        den = reduce(_lcm, (d for _, _, d in parts), 1)
        _chk(max(max(abs(p[0]), abs(p[1])) * den for p in parts))
        pick = max if isinstance(expr, Max) else min
        return (
            pick(p[0] for p in parts),
            pick(p[1] for p in parts),
            den,
        )
    raise _NeedExact()


# ---------------------------------------------------------------------------
# the compiled closure
# ---------------------------------------------------------------------------


class CompiledExpr:
    """A symbolic expression lowered to a straight-line NumPy closure.

    Call with an environment mapping symbol names to integers, Fractions
    or integer ndarrays (broadcastable).  ``__call__`` reproduces
    ``evalf`` exactly; :meth:`evali` additionally asserts integrality and
    returns plain ints / int64 arrays.
    """

    __slots__ = ("expr", "names", "denominator", "_fn", "_source")

    def __reduce__(self):
        # The exec'd closure does not pickle; rebuild from (expr, names)
        # on load — compilation is deterministic, so the round trip is
        # exact.  This is what lets plan bundles ship compiled-kernel
        # *keys* across processes.
        return (CompiledExpr, (self.expr, self.names))

    def __init__(self, expr: Expr, names: tuple):
        emitter = _Emitter()
        body, den = emitter.emit(expr)
        free = {s.name for s in expr.free_symbols()}
        if not free <= set(names):
            raise ValueError(
                f"compile names {names} do not cover free symbols {free}"
            )
        params = ["P2", "FDIV", "CDIV", "MX", "MN"] + [
            emitter.var(n) for n in names
        ]
        self._source = (
            f"def _compiled({', '.join(params)}):\n    return {body}\n"
        )
        scope: dict = {}
        exec(self._source, {}, scope)
        self.expr = expr
        self.names = tuple(names)
        self.denominator = den
        self._fn = scope["_compiled"]

    # -- internals ---------------------------------------------------------

    def _gather(self, env: Mapping) -> tuple[list, bool]:
        values = []
        vectorised = False
        for name in self.names:
            try:
                v = env[name]
            except KeyError:
                raise KeyError(
                    f"no value bound for symbol {name!r}"
                ) from None
            if isinstance(v, np.ndarray):
                vectorised = True
            elif isinstance(v, np.integer):
                v = int(v)
            elif isinstance(v, Fraction) and v.denominator == 1:
                v = int(v)
            values.append(v)
        return values, vectorised

    def _numerator(self, env: Mapping):
        """Exact scaled numerator (value * denominator) for ``env``."""
        values, vectorised = self._gather(env)
        if not vectorised:
            return self._fn(
                _SCALAR_HELPERS["P2"],
                _SCALAR_HELPERS["FDIV"],
                _SCALAR_HELPERS["CDIV"],
                _SCALAR_HELPERS["MX"],
                _SCALAR_HELPERS["MN"],
                *values,
            )
        try:
            iv = {}
            for name, v in zip(self.names, values):
                if isinstance(v, np.ndarray):
                    if v.size == 0:
                        lo = hi = Fraction(0)
                    else:
                        lo, hi = Fraction(int(v.min())), Fraction(int(v.max()))
                else:
                    lo = hi = Fraction(v)
                iv[name] = (lo, hi)
            _numerator_bounds(self.expr, iv)
            fast = [
                np.asarray(v, dtype=np.int64)
                if isinstance(v, np.ndarray)
                else v
                for v in values
            ]
            return self._fn(
                _INT64_HELPERS["P2"],
                _INT64_HELPERS["FDIV"],
                _INT64_HELPERS["CDIV"],
                _INT64_HELPERS["MX"],
                _INT64_HELPERS["MN"],
                *fast,
            )
        except _NeedExact:
            pass
        exact = [
            v.astype(object) if isinstance(v, np.ndarray) else v
            for v in values
        ]
        return self._fn(
            _OBJECT_HELPERS["P2"],
            _OBJECT_HELPERS["FDIV"],
            _OBJECT_HELPERS["CDIV"],
            _OBJECT_HELPERS["MX"],
            _OBJECT_HELPERS["MN"],
            *exact,
        )

    # -- public surface ----------------------------------------------------

    def __call__(self, env: Mapping) -> Union[Fraction, np.ndarray]:
        n = self._numerator(env)
        d = self.denominator
        if isinstance(n, np.ndarray):
            if d == 1:
                return n
            if n.dtype == object:
                return np.frompyfunc(lambda x: Fraction(x, d), 1, 1)(n)
            rem = n % d
            if not rem.any():
                return n // d
            return np.frompyfunc(lambda x: Fraction(int(x), d), 1, 1)(n)
        return Fraction(n, d) if d != 1 else Fraction(n)

    def negative_mask(self, env: Mapping) -> Union[bool, np.ndarray]:
        """Elementwise ``value < 0`` over a (vector) environment.

        The static denominator is positive, so the sign of the value is
        the sign of the scaled numerator — no rational materialisation
        is needed.  This is the batched primitive behind sampled
        refutation of ``is_nonneg`` queries.
        """
        n = self._numerator(env)
        if isinstance(n, np.ndarray):
            return np.asarray(n < 0, dtype=bool)
        return n < 0

    def evali(self, env: Mapping) -> Union[int, np.ndarray]:
        """Integer evaluation; raises ``ValueError`` on fractional results."""
        n = self._numerator(env)
        d = self.denominator
        if isinstance(n, np.ndarray):
            if d != 1:
                q = n // d
                r = n - q * d
                if np.asarray(r != 0).any():
                    raise ValueError(
                        f"{self.expr} evaluated to a non-integer"
                    )
                n = q
            if n.dtype == object:
                n = n.astype(np.int64)
            return n
        value = Fraction(n, d) if d != 1 else Fraction(n)
        if value.denominator != 1:
            raise ValueError(
                f"{self.expr} evaluated to non-integer {value}"
            )
        return int(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledExpr({self.expr!s}, names={self.names})"


#: Memo bank of compiled closures keyed ``(expr, names)``; its misses
#: and hits are the ``compile.compiled`` / ``compile.reused`` counters.
_COMPILED = memo.register("compile", 8192)


def compile_expr(
    expr, names: Optional[Sequence[str]] = None
) -> CompiledExpr:
    """Compile ``expr`` into a :class:`CompiledExpr` (memoized).

    ``names`` fixes the closure's input set (it must cover the free
    symbols); by default the free symbols themselves, sorted.
    """
    from ..check.faults import fire as _fault_fire

    if _fault_fire("compile_failure"):
        raise UncompilableExpr("injected compile_failure fault")
    expr = as_expr(expr)
    if names is None:
        names = tuple(sorted(s.name for s in expr.free_symbols()))
    key = (expr, tuple(names))
    hit = _COMPILED.get(key)
    if hit is None:
        hit = _COMPILED.put(key, CompiledExpr(*key))
    return hit
