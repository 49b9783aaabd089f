"""Canonical symbolic expressions for access-descriptor analysis.

The locality analysis of Navarro et al. (ICPP'99) manipulates subscript
expressions that are *linear combinations of products of parameters,
loop indices and powers of two* — e.g. the TFFT2 stride ``J * 2**(L-1)``
or the span ``(P - 2) * 2**-L + 1``.  This module implements a small
computer-algebra layer specialised for that expression family:

* exact rational arithmetic (no floating point in the analysis path),
* a *canonical normal form* so that structural equality ``a == b`` decides
  semantic equality for the supported family,
* symbolic differencing (used to compute LMAD strides),
* substitution and exact division (used by stride coalescing).

Normal form
-----------
Every expression is normalised to a polynomial over *atoms*::

    expr   := Num | term | Add(term, term, ...)
    term   := Num * atom**e * atom**e * ...
    atom   := Symbol | Pow2(expr) | CeilDiv | FloorDiv | Max | Min
              | Pow(Add, -k)        (unexpandable inverse of a sum)

with these canonicalisation rules:

* ``Add`` and ``Mul`` are flattened, sorted and collected; ``Mul`` is
  distributed over ``Add`` (positive integer powers of sums are expanded).
* ``Pow2(e)`` pulls the rational-constant part of ``e`` into the numeric
  coefficient: ``2**(L-1)`` is stored as ``Fraction(1,2) * Pow2(L)`` so
  that e.g. ``4 * 2**(L-1) == 2 * 2**L`` holds structurally.
* In a ``Mul`` all ``Pow2`` factors merge: ``Pow2(a)*Pow2(b) -> Pow2(a+b)``.

The classes are immutable and hashable; construct via the ``+ - * / **``
operators or the helpers :func:`num`, :func:`sym`, :func:`pow2`.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .. import memo

__all__ = [
    "Expr",
    "Num",
    "Symbol",
    "Add",
    "Mul",
    "Pow",
    "Pow2",
    "CeilDiv",
    "FloorDiv",
    "Max",
    "Min",
    "num",
    "sym",
    "symbols",
    "pow2",
    "ceil_div",
    "floor_div",
    "smax",
    "smin",
    "as_expr",
    "shift_difference",
    "ZERO",
    "ONE",
    "TWO",
    "NEG_ONE",
]

Numeric = Union[int, Fraction]
ExprLike = Union["Expr", int, Fraction]

#: Hash-consing table: one canonical instance per structural key.  Nodes
#: are interned at construction time so that repeated descriptor algebra
#: reuses (and re-hashes) identical subtrees for free; weak values keep
#: the table from pinning dead expressions.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

#: Substitution results keyed by (interned node, frozen mapping).
_SUBS = memo.register("subs", 1 << 17)
#: ``divide_exact`` results (``None`` included) keyed by (a, b).
_DIVIDE_EXACT = memo.register("divide_exact", 1 << 16)
#: ``shift_difference`` results keyed by (expr, index).
_SHIFT_DIFFERENCE = memo.register("shift_difference", 1 << 16)


def _interned(key: tuple, cls, populate) -> "Expr":
    """Return the canonical node for ``key``, creating it via ``populate``.

    ``populate`` receives a fresh uninitialised instance and must set its
    slots with ``object.__setattr__`` (the classes' ``__setattr__`` is an
    immutability guard).
    """
    cached = _INTERN.get(key)
    if cached is not None:
        return cached
    self = object.__new__(cls)
    populate(self)
    object.__setattr__(self, "_kc", key)
    _INTERN[key] = self
    return self


class Expr:
    """Base class of all symbolic expressions.

    Subclasses are immutable; arithmetic operators build *canonicalised*
    results, so two semantically equal expressions of the supported family
    compare equal with ``==``.

    Instances are hash-consed: constructing a node structurally equal to
    an existing live node returns the *same* object, so ``==`` usually
    decides via identity and structural keys/hashes are computed once per
    unique tree.
    """

    __slots__ = ("_hash", "_kc", "_fs", "__weakref__")

    # -- construction helpers -------------------------------------------------

    def __add__(self, other: ExprLike) -> "Expr":
        return _add([self, as_expr(other)])

    def __radd__(self, other: ExprLike) -> "Expr":
        return _add([as_expr(other), self])

    def __sub__(self, other: ExprLike) -> "Expr":
        return _add([self, _mul([NEG_ONE, as_expr(other)])])

    def __rsub__(self, other: ExprLike) -> "Expr":
        return _add([as_expr(other), _mul([NEG_ONE, self])])

    def __mul__(self, other: ExprLike) -> "Expr":
        return _mul([self, as_expr(other)])

    def __rmul__(self, other: ExprLike) -> "Expr":
        return _mul([as_expr(other), self])

    def __neg__(self) -> "Expr":
        return _mul([NEG_ONE, self])

    def __pos__(self) -> "Expr":
        return self

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise TypeError(f"exponent must be int, got {exponent!r}")
        return _pow(self, exponent)

    def __truediv__(self, other: ExprLike) -> "Expr":
        other = as_expr(other)
        if isinstance(other, Num):
            if other.value == 0:
                raise ZeroDivisionError("symbolic division by zero")
            return _mul([self, Num(Fraction(1, 1) / other.value)])
        return _mul([self, _pow(other, -1)])

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return as_expr(other).__truediv__(self)

    # -- core protocol ---------------------------------------------------------

    def sort_key(self) -> tuple:
        raise NotImplementedError

    def subs(self, mapping: Mapping["Symbol", ExprLike]) -> "Expr":
        """Return the expression with symbols replaced, re-canonicalised.

        Memoized on the interned node identity plus the mapping: node
        interning makes structurally equal subtrees *the same object*,
        so substitutions over shared subtrees are re-derived once
        instead of once per enclosing expression.
        """
        if not mapping:
            return self
        fs = self.free_symbols()
        if not any(
            (k if isinstance(k, Symbol) else Symbol(k)) in fs
            for k in mapping
        ):
            return self
        try:
            key = (
                self,
                tuple(
                    sorted(
                        (
                            k.name if isinstance(k, Symbol) else k,
                            as_expr(v),
                        )
                        for k, v in mapping.items()
                    )
                ),
            )
        except (TypeError, ValueError):
            return self._subs_impl(mapping)
        hit = _SUBS.get(key)
        if hit is None:
            hit = _SUBS.put(key, self._subs_impl(mapping))
        return hit

    def _subs_impl(self, mapping: Mapping["Symbol", ExprLike]) -> "Expr":
        raise NotImplementedError

    def free_symbols(self) -> frozenset:
        """Free symbols, computed once per interned node."""
        try:
            return self._fs
        except AttributeError:
            fs = self._free_symbols_impl()
            object.__setattr__(self, "_fs", fs)
            return fs

    def _free_symbols_impl(self) -> frozenset:
        raise NotImplementedError

    def atoms(self) -> frozenset:
        """All non-numeric leaf atoms (symbols and opaque atoms)."""
        raise NotImplementedError

    def evalf(self, env: Mapping[str, Numeric]) -> Fraction:
        """Exact evaluation with ``env`` mapping symbol names to numbers."""
        raise NotImplementedError

    # -- conveniences ----------------------------------------------------------

    @property
    def is_number(self) -> bool:
        return isinstance(self, Num)

    @property
    def is_zero(self) -> bool:
        return isinstance(self, Num) and self.value == 0

    @property
    def is_one(self) -> bool:
        return isinstance(self, Num) and self.value == 1

    def as_int(self) -> int:
        """Return the value as a Python int (raises unless integer Num)."""
        if isinstance(self, Num) and self.value.denominator == 1:
            return int(self.value)
        raise ValueError(f"{self!r} is not a concrete integer")

    def as_coeff_mul(self) -> tuple[Fraction, "Expr"]:
        """Split into ``(rational coefficient, residual monomial)``.

        For a ``Num`` the residual is ``ONE``; for a ``Mul`` the leading
        numeric factor is peeled off; anything else has coefficient 1.
        """
        if isinstance(self, Num):
            return self.value, ONE
        if isinstance(self, Mul):
            first = self.args[0]
            if isinstance(first, Num):
                rest = self.args[1:]
                if len(rest) == 1:
                    return first.value, rest[0]
                return first.value, Mul(rest)
            return Fraction(1), self
        return Fraction(1), self

    def as_terms(self) -> tuple["Expr", ...]:
        """Return the addends (a 1-tuple unless the expression is an Add)."""
        if isinstance(self, Add):
            return self.args
        return (self,)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                return isinstance(self, Num) and self.value == other
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def _key(self) -> tuple:
        """Structural key (computed at construction, cached for life)."""
        return self._kc

    def __reduce__(self):
        """Pickle via the canonicalising constructor (re-interns on load).

        The default protocol cannot rebuild these nodes (custom
        ``__new__`` + ``__slots__`` + the immutability guard), so each
        subclass pickles as its constructor arguments; unpickling goes
        through ``__new__`` and lands in the target process's intern
        table, preserving the hash-consing invariant across process
        pools and on-disk caches.
        """
        raise NotImplementedError(type(self).__name__)

    def compile(self, names: Sequence[str] | None = None):
        """Lower to a vectorised NumPy closure (see :mod:`.compile`).

        Returns a :class:`repro.symbolic.compile.CompiledExpr` whose
        ``__call__`` reproduces :meth:`evalf` exactly (int64 fast path
        with an arbitrary-precision object fallback) and whose ``evali``
        returns integer results directly.  Raises
        :class:`repro.symbolic.compile.UncompilableExpr` for the few
        node shapes outside the compilable family.
        """
        from .compile import compile_expr

        return compile_expr(self, tuple(names) if names is not None else None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


class Num(Expr):
    """An exact rational constant."""

    __slots__ = ("value",)

    def __new__(cls, value: Numeric):
        value = Fraction(value)
        return _interned(
            ("Num", value),
            cls,
            lambda self: object.__setattr__(self, "value", value),
        )

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Num is immutable")

    def __reduce__(self):
        return (Num, (self.value,))

    def sort_key(self) -> tuple:
        return (0, self.value)

    def _subs_impl(self, mapping) -> Expr:
        return self

    def _free_symbols_impl(self) -> frozenset:
        return frozenset()

    def atoms(self) -> frozenset:
        return frozenset()

    def evalf(self, env) -> Fraction:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


class Symbol(Expr):
    """A named symbol (loop index or program parameter)."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name:
            raise ValueError("symbol name must be non-empty")
        return _interned(
            ("Symbol", name),
            cls,
            lambda self: object.__setattr__(self, "name", name),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    def __reduce__(self):
        return (Symbol, (self.name,))

    def sort_key(self) -> tuple:
        return (1, self.name)

    def _subs_impl(self, mapping) -> Expr:
        for key, val in mapping.items():
            key_name = key.name if isinstance(key, Symbol) else key
            if key_name == self.name:
                return as_expr(val)
        return self

    def _free_symbols_impl(self) -> frozenset:
        return frozenset((self,))

    def atoms(self) -> frozenset:
        return frozenset((self,))

    def evalf(self, env) -> Fraction:
        try:
            return Fraction(env[self.name])
        except KeyError:
            raise KeyError(f"no value bound for symbol {self.name!r}") from None

    def __str__(self) -> str:
        return self.name


class _NaryExpr(Expr):
    """Shared plumbing for Add/Mul/Max/Min (immutable arg tuples)."""

    __slots__ = ("args",)

    def __new__(cls, args: Sequence[Expr]):
        args = tuple(args)
        key = (cls.__name__,) + tuple(a._key() for a in args)
        return _interned(
            key, cls, lambda self: object.__setattr__(self, "args", args)
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.args,))

    def _free_symbols_impl(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out = out | a.free_symbols()
        return out

    def atoms(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out = out | a.atoms()
        return out

class Add(_NaryExpr):
    """A canonicalised sum.  Construct via ``+`` — never directly."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        return (4, tuple(a.sort_key() for a in self.args))

    def _subs_impl(self, mapping) -> Expr:
        return _add([a.subs(mapping) for a in self.args])

    def evalf(self, env) -> Fraction:
        total = Fraction(0)
        for a in self.args:
            total += a.evalf(env)
        return total

    def __str__(self) -> str:
        parts = []
        for i, a in enumerate(self.args):
            text = str(a)
            if i and not text.startswith("-"):
                parts.append("+ " + text)
            elif i:
                parts.append("- " + text[1:])
            else:
                parts.append(text)
        return " ".join(parts)


class Mul(_NaryExpr):
    """A canonicalised product.  Construct via ``*`` — never directly."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        return (3, tuple(a.sort_key() for a in self.args))

    def _subs_impl(self, mapping) -> Expr:
        return _mul([a.subs(mapping) for a in self.args])

    def evalf(self, env) -> Fraction:
        total = Fraction(1)
        for a in self.args:
            total *= a.evalf(env)
        return total

    def __str__(self) -> str:
        parts = []
        for a in self.args:
            text = str(a)
            if isinstance(a, Add):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)


class Pow(Expr):
    """``base ** exponent`` with a nonzero integer exponent.

    After canonicalisation the base is a Symbol, an opaque atom, or an Add
    that could not be inverted/expanded (negative exponents of sums).
    """

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        def populate(self):
            object.__setattr__(self, "base", base)
            object.__setattr__(self, "exponent", exponent)

        return _interned(("Pow", base._key(), exponent), cls, populate)

    def __setattr__(self, name, value):
        raise AttributeError("Pow is immutable")

    def __reduce__(self):
        return (Pow, (self.base, self.exponent))

    def sort_key(self) -> tuple:
        return (2, self.base.sort_key(), self.exponent)

    def _subs_impl(self, mapping) -> Expr:
        return _pow(self.base.subs(mapping), self.exponent)

    def _free_symbols_impl(self) -> frozenset:
        return self.base.free_symbols()

    def atoms(self) -> frozenset:
        return self.base.atoms()

    def evalf(self, env) -> Fraction:
        return self.base.evalf(env) ** self.exponent

    def __str__(self) -> str:
        base_text = str(self.base)
        if isinstance(self.base, (Add, Mul)):
            base_text = f"({base_text})"
        return f"{base_text}**{self.exponent}"


class Pow2(Expr):
    """``2 ** exponent`` with a symbolic, integer-valued exponent.

    Canonical invariant: the exponent has *zero rational-constant part*
    (the constant is folded into the enclosing coefficient) and is not
    itself a number.
    """

    __slots__ = ("exponent",)

    def __new__(cls, exponent: Expr):
        return _interned(
            ("Pow2", exponent._key()),
            cls,
            lambda self: object.__setattr__(self, "exponent", exponent),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Pow2 is immutable")

    def __reduce__(self):
        return (Pow2, (self.exponent,))

    def sort_key(self) -> tuple:
        return (2, (5, "2"), self.exponent.sort_key())

    def _subs_impl(self, mapping) -> Expr:
        return pow2(self.exponent.subs(mapping))

    def _free_symbols_impl(self) -> frozenset:
        return self.exponent.free_symbols()

    def atoms(self) -> frozenset:
        return frozenset((self,))

    def evalf(self, env) -> Fraction:
        e = self.exponent.evalf(env)
        if e.denominator != 1:
            raise ValueError(f"2**{e}: non-integer exponent")
        n = int(e)
        return Fraction(2**n) if n >= 0 else Fraction(1, 2**-n)

    def __str__(self) -> str:
        e = str(self.exponent)
        if isinstance(self.exponent, (Add, Mul)):
            return f"2**({e})"
        return f"2**{e}"


class _DivAtom(Expr):
    """Shared implementation of the opaque floor/ceil division atoms."""

    __slots__ = ("numer", "denom")
    _name = "?"

    def __new__(cls, numer: Expr, denom: Expr):
        def populate(self):
            object.__setattr__(self, "numer", numer)
            object.__setattr__(self, "denom", denom)

        return _interned(
            (cls._name, numer._key(), denom._key()), cls, populate
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.numer, self.denom))

    def sort_key(self) -> tuple:
        return (5, self._name, self.numer.sort_key(), self.denom.sort_key())

    def _free_symbols_impl(self) -> frozenset:
        return self.numer.free_symbols() | self.denom.free_symbols()

    def atoms(self) -> frozenset:
        return frozenset((self,))

    def __str__(self) -> str:
        return f"{self._name}({self.numer}, {self.denom})"


class CeilDiv(_DivAtom):
    """Opaque ``ceil(numer / denom)`` (e.g. the load-balance bound)."""

    __slots__ = ()
    _name = "ceildiv"

    def _subs_impl(self, mapping) -> Expr:
        return ceil_div(self.numer.subs(mapping), self.denom.subs(mapping))

    def evalf(self, env) -> Fraction:
        n = self.numer.evalf(env)
        d = self.denom.evalf(env)
        if d == 0:
            raise ZeroDivisionError("ceildiv by zero")
        return Fraction(-((-n) // d))


class FloorDiv(_DivAtom):
    """Opaque ``floor(numer / denom)`` (e.g. the adjust distance R^k)."""

    __slots__ = ()
    _name = "floordiv"

    def _subs_impl(self, mapping) -> Expr:
        return floor_div(self.numer.subs(mapping), self.denom.subs(mapping))

    def evalf(self, env) -> Fraction:
        n = self.numer.evalf(env)
        d = self.denom.evalf(env)
        if d == 0:
            raise ZeroDivisionError("floordiv by zero")
        return Fraction(n // d)


class Max(_NaryExpr):
    """Opaque n-ary maximum (kept unevaluated unless all args numeric)."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        return (6, "max", tuple(a.sort_key() for a in self.args))

    def atoms(self) -> frozenset:
        return frozenset((self,))

    def _subs_impl(self, mapping) -> Expr:
        return smax(*[a.subs(mapping) for a in self.args])

    def evalf(self, env) -> Fraction:
        return max(a.evalf(env) for a in self.args)

    def __str__(self) -> str:
        return "max(" + ", ".join(str(a) for a in self.args) + ")"


class Min(_NaryExpr):
    """Opaque n-ary minimum (kept unevaluated unless all args numeric)."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        return (6, "min", tuple(a.sort_key() for a in self.args))

    def atoms(self) -> frozenset:
        return frozenset((self,))

    def _subs_impl(self, mapping) -> Expr:
        return smin(*[a.subs(mapping) for a in self.args])

    def evalf(self, env) -> Fraction:
        return min(a.evalf(env) for a in self.args)

    def __str__(self) -> str:
        return "min(" + ", ".join(str(a) for a in self.args) + ")"


# ---------------------------------------------------------------------------
# canonicalising constructors
# ---------------------------------------------------------------------------

ZERO = Num(0)
ONE = Num(1)
TWO = Num(2)
NEG_ONE = Num(-1)


def as_expr(value: ExprLike) -> Expr:
    """Coerce ints/Fractions to :class:`Num`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Num(value)
    raise TypeError(f"cannot convert {value!r} to Expr")


def num(value: Numeric) -> Num:
    """Construct an exact numeric constant."""
    return Num(value)


def sym(name: str) -> Symbol:
    """Construct a symbol by name."""
    return Symbol(name)


def symbols(names: str) -> tuple[Symbol, ...]:
    """``symbols("P Q H")`` -> three symbols (split on whitespace/commas)."""
    return tuple(Symbol(n) for n in names.replace(",", " ").split())


def _iter_add_terms(args: Iterable[Expr]) -> Iterator[Expr]:
    for a in args:
        if isinstance(a, Add):
            yield from a.args
        else:
            yield a


def _add(args: Sequence[Expr]) -> Expr:
    """Canonical sum: flatten, collect like monomials, sort."""
    coeffs: dict[Expr, Fraction] = {}
    constant = Fraction(0)
    for term in _iter_add_terms(args):
        if isinstance(term, Num):
            constant += term.value
            continue
        coeff, mono = term.as_coeff_mul()
        if mono.is_one:
            constant += coeff
            continue
        coeffs[mono] = coeffs.get(mono, Fraction(0)) + coeff
    terms: list[Expr] = []
    for mono in sorted(coeffs, key=lambda e: e.sort_key()):
        c = coeffs[mono]
        if c == 0:
            continue
        terms.append(_attach_coeff(c, mono))
    if constant != 0:
        terms.insert(0, Num(constant))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


def _attach_coeff(coeff: Fraction, mono: Expr) -> Expr:
    """Rebuild ``coeff * mono`` without re-running full Mul canonicalisation.

    ``mono`` is already a canonical coefficient-free monomial, but a
    power-of-two coefficient may need folding into a Pow2 factor, so we
    delegate to :func:`_mul` whenever the coefficient is not 1.
    """
    if coeff == 1:
        return mono
    return _mul([Num(coeff), mono])


def _split_pow2_coeff(coeff: Fraction) -> tuple[Fraction, int]:
    """Factor ``coeff = m * 2**k`` with odd numerator/denominator in ``m``."""
    if coeff == 0:
        return Fraction(0), 0
    n, d = coeff.numerator, coeff.denominator
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    while d % 2 == 0:
        d //= 2
        k -= 1
    return Fraction(n, d), k


def _mul(args: Sequence[Expr]) -> Expr:
    """Canonical product: flatten, group bases, merge Pow2, distribute."""
    coeff = Fraction(1)
    pow2_exp: Expr = ZERO
    base_exps: dict[Expr, int] = {}
    adds: list[tuple[Expr, int]] = []  # Add factors to distribute (exp > 0)

    def absorb(factor: Expr, exponent: int = 1) -> None:
        nonlocal coeff, pow2_exp
        if isinstance(factor, Num):
            if factor.value == 0:
                coeff = Fraction(0)
                return
            coeff *= factor.value**exponent
            return
        if isinstance(factor, Mul):
            for sub in factor.args:
                absorb(sub, exponent)
            return
        if isinstance(factor, Pow2):
            pow2_exp = _add([pow2_exp, _mul([Num(exponent), factor.exponent])])
            return
        if isinstance(factor, Pow):
            absorb(factor.base, exponent * factor.exponent)
            return
        base_exps[factor] = base_exps.get(factor, 0) + exponent

    for a in args:
        absorb(a)
        if coeff == 0:
            return ZERO

    # Separate Add bases destined for expansion from plain atoms.
    atom_factors: list[Expr] = []
    for base in sorted(base_exps, key=lambda e: e.sort_key()):
        e = base_exps[base]
        if e == 0:
            continue
        if isinstance(base, Add):
            if e > 0:
                adds.append((base, e))
            else:
                atom_factors.append(Pow(base, e) if e != -1 else Pow(base, -1))
        elif e == 1:
            atom_factors.append(base)
        else:
            atom_factors.append(Pow(base, e))

    # Fold the Pow2 contribution: constant part of the exponent joins coeff.
    if not pow2_exp.is_zero:
        const_part, rest = _split_const(pow2_exp)
        if const_part.denominator != 1:
            raise ValueError(
                f"2**{pow2_exp}: fractional constant exponent unsupported"
            )
        k = int(const_part)
        coeff *= Fraction(2**k) if k >= 0 else Fraction(1, 2**-k)
        if not rest.is_zero:
            # Move any power-of-two content of the coefficient into Pow2's
            # slot so 4*2**(L-1) and 2**(L+1) normalise identically.
            odd, k2 = _split_pow2_coeff(coeff)
            coeff = odd
            shifted = _add([rest, Num(k2)]) if k2 else rest
            const2, rest2 = _split_const(shifted)
            if const2.denominator != 1:
                raise ValueError("fractional pow2 exponent")
            kc = int(const2)
            coeff *= Fraction(2**kc) if kc >= 0 else Fraction(1, 2**-kc)
            if not rest2.is_zero:
                atom_factors.append(Pow2(rest2))

    atom_factors.sort(key=lambda e: e.sort_key())

    if not adds:
        return _assemble_mul(coeff, atom_factors)

    # Distribute every positive-power Add factor across the product.
    terms: list[Expr] = [_assemble_mul(coeff, atom_factors)]
    for base, e in adds:
        for _ in range(e):
            new_terms: list[Expr] = []
            for t in terms:
                for addend in base.args:
                    new_terms.append(_mul([t, addend]))
            terms = new_terms
    return _add(terms)


def _assemble_mul(coeff: Fraction, factors: list[Expr]) -> Expr:
    if coeff == 0:
        return ZERO
    if not factors:
        return Num(coeff)
    if coeff == 1 and len(factors) == 1:
        return factors[0]
    if coeff == 1:
        return Mul(factors)
    return Mul([Num(coeff)] + factors)


def _split_const(expr: Expr) -> tuple[Fraction, Expr]:
    """Split ``expr`` into (rational constant part, remainder)."""
    if isinstance(expr, Num):
        return expr.value, ZERO
    if isinstance(expr, Add):
        const = Fraction(0)
        rest: list[Expr] = []
        for t in expr.args:
            if isinstance(t, Num):
                const += t.value
            else:
                rest.append(t)
        return const, _add(rest)
    return Fraction(0), expr


def _pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Num):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("0 ** negative")
        return Num(base.value**exponent)
    if isinstance(base, (Mul, Pow, Pow2)):
        return _pow_structured(base, exponent)
    if isinstance(base, Add):
        if exponent > 0:
            result: Expr = ONE
            for _ in range(exponent):
                result = _mul([result, base])
            return result
        return Pow(base, exponent)
    return Pow(base, exponent)


def _pow_structured(base: Expr, exponent: int) -> Expr:
    """Power of Mul/Pow/Pow2: push the exponent inward via _mul."""
    if isinstance(base, Mul):
        return _mul([_pow(a, exponent) for a in base.args])
    if isinstance(base, Pow):
        return _pow(base.base, base.exponent * exponent)
    if isinstance(base, Pow2):
        return pow2(_mul([Num(exponent), base.exponent]))
    raise AssertionError("unreachable")


def pow2(exponent: ExprLike) -> Expr:
    """Canonical ``2 ** exponent`` for an integer-valued exponent."""
    e = as_expr(exponent)
    if isinstance(e, Num):
        if e.value.denominator != 1:
            raise ValueError(f"2**{e}: non-integer exponent")
        n = int(e.value)
        return Num(Fraction(2**n) if n >= 0 else Fraction(1, 2**-n))
    const, rest = _split_const(e)
    if const.denominator != 1:
        raise ValueError(f"2**{e}: fractional constant exponent")
    k = int(const)
    factor = Fraction(2**k) if k >= 0 else Fraction(1, 2**-k)
    if rest.is_zero:
        return Num(factor)
    core = Pow2(rest)
    if factor == 1:
        return core
    return _mul([Num(factor), core])


def ceil_div(numer: ExprLike, denom: ExprLike) -> Expr:
    """Canonical ``ceil(numer / denom)`` with exact-division shortcut."""
    n, d = as_expr(numer), as_expr(denom)
    if d.is_one:
        return n
    if isinstance(n, Num) and isinstance(d, Num):
        if d.value == 0:
            raise ZeroDivisionError("ceildiv by zero")
        q = n.value / d.value
        return Num(-((-q.numerator) // q.denominator))
    exact = divide_exact(n, d)
    if exact is not None and _looks_integral(exact):
        return exact
    return CeilDiv(n, d)


def floor_div(numer: ExprLike, denom: ExprLike) -> Expr:
    """Canonical ``floor(numer / denom)`` with exact-division shortcut."""
    n, d = as_expr(numer), as_expr(denom)
    if d.is_one:
        return n
    if isinstance(n, Num) and isinstance(d, Num):
        if d.value == 0:
            raise ZeroDivisionError("floordiv by zero")
        q = n.value / d.value
        return Num(q.numerator // q.denominator)
    exact = divide_exact(n, d)
    if exact is not None and _looks_integral(exact):
        return exact
    return FloorDiv(n, d)


def smax(*args: ExprLike) -> Expr:
    """Canonical n-ary max (folds numerics, deduplicates, flattens)."""
    return _minmax(args, Max, max)


def smin(*args: ExprLike) -> Expr:
    """Canonical n-ary min (folds numerics, deduplicates, flattens)."""
    return _minmax(args, Min, min)


def _minmax(args, cls, fold) -> Expr:
    flat: list[Expr] = []
    numerics: list[Fraction] = []
    seen = set()
    for raw in args:
        e = as_expr(raw)
        items = e.args if isinstance(e, cls) else (e,)
        for item in items:
            if isinstance(item, Num):
                numerics.append(item.value)
            elif item not in seen:
                seen.add(item)
                flat.append(item)
    if numerics:
        flat.append(Num(fold(numerics)))
    if not flat:
        raise ValueError("min/max of no arguments")
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda e: e.sort_key())
    return cls(flat)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def divide_exact(a: ExprLike, b: ExprLike) -> Expr | None:
    """Return ``a / b`` if it simplifies to a polynomial over atoms.

    The result must contain no negative atom powers and no unexpandable
    ``Pow(Add, -k)`` residue; otherwise ``None`` is returned.  ``Pow2``
    factors never obstruct division (their exponents subtract), which is
    exactly the behaviour stride coalescing relies on.
    """
    a, b = as_expr(a), as_expr(b)
    if b.is_zero:
        raise ZeroDivisionError("divide_exact by zero")
    if a.is_zero:
        return ZERO
    hit = _DIVIDE_EXACT.get((a, b), memo.MISS)
    if hit is memo.MISS:
        quotient = a / b
        hit = _DIVIDE_EXACT.put(
            (a, b), quotient if _is_polynomial(quotient) else None
        )
    return hit


def shift_difference(expr: ExprLike, index: "Symbol") -> Expr:
    """Memoized first difference ``expr[index+1] - expr[index]``.

    This is the single most repeated piece of descriptor algebra (every
    stride computation and every fast-path eligibility check re-derives
    it), so it is cached on the interned operands.
    """
    expr = as_expr(expr)
    hit = _SHIFT_DIFFERENCE.get((expr, index))
    if hit is None:
        hit = _SHIFT_DIFFERENCE.put(
            (expr, index), expr.subs({index: index + 1}) - expr
        )
    return hit


def _is_polynomial(expr: Expr) -> bool:
    """True when no term carries a negative power of a non-Pow2 atom."""
    for term in expr.as_terms():
        _, mono = term.as_coeff_mul()
        factors = mono.args if isinstance(mono, Mul) else (mono,)
        for f in factors:
            if isinstance(f, Pow) and f.exponent < 0:
                return False
    return True


def _looks_integral(expr: Expr) -> bool:
    """Cheap syntactic integrality test used by the div shortcuts.

    Sound only as a *shortcut guard*: we require every term to have an
    integer coefficient and no Pow2 with possibly-negative exponent; the
    stronger assumption-aware test lives in ``repro.symbolic.bounds``.
    """
    for term in expr.as_terms():
        coeff, mono = term.as_coeff_mul()
        if coeff.denominator != 1:
            return False
        factors = mono.args if isinstance(mono, Mul) else (mono,)
        for f in factors:
            if isinstance(f, Pow2):
                return False
            if isinstance(f, Pow) and f.exponent < 0:
                return False
    return True
