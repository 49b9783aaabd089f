"""Affine-form extraction and linear Diophantine solving.

Two consumers:

* ARD construction wants the *affine view* of a subscript expression with
  respect to the loop indices — coefficients may themselves be symbolic
  (that is exactly the non-affine case the paper supports, e.g. the
  coefficient of ``J`` in TFFT2's subscript is ``2**(L-1)``).
* The balanced-locality condition (paper Eq. 1–3) reduces to a linear
  Diophantine equation ``a*p_k - b*p_g = c`` with box constraints on the
  unknowns; :func:`solve_balanced` enumerates its solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .expr import Expr, ExprLike, Mul, Num, Symbol, ZERO, as_expr

__all__ = [
    "affine_coefficients",
    "AffineForm",
    "BoxSolution",
    "DiophantineSolution",
    "solve_linear_diophantine",
]


@dataclass(frozen=True)
class AffineForm:
    """``constant + sum(coeff[s] * s)`` for a chosen set of symbols.

    ``exact`` is False when some symbol also occurs *non-linearly* (inside
    a Pow2 exponent, a power, or multiplied with itself); the coefficients
    then describe only the linear occurrences and callers must treat the
    form as an approximation.
    """

    constant: Expr
    coeffs: tuple  # tuple[(Symbol, Expr), ...]
    exact: bool

    def coeff(self, symbol: Symbol) -> Expr:
        for s, c in self.coeffs:
            if s == symbol:
                return c
        return ZERO

    def as_expr(self) -> Expr:
        total = self.constant
        for s, c in self.coeffs:
            total = total + c * s
        return total


def affine_coefficients(expr: ExprLike, syms: Sequence[Symbol]) -> AffineForm:
    """Split ``expr`` into an affine form over ``syms``.

    A term belongs to the coefficient of ``s`` when it contains ``s``
    exactly once as a top-level factor (exponent 1) and contains no other
    symbol from ``syms``.  Terms containing a symbol of ``syms`` in any
    other position (powers, Pow2 exponents, products of two of them) mark
    the form inexact and are accumulated into the constant.
    """
    expr = as_expr(expr)
    wanted = {s.name for s in syms}
    coeffs: dict[Symbol, Expr] = {s: ZERO for s in syms}
    constant: Expr = ZERO
    exact = True
    for term in expr.as_terms():
        coeff_val, mono = term.as_coeff_mul()
        factors = mono.args if isinstance(mono, Mul) else (mono,)
        linear_hits: list[Symbol] = []
        rest: list[Expr] = [Num(coeff_val)]
        clean = True
        for f in factors:
            if isinstance(f, Symbol) and f.name in wanted:
                linear_hits.append(f)
            else:
                if any(name in wanted for name in (s.name for s in f.free_symbols())):
                    clean = False
                rest.append(f)
        if len(linear_hits) == 1 and clean:
            s = linear_hits[0]
            piece: Expr = rest[0]
            for r in rest[1:]:
                piece = piece * r
            for key in coeffs:
                if key == s:
                    coeffs[key] = coeffs[key] + piece
                    break
        elif not linear_hits and clean:
            constant = constant + term
        else:
            exact = False
            constant = constant + term
    ordered = tuple((s, coeffs[s]) for s in syms)
    return AffineForm(constant=constant, coeffs=ordered, exact=exact)


@dataclass(frozen=True)
class DiophantineSolution:
    """Solutions of ``a*x - b*y = c`` within ``1 <= x <= xmax, 1 <= y <= ymax``.

    The solution set is the arithmetic progression ``(x0 + t*step_x,
    y0 + t*step_y)`` for ``t = 0 .. count-1``; ``count == 0`` means
    infeasible within the box.
    """

    x0: int
    y0: int
    step_x: int
    step_y: int
    count: int

    def __iter__(self):
        for t in range(self.count):
            yield (self.x0 + t * self.step_x, self.y0 + t * self.step_y)

    @property
    def feasible(self) -> bool:
        return self.count > 0

    def smallest(self) -> Optional[tuple[int, int]]:
        """The solution with the smallest chunk sizes (t = 0)."""
        if not self.feasible:
            return None
        return (self.x0, self.y0)


@dataclass(frozen=True)
class BoxSolution:
    """Every pair ``1 <= x <= xmax, 1 <= y <= ymax``: the solution set of
    the trivial equation ``0*x - 0*y = 0``.

    Quacks like :class:`DiophantineSolution` (``count``, ``feasible``,
    ``smallest``, iteration), though the set is a box, not a progression.
    """

    xmax: int
    ymax: int

    @property
    def count(self) -> int:
        return max(self.xmax, 0) * max(self.ymax, 0)

    def __iter__(self):
        for x in range(1, self.xmax + 1):
            for y in range(1, self.ymax + 1):
                yield (x, y)

    @property
    def feasible(self) -> bool:
        return self.count > 0

    def smallest(self) -> Optional[tuple[int, int]]:
        """The solution with the smallest chunk sizes, ``(1, 1)``."""
        return (1, 1) if self.feasible else None


def solve_linear_diophantine(
    a: int, b: int, c: int, xmax: int, ymax: int
) -> DiophantineSolution:
    """Enumerate integer solutions of ``a*x - b*y = c`` in a box.

    Implements the balanced-locality solve of paper Eq. 1–3: ``x`` and
    ``y`` are the chunk sizes ``p_k`` and ``p_g``; ``xmax``/``ymax`` the
    load-balance ceilings.  Both ``a`` and ``b`` must be positive.
    """
    if a <= 0 or b <= 0:
        raise ValueError("coefficients must be positive")
    if xmax < 1 or ymax < 1:
        return DiophantineSolution(0, 0, 0, 0, 0)
    g = gcd(a, b)
    if c % g != 0:
        return DiophantineSolution(0, 0, 0, 0, 0)
    a_, b_, c_ = a // g, b // g, c // g
    # Solve a_*x ≡ c_ (mod b_):  x = x_part + t*b_
    x_part = (c_ * pow(a_, -1, b_)) % b_ if b_ > 1 else 0
    # Smallest x >= 1 in the residue class:
    if x_part < 1:
        x_part += b_ * ((1 - x_part + b_ - 1) // b_)
    # y from x:
    def y_of(x: int) -> int:
        return (a_ * x - c_) // b_

    # Find smallest t >= 0 with x = x_part + t*b_ satisfying y >= 1.
    # y(x) = (a_*x - c_)/b_ increases with x.
    x = x_part
    if y_of(x) < 1:
        # need a_*x >= c_ + b_  =>  x >= (c_ + b_)/a_
        need = c_ + b_
        jump = (need - a_ * x + a_ * b_ - 1) // (a_ * b_)
        if jump > 0:
            x += jump * b_
    if x > xmax:
        return DiophantineSolution(0, 0, 0, 0, 0)
    y = y_of(x)
    if y < 1:
        return DiophantineSolution(0, 0, 0, 0, 0)
    # Count how many steps stay inside the box.
    steps_x = (xmax - x) // b_
    steps_y = (ymax - y) // a_ if a_ > 0 else steps_x
    count = min(steps_x, steps_y) + 1
    if y > ymax:
        return DiophantineSolution(0, 0, 0, 0, 0)
    return DiophantineSolution(x, y, b_, a_, count)
