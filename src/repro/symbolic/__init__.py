"""Symbolic algebra substrate for the access-descriptor analysis.

Public surface:

* :mod:`repro.symbolic.expr` — canonical expressions (``sym``, ``num``,
  ``pow2``, arithmetic operators, :func:`divide_exact`).
* :mod:`repro.symbolic.context` — assumption contexts and sound
  predicates (``is_nonneg``, ``is_multiple_of`` …).
* :mod:`repro.symbolic.linear` — affine views and the balanced-locality
  Diophantine solver.
* :mod:`repro.symbolic.sampling` — randomised oracles for tests.
* :mod:`repro.symbolic.compile` — lowering of expression trees to
  vectorized, integer-exact NumPy closures (:func:`compile_expr`).
"""

from .expr import (
    Add,
    ExprLike,
    CeilDiv,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mul,
    Num,
    NEG_ONE,
    ONE,
    Pow,
    Pow2,
    Symbol,
    TWO,
    ZERO,
    as_expr,
    ceil_div,
    divide_exact,
    floor_div,
    num,
    pow2,
    shift_difference,
    smax,
    smin,
    sym,
    symbols,
)
from .compile import CompiledExpr, UncompilableExpr, compile_expr
from .context import Context, LoopVar
from .linear import (
    AffineForm,
    DiophantineSolution,
    affine_coefficients,
    solve_linear_diophantine,
)
from .refute import refutation_stats, refute_nonneg
from .sampling import always_nonneg_sampled, equivalent, random_env

__all__ = [
    "Add",
    "ExprLike",
    "AffineForm",
    "CeilDiv",
    "CompiledExpr",
    "Context",
    "DiophantineSolution",
    "Expr",
    "FloorDiv",
    "LoopVar",
    "Max",
    "Min",
    "Mul",
    "NEG_ONE",
    "Num",
    "ONE",
    "Pow",
    "Pow2",
    "Symbol",
    "TWO",
    "UncompilableExpr",
    "ZERO",
    "affine_coefficients",
    "always_nonneg_sampled",
    "as_expr",
    "ceil_div",
    "compile_expr",
    "divide_exact",
    "equivalent",
    "floor_div",
    "num",
    "pow2",
    "random_env",
    "refutation_stats",
    "refute_nonneg",
    "shift_difference",
    "smax",
    "smin",
    "solve_linear_diophantine",
    "sym",
    "symbols",
]
