"""Sampled refutation of ``is_nonneg`` queries (batched, compiled).

:meth:`repro.symbolic.context.Context.is_nonneg` is a sound-but-
incomplete prover: a ``True`` is a proof, a ``False`` only means "could
not prove".  The expensive part is the *failures* — the prover walks
monotone loop-variable elimination and positive-shift rewrites to the
bitter end before giving up.  On the LCG hot path most queries that end
in ``False`` are genuinely falsifiable: some context-valid integer
assignment makes the expression negative.

This module finds such counterexamples *first*, cheaply: every context
fingerprint owns a deterministic bank of sampled environments honouring
all of the context's facts (positivity, explicit minimums, ``P == 2**p``
pairs, loop ranges — rows whose evaluated loop range is empty are masked
out), and candidate expressions are evaluated over the whole bank at
once through :mod:`repro.symbolic.compile`.  Any negative sample is a
witness that the query must answer ``False`` — returned without touching
the proof search.

Soundness: the sampler only ever produces assignments *inside* the
context's domain, so a negative sample genuinely refutes ``expr >= 0``;
expressions the sampler cannot handle (uncompilable nodes, evaluation
errors) simply decline to refute and fall through to the prover.
Determinism: bank contents are a pure function of the context
fingerprint (seeded hashing, no global RNG state), so analysis results
are reproducible across runs and across processes.
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np

from .. import memo
from ..check.faults import fire as _fault_fire
from ..errors import ProverTimeout
from .compile import UncompilableExpr, compile_expr
from .expr import Expr

__all__ = [
    "refutation_stats",
    "refute_nonneg",
]

#: Number of sampled environments per context bank.  30 was enough to
#: refute every falsifiable LCG query on the six-code suite; a few spare
#: columns cost nothing thanks to vectorised evaluation.
BANK_SIZE = 32

_STATS = {"refuted": 0, "passed": 0, "declined": 0}


def _reset_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


#: One sample bank per context fingerprint; clearing it also zeroes the
#: refuted/passed/declined counters.
_SAMPLES = memo.register("refute_samples", 4096, on_clear=_reset_stats)


def refutation_stats() -> dict:
    """Counters for introspection and tests (refuted/passed/declined)."""
    return dict(_STATS)


def _seeded(seed: int, name: str, size: int, lo: int, hi: int) -> list:
    """``size`` integers in ``[lo, hi]``, a pure function of (seed, name)."""
    span = hi - lo + 1
    out = []
    state = zlib.crc32(name.encode(), seed) or 1
    for _ in range(size):
        # xorshift32: tiny, deterministic, good enough for sampling
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        out.append(lo + state % span)
    return out


class _SampleBank:
    """Sampled environments for one context fingerprint.

    Columns (one int per sample row) are materialised lazily per symbol;
    loop-variable columns and the validity mask are built eagerly since
    the loop stack is fixed per fingerprint.
    """

    def __reduce__(self):
        # Bank contents are a pure function of the context fingerprint,
        # so a pickle (a plan bundle) carries only the context and
        # re-derives the samples on load.
        return (_SampleBank, (self.ctx.portable(),))

    def __init__(self, ctx):
        self.ctx = ctx
        self.seed = zlib.crc32(repr(ctx._fingerprint()).encode()) or 1
        self.columns: dict = {}
        self.valid = np.ones(BANK_SIZE, dtype=bool)
        self.usable = True
        try:
            self._build_loops()
        except (UncompilableExpr, ValueError, ZeroDivisionError,
                OverflowError, KeyError):
            self.usable = False

    # -- column construction ------------------------------------------------

    def _param_column(self, name: str) -> np.ndarray:
        ctx = self.ctx
        exponent_of = {v.name: k for k, v in ctx.pow2.items()}
        if name in ctx.pow2:
            # P == 2**p: derive from the exponent column.
            exp_col = self._column(ctx.pow2[name].name)
            return np.power(2, exp_col)
        if name in exponent_of:
            lo = max(ctx.lower_bound_of(name) or 1, 1)
            values = _seeded(self.seed, name, BANK_SIZE, lo, lo + 5)
        else:
            lo = ctx.lower_bound_of(name)
            if lo is None:
                values = _seeded(self.seed, name, BANK_SIZE, -8, 16)
            else:
                values = _seeded(self.seed, name, BANK_SIZE, lo, lo + 24)
        return np.asarray(values, dtype=np.int64)

    def _column(self, name: str) -> np.ndarray:
        col = self.columns.get(name)
        if col is None:
            col = self._param_column(name)
            self.columns[name] = col
        return col

    def _build_loops(self) -> None:
        """Sample loop variables in nest order; mask empty-range rows.

        Bounds may reference parameters and outer loop variables only,
        so evaluating outermost-first resolves every dependency.  A row
        where an evaluated range is empty (``upper < lower``) describes
        zero iterations — no assignment of that loop variable exists
        there, so the row is excluded from every refutation verdict.
        """
        for lv in self.ctx.loops:
            lo = self._eval_bound(lv.lower)
            hi = self._eval_bound(lv.upper)
            empty = hi < lo
            self.valid &= ~empty
            span = np.maximum(hi - lo + 1, 1)
            offs = np.asarray(
                _seeded(self.seed, "loop:" + lv.symbol.name,
                        BANK_SIZE, 0, 1 << 30),
                dtype=np.int64,
            )
            self.columns[lv.symbol.name] = lo + offs % span

    def _eval_bound(self, expr: Expr) -> np.ndarray:
        fn = compile_expr(expr)
        env = {n: self._column(n) for n in fn.names}
        values = fn.evali(env)
        if not isinstance(values, np.ndarray):
            values = np.full(BANK_SIZE, int(values), dtype=np.int64)
        return values.astype(np.int64)

    # -- refutation ---------------------------------------------------------

    def refutes(self, expr: Expr) -> Optional[bool]:
        """True when some valid sample makes ``expr`` negative.

        ``None`` means the bank declined (uncompilable expression or an
        evaluation error) and the caller should fall through.
        """
        if not self.usable or not self.valid.any():
            return None
        try:
            fn = compile_expr(expr)
            env = {n: self._column(n) for n in fn.names}
            negative = fn.negative_mask(env)
        except (UncompilableExpr, ValueError, ZeroDivisionError,
                OverflowError, KeyError):
            return None
        if not isinstance(negative, np.ndarray):
            return bool(negative)
        return bool(np.any(negative & self.valid))


def _bank_for(ctx) -> Optional[_SampleBank]:
    key = ctx._fingerprint()
    bank = _SAMPLES.get(key, memo.MISS)
    if bank is memo.MISS:
        # An unusable bank is remembered as ``None``: its samples are
        # never read, so neither the process nor a plan bundle keeps them.
        bank = _SampleBank(ctx)
        bank = _SAMPLES.put(key, bank if bank.usable else None)
    return bank


def refute_nonneg(ctx, expr: Expr) -> bool:
    """Try to falsify ``expr >= 0`` by sampled evaluation.

    ``True`` — a context-valid assignment with ``expr < 0`` exists, so
    ``Context.is_nonneg`` may return ``False`` immediately.  ``False``
    — no counterexample found (the query may still be unprovable).
    """
    enabled = getattr(ctx, "refutation", None)
    if enabled is not None and not enabled:
        return False
    obs = getattr(ctx, "obs", None)
    bank = _bank_for(ctx)
    if bank is None:
        _STATS["declined"] += 1
        if obs is not None:
            obs.count("refute.declined")
        return False
    try:
        if _fault_fire("prover_timeout"):
            raise ProverTimeout("injected prover_timeout fault")
        verdict = bank.refutes(expr)
    except ProverTimeout:
        # Declining is a correct slow path: refutation only ever
        # accelerates False verdicts, so the query falls through to the
        # full proof search with identical results.
        _STATS["declined"] += 1
        if obs is not None:
            obs.count("prover.timeouts")
            obs.count("refute.declined")
        return False
    if verdict is None:
        _STATS["declined"] += 1
        if obs is not None:
            obs.count("refute.declined")
        return False
    _STATS["refuted" if verdict else "passed"] += 1
    if obs is not None:
        obs.count("refute.refuted" if verdict else "refute.passed")
    return verdict
