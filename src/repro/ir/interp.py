"""Concrete interpretation of loop nests: exact address enumeration.

This is the brute-force oracle the descriptor algebra is validated
against, and the access-stream generator feeding the DSM simulator: for a
phase and a concrete parameter binding it enumerates, per parallel
iteration, every address each reference touches.

The innermost loop level is vectorised with NumPy whenever the subscript
is linear in the innermost index (constant symbolic stride); non-linear
occurrences (e.g. the index living in a ``2**L`` exponent) are batched
through :mod:`repro.symbolic.compile` closures, with exact per-iteration
evaluation as the last resort.

:func:`ragged_nest_addresses` is the descriptor-first enumerator behind
the executor's wide fast path: it expands a whole (possibly
non-rectangular, ``Pow2``-subscripted) loop nest level by level into
NumPy columns — per-row trip counts, ``np.repeat`` fan-out, compiled
bound/subscript evaluation — so a nest's full address stream
materialises in a handful of array operations instead of a Python loop
per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..symbolic import (
    Expr,
    Symbol,
    UncompilableExpr,
    compile_expr,
    shift_difference,
)
from .core import AccessKind, ArrayDecl, LoopNode, Phase, PhaseAccess, RefNode

__all__ = [
    "AccessTrace",
    "IterationAccesses",
    "NestEnumMiss",
    "NestTooBig",
    "enumerate_phase",
    "phase_access_set",
    "iteration_access_set",
    "ragged_nest_addresses",
    "reference_addresses",
    "set_vectorized",
]

#: Gate for the compiled/vectorized paths; tests switch it off to reach
#: the interpreted reference they compare the fast paths against.
_VECTOR_ENABLED = True


def set_vectorized(enabled: bool) -> bool:
    """Enable/disable compiled vectorized enumeration; returns old value."""
    global _VECTOR_ENABLED
    old = _VECTOR_ENABLED
    _VECTOR_ENABLED = bool(enabled)
    return old


class NestEnumMiss(Exception):
    """The nest falls outside the vectorized enumeration fragment."""


class NestTooBig(Exception):
    """Expansion would exceed the cell budget; retry with a smaller block."""


@dataclass
class AccessTrace:
    """Addresses touched by one reference (with multiplicity)."""

    ref_label: str
    array: str
    kind: AccessKind
    addresses: np.ndarray  # int64, one entry per dynamic access


@dataclass
class IterationAccesses:
    """All traces of one parallel iteration (``iteration`` is None for
    accesses outside the parallel loop)."""

    iteration: Optional[int]
    traces: list


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{what} evaluated to non-integer {value}")
    return int(value)


def _eval_bound(expr: Expr, env: dict) -> int:
    return _as_int(expr.evalf(env), f"loop bound {expr}")


def _subscript_addresses(
    subscript: Expr, loop: LoopNode, env: Mapping, lo: int, hi: int
) -> np.ndarray:
    """Addresses produced by ``subscript`` as ``loop.index`` sweeps lo..hi.

    ``env`` is never mutated: the loop index is bound in a scoped copy,
    so callers holding the dict (or enumerating concurrently) can never
    observe a poisoned environment.
    """
    n = hi - lo + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    name = loop.index.name
    if loop.index not in subscript.free_symbols():
        base = _as_int(subscript.evalf(env), f"subscript {subscript}")
        return np.full(n, base, dtype=np.int64)
    stride_expr = shift_difference(subscript, loop.index)
    if loop.index not in stride_expr.free_symbols():
        scoped = dict(env)
        scoped[name] = Fraction(lo)
        base = _as_int(subscript.evalf(scoped), f"subscript {subscript}")
        stride = _as_int(stride_expr.evalf(scoped), f"stride of {subscript}")
        return base + stride * np.arange(n, dtype=np.int64)
    # Non-linear in the innermost index: batch through a compiled closure
    # when possible, else exact per-iteration evaluation.
    if _VECTOR_ENABLED:
        try:
            compiled = compile_expr(subscript)
            vec_env = dict(env)
            vec_env[name] = np.arange(lo, hi + 1, dtype=np.int64)
            values = compiled.evali(vec_env)
            if isinstance(values, np.ndarray):
                return values
            return np.full(n, values, dtype=np.int64)
        except UncompilableExpr:
            pass
    scoped = dict(env)
    out = np.empty(n, dtype=np.int64)
    for offset in range(n):
        scoped[name] = Fraction(lo + offset)
        out[offset] = _as_int(subscript.evalf(scoped), f"subscript {subscript}")
    return out


def _compiled_column(expr: Expr, scope: Mapping, rows: int) -> np.ndarray:
    """Evaluate ``expr`` to an int64 column of length ``rows``.

    ``scope`` holds scalar parameters plus per-row index columns; scalar
    results (no row dependence) are broadcast.  Raises
    :class:`NestEnumMiss` for expressions outside the compilable family.
    """
    try:
        compiled = compile_expr(expr)
    except UncompilableExpr:
        raise NestEnumMiss() from None
    value = compiled.evali(scope)
    if isinstance(value, np.ndarray):
        if value.dtype != np.int64:
            value = value.astype(np.int64)
        return value
    return np.full(rows, value, dtype=np.int64)


def ragged_nest_addresses(
    loops: Sequence[LoopNode],
    subscript: Optional[Expr],
    env: Mapping,
    level0_values: Optional[np.ndarray] = None,
    max_cells: int = 1 << 25,
) -> tuple:
    """Vectorised address stream of one reference over its loop chain.

    ``loops`` is the chain of enclosing loops, outermost first.  The nest
    is expanded level by level: at each depth the (possibly outer-index-
    dependent) bounds are evaluated for every live row with compiled
    closures, then rows fan out via ``np.repeat`` — so non-rectangular
    nests and ``Pow2``-in-subscript phases vectorise just like
    rectangular affine ones.

    Returns ``(addresses, ordinals)``: the int64 address of every dynamic
    access (in nest order, with multiplicity) and the 0-based ordinal of
    the outermost-loop iteration it belongs to.  When ``subscript`` is
    None only the ordinals are computed (``addresses`` is None) — enough
    for layout-free counting.  ``level0_values`` restricts the outermost
    loop to an explicit block of index values so callers can chunk huge
    nests; its bounds are not re-evaluated in that case.

    Raises :class:`NestEnumMiss` when a bound/subscript is not
    compilable and :class:`NestTooBig` when the expansion would exceed
    ``max_cells`` live cells.
    """
    if not loops:
        raise NestEnumMiss()
    base = {}
    for key, val in env.items():
        if isinstance(val, Fraction):
            if val.denominator != 1:
                base[key] = val
                continue
            val = int(val)
        base[key] = val
    cols: dict = {}
    ordinals: Optional[np.ndarray] = None
    rows = 1
    for depth, loop in enumerate(loops):
        name = loop.index.name
        if depth == 0 and level0_values is not None:
            column = np.ascontiguousarray(level0_values, dtype=np.int64)
            rows = column.size
            cols[name] = column
            ordinals = np.arange(rows, dtype=np.int64)
            continue
        scope = {**base, **cols}
        lo = _compiled_column(loop.lower, scope, rows)
        hi = _compiled_column(loop.upper, scope, rows)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total > max_cells:
            raise NestTooBig()
        fan = np.repeat(np.arange(rows, dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        cols = {k: v[fan] for k, v in cols.items()}
        cols[name] = lo[fan] + within
        ordinals = within if ordinals is None else ordinals[fan]
        rows = total
    if subscript is None:
        return None, ordinals
    scope = {**base, **cols}
    return _compiled_column(subscript, scope, rows), ordinals


def _walk(
    node: LoopNode,
    env: dict,
    sink: dict,
    array: Optional[str],
) -> None:
    """Accumulate address chunks for each reference under ``node``."""
    lo = _eval_bound(node.lower, env)
    hi = _eval_bound(node.upper, env)
    if hi < lo:
        return
    name = node.index.name
    # Fast path: a loop whose children are all RefNodes can vectorise
    # the whole sweep per reference.
    if all(isinstance(c, RefNode) for c in node.children):
        for child in node.children:
            ref = child.ref
            if array is not None and ref.array.name != array:
                continue
            chunk = _subscript_addresses(ref.subscript, node, env, lo, hi)
            sink.setdefault(id(child), []).append(chunk)
        return
    for value in range(lo, hi + 1):
        env[name] = Fraction(value)
        for child in node.children:
            if isinstance(child, RefNode):
                ref = child.ref
                if array is not None and ref.array.name != array:
                    continue
                addr = _as_int(ref.subscript.evalf(env), f"subscript {ref}")
                sink.setdefault(id(child), []).append(
                    np.array([addr], dtype=np.int64)
                )
            else:
                _walk(child, env, sink, array)
    del env[name]


def _collect_refnodes(node: LoopNode, array: Optional[str]) -> list:
    nodes = []
    for item in node.walk():
        if isinstance(item, RefNode):
            if array is None or item.ref.array.name == array:
                nodes.append(item)
    return nodes


def _traces_from_sink(refnodes: Sequence[RefNode], sink: dict) -> list:
    traces = []
    for rn in refnodes:
        chunks = sink.get(id(rn), [])
        if chunks:
            addresses = np.concatenate(chunks)
        else:
            addresses = np.empty(0, dtype=np.int64)
        traces.append(
            AccessTrace(
                ref_label=rn.ref.label or str(rn.ref),
                array=rn.ref.array.name,
                kind=rn.ref.kind,
                addresses=addresses,
            )
        )
    return traces


def enumerate_phase(
    phase: Phase,
    env: Mapping[str, int],
    array: Optional[Union[str, ArrayDecl]] = None,
) -> Iterator[IterationAccesses]:
    """Yield per-parallel-iteration access traces for a phase.

    For each value ``i`` of the parallel loop one :class:`IterationAccesses`
    is produced; references not nested under the parallel loop are emitted
    once with ``iteration=None``.  A phase with no parallel loop yields a
    single ``iteration=None`` record covering everything.
    """
    array_name = None
    if array is not None:
        array_name = array if isinstance(array, str) else array.name
    base_env: dict = {k: Fraction(v) for k, v in env.items()}
    par = phase.parallel_loop

    if par is None:
        sink: dict = {}
        refnodes: list = []
        for root in phase.roots:
            refnodes.extend(_collect_refnodes(root, array_name))
            _walk(root, base_env, sink, array_name)
        yield IterationAccesses(iteration=None, traces=_traces_from_sink(refnodes, sink))
        return

    # Split the tree at the parallel loop: everything outside it runs once.
    outside_sink: dict = {}
    outside_refs: list = []

    def run_outside(node: LoopNode, env: dict) -> None:
        """Interpret loops that *enclose or avoid* the parallel loop."""
        if node is par:
            return  # handled per-iteration below
        lo = _eval_bound(node.lower, env)
        hi = _eval_bound(node.upper, env)
        contains_par = any(
            isinstance(item, LoopNode) and item is par for item in node.walk()
        )
        if not contains_par:
            outside_refs.extend(_collect_refnodes(node, array_name))
            _walk(node, env, outside_sink, array_name)
            return
        # Loop encloses the parallel loop: the paper's model puts phases
        # inside outer DO loops; we require the parallel loop itself to be
        # outermost *within the phase* for per-iteration splitting.
        raise ValueError(
            f"phase {phase.name}: parallel loop must be the outermost loop "
            "of its nest for iteration-level enumeration"
        )

    for root in phase.roots:
        if root is par:
            continue
        run_outside(root, base_env)
    if outside_refs:
        yield IterationAccesses(
            iteration=None, traces=_traces_from_sink(outside_refs, outside_sink)
        )

    lo = _eval_bound(par.lower, base_env)
    hi = _eval_bound(par.upper, base_env)
    par_refnodes = []
    for child in par.children:
        if isinstance(child, RefNode):
            if array_name is None or child.ref.array.name == array_name:
                par_refnodes.append(child)
        else:
            par_refnodes.extend(_collect_refnodes(child, array_name))
    name = par.index.name
    for value in range(lo, hi + 1):
        base_env[name] = Fraction(value)
        sink = {}
        for child in par.children:
            if isinstance(child, RefNode):
                ref = child.ref
                if array_name is not None and ref.array.name != array_name:
                    continue
                addr = _as_int(ref.subscript.evalf(base_env), f"subscript {ref}")
                sink.setdefault(id(child), []).append(
                    np.array([addr], dtype=np.int64)
                )
            else:
                _walk(child, base_env, sink, array_name)
        yield IterationAccesses(
            iteration=value, traces=_traces_from_sink(par_refnodes, sink)
        )
    del base_env[name]


def _fast_phase_access_set(
    phase: Phase, env: Mapping[str, int], array_name: str
) -> Optional[np.ndarray]:
    """Vectorised unique-address set, or None outside the fast fragment."""
    refs: list = []

    def collect(node: LoopNode, chain: tuple) -> None:
        for child in node.children:
            if isinstance(child, RefNode):
                if child.ref.array.name == array_name:
                    refs.append((child.ref, chain))
            elif isinstance(child, LoopNode):
                collect(child, chain + (child,))

    for root in phase.roots:
        if not isinstance(root, LoopNode):
            return None
        collect(root, (root,))
    chunks = []
    try:
        for ref, chain in refs:
            addresses, _ = ragged_nest_addresses(chain, ref.subscript, env)
            if addresses.size:
                chunks.append(np.unique(addresses))
    except (NestEnumMiss, NestTooBig, ValueError, ZeroDivisionError,
            KeyError):
        return None
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(chunks))


def phase_access_set(
    phase: Phase, env: Mapping[str, int], array: Union[str, ArrayDecl]
) -> np.ndarray:
    """Sorted unique addresses of ``array`` touched anywhere in the phase."""
    array_name = array if isinstance(array, str) else array.name
    if _VECTOR_ENABLED:
        fast = _fast_phase_access_set(phase, env, array_name)
        if fast is not None:
            return fast
    chunks = [
        tr.addresses
        for ia in enumerate_phase(phase, env, array)
        for tr in ia.traces
    ]
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(chunks))


def iteration_access_set(
    phase: Phase,
    env: Mapping[str, int],
    array: Union[str, ArrayDecl],
    iteration: int,
) -> np.ndarray:
    """Sorted unique addresses touched by one parallel iteration."""
    for ia in enumerate_phase(phase, env, array):
        if ia.iteration == iteration:
            chunks = [tr.addresses for tr in ia.traces]
            if not chunks:
                return np.empty(0, dtype=np.int64)
            return np.unique(np.concatenate(chunks))
    return np.empty(0, dtype=np.int64)


def reference_addresses(
    access: PhaseAccess, env: Mapping[str, int]
) -> np.ndarray:
    """All addresses (with multiplicity) of one reference over its nest."""
    base_env: dict = {k: Fraction(v) for k, v in env.items()}

    def recurse(depth: int) -> list:
        loop = access.loops[depth]
        lo = _eval_bound(loop.lower, base_env)
        hi = _eval_bound(loop.upper, base_env)
        if hi < lo:
            return []
        if depth == len(access.loops) - 1:
            return [_subscript_addresses(access.ref.subscript, loop, base_env, lo, hi)]
        chunks: list = []
        name = loop.index.name
        for value in range(lo, hi + 1):
            base_env[name] = Fraction(value)
            chunks.extend(recurse(depth + 1))
        del base_env[name]
        return chunks

    chunks = recurse(0)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)
