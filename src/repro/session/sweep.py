"""What-if sweeps — parameter grids solved through one warm session.

A sweep never mutates the session: each grid point overlays its values
on the session's current parameters, solves through the shared warm
:class:`AnalysisCache` and :class:`TermMemo`, and reports the result
document's hash plus the two-axis objective breakdown.  Points that
agree on a component's inputs (same trips, same candidate range, same
``H``/machine) answer the Eq. 7 argmin from the memo without evaluating
a single candidate — the returned ``reuse`` block carries the memo's
hit/miss deltas as proof.

Grid keys:

* ``H`` — the block-size parameter (ints);
* ``alpha`` / ``beta`` — machine per-message latency / per-element
  bandwidth (floats);
* ``chunk:PHASE`` — pin PHASE's CYCLIC(p) chunk to each value (ints);
* any ``env`` parameter name known to the session (ints).

The Pareto front is computed over ``(communication, imbalance)`` from
:func:`repro.distribution.objective_breakdown` — the two quantities the
paper's Eq. 7 trades off — minimizing both.  Note the model makes
*unrestricted* single-parameter sweeps collapse to one-point fronts
(the feasible-maximum chunk count minimizes both axes at once);
genuinely conflicting layouts appear when the distribution space is
restricted, i.e. sweeps over ``chunk:PHASE`` pins.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from ..distribution import pareto_front
from ..gridspec import GridSpecError, parse_values
from .state import Session, SessionError

__all__ = ["parse_sweep_spec", "parse_sweep_args", "run_sweep"]

#: Hard cap on grid points per sweep — a sweep is an interactive
#: request, not a batch job; larger explorations should be split.
MAX_POINTS = 512

_FLOAT_KEYS = ("alpha", "beta")


def _parse_values(key: str, text: str) -> list:
    """``"lo:hi:step"`` (inclusive) or ``"a,b,c"`` into typed values.

    Parsing and validation live in :mod:`repro.gridspec` (shared with
    the fuzzer's grids); the strict rules — step 0, reversed bounds and
    non-dividing steps are all hard errors — are documented there.
    """
    cast = float if key in _FLOAT_KEYS else int
    try:
        return parse_values(text, cast=cast, spec=f"{key}={text.strip()}")
    except GridSpecError as exc:
        raise SessionError(str(exc)) from None


def parse_sweep_spec(spec: str) -> tuple:
    """One ``KEY=lo:hi:step`` (or ``KEY=a,b,c``) clause -> (key, values)."""
    key, sep, text = spec.partition("=")
    key = key.strip()
    if not sep or not key:
        raise SessionError(
            f"bad sweep spec {spec!r}: expected KEY=lo:hi:step"
        )
    values = _parse_values(key, text)
    if not values:
        raise SessionError(f"sweep spec {spec!r} names no values")
    return key, values


def parse_sweep_args(items) -> dict:
    """A sequence of spec clauses (the CLI's repeated ``--sweep``)."""
    grid: dict = {}
    for item in items:
        key, values = parse_sweep_spec(item)
        grid[key] = values
    return grid


def _validate_grid(session: Session, grid: Mapping) -> dict:
    """Typed copy of a grid document; unknown keys are hard errors."""
    if not isinstance(grid, Mapping) or not grid:
        raise SessionError("'sweep' must be a non-empty KEY -> values map")
    phases = set(session.phase_names())
    out: dict = {}
    for key, values in grid.items():
        if isinstance(values, str):
            values = _parse_values(key, values)
        if not isinstance(values, (list, tuple)) or not values:
            raise SessionError(
                f"sweep key {key!r} needs a non-empty list of values"
            )
        if key in _FLOAT_KEYS:
            typed = [float(v) for v in values]
            if any(not v >= 0.0 for v in typed):
                raise SessionError(f"{key} values must be >= 0")
        elif key == "H" or key in session.env or key.startswith("chunk:"):
            typed = []
            for v in values:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise SessionError(
                        f"sweep key {key!r} needs integers, got {v!r}"
                    )
                if v < 1:
                    raise SessionError(
                        f"sweep key {key!r} needs values >= 1, got {v}"
                    )
                typed.append(v)
            if key.startswith("chunk:"):
                phase = key.partition(":")[2]
                if phase not in phases:
                    raise SessionError(
                        f"unknown phase {phase!r} in sweep key {key!r}: "
                        f"expected one of {', '.join(sorted(phases))}"
                    )
        else:
            raise SessionError(
                f"unknown sweep key {key!r}: expected H, alpha, beta, "
                f"chunk:PHASE or one of {', '.join(sorted(session.env))}"
            )
        out[key] = typed
    return out


def _point_params(session: Session, keys, combo) -> tuple:
    """One grid point's full parameter set overlaid on the session's."""
    env = dict(session.env)
    H = session.H
    alpha, beta = session.alpha, session.beta
    bounds = dict(session.bounds)
    for key, value in zip(keys, combo):
        if key == "H":
            H = value
        elif key == "alpha":
            alpha = value
        elif key == "beta":
            beta = value
        elif key.startswith("chunk:"):
            bounds[key.partition(":")[2]] = (value, value)
        else:
            env[key] = value
    return env, H, alpha, beta, bounds


def run_sweep(
    session: Session,
    grid: Mapping,
    *,
    limit: int = MAX_POINTS,
    include_documents: bool = False,
) -> dict:
    """Solve every grid point through the session; report a Pareto front.

    Returns ``{"grid", "points", "front", "reuse"}``: ``points`` holds
    one entry per grid point in deterministic (sorted-key, row-major)
    order — parameters, objective, the two breakdown axes, the chosen
    per-phase chunks and the result document's sha256 (``document``
    itself only under ``include_documents``, which the byte-identity
    oracle uses); ``front`` indexes the non-dominated feasible points
    by (communication, imbalance).  Infeasible points (an empty clamped
    box no relaxation can restore) stay in ``points`` with
    ``feasible: false`` and are excluded from the front.
    """
    grid = _validate_grid(session, grid)
    keys = sorted(grid)
    total = 1
    for key in keys:
        total *= len(grid[key])
    if total > limit:
        raise SessionError(
            f"sweep grid has {total} points, more than the limit of "
            f"{limit}; split the sweep"
        )

    memo_before = session.memo.stats()
    points = []
    edges_reused = edges_recomputed = constraints_reused = 0
    for combo in itertools.product(*(grid[k] for k in keys)):
        env, H, alpha, beta, bounds = _point_params(session, keys, combo)
        params = dict(zip(keys, combo))
        try:
            solved = session.solve_at(env, H, alpha, beta, bounds)
        except (ValueError, RuntimeError) as exc:
            points.append(
                {"params": params, "feasible": False, "error": str(exc)}
            )
            continue
        doc = solved["document"]
        edges_reused += solved["reuse"]["edges_reused"]
        edges_recomputed += solved["reuse"]["edges_recomputed"]
        constraints_reused += solved["reuse"]["constraints_reused"]
        point = {
            "params": params,
            "feasible": True,
            "objective": doc["plan"]["objective"],
            "imbalance": solved["breakdown"]["imbalance"],
            "communication": solved["breakdown"]["communication"],
            "phase_chunks": doc["plan"]["phase_chunks"],
            "relaxed_edges": doc["plan"]["relaxed_edges"],
            "sha256": solved["sha256"],
        }
        if include_documents:
            point["document"] = doc
        points.append(point)

    feasible = [
        (i, p) for i, p in enumerate(points) if p.get("feasible")
    ]
    front_local = pareto_front(
        [(p["communication"], p["imbalance"]) for _, p in feasible]
    )
    front = [feasible[j][0] for j in front_local]

    memo_after = session.memo.stats()
    reuse = {
        "points": total,
        "feasible_points": len(feasible),
        "edges_reused": edges_reused,
        "edges_recomputed": edges_recomputed,
        "constraints_reused": constraints_reused,
        "ilp_component_memo_hits": (
            memo_after["component_hits"] - memo_before["component_hits"]
        ),
        "ilp_component_memo_misses": (
            memo_after["component_misses"]
            - memo_before["component_misses"]
        ),
        "ilp_term_memo_hits": (
            memo_after["term_hits"] - memo_before["term_hits"]
        ),
    }
    return {
        "grid": {k: list(grid[k]) for k in keys},
        "points": points,
        "front": front,
        "reuse": reuse,
    }
