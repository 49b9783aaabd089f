"""sweep_whatif: interactive what-if sweeps through ``repro.session``.

Each bundled code gets one ``Session(..., execute=False)`` in set-up
(env grown with ``scaled_env`` for H=16, H=8, one warm solve).  A timed
op is one what-if step on one session: ``apply_edits`` moves a
parameter, then ``run_sweep`` solves a small grid.  Steps alternate
between an ``H x chunk:PHASE`` grid after an ``alpha`` edit and an
``alpha x beta`` grid after an ``H`` edit, so every step reads the
session's warm ``AnalysisCache``/``TermMemo`` beside the edits that
write them.  This is the one workload where ``distribution``
(constraint extraction and the Eq. 7 enumeration) does most of the
work, with no DSM execution at all.

A run is ``cycles`` passes over the 17 sessions; the step of cycle
``c`` is fixed, the order of the codes within a cycle is drawn from
``--seed``, so every run does the same work.

The verify pass checks every distinct sweep point and every edit
answer: its ``sha256`` must equal that of a fresh ``analyze()`` at the
same parameters, as ``repro.check.session_oracle`` does.
"""

from __future__ import annotations

import hashlib
import random

import repro
import repro.session.state
from repro import analyze
from repro.codes import ALL_CODES, scaled_env
from repro.document import dumps_canonical
from repro.session.delta import apply_edits
from repro.session.state import Session
from repro.session.sweep import run_sweep

from harness import BaseWorkload, add_counters, wrap_pipeline

H = 8
ENV_H = 16
#: Seconds one cycle over the 17 sessions takes on the reference host.
CYCLE_S = 1.25
ALPHAS = (0.5, 2.0, 8.0, 32.0)
BETAS = (0.25, 1.0, 4.0)


def step(cycle: int, phases: list) -> tuple:
    """The (edits, grid) of one cycle; fixed, so every run is the same."""
    turn = cycle // 2
    if cycle % 2 == 0:
        edits = [{"op": "set_param", "key": "alpha",
                  "value": ALPHAS[turn % len(ALPHAS)]}]
        grid = {"H": [4, 8, 16], f"chunk:{phases[turn % len(phases)]}": [1, 2]}
    else:
        edits = [{"op": "set_param", "key": "H", "value": (4, 8, 16)[turn % 3]}]
        grid = {
            "alpha": [ALPHAS[(turn + k) % len(ALPHAS)] for k in range(3)],
            "beta": [BETAS[turn % len(BETAS)], BETAS[(turn + 1) % len(BETAS)]],
        }
    return edits, grid


def point_params(params: dict, grid_point: dict) -> tuple:
    """A grid point overlaid on the session parameters it was swept at."""
    env = dict(params["env"])
    H_p, alpha, beta = params["H"], params["alpha"], params["beta"]
    bounds = dict(params["bounds"])
    for key, value in grid_point.items():
        if key == "H":
            H_p = value
        elif key == "alpha":
            alpha = value
        elif key == "beta":
            beta = value
        elif key.startswith("chunk:"):
            bounds[key.partition(":")[2]] = (value, value)
        else:
            env[key] = value
    return env, H_p, alpha, beta, bounds


class Workload(BaseWorkload):
    def prepare(self):
        rng = random.Random(self.seed)
        cycles = max(2, round(self.seconds / CYCLE_S))
        names = list(ALL_CODES)
        self.order = []
        for cycle in range(cycles):
            rng.shuffle(names)
            self.order.extend((cycle, name) for name in names)
        self.work["cycles"] = cycles
        self.answers = {}  # (code, params key) -> (params, sha256)
        self.reuse = {}

    def setup(self):
        self.sessions = {}
        for name, (build, env, back) in ALL_CODES.items():
            session = Session(
                build(), scaled_env(name, env, ENV_H), H,
                back_edges=back or None, execute=False,
            )
            session.solve()
            self.sessions[name] = session
        if self.tracer is not None:
            wrap_pipeline(self.tracer)
            self.tracer.wrap(
                repro.AnalysisResult, "to_document", "document.serialize"
            )
            self.tracer.wrap(
                repro.session.state, "dumps_canonical", "document.serialize"
            )
            self.tracer.wrap(
                repro.session.state, "analyze", "analyze",
                after=lambda args, kwargs, out: add_counters(
                    self.counters, kwargs["collector"].counters
                ),
            )

    def ops(self):
        for cycle, name in self.order:
            yield "step", (lambda c=cycle, n=name: self._op(c, n))

    def _op(self, cycle, name):
        session = self.sessions[name]
        edits, grid = step(cycle, session.phase_names())
        with self.span("session.edit"):
            edited = apply_edits(session, edits)
        params = {
            "env": dict(session.env), "H": session.H,
            "alpha": session.alpha, "beta": session.beta,
            "bounds": dict(session.bounds),
        }
        self._answer(name, point_params(params, {}), edited["sha256"])
        with self.span("session.sweep"):
            swept = run_sweep(session, grid)
        add_counters(self.reuse, swept["reuse"])
        shas = [edited["sha256"]]
        for point in swept["points"]:
            if point.get("feasible"):
                self._answer(
                    name, point_params(params, point["params"]),
                    point["sha256"],
                )
                shas.append(point["sha256"])
            else:
                shas.append("infeasible")
        return hashlib.sha256(" ".join(shas).encode()).hexdigest()

    def _answer(self, name, point, sha):
        env, H_p, alpha, beta, bounds = point
        key = (name, tuple(sorted(env.items())), H_p, alpha, beta,
               tuple(sorted(bounds.items())))
        self.answers.setdefault(key, (point, set()))[1].add(sha)

    def layer_metrics(self) -> dict:
        r = self.reuse
        memo = r.get("ilp_component_memo_hits", 0) + r.get(
            "ilp_component_memo_misses", 0
        )
        return {
            "session.edges_reused": r.get("edges_reused", 0),
            "session.edges_recomputed": r.get("edges_recomputed", 0),
            "session.ilp_component_memo_hit_ratio": (
                r.get("ilp_component_memo_hits", 0) / memo if memo else 0.0
            ),
        }

    def verify(self):
        self.work.update(self.reuse)
        self.work["verified_points"] = len(self.answers)
        mismatches = []
        for (name, *_), (point, shas) in sorted(
            self.answers.items(), key=lambda kv: repr(kv[0])
        ):
            env, H_p, alpha, beta, bounds = point
            build, _, back = ALL_CODES[name]
            session = self.sessions[name]
            result = analyze(
                build(), env, H_p, back_edges=back or None, execute=False,
                options=session.options_at(alpha, beta, bounds, fresh=True),
            )
            doc = result.to_document()
            doc["metrics"] = None
            doc["trace"] = None
            fresh = hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()
            if shas != {fresh}:
                mismatches.append(
                    f"{name} H={H_p} alpha={alpha} beta={beta} "
                    f"bounds={bounds}: session sha256 != fresh analyze()"
                )
        for session in self.sessions.values():
            session.close()
        return mismatches
