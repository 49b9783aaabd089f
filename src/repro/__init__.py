"""repro — Access-Descriptor Based Locality Analysis for DSM Multiprocessors.

A from-scratch reproduction of Navarro, Asenjo, Zapata & Padua (ICPP'99):
LMAD-style access descriptors, phase/iteration descriptors, the
Locality-Communication Graph, the iteration/data-distribution integer
program, and a deterministic DSM machine simulator that validates the
whole pipeline by measurement.

Quickstart::

    from repro import AnalysisOptions, analyze
    from repro.codes import build_tfft2
    from repro.codes.tfft2 import REFERENCE_ENV

    opts = AnalysisOptions(trace=True, metrics=True)
    result = analyze(build_tfft2(), env=REFERENCE_ENV, H=8, options=opts)
    print(result.lcg.render())
    print(result.plan.phase_chunks)
    print(result.report.summary())
    print(result.trace.render())      # flame-style span tree
    print(result.metrics["counters"]) # cache/prover/engine counters

Long-lived serving (coalescing, shared warm cache, backpressure) lives
in :mod:`repro.service`::

    python -m repro serve --port 8377 --snapshot lcg.pkl
    python -m repro query --code tfft2 --H 8 --port 8377
"""

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from .ir import Program
from .obs import Collector
from .options import AnalysisOptions

__version__ = "1.2.0"


@dataclass
class AnalysisResult:
    """End-to-end pipeline output: LCG, constraints, plan, execution.

    ``trace`` is the :class:`repro.obs.Collector` holding the span tree
    when tracing was requested (``trace.render()`` / ``trace.to_json()``)
    and ``metrics`` the counter/gauge snapshot when metrics were; both
    are ``None`` otherwise.  ``env`` and ``H`` echo the binding the
    pipeline ran under, which makes the result self-describing:
    :meth:`to_document` needs no extra arguments.
    """

    program: Program
    lcg: object
    constraints: object
    plan: object
    report: object
    trace: object = None
    metrics: Optional[dict] = None
    env: Mapping[str, int] = None
    H: int = 0

    def to_document(self) -> dict:
        """The versioned wire document (:mod:`repro.document`).

        The single producer of the result serialization: the CLI's
        ``--json``, the service's ``POST /analyze`` responses and job
        results, and the checker's JSON reports all call this, so the
        wire format cannot fork.  Serialize with
        :func:`repro.document.dumps_canonical` for the canonical bytes.
        """
        from .document import result_document

        return result_document(self)


def analyze(
    program: Program,
    env: Mapping[str, int],
    H: int,
    back_edges: Optional[list] = None,
    execute: bool = True,
    options: Optional[AnalysisOptions] = None,
    collector: Optional[Collector] = None,
    ilp_memo=None,
) -> AnalysisResult:
    """Run the full paper pipeline on a program.

    1. build + label the LCG (descriptors, Theorems 1–2, Table 1),
    2. extract the Table-2 constraint system,
    3. solve the Eq. 7 integer program for CYCLIC(p) chunkings,
    4. (optionally) execute on the DSM simulator under the derived
       iteration/data distribution and report measured locality.

    ``options`` is an :class:`AnalysisOptions` (or a ``KEY=VALUE,...``
    spec string) scoping every engine knob to this call; fields left at
    ``None`` inherit the process defaults.  ``collector`` supplies an
    external :class:`repro.obs.Collector` to record into (e.g. to wrap
    the parse stage too); otherwise one is created when the options ask
    for tracing or metrics.

    ``ilp_memo`` is a :class:`repro.distribution.TermMemo` a session or
    sweep carries across calls so the Eq. 7 enumeration reuses
    component argmins; it never changes the result (memo hits are
    bit-identical to evaluating), so it stays out of ``options`` — it
    is pure acceleration state, not configuration.
    """
    from . import memo
    from .locality import build_lcg
    from .locality.engine import AnalysisCache
    from .locality.intra import check_intra_phase
    from .distribution import T3D, extract_constraints, solve_enumerative
    from .dsm import execute_with_plan
    from .obs import obs_span
    from .plan import (
        PlanCache,
        PlanRecorder,
        get_plan_cache,
        install_plan,
        plan_key,
    )

    opts = options
    if opts is None:
        opts = AnalysisOptions()
    elif isinstance(opts, str):
        opts = AnalysisOptions.from_spec(opts)

    obs = collector
    if obs is None and (opts.trace or opts.metrics):
        obs = Collector(trace=opts.trace, metrics=opts.metrics)

    # A path-valued cache option means: warm-start from the pickle (an
    # unreadable/missing file loads empty) and save back after the build.
    cache_arg = opts.analysis_cache
    cache_path = None
    if cache_arg is not None and not isinstance(cache_arg, bool):
        if not (hasattr(cache_arg, "edges") and hasattr(cache_arg, "intra")):
            cache_path = cache_arg
            cache_arg = AnalysisCache.load(cache_path, obs=obs)

    # Compiled analysis plans: a path-valued plan_cache loads the
    # persistent bundle (memo banks install immediately — they speed
    # every program); plan=True alone uses the in-memory bundle.  A
    # known (program, binding) installs its plan and replays; an
    # unknown one records this build into a fresh plan.
    plan_enabled = opts.plan
    plan_bundle = None
    plan_path = None
    if opts.plan_cache is not None:
        if hasattr(opts.plan_cache, "plans"):
            plan_bundle = opts.plan_cache
        else:
            plan_path = opts.plan_cache
            plan_bundle = PlanCache.open(plan_path, obs=obs)
        if plan_enabled is None:
            plan_enabled = True
    elif plan_enabled:
        plan_bundle = get_plan_cache()

    ctx = program.context
    prev_obs = getattr(ctx, "obs", None)
    prev_refutation = getattr(ctx, "refutation", None)
    ctx.obs = obs
    if opts.refutation is not None:
        ctx.refutation = opts.refutation

    exec_plan = None
    recorder = None
    if plan_enabled and plan_bundle is not None:
        found = plan_bundle.get(plan_key(program, env, H, back_edges))
        if found is not None and install_plan(
            found, obs=obs, cache=cache_arg
        ):
            exec_plan = found
            plan_bundle.bump("installed")
        else:
            if found is not None:
                plan_bundle.bump("rejected")
            recorder = PlanRecorder()

    memo_before = memo.counters()
    try:
        with obs_span(obs, "analyze", program=program.name, H=H):
            if obs is not None:
                # Theorem-1 pre-pass: one span per (phase, array)
                # verdict, carrying its clause (holds/case).  It also
                # memoizes every verdict up front, so the edge spans
                # under "lcg" are leaves.
                with obs_span(obs, "descriptors"):
                    for phase in program.phases:
                        arrays = sorted(
                            phase.arrays(), key=lambda a: a.name
                        )
                        for array in arrays:
                            name = f"theorem1:{phase.name}:{array.name}"
                            with obs_span(obs, name) as sp:
                                intra = check_intra_phase(phase, array, ctx)
                                sp.set(holds=intra.holds, case=intra.case)
            lcg = build_lcg(
                program,
                env=env,
                H_value=H,
                back_edges=back_edges,
                cache=cache_arg,
                plan=exec_plan,
            )
            if recorder is not None:
                compiled_plan = recorder.finish(
                    program,
                    env=env,
                    H_value=H,
                    back_edges=back_edges,
                    cache=cache_arg,
                )
                recorder = None
                if compiled_plan is not None:
                    plan_bundle.put(compiled_plan)
                    if obs is not None:
                        obs.count("plan.compiled")
            if plan_path is not None:
                plan_bundle.capture_banks()
                plan_bundle.save(plan_path)
            if cache_path is not None:
                cache_arg.save(cache_path)
            with obs_span(obs, "constraints"):
                constraints = extract_constraints(lcg)
            machine = T3D
            if (
                opts.machine_alpha is not None
                or opts.machine_beta is not None
            ):
                machine = replace(
                    T3D,
                    **{
                        k: v
                        for k, v in (
                            ("alpha", opts.machine_alpha),
                            ("beta", opts.machine_beta),
                        )
                        if v is not None
                    },
                )
            bounds = None
            if opts.chunk_bounds is not None:
                from .options import parse_chunk_bounds

                bounds = parse_chunk_bounds(opts.chunk_bounds)
            with obs_span(obs, "ilp") as sp:
                plan = solve_enumerative(
                    constraints,
                    env,
                    H=H,
                    machine=machine,
                    chunk_bounds=bounds,
                    memo=ilp_memo,
                )
                sp.set(
                    components=len(plan.components),
                    relaxed=len(plan.relaxed_edges),
                )
            report = (
                execute_with_plan(
                    program,
                    lcg,
                    plan,
                    env,
                    H,
                    fast_path=opts.dsm_fast_path,
                )
                if execute
                else None
            )
        if obs is not None and obs.metrics:
            delta = {}
            for name, value in memo.counters().items():
                if name.endswith(".size"):
                    obs.gauge(name, value)
                else:
                    delta[name] = value - memo_before.get(name, 0)
                    obs.count(name, delta[name])
            obs.count("compile.compiled", delta["memo.compile.misses"])
            obs.count("compile.reused", delta["memo.compile.hits"])
    finally:
        if recorder is not None:
            recorder.abandon()
        ctx.obs = prev_obs
        if opts.refutation is not None:
            ctx.refutation = prev_refutation

    return AnalysisResult(
        program=program,
        lcg=lcg,
        constraints=constraints,
        plan=plan,
        report=report,
        env=dict(env),
        H=int(H),
        trace=obs if (obs is not None and obs.trace) else None,
        metrics=(
            obs.metrics_snapshot()
            if (obs is not None and obs.metrics)
            else None
        ),
    )


__all__ = [
    "AnalysisOptions",
    "AnalysisResult",
    "Collector",
    "analyze",
    "__version__",
]
