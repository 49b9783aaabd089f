"""Plan-driven analysis must be byte-identical to the direct path.

The soundness contract of :mod:`repro.plan` is that installing and
replaying a compiled plan changes *when* work happens, never *what* the
answer is.  These tests compare full canonical response documents —
labels, constraints, chunkings and DSM measurements — between a direct
cold analysis and a plan-driven one, for every bundled code, serial and
parallel.
"""

import pickle

import pytest

from repro import AnalysisOptions, Collector, analyze, memo
from repro.codes import ALL_CODES
from repro.perf.bench import clear_caches
from repro.plan import (
    AnalysisPlan,
    PlanCache,
    PlanRecorder,
    get_plan_cache,
    install_plan,
    plan_key,
)
from repro.service.protocol import dumps_canonical, response_document
from repro.symbolic import context as _context


@pytest.fixture(autouse=True)
def _cold_process():
    """Every test starts and ends with cold global memo state."""
    clear_caches()
    yield
    clear_caches()
    _context._NONNEG_RECORD = ()


def _run(name, H=4, **kwargs):
    builder, env, back = ALL_CODES[name]
    result = analyze(builder(), env=env, H=H, back_edges=back, **kwargs)
    return dumps_canonical(response_document(result, env, H))


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(ALL_CODES))
    def test_plan_replay_matches_direct_serial(self, name):
        direct = _run(name)
        clear_caches()

        bundle = PlanCache()
        opts = AnalysisOptions(plan=True, plan_cache=bundle)
        recorded = _run(name, options=opts)
        assert recorded == direct
        assert len(bundle.plans) == 1
        assert bundle.stats["misses"] == 1

        clear_caches()
        replayed = _run(name, options=opts)
        assert replayed == direct
        assert bundle.stats["hits"] == 1
        assert bundle.stats["installed"] == 1
        assert bundle.stats["rejected"] == 0

    def test_replay_counts_install_in_obs(self):
        bundle = PlanCache()
        opts = AnalysisOptions(plan=True, plan_cache=bundle)
        _run("jacobi", options=opts)
        clear_caches()
        obs = Collector(trace=False, metrics=True)
        _run("jacobi", options=opts, collector=obs)
        assert obs.counters.get("plan.installed", 0) == 1

    def test_different_binding_misses(self):
        bundle = PlanCache()
        opts = AnalysisOptions(plan=True, plan_cache=bundle)
        _run("jacobi", H=4, options=opts)
        clear_caches()
        _run("jacobi", H=8, options=opts)  # distinct binding -> new plan
        assert len(bundle.plans) == 2
        assert bundle.stats["installed"] == 0


class TestGlobalBundle:
    def test_plan_true_uses_process_global_bundle(self):
        direct = _run("jacobi")
        clear_caches()
        opts = AnalysisOptions(plan=True)
        _run("jacobi", options=opts)
        bundle = get_plan_cache()
        assert len(bundle.plans) == 1
        clear_caches()  # also clears the global bundle...
        _run("jacobi", options=opts)  # ...so this run re-records
        assert len(get_plan_cache().plans) == 1
        assert _run("jacobi", options=opts) == direct
        assert get_plan_cache().stats["installed"] >= 1


class TestPlanObject:
    def _record(self, name="jacobi", H=4):
        builder, env, back = ALL_CODES[name]
        program = builder()
        recorder = PlanRecorder()
        analyze(program, env=env, H=H, back_edges=back)
        plan = recorder.finish(program, env=env, H_value=H, back_edges=back)
        assert plan is not None
        return program, env, H, back, plan

    def test_recorder_captures_build(self):
        program, env, H, back, plan = self._record()
        assert plan.key == plan_key(program, env, H, back)
        assert len(plan.edge_fps) > 0
        assert len(plan.nonneg) > 0
        assert len(plan.ctxs) > 0
        assert plan.intra  # Theorem-1 verdicts were seeded by the build

    def test_back_edges_are_part_of_the_plan_key(self):
        """Two same-length back-edge lists must never share a plan.

        The back edges extend the LCG work list positionally, so a plan
        recorded under one list replayed under another would assign its
        pre-computed edge fingerprints to the wrong edges — and poison
        the persistent edge cache with wrong keys.
        """
        builder, env, back = ALL_CODES["jacobi"]
        program = builder()
        assert back  # jacobi exercises the back-edge mechanism
        base = plan_key(program, env, 4, back)
        assert plan_key(program, env, 4) != base
        flipped = [(v, u) for u, v in back]
        assert plan_key(program, env, 4, flipped) != base
        # None and [] canonicalize to the same binding
        assert plan_key(program, env, 4, None) == plan_key(
            program, env, 4, []
        )

    def test_finish_and_install_use_the_build_cache(self):
        """Theorem-1 verdicts round-trip through a caller-supplied cache.

        A build run against a private AnalysisCache must record its
        intra table from *that* cache (not the cold process-global one),
        and installing the plan with ``cache=`` must seed that cache.
        """
        from repro.locality.engine import AnalysisCache, get_analysis_cache

        builder, env, back = ALL_CODES["jacobi"]
        program = builder()
        private = AnalysisCache()
        recorder = PlanRecorder()
        analyze(
            program, env=env, H=4, back_edges=back,
            options=AnalysisOptions(analysis_cache=private),
        )
        plan = recorder.finish(
            program, env=env, H_value=4, back_edges=back, cache=private
        )
        assert plan is not None
        assert plan.intra  # captured from the private cache
        assert set(plan.intra) <= set(private.intra)

        clear_caches()
        target = AnalysisCache()
        assert install_plan(plan, cache=target) is True
        assert len(target.intra) == len(plan.intra)
        assert len(get_analysis_cache().intra) == 0

    def test_pickle_round_trip_installs(self):
        program, env, H, back, plan = self._record()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.key == plan.key
        assert clone.edge_fps == plan.edge_fps
        assert len(clone.nonneg) == len(plan.nonneg)
        clear_caches()
        assert install_plan(clone) is True

    def test_concurrent_recorders_both_record(self):
        builder, env, back = ALL_CODES["jacobi"]
        program = builder()
        outer = PlanRecorder()
        inner = PlanRecorder()  # concurrent recorders each capture
        assert outer.active and inner.active
        assert len(_context._NONNEG_RECORD) == 2
        analyze(program, env=env, H=4, back_edges=back)
        inner_plan = inner.finish(
            program, env=env, H_value=4, back_edges=back
        )
        plan = outer.finish(program, env=env, H_value=4, back_edges=back)
        assert plan is not None and inner_plan is not None
        assert len(inner_plan.nonneg) == len(plan.nonneg)
        assert not _context._NONNEG_RECORD
        # finishing twice stays disarmed and returns None
        assert inner.finish(program, env=env, H_value=4) is None

    def test_abandon_disarms_hook(self):
        recorder = PlanRecorder()
        assert _context._NONNEG_RECORD
        recorder.abandon()
        assert not _context._NONNEG_RECORD

    def test_edge_fps_for_rejects_length_drift(self):
        from repro.locality.lcg import edge_work_items
        from repro.symbolic import sym

        program, env, H, back, plan = self._record()
        work = edge_work_items(program, back)
        ctx = program.context
        fps = plan.edge_fps_for(work, ctx, sym("H"), env, H)
        assert fps == list(plan.edge_fps)
        assert plan.edge_fps_for(work[:-1], ctx, sym("H"), env, H) is None

    def test_edge_fps_for_rejects_fp_drift(self):
        from repro.locality.lcg import edge_work_items
        from repro.symbolic import sym

        program, env, H, back, plan = self._record()
        work = edge_work_items(program, back)
        stale = AnalysisPlan(
            program_fp=plan.program_fp,
            binding=plan.binding,
            edge_fps=(("bogus",),) + tuple(plan.edge_fps[1:]),
        )
        fps = stale.edge_fps_for(work, program.context, sym("H"), env, H)
        assert fps is None


class TestIntegritySweep:
    def test_poisoned_verdict_rejects_whole_plan(self):
        """A recorded True the sample bank refutes must kill the plan."""
        program, env, H, back, plan = TestPlanObject()._record("jacobi")
        ctx_fp = next(iter(plan.ctxs))
        from repro.symbolic import sym

        poison = sym("H") - 10_000_000  # trivially negative on samples
        plan.nonneg.append((ctx_fp, poison, True))
        clear_caches()
        obs = Collector(trace=False, metrics=True)
        assert install_plan(plan, obs=obs) is False
        assert obs.counters.get("plan.integrity_failed", 0) == 1
        # nothing was seeded: the nonneg memo stays empty
        assert len(memo.banks()["nonneg"]) == 0
