"""Fault injection: every stage degrades to a *correct* slow path.

For each injectable fault the test runs the full pipeline with the
fault armed, asserts the result is identical to the healthy baseline,
and asserts the degradation left its fingerprint: the documented obs
counter.  That closes the loop the fallbacks used to leave open — a
fallback nobody can observe is indistinguishable from a silent bug.
"""

import pytest

from repro import AnalysisOptions, Collector, analyze
from repro.check import faults
from repro.codes import ALL_CODES
from repro.errors import CacheLoadWarning, ProverTimeout
from repro.locality import AnalysisCache, clear_analysis_cache
from repro.symbolic import Context, sym
from repro.symbolic.refute import refute_nonneg


def _labels(result):
    lcg = result.lcg
    return {
        array: [(e.phase_k, e.phase_g, e.label) for e in lcg.edges(array)]
        for array in lcg.arrays()
    }


def _analyze(name, H=4, **kwargs):
    builder, env, back = ALL_CODES[name]
    clear_analysis_cache()
    return analyze(builder(), env=env, H=H, back_edges=back, **kwargs)


@pytest.fixture()
def baseline():
    return _labels(_analyze("jacobi"))


class TestWorkerCrash:
    # The seam's end-to-end test (a cluster worker dies mid-request and
    # the router replays it) lives in tests/cluster/test_router.py.
    def test_crash_is_subprocess_only(self):
        # In the arming process (the cluster router) the seam must never
        # fire: the router has to survive to respawn and replay.
        with faults.inject("worker_crash") as armed:
            assert faults.fire("worker_crash") is False
            assert armed["worker_crash"] == 0


class TestCorruptCache:
    def test_corrupt_pickle_warns_counts_and_stays_correct(
        self, baseline, tmp_path
    ):
        path = tmp_path / "warm.pkl"
        AnalysisCache().save(path)  # a perfectly valid file on disk
        obs = Collector(trace=False, metrics=True)
        opts = AnalysisOptions(analysis_cache=str(path))
        with faults.inject("corrupt_cache") as armed:
            with pytest.warns(CacheLoadWarning):
                result = _analyze("jacobi", options=opts, collector=obs)
            assert armed["corrupt_cache"] == 1
        assert _labels(result) == baseline
        assert obs.counters.get("analysis_cache.load_failed", 0) == 1


class TestProverTimeout:
    def _refuting_context(self):
        ctx = Context()
        ctx.assume_positive("H")
        ctx.refutation = True
        return ctx

    def test_timeout_declines_and_counts(self):
        ctx = self._refuting_context()
        expr = sym("x") - 10_000  # easily refuted: samples are small
        assert refute_nonneg(ctx, expr) is True
        ctx.obs = Collector(trace=False, metrics=True)
        with faults.inject("prover_timeout") as armed:
            assert refute_nonneg(ctx, expr) is False  # declined, not wrong
            assert armed["prover_timeout"] >= 1
        assert ctx.obs.counters.get("prover.timeouts", 0) >= 1
        assert ctx.obs.counters.get("refute.declined", 0) >= 1
        # disarmed again: the accelerated verdict is back
        assert refute_nonneg(ctx, expr) is True

    def test_pipeline_correct_under_timeout(self, baseline):
        with faults.inject("prover_timeout"):
            result = _analyze("jacobi")
        assert _labels(result) == baseline


class TestCompileFailure:
    def test_pipeline_falls_back_to_interpretation(self, baseline):
        obs = Collector(trace=False, metrics=True)
        with faults.inject("compile_failure") as armed:
            result = _analyze("jacobi", collector=obs)
            assert armed["compile_failure"] >= 1
        assert _labels(result) == baseline
        assert result.report.total_local == _analyze("jacobi").report.total_local


class TestHarness:
    def test_double_arming_rejected(self):
        with faults.inject("prover_timeout"):
            with pytest.raises(ValueError, match="already armed"):
                with faults.inject("prover_timeout"):
                    pass

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            with faults.inject("cosmic_ray"):
                pass
        with pytest.raises(ValueError, match="unknown fault"):
            faults.parse_fault_list("worker_crash,cosmic_ray")

    def test_parse_fault_list(self):
        assert faults.parse_fault_list("") == ()
        assert faults.parse_fault_list(" worker_crash , corrupt_cache ") == (
            "worker_crash",
            "corrupt_cache",
        )

    def test_disarmed_fire_is_false(self):
        for name in faults.FAULTS:
            assert faults.fire(name) is False

    def test_exception_taxonomy_hierarchy(self):
        from repro.errors import ReproError, SoundnessError

        assert issubclass(ProverTimeout, ReproError)
        assert issubclass(SoundnessError, ReproError)
        assert issubclass(CacheLoadWarning, UserWarning)
