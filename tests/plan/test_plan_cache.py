"""PlanCache persistence: round trips, invalidation, atomicity."""

import os
import pickle
import warnings

import pytest

from repro import AnalysisOptions, Collector, analyze, memo
from repro.codes import ALL_CODES
from repro.errors import CacheLoadWarning
from repro.perf.bench import clear_caches
from repro.persist import atomic_write_bytes
from repro.plan import PlanCache, PlanRecorder


@pytest.fixture(autouse=True)
def _cold_process():
    clear_caches()
    yield
    clear_caches()


def _recorded_bundle(name="jacobi", H=4):
    builder, env, back = ALL_CODES[name]
    program = builder()
    recorder = PlanRecorder()
    analyze(program, env=env, H=H, back_edges=back)
    plan = recorder.finish(program, env=env, H_value=H, back_edges=back)
    assert plan is not None
    bundle = PlanCache()
    bundle.put(plan)
    bundle.capture_banks()
    return bundle, plan


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        bundle, plan = _recorded_bundle()
        path = tmp_path / "plans.pkl"
        bundle.save(path)

        clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clean load must be silent
            loaded = PlanCache.load(path)
        assert loaded.stats["load_failed"] == 0
        assert set(loaded.plans) == {plan.key}
        assert loaded.plans[plan.key].edge_fps == plan.edge_fps
        for bank in memo.banks():
            assert bank in loaded.banks

    def test_install_banks_reseeds_memos(self, tmp_path):
        nonneg = memo.banks()["nonneg"]
        bundle, _ = _recorded_bundle()
        path = tmp_path / "plans.pkl"
        bundle.save(path)
        clear_caches()
        assert len(nonneg) == 0
        obs = Collector(trace=False, metrics=True)
        loaded = PlanCache.load(path, obs=obs)
        loaded.install_banks(obs=obs)
        assert len(nonneg) > 0
        assert obs.counters.get("plan.banks_installed", 0) == 1

    def test_missing_file_is_silent_cold_start(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = PlanCache.load(tmp_path / "absent.pkl")
        assert loaded.plans == {}
        assert loaded.stats["load_failed"] == 0


class TestInvalidation:
    def test_corrupt_file_loads_empty_with_warning(self, tmp_path):
        path = tmp_path / "plans.pkl"
        path.write_bytes(b"not a pickle at all")
        obs = Collector(trace=False, metrics=True)
        with pytest.warns(CacheLoadWarning):
            loaded = PlanCache.load(path, obs=obs)
        assert loaded.plans == {}
        assert loaded.stats["load_failed"] == 1
        assert obs.counters.get("plan.load_failed", 0) == 1

    def test_version_mismatch_loads_empty_with_warning(self, tmp_path):
        path = tmp_path / "plans.pkl"
        path.write_bytes(
            pickle.dumps(
                {
                    "schema": PlanCache.SCHEMA,
                    "version": "0.0.0-other",
                    "banks": {},
                    "plans": {},
                }
            )
        )
        with pytest.warns(CacheLoadWarning, match="version"):
            loaded = PlanCache.load(path)
        assert loaded.plans == {}
        assert loaded.stats["load_failed"] == 1

    def test_schema_mismatch_loads_empty_with_warning(self, tmp_path):
        from repro import __version__

        path = tmp_path / "plans.pkl"
        path.write_bytes(
            pickle.dumps(
                {
                    "schema": PlanCache.SCHEMA + 1,
                    "version": __version__,
                    "banks": {},
                    "plans": {},
                }
            )
        )
        with pytest.warns(CacheLoadWarning, match="schema"):
            loaded = PlanCache.load(path)
        assert loaded.plans == {}

    def test_wrong_payload_type_loads_empty_with_warning(self, tmp_path):
        path = tmp_path / "plans.pkl"
        path.write_bytes(pickle.dumps(["not", "a", "dict"]))
        with pytest.warns(CacheLoadWarning):
            loaded = PlanCache.load(path)
        assert loaded.plans == {}

    @pytest.mark.parametrize("field", ["banks", "plans"])
    def test_non_dict_banks_or_plans_load_empty_with_warning(
        self, tmp_path, field
    ):
        """A shape-mangled bundle takes the cold path, not a crash later."""
        from repro import __version__

        payload = {
            "schema": PlanCache.SCHEMA,
            "version": __version__,
            "banks": {},
            "plans": {},
        }
        payload[field] = ["not", "a", "dict"]
        path = tmp_path / "plans.pkl"
        path.write_bytes(pickle.dumps(payload))
        with pytest.warns(CacheLoadWarning):
            loaded = PlanCache.load(path)
        assert loaded.plans == {}
        assert loaded.banks == {}
        assert loaded.stats["load_failed"] == 1
        loaded.install_banks()  # must be a no-op, not an AttributeError


class TestSaveHygiene:
    def test_unpicklable_entry_dropped_not_fatal(self, tmp_path):
        bundle, plan = _recorded_bundle()
        bundle.banks["poison"] = lambda: None  # unpicklable
        path = tmp_path / "plans.pkl"
        bundle.save(path)
        assert bundle.stats["save_dropped"] == 1
        loaded = PlanCache.load(path)
        assert "poison" not in loaded.banks
        assert set(loaded.plans) == {plan.key}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "x.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["x.bin"]

    def test_atomic_write_replaces_existing(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["x.bin"]


class TestThreadSafety:
    def test_concurrent_put_during_save(self, tmp_path):
        """Request threads put() while the snapshot thread save()s.

        This is the service's actual concurrency shape (one bundle
        shared across ThreadingHTTPServer request threads plus the
        snapshot cadence); without the bundle lock, save()'s iteration
        over ``plans`` races the dict resize and raises ``dictionary
        changed size during iteration``.
        """
        import threading
        from types import SimpleNamespace

        bundle, plan = _recorded_bundle()
        stop = threading.Event()
        errors = []

        def hammer():
            i = 0
            try:
                while not stop.is_set():
                    bundle.put(SimpleNamespace(key=("fp", i)))
                    bundle.get(("fp", i))
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for n in range(10):
                bundle.capture_banks()
                bundle.save(tmp_path / "plans.pkl")
                bundle.snapshot_stats()
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []
        loaded = PlanCache.load(tmp_path / "plans.pkl")
        assert plan.key in loaded.plans

    def test_bundle_pickle_round_trip_restores_lock(self):
        bundle, plan = _recorded_bundle()
        clone = pickle.loads(pickle.dumps(bundle))
        assert plan.key in clone.plans
        clone.put(plan)  # lock was restored; mutation works
        assert clone.snapshot_stats()["entries"]["plans"] == len(
            clone.plans
        )


class TestPathWiring:
    def test_analyze_plan_cache_path_end_to_end(self, tmp_path):
        from repro.service.protocol import dumps_canonical, response_document

        path = tmp_path / "plans.pkl"
        builder, env, back = ALL_CODES["jacobi"]

        def run(**kwargs):
            result = analyze(
                builder(),
                env=env,
                H=4,
                back_edges=back,
                options=AnalysisOptions(plan_cache=str(path)),
                **kwargs,
            )
            return dumps_canonical(response_document(result, env, 4))

        first = run()  # records, saves the bundle
        assert path.exists()
        clear_caches()
        second = run()  # replays from disk
        assert second == first
        clear_caches()
        obs = Collector(trace=False, metrics=True)
        run(collector=obs)
        assert obs.counters.get("plan.installed", 0) == 1
