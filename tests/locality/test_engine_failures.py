"""Engine failure semantics: analysis bugs surface, bad caches degrade.

* exceptions raised by the analysis itself propagate unchanged;
* corrupt cache pickles load cold, warn :class:`CacheLoadWarning`, and
  count ``analysis_cache.load_failed``.
"""

import pickle

import pytest

from repro.errors import CacheLoadWarning
from repro.ir import ProgramBuilder
from repro.locality import AnalysisCache, analyze_edges
from repro.obs import Collector
from repro.symbolic import sym


def _program():
    bld = ProgramBuilder("failprog")
    N = bld.param("N", minimum=8)
    A = bld.array("A", 64)
    B = bld.array("B", 64)
    with bld.phase("F_k") as ph:
        with ph.doall("i", 0, N - 1) as i:
            ph.write(A, i)
            ph.write(B, 2 * i)
    with bld.phase("F_g") as ph:
        with ph.doall("j", 0, N - 1) as j:
            ph.read(A, j)
            ph.read(B, 2 * j + 1)
    return bld.build()


def _items(prog):
    return [
        (prog.phase("F_k"), prog.phase("F_g"), prog.arrays["A"]),
        (prog.phase("F_k"), prog.phase("F_g"), prog.arrays["B"]),
    ]


class TestTaskExceptions:
    def test_raising_analysis_propagates_unwrapped(self, monkeypatch):
        """A bug in analyze_edge surfaces as itself, never swallowed."""
        prog = _program()

        def broken_analyze_edge(*args, **kwargs):
            raise ValueError("injected analysis bug")

        monkeypatch.setattr(
            "repro.locality.engine.analyze_edge", broken_analyze_edge
        )
        with pytest.raises(ValueError, match="injected analysis bug"):
            analyze_edges(
                _items(prog),
                prog.context,
                sym("H"),
                env={"N": 16},
                H_value=4,
                cache=False,
            )


class TestCacheLoadFailures:
    def test_corrupt_pickle_warns_and_counts(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"not a pickle at all")
        obs = Collector(trace=False, metrics=True)
        with pytest.warns(CacheLoadWarning, match="starting cold"):
            cache = AnalysisCache.load(path, obs=obs)
        assert not cache.edges and not cache.intra
        assert cache.stats["load_failed"] == 1
        assert obs.counters["analysis_cache.load_failed"] == 1

    def test_truncated_pickle_warns(self, tmp_path):
        src = tmp_path / "ok.pkl"
        cache = AnalysisCache()
        cache.save(src)
        truncated = tmp_path / "truncated.pkl"
        truncated.write_bytes(src.read_bytes()[:-7])
        with pytest.warns(CacheLoadWarning):
            loaded = AnalysisCache.load(truncated)
        assert not loaded.edges and loaded.stats["load_failed"] == 1

    def test_schema_mismatch_warns(self, tmp_path):
        path = tmp_path / "old-schema.pkl"
        path.write_bytes(
            pickle.dumps({"schema": -1, "intra": {}, "edges": {}})
        )
        with pytest.warns(CacheLoadWarning, match="schema"):
            loaded = AnalysisCache.load(path)
        assert loaded.stats["load_failed"] == 1

    def test_wrong_payload_type_warns(self, tmp_path):
        path = tmp_path / "list.pkl"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.warns(CacheLoadWarning):
            loaded = AnalysisCache.load(path)
        assert loaded.stats["load_failed"] == 1

    def test_missing_file_is_silent(self, tmp_path):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            cache = AnalysisCache.load(tmp_path / "absent.pkl")
        assert not cache.edges and cache.stats["load_failed"] == 0
