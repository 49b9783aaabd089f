"""The locality-analysis engine: cache correctness.

The whole point of the engine layer is that it must be *invisible* in
the results: fingerprint cache hits (including cross-name relabelled
ones) and disk warm-starts may only change wall clock, never a label,
reason, witness or chain.  These tests pin that
contract on every suite code and on randomized phase pairs.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import ALL_CODES
from repro.descriptors import edge_fingerprint, phase_array_fingerprint
from repro.ir import ProgramBuilder
from repro.locality import (
    AnalysisCache,
    analyze_edges,
    build_lcg,
    check_intra_phase,
    clear_analysis_cache,
    get_analysis_cache,
)
from repro.locality.engine import _resolve_cache
from repro.symbolic import sym


def _snapshot(lcg):
    """Everything observable about an LCG's labelling, order-stable."""
    out = {}
    for array in sorted(lcg.arrays()):
        out[array] = (
            lcg.labels(array),
            [
                (
                    e.phase_k,
                    e.phase_g,
                    e.label,
                    e.reason,
                    tuple(map(str, e.witness)) if e.witness else None,
                )
                for e in lcg.edges(array)
            ],
            lcg.chains(array),
        )
    return out


def _build(name, **kwargs):
    builder, env, back = ALL_CODES[name]
    clear_analysis_cache()
    return build_lcg(
        builder(), env=env, H_value=4, back_edges=back, **kwargs
    )


@pytest.mark.parametrize("name", sorted(ALL_CODES))
class TestDeterminism:
    def test_cached_matches_uncached(self, name):
        reference = _snapshot(_build(name, cache=False))
        cold = _build(name, cache=True)
        assert _snapshot(cold) == reference
        # second build, fresh program objects: answered from the cache
        builder, env, back = ALL_CODES[name]
        warm = build_lcg(
            builder(), env=env, H_value=4, back_edges=back, cache=True
        )
        assert _snapshot(warm) == reference
        stats = get_analysis_cache().stats
        assert stats["edge_hits"] >= stats["edge_misses"]


def _two_phase(prog_name, names, stride_k, stride_g, offset, trip):
    bld = ProgramBuilder(prog_name)
    bld.param("N", minimum=8)
    A = bld.array("A", stride_k * trip + stride_g * trip + 8)
    with bld.phase(names[0]) as ph:
        with ph.doall("i", 0, trip - 1) as i:
            ph.write(A, stride_k * i)
    with bld.phase(names[1]) as ph:
        with ph.doall("j", 0, trip - 1) as j:
            ph.read(A, stride_g * j + offset)
    return bld.build()


@st.composite
def pair_specs(draw):
    return dict(
        stride_k=draw(st.sampled_from([1, 2, 4])),
        stride_g=draw(st.sampled_from([1, 2, 4])),
        offset=draw(st.integers(0, 2)),
        trip=draw(st.sampled_from([16, 32, 48])),
        h=draw(st.sampled_from([2, 4])),
    )


def _edge_view(analysis):
    return (
        analysis.phase_k,
        analysis.phase_g,
        analysis.label,
        analysis.reason,
        analysis.feasibility,
        tuple(map(str, analysis.witness)) if analysis.witness else None,
        analysis.intra_k.holds,
        analysis.intra_g.holds,
    )


@given(pair_specs())
@settings(max_examples=30, deadline=None)
def test_cached_analyze_edges_equals_uncached(spec):
    prog = _two_phase(
        "randpair", ("Fk", "Fg"),
        spec["stride_k"], spec["stride_g"], spec["offset"], spec["trip"],
    )
    items = [(prog.phase("Fk"), prog.phase("Fg"), prog.arrays["A"])]
    H = sym("H")
    kwargs = dict(env={"N": 16}, H_value=spec["h"])
    uncached = analyze_edges(
        items, prog.context, H, cache=False, **kwargs
    )[0]
    cache = AnalysisCache()
    cold = analyze_edges(items, prog.context, H, cache=cache, **kwargs)[0]
    warm = analyze_edges(items, prog.context, H, cache=cache, **kwargs)[0]
    assert _edge_view(cold) == _edge_view(uncached)
    assert _edge_view(warm) == _edge_view(uncached)
    assert cache.stats["edge_hits"] == 1


class TestFingerprints:
    def test_stable_and_picklable(self):
        prog = _two_phase("fp", ("Fk", "Fg"), 2, 2, 1, 16)
        fp = edge_fingerprint(
            prog.phase("Fk"), prog.phase("Fg"), prog.arrays["A"],
            prog.context, sym("H"), env={"N": 16}, H_value=4,
        )
        again = edge_fingerprint(
            prog.phase("Fk"), prog.phase("Fg"), prog.arrays["A"],
            prog.context, sym("H"), env={"N": 16}, H_value=4,
        )
        assert fp == again
        assert pickle.loads(pickle.dumps(fp)) == fp

    def test_name_independent(self):
        a = _two_phase("one", ("Fk", "Fg"), 2, 2, 1, 16)
        b = _two_phase("two", ("Ga", "Gb"), 2, 2, 1, 16)
        fa = phase_array_fingerprint(a.phase("Fk"), a.arrays["A"], a.context)
        fb = phase_array_fingerprint(b.phase("Ga"), b.arrays["A"], b.context)
        assert fa == fb

    def test_structure_sensitive(self):
        a = _two_phase("one", ("Fk", "Fg"), 2, 2, 1, 16)
        b = _two_phase("two", ("Fk", "Fg"), 4, 2, 1, 16)
        fa = phase_array_fingerprint(a.phase("Fk"), a.arrays["A"], a.context)
        fb = phase_array_fingerprint(b.phase("Fk"), b.arrays["A"], b.context)
        assert fa != fb


class TestRelabel:
    def test_cross_name_hit_rebinds_names(self):
        a = _two_phase("one", ("Fk", "Fg"), 2, 2, 0, 16)
        b = _two_phase("two", ("Ga", "Gb"), 2, 2, 0, 16)
        cache = AnalysisCache()
        H = sym("H")
        kwargs = dict(env={"N": 16}, H_value=4, cache=cache)
        first = analyze_edges(
            [(a.phase("Fk"), a.phase("Fg"), a.arrays["A"])],
            a.context, H, **kwargs,
        )[0]
        second = analyze_edges(
            [(b.phase("Ga"), b.phase("Gb"), b.arrays["A"])],
            b.context, H, **kwargs,
        )[0]
        assert cache.stats["edge_hits"] == 1
        assert (second.phase_k, second.phase_g) == ("Ga", "Gb")
        assert second.label == first.label
        assert second.intra_k.phase_name == "Ga"
        assert second.intra_g.phase_name == "Gb"
        if first.balanced is not None:
            assert str(second.balanced.p_k) == "p_Ga"
            assert str(second.balanced.p_g) == "p_Gb"
            assert "p_Fk" not in second.reason
            assert "p_Fg" not in second.reason


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        builder, env, back = ALL_CODES["tomcatv"]
        cache = AnalysisCache()
        cold = build_lcg(
            builder(), env=env, H_value=4, back_edges=back, cache=cache
        )
        path = tmp_path / "lcg.pkl"
        cache.save(path)
        loaded = AnalysisCache.load(path)
        assert set(loaded.edges) == set(cache.edges)
        warm = build_lcg(
            builder(), env=env, H_value=4, back_edges=back, cache=loaded
        )
        assert _snapshot(warm) == _snapshot(cold)
        assert loaded.stats["edge_misses"] == 0
        # every work item hit; structural twins (X/Y, RX/RY) share
        # fingerprints, so hits can exceed the number of stored entries
        assert loaded.stats["edge_hits"] >= len(loaded.edges)

    def test_corrupt_file_loads_empty(self, tmp_path):
        from repro.errors import CacheLoadWarning

        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.warns(CacheLoadWarning):
            cache = AnalysisCache.load(path)
        assert not cache.edges and not cache.intra

    def test_missing_file_loads_empty(self, tmp_path):
        cache = AnalysisCache.load(tmp_path / "absent.pkl")
        assert not cache.edges and not cache.intra


class TestToggles:
    def test_cache_toggle_resolution(self):
        assert _resolve_cache(None) is get_analysis_cache()
        assert _resolve_cache(True) is get_analysis_cache()
        assert _resolve_cache(False) is None
        own = AnalysisCache()
        assert _resolve_cache(own) is own


class TestDropDEdges:
    def test_dropped_edges_filtered_from_live_queries(self):
        lcg = _build("tfft2", cache=False)
        d_labels = [
            (a, u, v)
            for a in lcg.arrays()
            for (u, v, label) in lcg.labels(a)
            if label == "D"
        ]
        assert d_labels, "tfft2 is expected to produce D edges"
        for array, u, v in d_labels:
            live = lcg.edges(array)
            assert all(
                (e.phase_k, e.phase_g) != (u, v) for e in live
            ), f"dropped D edge {u}->{v} leaked into edges({array!r})"
        for array in lcg.arrays():
            assert all(e.label != "D" for e in lcg.edges(array))
            assert all(e.label == "C" for e in lcg.communication_edges(array))

    def test_keep_d_edges_when_not_dropping(self):
        builder, env, back = ALL_CODES["tfft2"]
        clear_analysis_cache()
        lcg = build_lcg(
            builder(), env=env, H_value=4, back_edges=back,
            drop_d_edges=False, cache=False,
        )
        kept = [
            e for a in lcg.arrays() for e in lcg.edges(a) if e.label == "D"
        ]
        assert kept

    def test_labels_still_report_d(self):
        lcg = _build("tfft2", cache=False)
        all_labels = [
            label for a in lcg.arrays() for (_, _, label) in lcg.labels(a)
        ]
        assert "D" in all_labels


class TestIntraMemoKey:
    def test_keyed_by_context_fingerprint_not_id(self):
        builder, env, back = ALL_CODES["jacobi"]
        prog = builder()
        phase = prog.phases[0]
        array = sorted(phase.arrays(), key=lambda a: a.name)[0]
        result = check_intra_phase(phase, array, prog.context)
        keys = list(phase._intra_cache)
        assert keys
        for name, token in keys:
            assert isinstance(name, str)
            assert isinstance(token, tuple), (
                "memo key must be the context fingerprint, not id(ctx)"
            )
        # a *different* context object with identical facts hits the memo
        twin = builder()
        assert twin.context is not prog.context
        assert twin.context._fingerprint() == prog.context._fingerprint()
        assert check_intra_phase(phase, array, twin.context) is result
