"""End-to-end observability: span coverage and metric invariants."""

import pytest

from repro import AnalysisOptions, analyze
from repro.perf.bench import clear_caches


def _tfft2():
    from repro.codes import ALL_CODES

    builder, env, back = ALL_CODES["tfft2"]
    return builder(), env, back


def _span_names(collector):
    return [s.name for s in collector.spans]


@pytest.fixture()
def tfft2_traced():
    clear_caches()
    program, env, back = _tfft2()
    return analyze(
        program,
        env=env,
        H=4,
        back_edges=back,
        options=AnalysisOptions(trace=True, metrics=True),
    )


class TestSpanCoverage:
    def test_every_stage_appears(self, tfft2_traced):
        names = _span_names(tfft2_traced.trace)
        for stage in ("analyze", "descriptors", "lcg", "constraints",
                      "ilp", "dsm"):
            assert stage in names

    def test_descriptor_spans_cover_all_phases(self, tfft2_traced):
        names = _span_names(tfft2_traced.trace)
        phases = [p.name for p in tfft2_traced.program.phases]
        assert len(phases) == 8
        for phase in phases:
            assert f"theorem1:{phase}:X" in names
            assert f"phase:{phase}" in names
        assert any(n.startswith("compute_ard:") for n in names)
        assert any(n.startswith("coalesce_union:") for n in names)
        assert any(n.startswith("id:") for n in names)
        assert any(n.startswith("symmetry:") for n in names)
        assert any(n.startswith("edge:X:") for n in names)
        assert any(n.startswith("ilp:component:") for n in names)
        assert any(n.startswith("comm:") for n in names)

    def test_edge_spans_are_leaves_under_lcg(self, tfft2_traced):
        tree = tfft2_traced.trace.tree()
        (analyze_node,) = [t for t in tree if t["name"] == "analyze"]
        (lcg,) = [
            c for c in analyze_node["children"] if c["name"] == "lcg"
        ]
        assert lcg["children"], "lcg span has no edge children"
        for edge in lcg["children"]:
            assert edge["name"].startswith("edge:")
            assert edge["children"] == []

    def test_result_surfaces(self, tfft2_traced):
        assert tfft2_traced.trace is not None
        assert tfft2_traced.metrics is not None
        doc = tfft2_traced.trace.to_json()
        assert doc["version"] == 1 and doc["spans"]
        assert "analyze" in tfft2_traced.trace.render()


class TestMetricsInvariants:
    def test_cache_hits_plus_misses_equal_lookups(self, tfft2_traced):
        c = tfft2_traced.metrics["counters"]
        for kind in ("intra", "edge"):
            lookups = c.get(f"analysis_cache.{kind}_lookups", 0)
            hits = c.get(f"analysis_cache.{kind}_hits", 0)
            misses = c.get(f"analysis_cache.{kind}_misses", 0)
            assert hits + misses == lookups
            assert lookups > 0

    def test_prover_outcomes_partition_uncached_queries(self, tfft2_traced):
        c = tfft2_traced.metrics["counters"]
        assert c.get("prover.proved", 0) > 0
        assert c.get("prover.disproved", 0) > 0
        # every disproof came from a sampled refutation witness
        assert c.get("prover.disproved", 0) <= c.get("refute.refuted", 0)

    def test_engine_accounting(self, tfft2_traced):
        c = tfft2_traced.metrics["counters"]
        assert c.get("engine.items") == 14  # TFFT2: 7 X edges + 7 Y edges
        assert (
            c.get("engine.computed", 0) + c.get("engine.deduped", 0)
            <= c["engine.items"]
        )

    def test_comm_traffic_matches_report(self, tfft2_traced):
        c = tfft2_traced.metrics["counters"]
        report = tfft2_traced.report
        assert c.get("dsm.comm.elements") == report.comm_volume
        assert c.get("dsm.comm.messages") == report.comm_messages
        assert c.get("dsm.comm.bytes") == report.comm_volume * 8
        assert (
            c.get("dsm.local") == report.total_local
            and c.get("dsm.remote") == report.total_remote
        )

    def test_all_local_program_moves_zero_bytes(self):
        from repro.ir import ProgramBuilder

        clear_caches()
        bld = ProgramBuilder("allL")
        N = bld.param("N", minimum=8)
        A = bld.array("A", N)
        with bld.phase("F1") as ph:
            with ph.doall("i", 0, N - 1) as i:
                ph.write(A, i)
        with bld.phase("F2") as ph:
            with ph.doall("i", 0, N - 1) as i:
                ph.read(A, i)
        result = analyze(
            bld.build(),
            env={"N": 64},
            H=4,
            options=AnalysisOptions(trace=True, metrics=True),
        )
        labels = [l for (_, _, l) in result.lcg.labels("A")]
        assert labels == ["L"]
        c = result.metrics["counters"]
        # an all-L program triggers no communication at all
        assert c.get("dsm.comm.bytes", 0) == 0
        assert c.get("dsm.comm.messages", 0) == 0
        assert not any(
            n.startswith("comm:") for n in _span_names(result.trace)
        )
        assert c.get("dsm.remote", 0) == 0
