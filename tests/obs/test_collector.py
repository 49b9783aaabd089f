"""Unit tests for the repro.obs Collector (spans, counters, exports)."""

import json
import pickle

import pytest

from repro.obs import Collector, obs_span


class TestSpans:
    def test_nesting_and_parent_links(self):
        c = Collector()
        with c.span("outer"):
            with c.span("inner_a"):
                pass
            with c.span("inner_b"):
                pass
        assert [s.name for s in c.spans] == ["outer", "inner_a", "inner_b"]
        outer = c.spans[0]
        assert outer.parent is None
        assert all(s.parent == outer.id for s in c.spans[1:])
        assert all(s.dt >= 0.0 for s in c.spans)

    def test_tree_children_in_record_order(self):
        c = Collector()
        with c.span("root"):
            with c.span("a"):
                pass
            with c.span("b"):
                pass
        (root,) = c.tree()
        assert [child["name"] for child in root["children"]] == ["a", "b"]

    def test_span_handle_attrs(self):
        c = Collector()
        with c.span("work", phase="F1") as sp:
            sp.set(verdict=True)
        assert c.spans[0].attrs == {"phase": "F1", "verdict": True}

    def test_trace_off_records_nothing_but_yields_handle(self):
        c = Collector(trace=False)
        with c.span("ghost") as sp:
            sp.set(anything=1)  # must be a silent no-op
        assert c.spans == []

    def test_exception_still_closes_span(self):
        c = Collector()
        with pytest.raises(RuntimeError):
            with c.span("outer"):
                with c.span("inner"):
                    raise RuntimeError("boom")
        assert c._stack == []
        assert all(s.dt >= 0.0 for s in c.spans)

    def test_obs_span_tolerates_none(self):
        with obs_span(None, "nothing") as sp:
            sp.set(ignored=True)  # no collector, no error


class TestCountersAndGauges:
    def test_count_accumulates(self):
        c = Collector()
        c.count("cache.hits")
        c.count("cache.hits", 4)
        assert c.value("cache.hits") == 5
        assert c.value("missing") == 0

    def test_metrics_off_drops_counts(self):
        c = Collector(metrics=False)
        c.count("x")
        c.gauge("g", 3.5)
        assert c.counters == {} and c.gauges == {}

    def test_snapshot_is_sorted(self):
        c = Collector()
        c.count("b")
        c.count("a")
        c.gauge("z", 1)
        snap = c.metrics_snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["gauges"] == {"z": 1}


class TestWorkerProtocol:
    def test_pickle_ships_config_only(self):
        c = Collector(trace=True, metrics=False)
        with c.span("work"):
            pass
        clone = pickle.loads(pickle.dumps(c))
        assert clone.trace is True and clone.metrics is False
        assert clone.spans == [] and clone.counters == {}


class TestExports:
    def test_to_json_round_trips(self):
        c = Collector()
        with c.span("analyze", program="tfft2"):
            with c.span("lcg"):
                pass
        c.count("engine.items", 14)
        doc = json.loads(json.dumps(c.to_json()))
        assert doc["version"] == 1
        assert doc["spans"][0]["name"] == "analyze"
        assert doc["spans"][0]["attrs"] == {"program": "tfft2"}
        assert doc["counters"] == {"engine.items": 14}

    def test_render_contains_guides_and_attrs(self):
        c = Collector()
        with c.span("analyze"):
            with c.span("lcg", edges=14):
                pass
            with c.span("ilp"):
                pass
        text = c.render()
        assert "analyze" in text
        assert "├─ lcg  [edges=14]" in text
        assert "└─ ilp" in text
        assert "ms" in text
