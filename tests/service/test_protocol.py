"""Request validation, response documents, and the shared serializer."""

import json

import pytest

from repro import analyze
from repro.codes import ALL_CODES
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AnalyzeRequest,
    ProtocolError,
    build_request_program,
    dumps_canonical,
    request_key,
    response_document,
)

JACOBI_SOURCE = """
program jacobi_like
  param N
  array A(N)
  array B(N)
  phase F1
    doall i = 0, N - 1
      A(i) = 1
    end doall
  end phase
  phase F2
    doall i = 0, N - 1
      B(i) = A(i)
    end doall
  end phase
end program
"""


class TestRequestValidation:
    def test_minimal_code_request(self):
        req = AnalyzeRequest.from_json({"code": "jacobi", "H": 8})
        assert req.code == "jacobi" and req.H == 8
        assert req.execute is True and req.back_edges is None

    def test_round_trip_to_json(self):
        req = AnalyzeRequest.from_json(
            {
                "version": PROTOCOL_VERSION,
                "code": "adi",
                "env": {"M": 16, "N": 16},
                "H": 4,
                "options": "fast_path=wide",
                "execute": False,
                "back_edges": [["F1", "F2"]],
            }
        )
        assert AnalyzeRequest.from_json(req.to_json()) == req

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({}, "exactly one"),
            ({"code": "a", "source": "b"}, "exactly one"),
            ({"code": "a", "version": 99}, "version"),
            ({"code": "a", "H": 0}, "'H'"),
            ({"code": "a", "H": True}, "'H'"),
            ({"code": "a", "env": {"N": "x"}}, "env entry"),
            ({"code": "a", "env": {"N": True}}, "env entry"),
            ({"code": "a", "options": "bogus=1"}, "options spec"),
            ({"code": "a", "execute": 1}, "'execute'"),
            ({"code": "a", "back_edges": [["F1"]]}, "back_edges"),
            ({"code": "a", "surprise": 1}, "unknown request fields"),
            ([], "JSON object"),
        ],
    )
    def test_rejects_bad_requests(self, doc, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            AnalyzeRequest.from_json(doc)

    def test_env_order_is_canonical(self):
        a = AnalyzeRequest.from_json({"code": "adi", "env": {"M": 1, "N": 2}})
        b = AnalyzeRequest.from_json({"code": "adi", "env": {"N": 2, "M": 1}})
        assert a == b and hash(a) == hash(b)


class TestMaterialization:
    def test_unknown_code_is_protocol_error(self):
        req = AnalyzeRequest.from_json({"code": "nope"})
        with pytest.raises(ProtocolError, match="unknown code"):
            build_request_program(req)

    def test_source_parse_error_is_protocol_error(self):
        req = AnalyzeRequest.from_json(
            {"source": "program x\n  phase\n", "env": {"N": 4}}
        )
        with pytest.raises(ProtocolError, match="parse"):
            build_request_program(req)

    def test_unclosed_program_is_positioned_parse_error(self):
        # Truncated input is a *syntax* error with a position, not a
        # validation error: the parser names the unclosed construct.
        req = AnalyzeRequest.from_json(
            {"source": "program x\n!!!", "env": {"N": 4}}
        )
        with pytest.raises(ProtocolError, match="unclosed program x"):
            build_request_program(req)

    def test_invalid_program_is_protocol_error(self):
        # A well-formed but phase-less program must still turn into a
        # 400-able validation error.
        req = AnalyzeRequest.from_json(
            {"source": "program x\nend program\n", "env": {"N": 4}}
        )
        with pytest.raises(ProtocolError, match="validate"):
            build_request_program(req)

    def test_missing_env_is_protocol_error(self):
        req = AnalyzeRequest.from_json({"source": JACOBI_SOURCE})
        with pytest.raises(ProtocolError, match="binding"):
            build_request_program(req)

    def test_bundled_default_env_and_overrides(self):
        req = AnalyzeRequest.from_json({"code": "jacobi", "env": {"N": 128}})
        program, env, back = build_request_program(req)
        assert env["N"] == 128
        assert back == list(ALL_CODES["jacobi"][2])

    def test_request_key_normalizes_option_spelling(self):
        docs = [
            {"code": "jacobi", "options": "fast_path=wide"},
            {"code": "jacobi", "options": " fast_path = wide ,"},
        ]
        keys = []
        for doc in docs:
            req = AnalyzeRequest.from_json(doc)
            keys.append(request_key(req, *_materialize(req)))
        assert keys[0] == keys[1]

    def test_request_key_separates_bindings(self):
        base = AnalyzeRequest.from_json({"code": "jacobi"})
        other = AnalyzeRequest.from_json({"code": "jacobi", "H": 8})
        assert request_key(base, *_materialize(base)) != request_key(
            other, *_materialize(other)
        )


def _materialize(req):
    program, env, back = build_request_program(req)
    return program, env, back


class TestResponseDocument:
    @pytest.fixture(scope="class")
    def jacobi_doc(self):
        builder, env, back = ALL_CODES["jacobi"]
        result = analyze(builder(), env=env, H=4, back_edges=back)
        return response_document(result, env, 4)

    def test_document_shape(self, jacobi_doc):
        doc = jacobi_doc
        assert doc["version"] == PROTOCOL_VERSION
        assert doc["program"] == "jacobi"
        assert set(doc["lcg"]) == {"U", "V"}
        for array_doc in doc["lcg"].values():
            assert {"nodes", "labels", "chains"} <= set(array_doc)
        assert doc["plan"]["phase_chunks"]
        assert any(s["kind"] == "phase" for s in doc["schedule"])
        assert doc["report"]["summary"].startswith("jacobi on H=4")
        assert doc["trace"] is None and doc["metrics"] is None

    def test_document_is_json_and_canonical(self, jacobi_doc):
        wire = dumps_canonical(jacobi_doc)
        assert json.loads(wire) == jacobi_doc
        # canonical: key order in the input dict must not matter
        shuffled = dict(reversed(list(jacobi_doc.items())))
        assert dumps_canonical(shuffled) == wire

    def test_no_execute_has_null_report(self):
        builder, env, back = ALL_CODES["jacobi"]
        result = analyze(
            builder(), env=env, H=4, back_edges=back, execute=False
        )
        doc = response_document(result, env, 4)
        assert doc["report"] is None
        assert any(s["kind"] == "phase" for s in doc["schedule"])

    def test_trace_and_metrics_surface_when_requested(self):
        builder, env, back = ALL_CODES["jacobi"]
        result = analyze(
            builder(),
            env=env,
            H=4,
            back_edges=back,
            options="trace=on,metrics=on",
        )
        doc = response_document(result, env, 4)
        assert doc["trace"]["spans"]
        assert doc["metrics"]["counters"]
        json.loads(dumps_canonical(doc))  # still JSON-serializable
