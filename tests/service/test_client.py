"""Client retry/backoff logic against a scripted fake transport."""

import pytest

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)


class ScriptedClient(ServiceClient):
    """A client whose wire exchanges are a scripted list of outcomes.

    Each script entry is either an exception instance (raised) or a
    ``(status, doc, headers)`` tuple.  Sleeps are recorded, not slept.
    """

    def __init__(self, script, **kwargs):
        kwargs.setdefault("sleep", self._record_sleep)
        super().__init__(**kwargs)
        self.script = list(script)
        self.calls = 0
        self.sleeps = []

    def _record_sleep(self, seconds):
        self.sleeps.append(seconds)

    def _send_once(self, method, path, body):
        self.calls += 1
        outcome = self.script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


OK = (200, {"ok": True}, {})


def test_success_first_try():
    client = ScriptedClient([OK])
    assert client.request("GET", "/healthz") == {"ok": True}
    assert client.calls == 1 and client.sleeps == []


def test_retries_connection_errors_with_exponential_backoff():
    client = ScriptedClient(
        [ConnectionRefusedError("no"), ConnectionResetError("rst"), OK],
        retries=4,
        backoff=0.25,
        backoff_cap=4.0,
    )
    assert client.request("GET", "/healthz") == {"ok": True}
    assert client.calls == 3
    assert client.sleeps == [0.25, 0.5]  # 0.25 * 2**attempt


def test_backoff_is_capped():
    client = ScriptedClient(
        [ConnectionRefusedError("no")] * 5 + [OK],
        retries=5,
        backoff=1.0,
        backoff_cap=2.0,
    )
    client.request("GET", "/healthz")
    assert client.sleeps == [1.0, 2.0, 2.0, 2.0, 2.0]


def test_retries_429_and_honours_retry_after():
    client = ScriptedClient(
        [(429, {"error": "busy"}, {"Retry-After": "0.5"}), OK],
        retries=2,
        backoff=0.25,
        backoff_cap=4.0,
    )
    assert client.request("POST", "/analyze", {"code": "adi"}) == {"ok": True}
    assert client.sleeps == [0.5]


def test_retries_503_draining():
    client = ScriptedClient(
        [(503, {"error": "server is draining"}, {}), OK], retries=1
    )
    assert client.request("GET", "/metrics") == {"ok": True}


def test_non_retryable_4xx_raises_immediately():
    client = ScriptedClient(
        [(400, {"error": "unknown code 'nope'"}, {}), OK], retries=3
    )
    with pytest.raises(ServiceError, match="unknown code") as info:
        client.request("POST", "/analyze", {"code": "nope"})
    assert info.value.status == 400
    assert client.calls == 1 and client.sleeps == []


def test_500_raises_immediately():
    client = ScriptedClient([(500, {"error": "internal"}, {}), OK])
    with pytest.raises(ServiceError) as info:
        client.request("GET", "/metrics")
    assert info.value.status == 500


def test_exhausted_retries_raise_service_unavailable():
    client = ScriptedClient(
        [(429, {"error": "busy"}, {})] * 3, retries=2, backoff=0.01
    )
    with pytest.raises(ServiceUnavailable, match="429"):
        client.request("POST", "/analyze", {"code": "adi"})
    assert client.calls == 3


def test_connection_failures_exhaust_to_service_unavailable():
    client = ScriptedClient(
        [ConnectionRefusedError("no")] * 2, retries=1, backoff=0.01
    )
    with pytest.raises(ServiceUnavailable, match="connection failed"):
        client.request("GET", "/healthz")


def test_analyze_builds_a_valid_request():
    captured = {}

    class Capture(ScriptedClient):
        def _send_once(self, method, path, body):
            captured["method"] = method
            captured["path"] = path
            captured["body"] = body
            return OK

    client = Capture([])
    client.analyze(code="tfft2", env={"P": 16}, H=8, options="fast_path=wide")
    import json

    doc = json.loads(captured["body"])
    assert captured["method"] == "POST" and captured["path"] == "/analyze"
    assert doc["code"] == "tfft2" and doc["H"] == 8
    assert doc["env"] == {"P": 16}
    assert doc["options"] == "fast_path=wide"
    assert doc["version"] == 1
