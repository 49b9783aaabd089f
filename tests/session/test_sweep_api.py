"""What-if sweeps, the Pareto front, and the bounded session table."""

import time

import pytest

from repro.codes import ALL_CODES
from repro.session.api import (
    SessionLimitError,
    SessionNotFound,
    SessionTable,
    handle_create,
    handle_delete,
    handle_edit,
    handle_get,
    handle_sweep,
    session_route,
)
from repro.session.state import Session, SessionError
from repro.session.sweep import (
    parse_sweep_args,
    parse_sweep_spec,
    run_sweep,
)


def _session(name="jacobi", H=8):
    builder, env, back = ALL_CODES[name]
    return Session(builder(), env, H, back_edges=back, execute=False)


# -- spec parsing ----------------------------------------------------------


def test_parse_ranges_and_lists():
    assert parse_sweep_spec("H=2:8:2") == ("H", [2, 4, 6, 8])
    assert parse_sweep_spec("H=2:4") == ("H", [2, 3, 4])
    assert parse_sweep_spec("alpha=0.5,1.5") == ("alpha", [0.5, 1.5])
    assert parse_sweep_spec("chunk:F_sweep=1,3,5") == (
        "chunk:F_sweep", [1, 3, 5],
    )
    grid = parse_sweep_args(["H=2:4", "alpha=1:2"])
    assert grid == {"H": [2, 3, 4], "alpha": [1.0, 2.0]}


@pytest.mark.parametrize(
    "spec",
    ["H", "H=", "H=8:2", "H=2:8:0", "H=a:b", "H=1,x", "=1:2"],
)
def test_bad_specs_rejected(spec):
    with pytest.raises(SessionError):
        parse_sweep_spec(spec)


# -- sweep semantics -------------------------------------------------------


def test_sweep_grid_validation():
    session = _session()
    with pytest.raises(SessionError):
        run_sweep(session, {})
    with pytest.raises(SessionError):
        run_sweep(session, {"bogus": [1, 2]})
    with pytest.raises(SessionError):
        run_sweep(session, {"chunk:missing": [1]})
    with pytest.raises(SessionError):
        run_sweep(session, {"H": [0]})
    with pytest.raises(SessionError):
        run_sweep(session, {"alpha": [-1.0]})
    with pytest.raises(SessionError):
        run_sweep(session, {"H": list(range(1, 600))})  # over MAX_POINTS
    session.close()


def test_sweep_never_mutates_the_session():
    session = _session()
    session.solve()
    before = session.params()
    run_sweep(session, {"H": [4, 8], "chunk:F_sweep": [2, 4]})
    assert session.params() == before
    session.close()


def test_pin_sweep_returns_conflicting_pareto_front():
    """The acceptance bar: >= 2 non-dominated layouts on a bundled code.

    An unrestricted sweep collapses to one point (the model property:
    the feasible-maximum chunk minimizes both axes), so the front comes
    from a capped chunk-pin grid — communication falls and imbalance
    rises as the pin grows.
    """
    session = _session()
    session.solve()
    out = run_sweep(session, {"chunk:F_sweep": list(range(1, 13))})
    front = [out["points"][i] for i in out["front"]]
    assert len(front) >= 2
    # non-domination: sort by communication, imbalance must strictly fall
    front.sort(key=lambda p: p["communication"])
    for a, b in zip(front, front[1:]):
        assert b["communication"] > a["communication"]
        assert b["imbalance"] < a["imbalance"]
    # the same-H sweep answered every LCG edge from the session cache
    assert out["reuse"]["edges_recomputed"] == 0
    assert out["reuse"]["ilp_term_memo_hits"] > 0
    session.close()


def test_sweep_points_share_memo_across_grid_points():
    """A repeated coordinate across grid rows hits the same memo entry."""
    session = _session()
    session.solve()
    first = run_sweep(session, {"chunk:F_sweep": [2, 4]})
    again = run_sweep(session, {"chunk:F_sweep": [2, 4]})
    # second sweep over the same points: everything is a memo answer
    assert again["reuse"]["ilp_component_memo_hits"] >= 2
    assert again["reuse"]["ilp_component_memo_misses"] == 0
    assert again["reuse"]["constraints_reused"] == 2
    assert [p["sha256"] for p in again["points"]] == [
        p["sha256"] for p in first["points"]
    ]
    session.close()


def test_sweep_documents_only_on_request():
    session = _session()
    out = run_sweep(session, {"H": [4]})
    assert "document" not in out["points"][0]
    out = run_sweep(session, {"H": [4]}, include_documents=True)
    assert out["points"][0]["document"]["plan"] is not None
    session.close()


# -- the bounded TTL table -------------------------------------------------


def test_table_limit_and_delete():
    table = SessionTable(limit=2, ttl=600.0)
    a, b = _session(), _session()
    table.put(a)
    table.put(b)
    with pytest.raises(SessionLimitError):
        table.put(_session())
    assert table.get(a.id) is a
    assert table.delete(a.id)
    assert not table.delete(a.id)
    with pytest.raises(SessionNotFound):
        table.get(a.id)
    assert a.closed  # delete closed it
    table.close_all()
    assert b.closed


def test_table_ttl_eviction_closes_sessions():
    table = SessionTable(limit=4, ttl=0.05)
    session = _session()
    table.put(session)
    time.sleep(0.1)
    # any operation sweeps; the idle session is gone and closed
    with pytest.raises(SessionNotFound):
        table.get(session.id)
    assert session.closed
    assert table.describe()["expired"] == 1


def test_table_validates_bounds():
    with pytest.raises(ValueError):
        SessionTable(limit=0)
    with pytest.raises(ValueError):
        SessionTable(ttl=0)


# -- endpoint bodies -------------------------------------------------------


def test_handlers_end_to_end():
    table = SessionTable(limit=4, ttl=600.0)
    created = handle_create(
        table, {"code": "jacobi", "H": 8, "execute": False}
    )
    sid = created["session"]
    assert created["revision"] == 0
    assert created["params"]["H"] == 8

    edited = handle_edit(
        table, sid, {"op": "set_param", "key": "H", "value": 16}
    )
    assert edited["revision"] == 1
    assert edited["params"]["H"] == 16

    swept = handle_sweep(table, sid, {"sweep": {"H": "4:8:4"}})
    assert swept["reuse"]["points"] == 2
    assert len(swept["points"]) == 2

    described = handle_get(table, sid)
    assert described["revision"] == 1

    assert handle_delete(table, sid) == {"session": sid, "deleted": True}
    with pytest.raises(SessionNotFound):
        handle_edit(table, sid, {"op": "set_param", "key": "H", "value": 4})
    with pytest.raises(SessionNotFound):
        handle_delete(table, sid)


def test_handle_create_honours_minted_id_and_failed_solve():
    table = SessionTable(limit=4, ttl=600.0)
    created = handle_create(
        table,
        {"code": "jacobi", "H": 8, "execute": False,
         "session_id": "sticky-1"},
    )
    assert created["session"] == "sticky-1"
    assert table.get("sticky-1").id == "sticky-1"
    # a create that cannot solve never occupies a table slot
    with pytest.raises(Exception):
        handle_create(table, {"code": "no-such-code", "H": 8})
    assert len(table) == 1
    table.close_all()


def test_session_route_shapes():
    assert session_route("/session") == ("create", None)
    assert session_route("/session/abc") == ("entity", "abc")
    assert session_route("/session/abc/edit") == ("edit", "abc")
    assert session_route("/session/abc/sweep") == ("sweep", "abc")
    assert session_route("/analyze") is None
    assert session_route("/session/abc/bogus") is None
    assert session_route("/session/a/b/c") is None
