"""Session state + edits: byte identity and Eq. 7 term-memo reuse.

The incremental contract under test: a session's answer at any
parameter point equals a fresh ``analyze()`` at those parameters, and
repeat visits to a parameter point answer the Eq. 7 argmin from the
:class:`TermMemo` without enumerating a single candidate
(``ilp.candidates == 0``).
"""

import hashlib

import pytest

from repro import AnalysisOptions, analyze
from repro.codes import ALL_CODES
from repro.document import dumps_canonical
from repro.session.delta import apply_edit, apply_edits
from repro.session.state import Session, SessionError


def _session(name, H=8, execute=False, **kwargs):
    builder, env, back = ALL_CODES[name]
    return Session(
        builder(), env, H, back_edges=back, execute=execute, **kwargs
    )


def _fresh_doc(session):
    """Cold analyze() at the session's current parameters."""
    result = analyze(
        session.program,
        env=session.env,
        H=session.H,
        back_edges=session.back_edges,
        execute=session.execute,
        options=session.options_at(
            session.alpha, session.beta, session.bounds, fresh=True
        ),
    )
    doc = result.to_document()
    doc["metrics"] = None
    doc["trace"] = None
    return doc


# -- byte identity ---------------------------------------------------------


@pytest.mark.parametrize("name", ["jacobi", "adi", "tfft2"])
def test_solve_matches_fresh_analyze(name):
    session = _session(name)
    out = session.solve()
    fresh = _fresh_doc(session)
    assert dumps_canonical(out["document"]) == dumps_canonical(fresh)
    assert out["sha256"] == hashlib.sha256(
        dumps_canonical(fresh).encode()
    ).hexdigest()
    session.close()


def test_identity_survives_edit_sequence():
    session = _session("jacobi")
    session.solve()
    for ops in (
        [{"op": "set_param", "key": "H", "value": 16}],
        [{"op": "set_param", "key": "alpha", "value": 25.0}],
        [{"op": "edit_phase", "phase": "F_sweep", "chunk": 4}],
        [{"op": "set_param", "key": "alpha", "value": None}],
    ):
        out = apply_edits(session, ops)
        fresh = _fresh_doc(session)
        assert dumps_canonical(out["document"]) == dumps_canonical(fresh)
    session.close()


def test_execute_documents_match_too():
    session = _session("jacobi", execute=True)
    out = session.solve()
    assert dumps_canonical(out["document"]) == dumps_canonical(
        _fresh_doc(session)
    )
    assert out["document"]["report"] is not None
    session.close()


# -- term-memo reuse (the incremental speed contract) ----------------------


def test_candidates_drop_to_zero_on_repeat_point():
    """Edit away and back: the repeat solve enumerates nothing."""
    session = _session("jacobi")
    first = session.solve()
    assert first["reuse"]["ilp_candidates"] > 0
    apply_edits(session, [{"op": "set_param", "key": "H", "value": 16}])
    back = apply_edits(session, [{"op": "set_param", "key": "H", "value": 8}])
    assert back["reuse"]["ilp_candidates"] == 0
    assert back["reuse"]["ilp_component_memo_hits"] > 0
    assert back["sha256"] == first["sha256"]
    session.close()


def test_pin_resolves_untouched_components_from_memo():
    """Pinning one tfft2 phase leaves other components memo-answerable."""
    session = _session("tfft2")
    first = session.solve()
    phase = session.phase_names()[0]
    pinned = apply_edits(
        session, [{"op": "edit_phase", "phase": phase, "chunk": 2}]
    )
    # The pinned component re-enumerates under its new bounds; every
    # component the pin does not touch answers from the memo.
    assert pinned["reuse"]["ilp_component_memo_hits"] > 0
    assert pinned["reuse"]["ilp_candidates"] < first["reuse"]["ilp_candidates"]
    session.close()


def test_memo_survives_parameter_round_trip_via_alpha():
    session = _session("jacobi")
    session.solve()
    apply_edits(session, [{"op": "set_param", "key": "alpha", "value": 9.0}])
    out = apply_edits(
        session, [{"op": "set_param", "key": "alpha", "value": None}]
    )
    assert out["reuse"]["ilp_candidates"] == 0
    session.close()


def test_machine_edit_reuses_every_edge():
    """alpha/beta edits leave the LCG binding untouched — full edge reuse."""
    session = _session("jacobi")
    session.solve()
    out = apply_edits(
        session, [{"op": "set_param", "key": "beta", "value": 2.0}]
    )
    assert out["reuse"]["edges_recomputed"] == 0
    assert out["reuse"]["edges_reused"] > 0
    # ...and the same labels: the constraint system comes from the bank
    assert out["reuse"]["constraints_reused"] == 1
    session.close()


def test_H_edit_recomputes_edges_once_then_reuses():
    session = _session("jacobi")
    session.solve()
    moved = apply_edits(session, [{"op": "set_param", "key": "H", "value": 16}])
    assert moved["reuse"]["edges_recomputed"] > 0
    again = apply_edits(
        session, [{"op": "set_param", "key": "beta", "value": 3.0}]
    )
    assert again["reuse"]["edges_recomputed"] == 0
    session.close()


# -- edit validation -------------------------------------------------------


def test_unknown_op_and_params_rejected():
    session = _session("jacobi")
    with pytest.raises(SessionError):
        apply_edit(session, {"op": "bogus"})
    with pytest.raises(SessionError):
        apply_edit(session, {"op": "set_param", "key": "nope", "value": 1})
    with pytest.raises(SessionError):
        apply_edit(session, {"op": "set_param", "key": "H", "value": 0})
    with pytest.raises(SessionError):
        apply_edit(
            session, {"op": "set_param", "key": "alpha", "value": -1.0}
        )
    with pytest.raises(SessionError):
        apply_edit(
            session, {"op": "edit_phase", "phase": "missing", "chunk": 2}
        )
    with pytest.raises(SessionError):
        apply_edit(
            session,
            {"op": "edit_phase", "phase": "F_sweep", "min_chunk": 5,
             "max_chunk": 2},
        )
    # a rejected edit leaves the parameters untouched
    assert session.H == 8
    assert session.alpha is None
    assert session.bounds == {}
    session.close()


def test_env_edit_and_refingerprint_count():
    session = _session("jacobi")
    out = apply_edit(
        session, {"op": "set_param", "key": "N", "value": 2048}
    )
    assert session.env["N"] == 2048
    # parameter edits touch nothing structural
    assert out["refingerprinted"] == 0
    session.close()


def test_phase_bounds_pin_and_clear():
    session = _session("jacobi")
    apply_edit(session, {"op": "edit_phase", "phase": "F_sweep", "chunk": 3})
    assert session.bounds == {"F_sweep": (3, 3)}
    apply_edit(
        session,
        {"op": "edit_phase", "phase": "F_sweep", "min_chunk": 2,
         "max_chunk": 6},
    )
    assert session.bounds == {"F_sweep": (2, 6)}
    apply_edit(session, {"op": "edit_phase", "phase": "F_sweep",
                         "clear": True})
    assert session.bounds == {}
    session.close()


def test_apply_edits_requires_nonempty_list():
    session = _session("jacobi")
    with pytest.raises(SessionError):
        apply_edits(session, [])
    with pytest.raises(SessionError):
        apply_edits(session, None)
    session.close()


# -- lifecycle -------------------------------------------------------------


def test_close_releases_state_and_is_idempotent():
    session = _session("jacobi")
    session.solve()
    assert session.cache.edges  # the solve populated the private cache
    session.close()
    assert session.closed
    assert session.program is None and session.cache is None
    assert session.memo is None
    session.close()  # idempotent
    with pytest.raises(SessionError):
        session.solve()


def test_shared_cache_not_cleared_on_close():
    from repro.locality.engine import AnalysisCache

    shared = AnalysisCache()
    session = _session("jacobi", cache=shared)
    session.solve()
    entries = len(shared.edges)
    assert entries > 0
    session.close()
    assert len(shared.edges) == entries  # other sessions still use it


def test_options_stripped_of_session_owned_fields():
    session = _session(
        "jacobi",
        options=AnalysisOptions(
            machine_alpha=7.0, chunk_bounds="F_sweep:2:4", metrics=True
        ),
    )
    # seeded from the options...
    assert session.alpha == 7.0
    assert session.bounds == {"F_sweep": (2, 4)}
    # ...and stripped from the base so the session is the single owner
    assert session.base_options.machine_alpha is None
    assert session.base_options.chunk_bounds is None
    assert session.base_options.metrics is False
    assert session.base_options.plan is False
    session.close()


def test_session_oracle_runs_clean():
    from repro.check import check_session

    builder, env, back = ALL_CODES["jacobi"]
    report = check_session(
        builder(), env, 8, back_edges=back, program_name="jacobi"
    )
    assert report.ok, report.render()
    assert report.checked.get("session.byte_identity", 0) >= 4
    assert report.checked.get("session.sweep_point", 0) >= 1
