"""The default executor tier is the closed form, and it is exact.

Every front end runs ``analyze()`` with ``dsm_fast_path`` left at
``None``.  On the 17 bundled codes that default must answer every phase
in closed form (``dsm.fast_path.symbolic`` once per phase, never the
wide enumeration or the interpreter) and produce the report of the wide
enumeration reference, and, at a size the interpreter can afford, the
interpreter's.
"""

import numpy as np
import pytest

from repro import AnalysisOptions, analyze
from repro.codes import ALL_CODES, scaled_env
from repro.document import dumps_canonical, result_document


def _run(name, H, fast_path=None, metrics=False):
    build, env, back = ALL_CODES[name]
    return analyze(
        build(), scaled_env(name, env, H), H, back_edges=back or None,
        options=AnalysisOptions(dsm_fast_path=fast_path, metrics=metrics),
    )


def _assert_same_execution(got, want):
    """Per-PE counts, put lists and the canonical document all agree."""
    a, b = got.report, want.report
    assert [p.phase for p in a.phases] == [p.phase for p in b.phases]
    for pa, pb in zip(a.phases, b.phases):
        for field in ("local", "remote", "iterations"):
            assert np.array_equal(getattr(pa, field), getattr(pb, field)), (
                pa.phase, field)
    assert ([(c.array, c.edge, c.pattern, c.puts) for c in a.comms]
            == [(c.array, c.edge, c.pattern, c.puts) for c in b.comms])
    docs = []
    for result in (got, want):
        doc = result_document(result)
        doc.pop("metrics")
        docs.append(dumps_canonical(doc))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("H", [16, 128])
@pytest.mark.parametrize("name", sorted(ALL_CODES))
def test_default_is_closed_form_and_equals_wide(name, H):
    default = _run(name, H, metrics=True)
    counters = default.metrics["counters"]
    assert counters.get("dsm.fast_path.symbolic") == len(
        default.report.phases)
    assert counters.get("dsm.fast_path.wide", 0) == 0
    assert counters.get("dsm.fast_path.interp", 0) == 0
    _assert_same_execution(default, _run(name, H, fast_path="wide"))


@pytest.mark.parametrize("name", sorted(ALL_CODES))
def test_default_equals_interpreter(name):
    _assert_same_execution(_run(name, 4), _run(name, 4, fast_path="off"))
