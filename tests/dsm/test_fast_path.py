"""The vectorised executor fast path must match exact interpretation."""

import numpy as np
import pytest

import repro.dsm.executor as executor_mod
from repro.distribution import BlockCyclicLayout, BlockLayout, CyclicSchedule
from repro.dsm.executor import _phase_stats, _try_fast_stats


def _generic_stats(phase, env, H, schedule, layouts, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(executor_mod, "_try_fast_stats",
                  lambda *a, **k: None)
        return _phase_stats(phase, env, H, schedule, layouts)


SMALL_ENVS = {
    "tfft2": {"P": 8, "p": 3, "Q": 8, "q": 3},
    "jacobi": {"N": 128},
    "swim": {"M": 12, "N": 12},
    "adi": {"M": 12, "N": 12},
    "mgrid": {"N": 128, "n": 7},
    "tomcatv": {"M": 12, "N": 12},
    "redblack": {"N": 128},
}


@pytest.mark.parametrize("name", sorted(SMALL_ENVS))
def test_fast_equals_generic_on_suite(name, monkeypatch):
    from fractions import Fraction

    from repro.codes import ALL_CODES

    builder, _, _ = ALL_CODES[name]
    prog = builder()
    env = SMALL_ENVS[name]
    H = 4
    for phase in prog.phases:
        par = phase.parallel_loop
        trip = int(
            par.trip_count.evalf({k: Fraction(v) for k, v in env.items()})
        )
        schedule = CyclicSchedule(trip=trip, p=3, H=H)
        layouts = {
            a.name: BlockCyclicLayout(origin=0, chunk=5, H=H)
            for a in phase.arrays()
        }
        fast = _phase_stats(phase, env, H, schedule, layouts)
        generic = _generic_stats(phase, env, H, schedule, layouts,
                                 monkeypatch)
        assert np.array_equal(fast.local, generic.local), (name, phase.name)
        assert np.array_equal(fast.remote, generic.remote), (name, phase.name)
        assert np.array_equal(fast.iterations, generic.iterations)


def test_fast_path_taken_for_rectangular_phase():
    from repro.codes import build_adi

    prog = build_adi()
    env = {"M": 12, "N": 12}
    schedule = CyclicSchedule(trip=12, p=2, H=4)
    layouts = {"A": BlockLayout(size=144, H=4),
               "B": BlockLayout(size=144, H=4)}
    stats = _try_fast_stats(
        prog.phase("F_rows"), env, 4, schedule, layouts
    )
    assert stats is not None
    assert stats.total_accesses == 2 * 144


def test_wide_fast_path_covers_nonaffine_phase(monkeypatch):
    """F3's inner bounds depend on L and its subscripts carry 2**L —
    outside any affine-rectangular fragment, but the wide
    descriptor-first path must both fire and agree with exact
    interpretation."""
    from repro.codes import build_tfft2

    prog = build_tfft2()
    env = {"P": 8, "p": 3, "Q": 8, "q": 3}
    phase = prog.phase("F3_CFFTZWORK")
    schedule = CyclicSchedule(trip=8, p=1, H=4)
    layouts = {"X": BlockLayout(size=2 * 64 + 1, H=4),
               "Y": BlockLayout(size=2 * 64 + 1, H=4)}
    stats = _try_fast_stats(phase, env, 4, schedule, layouts)
    assert stats is not None
    generic = _generic_stats(phase, env, 4, schedule, layouts, monkeypatch)
    assert np.array_equal(stats.local, generic.local)
    assert np.array_equal(stats.remote, generic.remote)
    assert np.array_equal(stats.iterations, generic.iterations)


def test_fast_path_modes_switch(monkeypatch):
    """Each tier answers through its own path, and every path agrees
    with the interpreter and with the reference counts."""
    from repro.codes import build_adi

    prog = build_adi()
    env = {"M": 12, "N": 12}
    schedule = CyclicSchedule(trip=12, p=2, H=4)
    layouts = {"A": BlockLayout(size=144, H=4),
               "B": BlockLayout(size=144, H=4)}
    phase = prog.phase("F_rows")
    assert _try_fast_stats(phase, env, 4, schedule, layouts,
                           mode="off") is None
    wide = _try_fast_stats(phase, env, 4, schedule, layouts, mode="wide")
    assert wide is not None
    off = _phase_stats(phase, env, 4, schedule, layouts, fast_path="off")
    generic = _generic_stats(phase, env, 4, schedule, layouts, monkeypatch)
    # Counted by hand: column J (addresses 12J..12J+11, owned by PE
    # J // 3 under BLOCK(36)) runs on PE (J // 2) % 4 under CYCLIC(2),
    # so only columns 0, 1 (PE 0) and 3 (PE 1) are local, each
    # contributing 12 accesses to each of A and B.
    assert list(wide.local) == [48, 24, 0, 0]
    assert list(wide.remote) == [48, 72, 48, 48]
    assert list(wide.iterations) == [4, 4, 2, 2]
    for stats in (off, generic):
        assert np.array_equal(wide.local, stats.local)
        assert np.array_equal(wide.remote, stats.remote)
        assert np.array_equal(wide.iterations, stats.iterations)


def test_negative_stride_reference(monkeypatch):
    from repro.ir import ProgramBuilder

    bld = ProgramBuilder("neg")
    N = bld.param("N", minimum=8)
    A = bld.array("A", N + 1)
    with bld.phase("F") as ph:
        with ph.doall("i", 0, N - 1) as i:
            from repro.symbolic import sym

            ph.read(A, sym("N") - i)
    prog = bld.build()
    env = {"N": 32}
    schedule = CyclicSchedule(trip=32, p=4, H=4)
    layouts = {"A": BlockCyclicLayout(origin=0, chunk=4, H=4)}
    fast = _phase_stats(prog.phase("F"), env, 4, schedule, layouts)
    generic = _generic_stats(prog.phase("F"), env, 4, schedule, layouts,
                             monkeypatch)
    assert np.array_equal(fast.local, generic.local)
    assert np.array_equal(fast.remote, generic.remote)
