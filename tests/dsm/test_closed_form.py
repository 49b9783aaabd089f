"""The symbolic closed-form tier: primitives, ownership edge cases,
fallbacks, and the communication fold — all against brute force."""

import numpy as np
import pytest

from repro.distribution import BlockCyclicLayout, BlockLayout
from repro.distribution.schedule import SegmentedLayout
from repro.dsm.closed_form import (
    Segment,
    SymbolicMiss,
    _count_segment,
    _count_segments,
    _enumerate_segment,
    _floor_sum_vec,
    _iterations_per_pe,
    _sum_clamp_floor,
    floor_sum,
    symbolic_redistribution,
    symbolic_region,
)


# ---------------------------------------------------------------------------
# Integer primitives vs brute force
# ---------------------------------------------------------------------------


def test_floor_sum_matches_brute_force():
    for n in (0, 1, 2, 7, 13):
        for m in (1, 2, 5, 9):
            for a in (-7, -2, 0, 1, 3, 11):
                for b in (-9, -1, 0, 2, 8):
                    want = sum((a * i + b) // m for i in range(n))
                    assert floor_sum(n, m, a, b) == want, (n, m, a, b)


def test_sum_clamp_floor_matches_brute_force():
    Ms, gs = np.meshgrid([0, 1, 3, 8], [-5, 0, 4, 17])
    Ms, gs = Ms.ravel(), gs.ravel()
    for d in (-6, -1, 0, 2, 5):
        for s in (1, 3, 7):
            for nu in (0, 1, 2, 6):
                want = [
                    sum(min(max((g + d * m) // s, 0), nu) for m in range(M))
                    for M, g in zip(Ms.tolist(), gs.tolist())
                ]
                got = _sum_clamp_floor(Ms, gs, d, s, nu)
                assert list(got) == want, (d, s, nu)


def test_floor_sum_vec_matches_scalar_and_promotes_on_overflow():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 30))
        a = int(rng.integers(-50, 50))
        n = rng.integers(-2, 40, size=20)
        b = rng.integers(-100, 100, size=20)
        want = [floor_sum(x, m, a, y) for x, y in zip(n.tolist(), b.tolist())]
        assert list(_floor_sum_vec(n, m, a, b)) == want, (m, a)
    # n*n*a passes 2**62: the rows fall back to Python ints, exactly.
    n = np.full(10, 3_000_000_000, dtype=np.int64)
    b = np.arange(-5, 5, dtype=np.int64)
    got = _floor_sum_vec(n, 7, 10**9, b)
    assert got.dtype == object
    assert list(got) == [floor_sum(3_000_000_000, 7, 10**9, y)
                         for y in range(-5, 5)]


def test_iterations_per_pe_matches_bincount():
    for lo, hi in ((0, 63), (5, 61), (17, 17), (3, 2), (0, 7)):
        for p in (1, 3, 5):
            for H in (1, 4, 7):
                if hi < lo:
                    want = np.zeros(H, dtype=np.int64)
                else:
                    i = np.arange(lo, hi + 1)
                    want = np.bincount((i // p) % H, minlength=H)
                got = _iterations_per_pe(lo, hi, p, H)
                assert np.array_equal(got, want), (lo, hi, p, H)


# ---------------------------------------------------------------------------
# Segment counting: ownership edge cases vs exact enumeration
# ---------------------------------------------------------------------------


def _assert_counts_match(seg, ilo, ihi, p, H, layout):
    got = _count_segment(seg, ilo, ihi, p, H, layout)
    want = _enumerate_segment(seg, ilo, ihi, p, H, layout)
    assert np.array_equal(got, want), (seg, layout)


def test_negative_parallel_stride_cyclic():
    seg = Segment(base=500, dpar=-3, s=2, n=5, mult=1)
    layout = BlockCyclicLayout(origin=0, chunk=4, H=4)
    _assert_counts_match(seg, 0, 40, 3, 4, layout)


def test_negative_parallel_stride_block():
    seg = Segment(base=300, dpar=-2, s=1, n=7, mult=1)
    layout = BlockLayout(size=320, H=4)
    _assert_counts_match(seg, 0, 50, 2, 4, layout)


def test_zero_trip_segment_counts_nothing():
    seg = Segment(base=0, dpar=1, s=1, n=4, mult=1)
    layout = BlockCyclicLayout(origin=0, chunk=4, H=4)
    assert np.array_equal(
        _count_segment(seg, 10, 9, 2, 4, layout), np.zeros(4, dtype=np.int64)
    )


def test_stride_congruent_zero_mod_period():
    # s == chunk * H: every inner step lands on the same owner — the
    # degenerate single-residue case of the residue-class derivation.
    H, chunk = 4, 3
    seg = Segment(base=7, dpar=chunk * H, s=chunk * H, n=6, mult=1)
    layout = BlockCyclicLayout(origin=0, chunk=chunk, H=H)
    _assert_counts_match(seg, 0, 30, 2, H, layout)


def test_span_smaller_than_one_block():
    # The whole segment fits inside a fraction of one BLOCK chunk.
    seg = Segment(base=10, dpar=0, s=1, n=3, mult=1)
    layout = BlockLayout(size=1024, H=4)  # block = 256
    _assert_counts_match(seg, 0, 20, 2, 4, layout)


def test_static_segment_dpar_zero():
    seg = Segment(base=64, dpar=0, s=5, n=9, mult=2)
    layout = BlockCyclicLayout(origin=0, chunk=4, H=4)
    _assert_counts_match(seg, 3, 27, 3, 4, layout)


def test_reversed_distribution_matches_enumeration():
    layout = BlockCyclicLayout(
        origin=100, chunk=4, H=4, span=200, reversed_=True
    )
    seg = Segment(base=110, dpar=2, s=1, n=6, mult=1)
    _assert_counts_match(seg, 0, 40, 2, 4, layout)


def test_clamped_address_below_origin_falls_back():
    # Addresses below a BLOCK-CYCLIC origin hit the numpy clamp; the
    # closed-form model refuses rather than miscount.
    seg = Segment(base=0, dpar=1, s=1, n=4, mult=1)
    layout = BlockCyclicLayout(origin=50, chunk=4, H=4)
    with pytest.raises(SymbolicMiss):
        _count_segment(seg, 0, 30, 2, 4, layout)
    # ... and the enumeration fallback it triggers is still exact.
    want = _enumerate_segment(seg, 0, 30, 2, 4, layout)
    i = np.arange(0, 31)
    addr = seg.base + seg.dpar * i[:, None] + np.arange(4)[None, :]
    pe = (i // 2) % 4
    owners = np.asarray(layout.owner(addr))
    brute = np.bincount(
        pe, weights=(owners == pe[:, None]).sum(axis=1), minlength=4
    ).astype(np.int64)
    assert np.array_equal(want, brute)


def test_segmented_layout_split_counting():
    H = 4
    sub1 = BlockCyclicLayout(origin=0, chunk=2, H=H)
    sub2 = BlockCyclicLayout(origin=64, chunk=3, H=H)
    layout = SegmentedLayout(segments=((0, 63, sub1), (64, 199, sub2)), H=H)
    seg = Segment(base=0, dpar=2, s=1, n=5, mult=1)
    _assert_counts_match(seg, 0, 60, 3, H, layout)


def test_counts_past_int64_headroom_are_exact():
    """Addresses near 2**60 push the vectorised rows onto Python ints;
    the counts must still equal enumeration."""
    cases = [
        (Segment(base=2**60 + 3, dpar=7, s=2, n=5, mult=2),
         BlockCyclicLayout(origin=2**60, chunk=5, H=4)),
        (Segment(base=2**60 + 3, dpar=-7, s=3, n=4, mult=1),
         BlockCyclicLayout(origin=2**60 - 1000, chunk=3, H=4)),
        (Segment(base=2**60 + 3, dpar=2**40, s=1, n=9, mult=1),
         BlockLayout(size=2**62, H=4)),
        (Segment(base=3, dpar=2**50, s=2**48, n=9, mult=1),
         BlockLayout(size=2**62, H=4)),
    ]
    for seg, layout in cases:
        _assert_counts_match(seg, 0, 100, 3, 4, layout)


@pytest.mark.parametrize("seed", range(6))
def test_batched_segments_match_enumeration(seed):
    """Segments of several references and layouts, counted in shared
    batches over every PE, equal per-segment enumeration."""
    rng = np.random.default_rng(seed)
    H = int(rng.choice([3, 16, 40]))
    p = int(rng.integers(1, 5))
    layouts = [
        BlockLayout(size=4096, H=H),
        BlockCyclicLayout(origin=0, chunk=int(rng.integers(1, 9)), H=H),
        BlockCyclicLayout(origin=int(rng.integers(1, 50)),
                          chunk=int(rng.integers(1, 9)), H=H),
        BlockCyclicLayout(origin=0, chunk=int(rng.integers(1, 9)), H=H,
                          span=4096, reversed_=True),
    ]
    pairs = []
    for _ in range(12):
        seg = Segment(
            base=int(rng.integers(60, 400)),
            dpar=int(rng.choice([-2, -1, 1, 2, 3])),
            s=int(rng.choice([1, 2, 5])),
            n=int(rng.integers(1, 6)),
            mult=int(rng.integers(1, 3)),
        )
        pairs.append((seg, layouts[int(rng.integers(len(layouts)))]))
    pairs += pairs[:3]  # equal bases of different references merge
    got = _count_segments(pairs, 0, 50, p, H)
    want = sum(_enumerate_segment(seg, 0, 50, p, H, layout)
               for seg, layout in pairs)
    assert np.array_equal(got, want)


def _symbolic_vs_generic(prog, env, H, p, layouts, obs=None):
    import repro.dsm.executor as executor_mod
    from fractions import Fraction

    from repro.distribution import CyclicSchedule
    from repro.dsm.closed_form import symbolic_phase_stats
    from repro.dsm.executor import _phase_stats

    phase = prog.phases[0]
    par = phase.parallel_loop
    trip = int(par.trip_count.evalf({k: Fraction(v) for k, v in env.items()}))
    schedule = CyclicSchedule(trip=trip, p=p, H=H)
    out = symbolic_phase_stats(phase, env, H, schedule, layouts, obs=obs)
    assert out is not None
    orig = executor_mod._try_fast_stats
    executor_mod._try_fast_stats = lambda *a, **k: None
    try:
        generic = _phase_stats(phase, env, H, schedule, layouts)
    finally:
        executor_mod._try_fast_stats = orig
    local, remote, iterations = out
    assert np.array_equal(local, generic.local)
    assert np.array_equal(remote, generic.remote)
    assert np.array_equal(iterations, generic.iterations)


def test_par_dependent_stride_concretized_exactly():
    """``A(i*j)``: the stride of j is the parallel index — the dpar
    expression depends on j, so j is concretised and the counts stay
    closed-form and exact (no fallback)."""
    from repro.ir import ProgramBuilder
    from repro.obs import Collector

    bld = ProgramBuilder("parstride")
    N = bld.param("N", minimum=8)
    A = bld.array("A", N * N + N)
    with bld.phase("F") as ph:
        with ph.doall("i", 0, N - 1) as i:
            with ph.do("j", 0, 7) as j:
                ph.read(A, i * j)
    prog = bld.build()
    obs = Collector(metrics=True)
    layouts = {"A": BlockCyclicLayout(origin=0, chunk=4, H=4)}
    _symbolic_vs_generic(prog, {"N": 16}, 4, 2, layouts, obs=obs)
    counters = obs.metrics_snapshot()["counters"]
    assert not any(k.startswith("dsm.symbolic.fallback") for k in counters)


def test_triangular_bounds_counted_per_iteration():
    """Inner bounds depending on the parallel index are outside the
    lattice model, so the ref is counted one row per parallel iteration
    in closed form — no fallback — and agrees with the generic
    interpreter."""
    from repro.ir import ProgramBuilder
    from repro.obs import Collector

    bld = ProgramBuilder("triangular")
    N = bld.param("N", minimum=8)
    A = bld.array("A", 2 * N)
    with bld.phase("F") as ph:
        with ph.doall("i", 0, N - 1) as i:
            with ph.do("j", 0, i) as j:
                ph.read(A, i + j)
    prog = bld.build()
    obs = Collector(metrics=True)
    layouts = {"A": BlockCyclicLayout(origin=0, chunk=4, H=4)}
    _symbolic_vs_generic(prog, {"N": 16}, 4, 2, layouts, obs=obs)
    counters = obs.metrics_snapshot()["counters"]
    assert not any(k.startswith("dsm.symbolic.fallback") for k in counters)


def test_triangular_nest_outside_row_fragment_falls_back_observably():
    """An inner bound that also moves with another inner index leaves
    no rectangular row per iteration: the ref falls back to ragged
    enumeration, visibly, and still agrees with the interpreter."""
    from repro.ir import ProgramBuilder
    from repro.obs import Collector

    bld = ProgramBuilder("skewed")
    N = bld.param("N", minimum=8)
    A = bld.array("A", 4 * N)
    with bld.phase("F") as ph:
        with ph.doall("i", 0, N - 1) as i:
            with ph.do("j", 0, i) as j:
                with ph.do("k", j, j + 2) as k:
                    ph.read(A, i + j + k)
    prog = bld.build()
    obs = Collector(metrics=True)
    layouts = {"A": BlockLayout(size=4 * 16, H=4)}
    _symbolic_vs_generic(prog, {"N": 16}, 4, 2, layouts, obs=obs)
    counters = obs.metrics_snapshot()["counters"]
    assert (
        counters.get("dsm.symbolic.fallback.ref-par-dependent-bounds") == 1
    )


@pytest.mark.parametrize("seed", range(8))
def test_random_triangular_nests_match_interpreter(seed):
    from repro.ir import ProgramBuilder
    from repro.symbolic import sym

    rng = np.random.default_rng(seed)
    n_val = int(rng.integers(9, 40))
    H = int(rng.choice([3, 4, 7]))
    i_sym, N = sym("i"), sym("N")
    lower, upper = [
        (0, i_sym), (i_sym, N - 1), (1, N - 1 - i_sym), (i_sym, i_sym + 3),
    ][int(rng.integers(4))]
    stride = int(rng.choice([-3, -1, 1, 2, 5]))
    bld = ProgramBuilder(f"tri{seed}")
    bld.param("N", minimum=8)
    A = bld.array("A", 16 * N + 64)
    with bld.phase("F") as ph:
        with ph.doall("i", 0, N - 1) as i:
            with ph.do("j", lower, upper) as j:
                ph.read(A, 2 * i + stride * j + 4 * N)
                ph.write(A, 3 * i + 1)
    prog = bld.build()
    size = 16 * n_val + 64
    layouts = {"A": [
        BlockLayout(size=size, H=H),
        BlockCyclicLayout(origin=0, chunk=int(rng.integers(1, 9)), H=H),
        BlockCyclicLayout(origin=0, chunk=int(rng.integers(1, 9)), H=H,
                          span=size, reversed_=True),
    ][seed % 3]}
    _symbolic_vs_generic(prog, {"N": n_val}, H, int(rng.integers(1, 4)),
                         layouts)


# ---------------------------------------------------------------------------
# Regions and the redistribution fold
# ---------------------------------------------------------------------------


def _toy_phase(n_val=64):
    from repro.ir import ProgramBuilder

    bld = ProgramBuilder("toy")
    N = bld.param("N", minimum=8)
    A = bld.array("A", 2 * N)
    with bld.phase("F") as ph:
        with ph.doall("i", 0, N - 1) as i:
            ph.read(A, 2 * i)
            ph.write(A, 2 * i + 1)
    prog = bld.build()
    return prog, {"N": n_val}


def test_symbolic_region_is_sorted_unique():
    prog, env = _toy_phase()
    phase = prog.phase("F")
    array = phase.arrays()[0]
    region = symbolic_region(phase, env, array)
    assert region is not None
    want = np.arange(2 * env["N"], dtype=np.int64)
    assert np.array_equal(region, want)


def test_symbolic_redistribution_matches_enumeration():
    from repro.dsm.comm import redistribution

    prog, env = _toy_phase()
    phase = prog.phase("F")
    array = phase.arrays()[0]
    H = 4
    layout_k = BlockLayout(size=2 * env["N"], H=H)
    layout_g = BlockCyclicLayout(origin=0, chunk=4, H=H)
    plan = symbolic_redistribution(
        phase, env, array, layout_k, layout_g, H, ("Fk", "Fg")
    )
    assert plan is not None
    region = symbolic_region(phase, env, array)
    want = redistribution(
        array.name,
        ("Fk", "Fg"),
        region,
        np.asarray(layout_k.owner(region)),
        np.asarray(layout_g.owner(region)),
    )
    assert plan.pattern == want.pattern
    assert plan.puts == want.puts


def test_symbolic_redistribution_identical_layouts_no_puts():
    prog, env = _toy_phase()
    phase = prog.phase("F")
    array = phase.arrays()[0]
    H = 4
    layout = BlockCyclicLayout(origin=0, chunk=8, H=H)
    plan = symbolic_redistribution(
        phase, env, array, layout, layout, H, ("a", "b")
    )
    assert plan is not None
    assert plan.puts == []
