"""The memo registry: bounded banks, one eviction rule, one switch."""

import pickle
import sys
import threading

import pytest

import repro.descriptors.coalesce  # noqa: F401  (registers "coalesce")
import repro.distribution.ilp  # noqa: F401  (registers "eval")
import repro.locality.balanced  # noqa: F401  (registers "decide")
from repro import AnalysisOptions, analyze, memo
from repro.codes import ALL_CODES
from repro.perf.bench import clear_caches
from repro.symbolic import Context, sym

#: Every bank with the cap its owner module registers.
EXPECTED_CAPS = {
    "subs": 1 << 17,
    "divide_exact": 1 << 16,
    "shift_difference": 1 << 16,
    "nonneg": 1 << 18,
    "compile": 8192,
    "refute_samples": 4096,
    "decide": 1 << 14,
    "coalesce": 4096,
    "eval": 1 << 14,
}


@pytest.fixture(params=sorted(EXPECTED_CAPS))
def bank(request):
    """One registered bank, emptied for the test and restored after."""
    bank = memo.banks()[request.param]
    cap, saved = bank.cap, bank.snapshot()
    bank.clear()
    yield bank
    bank.cap = cap
    bank.clear()
    bank.install(saved)


def test_registry_holds_every_bank_with_its_cap():
    caps = {name: b.cap for name, b in memo.banks().items()}
    assert caps == EXPECTED_CAPS


def test_store_grows_and_reports_size(bank):
    for i in range(10):
        bank.put(("fp", i), True)
    assert len(bank) == 10
    assert memo.counters()[f"memo.{bank.name}.size"] == 10
    assert bank.evictions == 0


def test_hits_and_misses_count(bank):
    assert bank.get(("fp", 0)) is None
    bank.put(("fp", 0), False)
    assert bank.get(("fp", 0)) is False
    bank.put(("fp", 1), None)
    assert bank.get(("fp", 1), memo.MISS) is None
    assert bank.get(("fp", 2), memo.MISS) is memo.MISS
    assert (bank.hits, bank.misses) == (2, 2)


def test_eviction_drops_oldest_eighth(bank):
    bank.cap = 16
    for i in range(16):
        bank.put(("fp", i), True)
    assert len(bank) == 16
    # the 17th insert evicts the oldest 16//8 == 2 entries
    bank.put(("fp", 16), False)
    assert len(bank) == 15
    kept = bank.snapshot()
    assert ("fp", 0) not in kept
    assert ("fp", 1) not in kept
    assert ("fp", 2) in kept
    assert bank.get(("fp", 16)) is False
    assert bank.evictions == 2
    counters = memo.counters()
    assert counters[f"memo.{bank.name}.evictions"] == 2
    assert counters[f"memo.{bank.name}.size"] == 15


def test_overwrite_at_cap_evicts_nothing(bank):
    bank.cap = 16
    for i in range(16):
        bank.put(("fp", i), True)
    bank.put(("fp", 0), False)
    assert len(bank) == 16
    assert bank.evictions == 0


def test_bank_stays_bounded_under_load(bank):
    bank.cap = 32
    for i in range(1000):
        bank.put(("fp", i), True)
    assert len(bank) <= 32
    assert len(bank) + bank.evictions == 1000


def test_install_respects_the_cap(bank):
    bank.cap = 16
    bank.install({("fp", i): True for i in range(40)})
    assert len(bank) <= 16
    assert ("fp", 39) in bank.snapshot()


def test_concurrent_stores_at_the_cap_never_race(bank):
    """Stores at the cap from many threads: no KeyError, no lost count.

    Without the store lock, two threads at the cap pick the same oldest
    keys and the second ``del`` raises ``KeyError``.
    """
    bank.cap = 64
    threads_n, per_thread = 4, 4000
    errors = []
    start = threading.Barrier(threads_n)

    def store(tid):
        start.wait()
        try:
            for i in range(per_thread):
                bank.put((tid, i), True)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=store, args=(t,))
            for t in range(threads_n)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []
    assert len(bank) <= 64
    assert len(bank) + bank.evictions == threads_n * per_thread


def test_clear_zeroes_counters(bank):
    bank.cap = 8
    for i in range(20):
        bank.put(("fp", i), True)
        bank.get(("fp", i))
    bank.clear()
    assert (len(bank), bank.hits, bank.misses, bank.evictions) == (0, 0, 0, 0)


def test_register_rejects_a_duplicate_name():
    with pytest.raises(ValueError):
        memo.register("nonneg", 16)


def test_install_before_register_seeds_the_late_bank():
    """A bundle installed before an owner module is imported still
    seeds that module's bank when it registers."""
    memo.install({"late": {("fp", 0): True}})
    try:
        late = memo.register("late", 16)
        assert late.snapshot() == {("fp", 0): True}
    finally:
        memo._REGISTRY.pop("late", None)
        memo._PENDING.pop("late", None)


def test_is_nonneg_populates_bounded_bank():
    nonneg = memo.banks()["nonneg"]
    ctx = Context()
    ctx.assume_positive("H")
    assert ctx.is_nonneg(sym("H") - 1) is True
    assert len(nonneg) >= 1
    assert len(nonneg) <= nonneg.cap


class TestWholeRegistry:
    @pytest.fixture(autouse=True)
    def _cold_process(self):
        clear_caches()
        yield
        clear_caches()

    def _analyze(self, name="jacobi", H=4, **options):
        builder, env, back = ALL_CODES[name]
        return analyze(
            builder(), env=env, H=H, back_edges=back,
            options=AnalysisOptions(**options),
        )

    def test_snapshot_clear_install_round_trip(self):
        first = self._analyze().to_document()
        snap = memo.snapshot()
        assert set(snap) == set(EXPECTED_CAPS)
        populated = {name for name, items in snap.items() if items}
        assert {"subs", "nonneg", "compile", "refute_samples", "eval"} <= populated
        # the plan bundle's path: pickle, then seed a cold process
        restored = pickle.loads(pickle.dumps(snap))
        memo.clear_all()
        assert all(len(b) == 0 for b in memo.banks().values())
        memo.install(restored)
        for name, b in memo.banks().items():
            assert b.snapshot().keys() == snap[name].keys(), name
        assert self._analyze().to_document() == first
        assert memo.banks()["nonneg"].hits > 0

    def test_analyze_metrics_report_every_bank(self):
        result = self._analyze(metrics=True)
        counters = result.metrics["counters"]
        gauges = result.metrics["gauges"]
        for name in EXPECTED_CAPS:
            for kind in ("hits", "misses", "evictions"):
                assert f"memo.{name}.{kind}" in counters
            assert gauges[f"memo.{name}.size"] == len(memo.banks()[name])
        assert counters["compile.compiled"] == counters["memo.compile.misses"]
        assert counters["compile.reused"] == counters["memo.compile.hits"]
        assert counters["memo.nonneg.misses"] > 0
        for gone in (
            "prover.cache_evictions",
            "prover.nonneg_cache_size",
            "balanced.decide_hits",
        ):
            assert gone not in counters and gone not in gauges
