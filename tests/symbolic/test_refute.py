"""Sampled refutation: sound against the prover, deterministic, toggleable."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import memo
from repro.symbolic import (
    Context,
    LoopVar,
    num,
    pow2,
    refutation_stats,
    refute_nonneg,
    sym,
    symbols,
)
from repro.symbolic.refute import (
    _SampleBank,
    _bank_for,
    _set_refutation_default as set_refutation,
)

n, m, x, P, p, i = symbols("n m x P p i")


@pytest.fixture(autouse=True)
def fresh_banks():
    memo.banks()["refute_samples"].clear()
    old = set_refutation(True)
    yield
    set_refutation(old)
    memo.banks()["refute_samples"].clear()


class TestSoundness:
    """refute_nonneg(ctx, e) == True must imply e really can go negative.

    Equivalently: anything nonneg *by construction* on the context's
    domain must never be refuted — a wrong refutation would silently
    turn provable facts into failures.
    """

    def test_never_refutes_nonneg_by_construction(self):
        ctx = Context().assume_positive("n").assume_nonneg("x")
        for expr in (
            num(0),
            num(3),
            x,
            n - 1,
            3 * n + x,
            pow2(p),
            n * n - 2 * n + 1,  # (n-1)^2
        ):
            assert refute_nonneg(ctx, expr) is False, expr

    def test_refutes_obviously_negative(self):
        ctx = Context().assume_positive("n")
        assert refute_nonneg(ctx, num(-1)) is True
        assert refute_nonneg(ctx, -n) is True
        assert refute_nonneg(ctx, 1 - n) is True  # n = 2 is a witness

    def test_respects_minimums(self):
        # with n >= 5 the expression n - 5 is nonneg on the whole domain
        ctx = Context().assume_positive("n").assume_min("n", 5)
        assert refute_nonneg(ctx, n - 5) is False
        # the sampler draws n from [5, 5+24]; anything above that window
        # is negative on every sample and must be refuted
        assert refute_nonneg(ctx, n - 100) is True

    def test_respects_pow2_coupling(self):
        # P == 2**p with p >= 1: P - 2 is nonneg, P - 3 falsifiable only
        # when p == 1 — the sampler must honour the coupling exactly.
        ctx = Context().assume_positive("P", "p").assume_pow2("P", p)
        assert refute_nonneg(ctx, P - 2) is False
        assert refute_nonneg(ctx, P - pow2(p)) is False

    def test_loop_rows_stay_in_range(self):
        # i in [0, n-1]: both i and n-1-i are nonneg on the domain.
        ctx = (
            Context()
            .assume_positive("n")
            .push_loop(LoopVar(i, num(0), n - 1))
        )
        assert refute_nonneg(ctx, i) is False
        assert refute_nonneg(ctx, n - 1 - i) is False
        assert refute_nonneg(ctx, i - 1) is True  # i = 0 is a witness

    @given(
        st.integers(-4, 4), st.integers(-6, 6), st.integers(1, 8)
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_refutations_match_ground_truth(self, a, b, lo):
        """For a*n + b with n >= lo, refutation implies a true witness."""
        ctx = Context().assume_positive("n").assume_min("n", lo)
        verdict = refute_nonneg(ctx, a * n + b)
        if verdict:
            # the claim: some integer n >= lo makes a*n + b < 0.
            # affine in n, so checking the boundary and a far point is
            # exhaustive enough for ground truth.
            assert any(
                a * v + b < 0 for v in (lo, lo + 1000)
            ), (a, b, lo)

    def test_prover_agreement_never_contradicted(self):
        """On a realistic context, refutation never contradicts a proof."""
        ctx = (
            Context()
            .assume_positive("P", "Q", "H")
            .assume_min("P", 2)
            .assume_min("Q", 2)
        )
        Psym, Q, H = sym("P"), sym("Q"), sym("H")
        exprs = [
            Psym * Q - Psym,
            Psym * Q - Q,
            Psym + Q - 2 * H,
            Psym - Q,
            2 * Psym - Q - 4,
            Psym * Q - Psym - Q + 1,
        ]
        was = set_refutation(False)
        try:
            proved = [ctx.is_nonneg(e) for e in exprs]
        finally:
            set_refutation(was)
        ctx2 = (
            Context()
            .assume_positive("P", "Q", "H")
            .assume_min("P", 2)
            .assume_min("Q", 2)
        )
        for expr, ok in zip(exprs, proved):
            if ok:
                assert refute_nonneg(ctx2, expr) is False, expr


class TestDeterminism:
    def test_same_verdicts_after_bank_reset(self):
        ctx = Context().assume_positive("n", "m")
        exprs = [n - m, m - n, n + m - 3, 2 * n - 3 * m]
        first = [refute_nonneg(ctx, e) for e in exprs]
        memo.banks()["refute_samples"].clear()
        second = [refute_nonneg(ctx, e) for e in exprs]
        assert first == second

    def test_bank_is_pure_function_of_fingerprint(self):
        ctx_a = Context().assume_positive("n").assume_min("n", 3)
        ctx_b = Context().assume_positive("n").assume_min("n", 3)
        bank_a = _SampleBank(ctx_a)
        bank_b = _SampleBank(ctx_b)
        assert bank_a.seed == bank_b.seed
        assert (bank_a._column("n") == bank_b._column("n")).all()

    def test_banks_cached_per_fingerprint(self):
        ctx = Context().assume_positive("n")
        assert _bank_for(ctx) is _bank_for(ctx)


class TestToggleAndStats:
    def test_disabled_never_refutes(self):
        ctx = Context()
        set_refutation(False)
        assert refute_nonneg(ctx, num(-1)) is False

    def test_set_refutation_returns_previous(self):
        assert set_refutation(False) is True
        assert set_refutation(True) is False

    def test_stats_count_verdicts(self):
        ctx = Context().assume_positive("n")
        refute_nonneg(ctx, -n)  # refuted
        refute_nonneg(ctx, n)  # passed
        stats = refutation_stats()
        assert stats["refuted"] == 1
        assert stats["passed"] == 1
        memo.banks()["refute_samples"].clear()
        assert refutation_stats() == {
            "refuted": 0, "passed": 0, "declined": 0,
        }

    def test_context_hook_toggles(self):
        """is_nonneg gives identical verdicts with refutation on and off
        for provable queries (refutation may only speed up failures)."""
        exprs = [n - 1, 2 * n + 3, n - 5]
        on, off = [], []
        for enabled, out in ((True, on), (False, off)):
            set_refutation(enabled)
            ctx = Context().assume_positive("n")
            out.extend(ctx.is_nonneg(e) for e in exprs)
        assert on == off
