"""Assumption contexts: the sound predicates behind the analysis."""

import pytest

from repro.symbolic import (
    Context,
    LoopVar,
    ceil_div,
    num,
    pow2,
    smax,
    sym,
    symbols,
)

P, Q, H = symbols("P Q H")
I, L, J, K, p, q = symbols("I L J K p q")


class TestBasicFacts:
    def test_numeric(self):
        ctx = Context()
        assert ctx.is_nonneg(num(0))
        assert ctx.is_nonneg(num(3))
        assert not ctx.is_nonneg(num(-1))

    def test_declared_nonneg_symbol(self):
        ctx = Context().assume_nonneg("x")
        assert ctx.is_nonneg(sym("x"))
        assert ctx.is_nonneg(3 * sym("x") + 1)

    def test_unknown_symbol_unproved(self):
        ctx = Context()
        assert not ctx.is_nonneg(sym("x"))

    def test_positive_minus_one(self):
        ctx = Context().assume_positive("n")
        assert ctx.is_nonneg(sym("n") - 1)
        assert not ctx.is_nonneg(sym("n") - 2)

    def test_is_positive(self):
        ctx = Context().assume_positive("n")
        assert ctx.is_positive(sym("n"))
        assert ctx.is_positive(2 * sym("n"))
        assert not ctx.is_positive(sym("n") - 1)

    def test_is_le_lt(self):
        ctx = Context().assume_positive("n")
        n = sym("n")
        assert ctx.is_le(n, 2 * n)
        assert ctx.is_lt(n - 1, n)
        assert not ctx.is_le(2 * n, n)


class TestParameterElimination:
    def test_symbol_inside_max_is_not_differenced(self, monkeypatch):
        # max(1, n) - 1 >= 0 holds but is out of the prover's reach, and
        # no sample refutes it.  Differencing n inside the max atom never
        # vanishes, so the search must give up at once instead of
        # recursing to the depth cap (64 queries, ~0.8 s, before).
        from repro import memo

        depths = []
        uncached = Context._is_nonneg_uncached

        def spy(self, expr, depth):
            depths.append(depth)
            return uncached(self, expr, depth)

        monkeypatch.setattr(Context, "_is_nonneg_uncached", spy)
        memo.clear_all()
        ctx = Context().assume_positive("n")
        assert not ctx.is_nonneg(smax(1, sym("n")) - 1)
        assert len(depths) < 4


class TestPow2Facts:
    def test_pow2_always_positive(self):
        ctx = Context()
        assert ctx.is_nonneg(pow2(L))
        assert ctx.is_positive(pow2(L))

    def test_pow2_param_lower_bound(self, pq_context):
        # P == 2**p with p >= 1 implies P >= 2
        assert pq_context.is_nonneg(P - 2)
        assert not pq_context.is_nonneg(P - 3)

    def test_product_of_pow2_params(self, pq_context):
        assert pq_context.is_nonneg(P * Q - 4)
        assert pq_context.is_nonneg(2 * P * Q - P)

    def test_mixed_sign_with_positive_param(self, pq_context):
        # H*(2PQ - P - 1) + PQ - P >= 0 for H >= 1 (balanced infeasibility)
        e = H * (2 * P * Q - P - 1) + P * Q - P
        assert pq_context.is_nonneg(e)


class TestLoopElimination:
    def test_loop_var_upper_bound(self, f3_context):
        # L <= p
        assert f3_context.is_nonneg(sym("p") - L)

    def test_correlated_bound(self, f3_context):
        # J*2**(L-1) + K <= P/2 - 1 over the whole Figure 1 nest
        lhs = J * pow2(L - 1) + K
        assert f3_context.is_le(lhs, P / 2 - 1)
        assert not f3_context.is_le(lhs, P / 2 - 2)

    def test_nonneg_of_loop_bound_expr(self, f3_context):
        assert f3_context.is_nonneg(P * pow2(-L) - 1)
        assert f3_context.is_nonneg(pow2(L - 1) - 1)

    def test_upper_bound_query(self, f3_context):
        ub = f3_context.upper_bound(J * pow2(L - 1) + K)
        assert ub is not None
        assert f3_context.is_le(ub, P / 2 - 1)

    def test_lower_bound_query(self, f3_context):
        lb = f3_context.lower_bound(J * pow2(L - 1) + K)
        assert lb == num(0)


class TestIntegrality:
    def test_plain_integers(self, pq_context):
        assert pq_context.is_integer_valued(P + Q)
        assert pq_context.is_integer_valued(3 * P * Q - 7)

    def test_half_of_pow2_param(self, pq_context):
        assert pq_context.is_integer_valued(P / 2)
        assert not pq_context.is_integer_valued(P / 3)

    def test_pow2_of_loop_range(self, f3_context):
        assert f3_context.is_integer_valued(pow2(L - 1))
        assert not f3_context.is_integer_valued(pow2(L - 2))

    def test_rational_constant(self):
        ctx = Context()
        assert not ctx.is_integer_valued(num(1) / 2)
        assert ctx.is_integer_valued(num(4) / 2)

    def test_ceil_div_is_integer(self, pq_context):
        assert pq_context.is_integer_valued(ceil_div(P, H))


class TestMultipleOf:
    def test_trivial(self, f3_context):
        assert f3_context.is_multiple_of(pow2(L - 1), 1)
        assert f3_context.is_multiple_of(2 * P * Q, 2 * P)

    def test_varying_stride(self, f3_context):
        assert f3_context.is_multiple_of(J * pow2(L - 1), pow2(L - 1))

    def test_negative_case(self, f3_context):
        assert not f3_context.is_multiple_of(pow2(L - 1), pow2(L))

    def test_pow2_param_multiple(self, pq_context):
        assert pq_context.is_multiple_of(P, 2)


class TestMonotoneBounds:
    def test_increasing_in_loop_var(self, f3_context):
        # phi increasing in K: upper bound realised at K = 2**(L-1)-1
        phi = 2 * P * I + pow2(L - 1) * J + K
        ub = f3_context.upper_bound(phi)
        assert ub is not None
        # full-nest max: 2P(Q-1) + P/2 - 1
        assert ub == 2 * P * (Q - 1) + P / 2 - 1

    def test_unknown_direction_gives_none(self):
        ctx = Context()
        x = sym("x")
        ctx.push_loop(LoopVar(x, num(-5), num(5)))
        y = sym("y")  # free symbol of unknown sign
        assert ctx.upper_bound(x * y) is None


class TestContextManagement:
    def test_copy_isolation(self, pq_context):
        c2 = pq_context.copy()
        c2.assume_positive("Z")
        assert "Z" in c2.positive
        assert "Z" not in pq_context.positive

    def test_without_loop(self, f3_context):
        reduced = f3_context.without_loop(K)
        assert all(lv.symbol != K for lv in reduced.loops)
        # K remains known-integer
        assert "K" in reduced.integer

    def test_pow2_substitution(self, pq_context):
        subst = pq_context.pow2_substitution()
        assert subst["P"] == pow2(sym("p"))
        assert (P * Q).subs(subst) == pow2(sym("p") + sym("q"))
