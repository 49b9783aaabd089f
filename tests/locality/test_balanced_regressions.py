"""Concrete balanced-locality decisions with zero or negative slopes.

``BalancedCondition.solve_concrete`` used to hand ``a*p_k = b*p_g``
straight to the positive-coefficient Diophantine solver, so a pair of
descending rows (``a = b = -1``) or a row that is invariant in its
chunk only under the concrete env (``a`` or ``b`` zero) raised
``ValueError: coefficients must be positive`` out of ``analyze()``.
The programs below are ``repro.fuzz.shrink``-minimised forms of the
fuzz seeds that raised it; each must now analyse, and its LCG must
pass the differential oracle, at every machine size.
"""

import pytest

from repro import analyze
from repro.check.lcg_oracle import check_lcg
from repro.ir.parser import parse_and_lower
from repro.locality import BalancedCondition
from repro.symbolic import num, sym

#: seed -> (env, minimised source)
SHRUNK = {
    # descending rows on both sides: a = b = -1
    241: ({"M": 4, "N": 128, "q": 7}, """\
program fuzz_0241
  param N
  param q
  param M
  array A(255)
  array B(1)
  array C(128)

  phase F0
    doall i = 0, N - 1
      B(0 - i) = f(C(N - 1 - i))
    end doall
  end phase

  phase F2
    doall i = 0, 2 ** q - 1
      A(2 * i) = f(C(2 ** q - 1 - i))
    end doall
  end phase
end program
"""),
    690: ({"M": 8, "N": 128, "q": 7}, """\
program fuzz_0690
  param N
  param q
  param M
  array A(128)
  array C(128)

  phase F0
    doall i = 0, N - 1
      A(i) = f(C(N - 1 - i))
    end doall
  end phase

  phase F1
    doall i = 0, 2 ** q - 1
      A(i) = f(C(2 ** q - 1 - i))
    end doall
  end phase
end program
"""),
    704: ({"N": 128, "q": 7}, """\
program fuzz_0704
  param N
  param q
  array A(128)
  array C(128)
  array D(128)

  phase F1
    doall i = 0, N - 1
      C(i) = f(D(N - 1 - i))
    end doall
  end phase

  phase F2
    doall i = 0, 2 ** q - 1
      D(2 ** q - 1 - i) = f(A(i))
    end doall
  end phase
end program
"""),
    1236: ({"M": 3, "N": 128, "q": 7}, """\
program fuzz_1236
  param N
  param q
  param M
  array A(128)
  array B(128)
  array C(382)

  phase F1
    doall i = 0, 2 ** q - 1
      C(3 * i) = f(A(2 ** q - 1 - i))
    end doall
  end phase

  phase F2
    doall i = 0, N - 1
      B(i) = f(A(N - 1 - i))
    end doall
  end phase
end program
"""),
    # one side invariant in its chunk under the concrete env
    374: ({"M": 4, "q": 7}, """\
program fuzz_0374
  param q
  param M
  array A(1)
  array C(13)
  array D(513)

  phase F0
    doall i = 0, 2 ** q - 1
      C(12) = f(D(M * i + 4))
    end doall
  end phase

  phase F1
    doall i = 0, 2 ** q - 1
      do j = 0, M - 1, 3
        A(0 - i) = f(D(j))
      end do
    end doall
  end phase
end program
"""),
    525: ({"K": 3, "M": 4, "N": 128}, """\
program fuzz_0525
  param N
  param M
  param K
  array A(131)
  array C(128)

  phase F1
    doall i = 0, N - 1
      do k = 0, K - 1
        A(k) = f(C(i))
      end do
    end doall
  end phase

  phase F2
    doall i = 0, N - 1
      do j = 0, M - 1, 3
        A(j) = f(A(i + j))
      end do
    end doall
  end phase
end program
"""),
    912: ({"K": 4, "M": 4, "N": 128}, """\
program fuzz_0912
  param N
  param M
  param K
  array A(3)
  array C(131)
  array D(1)

  phase F1
    doall i = 0, N - 1
      do j = 0, M - 1
        D(0 - i) = f(C(i + j))
      end do
    end doall
  end phase

  phase F2
    doall i = 0, N - 1
      do k = 0, K - 1, 2
        A(k) = f(C(k))
      end do
    end doall
  end phase
end program
"""),
    1393: ({"K": 3, "M": 4, "N": 128, "q": 7}, """\
program fuzz_1393
  param N
  param M
  param K
  param q
  array B(382)
  array C(128)
  array D(130)

  phase F0
    doall i = 0, N - 1
      do j = M, M - 1
        do k = K - 1, 0, -1
          B(3 * i) = f(D(k))
        end do
      end do
    end doall
  end phase

  phase F1
    doall i = 0, 2 ** q - 1
      C(i) = f(D(i + 2))
    end doall
  end phase
end program
"""),
}


@pytest.mark.parametrize("seed", sorted(SHRUNK))
@pytest.mark.parametrize("H", [8, 16, 64])
def test_shrunk_seed_analyzes_and_checks_clean(seed, H):
    env, source = SHRUNK[seed]
    result = analyze(parse_and_lower(source), env, H)
    assert result.report is not None
    report = check_lcg(parse_and_lower(source), env, H, result=result)
    assert not report.mismatches, report.mismatches


def _condition(a, b):
    """``a*p_k = b*p_g`` over two 64-iteration phases."""
    return BalancedCondition(
        phase_k="Fk", phase_g="Fg", array="A",
        p_k=sym("p_Fk"), p_g=sym("p_Fg"),
        slope_k=num(a), slope_g=num(b), shift=num(0),
        trip_k=num(64), trip_g=num(64), affine=True,
    )


def test_descending_sides_balance_like_ascending_ones():
    neg = _condition(-2, -4).solve_concrete({}, 4)
    pos = _condition(2, 4).solve_concrete({}, 4)
    assert neg.feasible
    assert list(neg) == list(pos)


@pytest.mark.parametrize("a,b", [(4, 0), (0, 1), (1, 0), (2, -2), (-1, 3)])
def test_one_invariant_or_opposed_side_is_infeasible(a, b):
    assert not _condition(a, b).solve_concrete({}, 4).feasible


def test_two_invariant_sides_balance_at_every_chunk_pair():
    sol = _condition(0, 0).solve_concrete({}, 8)
    assert sol.feasible
    assert sol.smallest() == (1, 1)
    assert sol.count == 8 * 8
    assert set(sol) == {(x, y) for x in range(1, 9) for y in range(1, 9)}
