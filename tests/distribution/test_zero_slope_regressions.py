"""Locality constraints with a zero ``p_k`` slope in the Eq. 7 solver.

An L edge whose balanced condition reads ``0*p_k = 0*p_g`` (two
chunk-invariant rows, e.g. both phases reading one fixed element) used
to reach the affine union-find as ``p_k = (0/0)*p_g`` and raised
``ZeroDivisionError`` out of ``analyze()``.  The solver now demotes such
an edge to communication through ``relaxed_edges``.  Merely skipping the
union would leave the L label promising no traffic while the two chunks
move independently; the differential oracle catches that.  The programs
below are ``repro.fuzz.shrink``-minimised forms of the fuzz seeds that
raised it.
"""

import pytest

from repro import analyze
from repro.check.lcg_oracle import check_lcg
from repro.ir.parser import parse_and_lower

#: seed -> (env, minimised source, demoted L edge)
SHRUNK = {
    529: ({"K": 6, "M": 4, "N": 128}, """\
program fuzz_0529
  param N
  param M
  param K
  array A(1)
  array C(128)

  phase F1
    doall i = 0, N - 1
      C(i) = f(A(0))
    end doall
  end phase

  phase F2
    doall i = 0, N - 1
      C(i) = f(A(0))
    end doall
  end phase
end program
""", ("F1", "F2", "A")),
    551: ({"M": 6, "N": 128}, """\
program fuzz_0551
  param N
  param M
  array A(128)
  array B(13)
  array C(6)

  phase F1
    doall i = 0, N - 1
      do j = M - 1, 0, -1
        C(j) = f(B(j))
      end do
    end doall
  end phase

  phase F2
    doall i = 0, N - 1
      A(i) = f(B(12))
    end doall
  end phase
end program
""", ("F1", "F2", "B")),
    767: ({"K": 8, "M": 6, "N": 128, "q": 7}, """\
program fuzz_0767
  param q
  param M
  param N
  param K
  array B(1)
  array C(2)
  array D(128)

  phase F0
    doall i = 0, 2 ** q - 1
      D(i) = f(C(1))
    end doall
  end phase

  phase F1
    doall i = 0, N - 1
      B(0 - i) = f(C(0))
    end doall
  end phase
end program
""", ("F0", "F1", "C")),
    1008: ({"K": 4, "M": 6, "N": 128, "q": 7}, """\
program fuzz_1008
  param N
  param M
  param K
  param q
  array C(1)
  array D(2)

  phase F0
    doall i = 0, N - 1
      D(1) = f(C(0))
    end doall
  end phase

  phase F1
    doall i = 0, N - 1
      D(0) = f(C(0))
    end doall
  end phase
end program
""", ("F0", "F1", "C")),
}


@pytest.mark.parametrize("seed", sorted(SHRUNK))
@pytest.mark.parametrize("H", [8, 16, 64])
def test_zero_slope_edge_is_demoted_and_checks_clean(seed, H):
    env, source, edge = SHRUNK[seed]
    result = analyze(parse_and_lower(source), env, H)
    assert edge in result.plan.relaxed_edges
    report = check_lcg(parse_and_lower(source), env, H, result=result)
    assert not report.mismatches, report.mismatches
