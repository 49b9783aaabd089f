"""The ``constraints`` memo bank and the integer Eq. 7 enumeration.

``analyze()`` reads its Table 2 system through
:func:`repro.distribution.constraint_system`, which answers a repeat of
the same labelled LCG from the bank.  A bad hit would be invisible to
the session oracle (its fresh side reads the same always-on banks), so
these tests compare every banked system with a direct
:func:`extract_constraints` on the same LCG, and the document of a
banked run with that of a run that had to derive the system.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import analyze, memo
from repro.codes import ALL_CODES
from repro.distribution import (
    VariableComponent,
    constraint_system,
    extract_constraints,
)
from repro.distribution.constraints import system_key
from repro.distribution.ilp import _integer_relation
from repro.document import dumps_canonical
from repro.fuzz.generator import generate
from repro.ir.parser import parse_and_lower

BANK = memo.banks()["constraints"]


def _families(system) -> tuple:
    return (
        system.variables,
        system.locality,
        system.load_balance,
        system.storage,
        system.affinity,
        system.overlaps,
    )


def _assert_banked_matches_direct(
    build, env, H, back_edges=None, execute=True
):
    """Derive, then hit: the hit equals a direct extraction, bytes too."""
    BANK.clear()
    first = analyze(build(), env, H, back_edges=back_edges, execute=execute)
    assert (BANK.hits, BANK.misses) == (0, 1)
    second = analyze(build(), env, H, back_edges=back_edges, execute=execute)
    assert BANK.hits == 1
    direct = extract_constraints(second.lcg)
    assert second.constraints.lcg is second.lcg
    assert second.constraints.render() == direct.render()
    assert _families(second.constraints) == _families(direct)
    assert dumps_canonical(second.to_document()) == dumps_canonical(
        first.to_document()
    )


@pytest.mark.parametrize("H", [4, 8, 16])
@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_banked_system_equals_direct_on_bundled_codes(code, H):
    build, env, back = ALL_CODES[code]
    _assert_banked_matches_direct(build, env, H, back_edges=back or None)


@pytest.mark.parametrize("seed", range(0, 1500, 25))
def test_banked_system_equals_direct_on_fuzz_programs(seed):
    prog = generate(seed)
    _assert_banked_matches_direct(
        lambda: parse_and_lower(prog.source), prog.env, 8, execute=False
    )


RENAME_SOURCE = """\
program {prog}
  param N
  array {a}(N)
  array {b}(N)

  phase {f1}
    doall i = 0, N - 1
      {a}(i) = f({b}(i))
    end doall
  end phase

  phase {f2}
    doall i = 0, N - 1
      {b}(i) = f({a}(i))
    end doall
  end phase
end program
"""


def test_renamed_program_shows_its_own_names():
    names = dict(prog="orig", a="A", b="B", f1="F1", f2="F2")
    renamed = dict(prog="orig", a="X", b="Y", f1="G1", f2="G2")
    env = {"N": 64}
    analyze(parse_and_lower(RENAME_SOURCE.format(**names)), env, 4)
    result = analyze(parse_and_lower(RENAME_SOURCE.format(**renamed)), env, 4)
    system = result.constraints
    assert _families(system) == _families(extract_constraints(result.lcg))
    assert set(system.variables.values()) == {
        ("G1", "X"), ("G1", "Y"), ("G2", "X"), ("G2", "Y"),
    }
    assert {c.array for c in system.locality} <= {"X", "Y"}
    assert all(c.edge == ("G1", "G2") for c in system.locality)


FIRST_USE_SOURCE = """\
program order
  param N
  array A(N)
  array B(N)
  array C(N)
  array D(N)

  phase F1
    doall i = 0, N - 1
{body}
    end doall
  end phase

  phase F2
    doall i = 0, N - 1
      D(i) = f(C(i))
    end doall
  end phase
end program
"""


def test_array_first_use_order_keys_apart():
    # Same per-(phase, array) structure and the same single edge (on C),
    # but A and B are first used in the other order, so the p-variables
    # are numbered differently.
    ab = "      A(i) = f(C(i))\n      B(i) = f(C(i))"
    ba = "      B(i) = f(C(i))\n      A(i) = f(C(i))"
    env = {"N": 64}
    for body in (ab, ba):
        result = analyze(
            parse_and_lower(FIRST_USE_SOURCE.format(body=body)), env, 4,
            execute=False,
        )
        assert _families(result.constraints) == _families(
            extract_constraints(result.lcg)
        )


def _flip_one_label(lcg):
    for array in lcg.arrays():
        graph = lcg.graph(array)
        for u, v in graph.edges:
            analysis = graph.edges[u, v]["analysis"]
            if analysis.label == "L":
                graph.edges[u, v]["analysis"] = dataclasses.replace(
                    analysis, label="C"
                )
                return
    raise AssertionError("no L edge to flip")


def test_flipped_label_misses_the_bank():
    build, env, back = ALL_CODES["tfft2"]
    lcg = analyze(build(), env, 8, back_edges=back or None, execute=False).lcg
    key = system_key(lcg)
    _flip_one_label(lcg)
    assert system_key(lcg) != key
    misses = BANK.misses
    system = constraint_system(lcg)
    assert BANK.misses == misses + 1
    assert system.render() == extract_constraints(lcg).render()


def test_bank_survives_a_pickle_round_trip():
    build, env, back = ALL_CODES["jacobi"]
    BANK.clear()
    result = analyze(build(), env, 8, back_edges=back or None, execute=False)
    restored = pickle.loads(pickle.dumps(memo.snapshot()))["constraints"]
    BANK.clear()
    BANK.install(restored)
    hits = BANK.hits
    system = constraint_system(result.lcg)
    assert BANK.hits == hits + 1
    assert _families(system) == _families(extract_constraints(result.lcg))


# -- integer enumeration against the rational reference ---------------------

_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def _reference_values(members, t):
    out = {}
    for var, (a, b) in members.items():
        val = a * t + b
        if val.denominator != 1 or val < 1:
            return None
        out[var] = int(val)
    return out


@settings(max_examples=300, deadline=None)
@given(
    rels=st.lists(st.tuples(_RATIONALS, _RATIONALS), min_size=1, max_size=4),
    t_min=st.integers(-3, 6),
    span=st.integers(0, 30),
)
def test_integer_enumeration_matches_fraction_reference(rels, t_min, span):
    members = {
        f"p{i}": (Fraction(a), Fraction(b)) for i, (a, b) in enumerate(rels)
    }
    comp = VariableComponent(
        root="p0",
        members={v: _integer_relation(a, b) for v, (a, b) in members.items()},
        t_min=t_min,
        t_max=t_min + span,
    )
    for t in range(t_min, t_min + span + 1):
        assert comp.values_for(t) == _reference_values(members, t)
    assert comp.feasible_ts() == [
        t
        for t in range(max(t_min, 1), t_min + span + 1)
        if _reference_values(members, t) is not None
    ]
