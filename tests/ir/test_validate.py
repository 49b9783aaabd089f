"""The static validation (lint) pass."""

import pytest

from repro.ir import ProgramBuilder
from repro.ir.validate import validate_phase, validate_program
from repro.symbolic import pow2, sym


def diags_of(prog):
    return validate_program(prog)


def severities(diags):
    return [d.severity for d in diags]


class TestBounds:
    def test_clean_program(self):
        bld = ProgramBuilder("ok")
        N = bld.param("N", minimum=4)
        A = bld.array("A", N)
        with bld.phase("F") as ph:
            with ph.doall("i", 0, N - 1) as i:
                ph.read(A, i)
        assert diags_of(bld.build()) == []

    def test_definite_overflow(self):
        bld = ProgramBuilder("over")
        N = bld.param("N", minimum=4)
        A = bld.array("A", N)
        with bld.phase("F") as ph:
            with ph.doall("i", 0, N - 1) as i:
                ph.read(A, i + 2)  # reaches N + 1
        diags = diags_of(bld.build())
        assert any(
            d.severity == "error" and "past the last element" in d.message
            for d in diags
        )

    def test_definite_underflow(self):
        bld = ProgramBuilder("under")
        N = bld.param("N", minimum=4)
        A = bld.array("A", N)
        with bld.phase("F") as ph:
            with ph.doall("i", 0, N - 1) as i:
                ph.read(A, i - 1)  # reaches -1
        diags = diags_of(bld.build())
        assert any(
            d.severity == "error" and "below the array base" in d.message
            for d in diags
        )

    def test_tfft2_is_clean(self):
        from repro.codes import build_tfft2

        diags = validate_program(build_tfft2())
        assert [d for d in diags if d.severity == "error"] == []

    def test_all_suite_codes_clean(self):
        from repro.codes import ALL_CODES

        for name, (builder, _, _) in ALL_CODES.items():
            diags = validate_program(builder())
            assert [d for d in diags if d.severity == "error"] == [], name

    def test_nonaffine_bounds_proved(self):
        """The Figure 1 nest's subscript is bounded by 2PQ - 1 exactly."""
        bld = ProgramBuilder("fig1")
        P, p = bld.pow2_param("P", "p")
        Q, q = bld.pow2_param("Q", "q")
        X = bld.array("X", 2 * P * Q)
        with bld.phase("F") as ph:
            with ph.doall("I", 0, Q - 1) as i:
                with ph.do("L", 1, p) as l:
                    with ph.do("J", 0, P * pow2(-l) - 1) as j:
                        with ph.do("K", 0, pow2(l - 1) - 1) as k:
                            ph.read(X, 2 * P * i + pow2(l - 1) * j + k)
        assert diags_of(bld.build()) == []


class TestLoopsAndStructure:
    def test_empty_loop_detected(self):
        bld = ProgramBuilder("empty")
        N = bld.param("N", minimum=4)
        A = bld.array("A", N)
        with bld.phase("F") as ph:
            with ph.doall("i", 0, N - 1) as i:
                with ph.do("j", 3, 1) as j:  # definitely empty
                    ph.read(A, i)
        diags = diags_of(bld.build())
        # analyze() handles zero-trip loops soundly, so every surface
        # that validates first must accept them: a warning, not an error
        assert any(
            d.severity == "warning" and "empty range" in d.message
            for d in diags
        )
        assert not any(d.severity == "error" for d in diags)

    def test_bounds_skipped_inside_empty_loop(self):
        bld = ProgramBuilder("emptyb")
        N = bld.param("N", minimum=4)
        A = bld.array("A", 4)
        B = bld.array("B", N)
        with bld.phase("F") as ph:
            with ph.doall("i", 0, N - 1) as i:
                with ph.do("j", 10, 5) as j:  # never runs
                    ph.write(A, j)  # would reach 10, past A(4)
                    ph.read(B, i)
        diags = diags_of(bld.build())
        assert not any(d.severity == "error" for d in diags), diags
        assert any("empty range" in d.message for d in diags)

    def test_bounds_still_checked_beside_empty_loop(self):
        bld = ProgramBuilder("beside")
        N = bld.param("N", minimum=4)
        A = bld.array("A", 4)
        with bld.phase("F") as ph:
            with ph.doall("i", 0, N - 1) as i:
                with ph.do("j", 10, 5) as j:
                    ph.read(A, j)
                ph.write(A, i + 10)  # outside the empty loop: runs
        diags = diags_of(bld.build())
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1
        assert "past the last element" in errors[0].message

    def test_unprovable_trip_warns(self):
        bld = ProgramBuilder("maybe")
        N = bld.param("N")  # only N >= 1 known
        A = bld.array("A", N)
        with bld.phase("F") as ph:
            with ph.doall("i", 0, N - 3) as i:  # empty when N < 3
                ph.read(A, i)
        diags = diags_of(bld.build())
        assert any(d.severity == "warning" for d in diags)
        assert not any(d.severity == "error" for d in diags)

    def test_sequential_phase_warns(self):
        bld = ProgramBuilder("seq")
        N = bld.param("N", minimum=2)
        A = bld.array("A", N)
        with bld.phase("F") as ph:
            with ph.do("i", 0, N - 1) as i:
                ph.read(A, i)
        diags = diags_of(bld.build())
        assert any("no parallel loop" in d.message for d in diags)

    def test_empty_phase_warns(self):
        from repro.ir import Phase, Program

        prog = Program("p")
        prog.add_phase(Phase("F"))
        diags = validate_program(prog)
        assert any("no array references" in d.message for d in diags)

    def test_no_phases_is_error(self):
        from repro.ir import Program

        diags = validate_program(Program("void"))
        assert diags and diags[0].severity == "error"

    def test_undeclared_symbol(self):
        bld = ProgramBuilder("undecl")
        N = bld.param("N", minimum=4)
        A = bld.array("A", N)
        with bld.phase("F") as ph:
            with ph.doall("i", 0, N - 1) as i:
                ph.read(A, i + sym("mystery"))
        diags = diags_of(bld.build())
        assert any(
            "undeclared symbols" in d.message and "mystery" in d.message
            for d in diags
        )
