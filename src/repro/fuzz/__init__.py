"""Randomized differential testing of the whole analysis pipeline.

The benchmark suite exercises the shapes the paper names; the fuzzer
exercises the shapes nobody thought to name.  A seeded generator
(:mod:`repro.fuzz.generator`) emits random DO-nests inside the
analyzable language — imperfect nests, guards, symbolic strides,
triangular and ``2**L`` bounds, zero-trip and negative-step loops —
renders them to the mini-Fortran front end, and the driver
(:mod:`repro.fuzz.driver`) pushes each program through every
differential oracle in :mod:`repro.check`.  Failures are minimised at
the spec level (:mod:`repro.fuzz.shrink`) into committable repros.

Everything is deterministic in the seed: CI reproduces any nightly
failure with ``python -m repro fuzz --seeds <seed>``.
"""

from .corpus import CorpusError, Fixture, load_corpus, parse_fixture, write_corpus
from .driver import CaseOutcome, FuzzReport, run_case, run_fuzz
from .generator import GeneratedProgram, generate, render_fixture
from .shrink import shrink

__all__ = [
    "CaseOutcome",
    "CorpusError",
    "Fixture",
    "FuzzReport",
    "GeneratedProgram",
    "generate",
    "load_corpus",
    "parse_fixture",
    "render_fixture",
    "run_case",
    "run_fuzz",
    "shrink",
    "write_corpus",
]
