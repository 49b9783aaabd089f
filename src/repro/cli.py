"""Command-line driver: analyse a mini-Fortran source file.

Usage::

    python -m repro program.f90-like --env P=16,p=4,Q=16,q=4 --H 8
    python -m repro --code tfft2 --H 8            # a bundled suite code
    python -m repro --code adi --H 4 --dot A      # emit Graphviz for A
    python -m repro --code tfft2 --H 64 --profile # cProfile the pipeline
    python -m repro --code tfft2 --H 64 --opt cache=lcg.pkl,refutation=off
    python -m repro --code tfft2 --H 64 --trace t.json --metrics
    python -m repro --code tfft2 --H 8 --json     # protocol document
    python -m repro bench-perf --out BENCH_perf.json   # perf harness
    python -m repro serve --port 8377             # analysis service
    python -m repro query --code adi --H 4 --port 8377
    python -m repro check --H 16,64,256           # differential soundness

Engine knobs travel through ``--opt KEY=VALUE,...`` — the exact grammar
of :meth:`repro.AnalysisOptions.from_spec`, so the CLI surface is
one-to-one with the Python API (the pre-1.1 ``--parallel-lcg``/
``--analysis-cache`` aliases were removed in PR 8).  ``--trace FILE``
writes the span tree as JSON (and renders it to stderr); ``--metrics``
prints the counter table.

Prints the LCG, the Table-2 constraint system, the Eq. 7 chunking and
the measured DSM execution report.
"""

from __future__ import annotations

import argparse
import sys
from typing import Mapping

__all__ = ["main"]


def _parse_env(text: str) -> dict:
    env: dict[str, int] = {}
    if not text:
        return env
    for item in text.split(","):
        if not item:
            continue
        name, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"bad --env entry {item!r}: expected NAME=INT")
        env[name.strip()] = int(value)
    return env


def _load_program(args):
    if args.code:
        from .codes import ALL_CODES

        try:
            builder, default_env, back = ALL_CODES[args.code]
        except KeyError:
            raise SystemExit(
                f"unknown code {args.code!r}; choose from "
                f"{', '.join(sorted(ALL_CODES))}"
            )
        return builder(), default_env, back
    if not args.source:
        raise SystemExit("provide a source file or --code NAME")
    from .ir.parser import parse_and_lower

    with open(args.source) as handle:
        text = handle.read()
    return parse_and_lower(text), {}, []


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench-perf":
        from .perf import main as bench_main

        return bench_main(list(argv[1:]))
    if argv and argv[0] == "serve":
        from .service.server import main_serve

        return main_serve(list(argv[1:]))
    if argv and argv[0] == "query":
        from .service.client import main_query

        return main_query(list(argv[1:]))
    if argv and argv[0] == "check":
        from .check.cli import main_check

        return main_check(list(argv[1:]))
    if argv and argv[0] == "fuzz":
        from .fuzz.cli import main_fuzz

        return main_fuzz(list(argv[1:]))
    if argv and argv[0] == "session":
        from .session.cli import main_session

        return main_session(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Access-descriptor locality analysis (ICPP'99): build the "
            "LCG, solve the distribution ILP, execute on the DSM "
            "simulator."
        ),
    )
    parser.add_argument("source", nargs="?", help="mini-Fortran source file")
    parser.add_argument(
        "--code", help="analyse a bundled suite code instead of a file"
    )
    parser.add_argument(
        "--env",
        default="",
        help="parameter binding, e.g. P=16,p=4,Q=16,q=4",
    )
    parser.add_argument("--H", type=int, default=4, help="processor count")
    parser.add_argument(
        "--dot",
        metavar="ARRAY",
        help="print the Graphviz DOT of one array's LCG and exit",
    )
    parser.add_argument(
        "--no-execute",
        action="store_true",
        help="skip the DSM simulation (analysis only)",
    )
    parser.add_argument(
        "--schedule",
        action="store_true",
        help="print the phase/communication schedule",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="run the analysis under cProfile; dump binary stats to FILE "
        "or a cumulative-time summary to stderr when no FILE is given",
    )
    parser.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="KEY=VALUE,...",
        help="engine options (repeatable), e.g. "
        "cache=lcg.pkl,refutation=off,plan_cache=plans.pkl,"
        "fast_path=symbolic — executor tiers off|legacy|wide|symbolic "
        "(symbolic: closed-form counts, no enumeration) — the grammar "
        "of AnalysisOptions.from_spec",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record pipeline spans; write the trace JSON to FILE and "
        "render the tree to stderr",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="record pipeline counters and print them after the run",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the analysis as the service-protocol response "
        "document (the same serializer `python -m repro serve` uses) "
        "instead of the human-readable report",
    )
    args = parser.parse_args(argv)

    from dataclasses import replace

    from . import AnalysisOptions, Collector, analyze
    from .obs import obs_span

    try:
        # Each repeated --opt is one spec parsed on its own, so a value
        # containing `,`/`=` (a cache path, say) survives unmangled.
        options = AnalysisOptions.from_specs(args.opt)
    except ValueError as exc:
        raise SystemExit(f"bad --opt: {exc}")
    if args.trace:
        options = replace(options, trace=True)
    if args.metrics:
        options = replace(options, metrics=True)

    collector = None
    if options.trace or options.metrics:
        collector = Collector(trace=options.trace, metrics=options.metrics)

    with obs_span(collector, "parse"):
        program, default_env, back_edges = _load_program(args)

    from .ir import validate_program

    diagnostics = validate_program(program)
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        return 1

    env = dict(default_env)
    env.update(_parse_env(args.env))
    if not env:
        raise SystemExit("no parameter binding: pass --env NAME=INT,...")

    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
    result = analyze(
        program,
        env=env,
        H=args.H,
        back_edges=back_edges,
        execute=not args.no_execute,
        options=options,
        collector=collector,
    )
    if args.profile is not None:
        profiler.disable()
        if args.profile == "-":
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(30)
        else:
            profiler.dump_stats(args.profile)
            print(f"profile written to {args.profile}", file=sys.stderr)

    if args.trace:
        import json

        with open(args.trace, "w") as handle:
            json.dump(collector.to_json(), handle, indent=2, default=str)
        print(f"trace written to {args.trace}", file=sys.stderr)
        print(collector.render(), file=sys.stderr)

    if args.dot:
        from .viz import lcg_to_dot

        print(lcg_to_dot(result.lcg, args.dot))
        return 0

    if args.json:
        import json

        doc = result.to_document()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    print(f"program: {program.name}   env: {env}   H: {args.H}")
    print()
    print("Locality-Communication Graph")
    print(result.lcg.render())
    print()
    print("Constraints")
    print(result.constraints.render())
    print()
    print(f"CYCLIC(p) chunks: {result.plan.phase_chunks}")
    if result.plan.relaxed_edges:
        print(f"relaxed to communication: {result.plan.relaxed_edges}")
    if getattr(result.plan, "relaxed_storage", None):
        print(f"storage schemes dropped: {result.plan.relaxed_storage}")
    if args.schedule:
        from .dsm import schedule_communications

        print()
        print("Schedule")
        print(schedule_communications(result.lcg, result.plan).render())
    if result.report is not None:
        print()
        print("Measured execution")
        print(f"  {result.report.summary()}")
        for comm in result.report.comms:
            print(f"  {comm}")
    if result.metrics is not None:
        print()
        print("Metrics")
        for name, value in result.metrics["counters"].items():
            print(f"  {name:40} {value}")
        for name, value in result.metrics["gauges"].items():
            print(f"  {name:40} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
