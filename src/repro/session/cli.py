"""``python -m repro session`` — interactive sessions from the shell.

One-shot sweep::

    python -m repro session --code jacobi --H 8 \\
        --sweep chunk:F_sweep=1:12:1

prints every grid point and the (communication, imbalance) Pareto
front; ``--json`` emits the full sweep payload instead.  Without
``--sweep`` the command drops into a line-oriented REPL over stdin::

    set H 16            # move a parameter (H, alpha, beta, env NAME)
    pin F_sweep 4       # pin a phase's CYCLIC(p) chunk
    bound F_sweep 1 12  # clamp a phase's chunk range
    clear F_sweep       # drop the clamp
    sweep H=4:32:4      # what-if grid at the current parameters
    show                # parameters, chunking, reuse counters
    quit

Every solve goes through the same warm :class:`repro.session.Session`
the service hosts, so the REPL's answers are byte-identical to fresh
``analyze()`` calls at the same parameters.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main_session"]


def _load(args):
    if args.code:
        from ..codes import ALL_CODES

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
    from ..ir.parser import parse_and_lower

    with open(args.source) as handle:
        return parse_and_lower(handle.read()), {}, []


def _parse_env(text: str) -> dict:
    env: dict = {}
    for item in (text or "").split(","):
        if not item:
            continue
        name, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"bad --env entry {item!r}: expected NAME=INT")
        env[name.strip()] = int(value)
    return env


def _print_point(point, index, front) -> None:
    mark = "*" if index in front else " "
    if not point.get("feasible"):
        print(f"  {mark} {point['params']}  infeasible: {point['error']}")
        return
    print(
        f"  {mark} {point['params']}  "
        f"objective={point['objective']:.1f}  "
        f"comm={point['communication']:.1f}  "
        f"imbalance={point['imbalance']:.1f}  "
        f"chunks={point['phase_chunks']}"
    )


def _print_sweep(out) -> None:
    print(f"sweep over {out['grid']} — {len(out['points'])} points")
    for i, point in enumerate(out["points"]):
        _print_point(point, i, set(out["front"]))
    front = out["front"]
    print(
        f"Pareto front ({len(front)} non-dominated layout"
        f"{'s' if len(front) != 1 else ''}, '*' above):"
    )
    for i in front:
        p = out["points"][i]
        print(
            f"  {p['params']}: comm={p['communication']:.1f}, "
            f"imbalance={p['imbalance']:.1f}, chunks={p['phase_chunks']}"
        )
    reuse = out["reuse"]
    print(
        f"reuse: {reuse['edges_reused']} edges from cache, "
        f"{reuse['edges_recomputed']} recomputed; "
        f"{reuse['constraints_reused']} constraint systems from the bank, "
        f"{reuse['ilp_component_memo_hits']} ILP components from memo"
    )


def _show(session) -> None:
    doc = session.describe()
    print(f"session {doc['session']} (revision {doc['revision']})")
    print(f"  params: {doc['params']}")
    print(f"  phases: {', '.join(doc['phases'])}")
    if session.last is not None:
        print(f"  last solve sha256: {session.last['sha256']}")
    print(f"  memo: {doc['memo']}")
    print(f"  cache: {doc['cache_entries']}")


def _repl(session) -> int:
    from .delta import apply_edits
    from .state import SessionError
    from .sweep import parse_sweep_args, run_sweep

    prompt = sys.stdin.isatty()
    while True:
        if prompt:
            sys.stderr.write("session> ")
            sys.stderr.flush()
        line = sys.stdin.readline()
        if not line:
            return 0
        words = line.split()
        if not words:
            continue
        cmd, rest = words[0], words[1:]
        try:
            if cmd in ("quit", "exit", "q"):
                return 0
            elif cmd == "show":
                _show(session)
            elif cmd == "set" and len(rest) == 2:
                key, text = rest
                value = (
                    float(text) if key in ("alpha", "beta") else int(text)
                )
                out = apply_edits(
                    session,
                    [{"op": "set_param", "key": key, "value": value}],
                )
                doc = out["document"]
                print(
                    f"{out['applied'][0]} -> chunks "
                    f"{doc['plan']['phase_chunks']}, objective "
                    f"{doc['plan']['objective']:.1f} "
                    f"(edges reused {out['reuse']['edges_reused']}, "
                    f"recomputed {out['reuse']['edges_recomputed']})"
                )
            elif cmd == "pin" and len(rest) == 2:
                out = apply_edits(
                    session,
                    [
                        {
                            "op": "edit_phase",
                            "phase": rest[0],
                            "chunk": int(rest[1]),
                        }
                    ],
                )
                doc = out["document"]
                print(
                    f"{out['applied'][0]} -> chunks "
                    f"{doc['plan']['phase_chunks']}, objective "
                    f"{doc['plan']['objective']:.1f}"
                )
            elif cmd == "bound" and len(rest) == 3:
                out = apply_edits(
                    session,
                    [
                        {
                            "op": "edit_phase",
                            "phase": rest[0],
                            "min_chunk": int(rest[1]),
                            "max_chunk": int(rest[2]),
                        }
                    ],
                )
                print(out["applied"][0])
            elif cmd == "clear" and len(rest) == 1:
                out = apply_edits(
                    session,
                    [
                        {
                            "op": "edit_phase",
                            "phase": rest[0],
                            "clear": True,
                        }
                    ],
                )
                print(out["applied"][0])
            elif cmd == "sweep" and rest:
                _print_sweep(run_sweep(session, parse_sweep_args(rest)))
            else:
                print(
                    "commands: set KEY VALUE | pin PHASE N | "
                    "bound PHASE LO HI | clear PHASE | "
                    "sweep KEY=lo:hi:step... | show | quit",
                    file=sys.stderr,
                )
        except (SessionError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)


def main_session(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro session",
        description=(
            "Interactive incremental analysis: keep one program's LCG "
            "and ILP memo warm, edit parameters, sweep what-if grids "
            "to a Pareto front."
        ),
    )
    parser.add_argument("source", nargs="?", help="mini-Fortran source file")
    parser.add_argument(
        "--code", help="a bundled suite code instead of a file"
    )
    parser.add_argument(
        "--env", default="", help="parameter binding, e.g. P=16,p=4"
    )
    parser.add_argument("--H", type=int, default=4, help="block size H")
    parser.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="KEY=VALUE,...",
        help="engine options (AnalysisOptions.from_spec grammar)",
    )
    parser.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="KEY=lo:hi:step",
        help="one-shot sweep (repeatable; keys H, alpha, beta, "
        "chunk:PHASE, or an env name) — without it, a REPL reads "
        "commands from stdin",
    )
    parser.add_argument(
        "--no-execute",
        action="store_true",
        help="skip the DSM simulation on every solve",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the sweep payload as JSON instead of the table",
    )
    args = parser.parse_args(argv)

    from .. import AnalysisOptions
    from .state import Session, SessionError
    from .sweep import parse_sweep_args, run_sweep

    try:
        options = AnalysisOptions.from_specs(args.opt)
    except ValueError as exc:
        raise SystemExit(f"bad --opt: {exc}")

    program, default_env, back = _load(args)
    env = dict(default_env)
    env.update(_parse_env(args.env))
    if not env:
        raise SystemExit("no parameter binding: pass --env NAME=INT,...")

    session = Session(
        program,
        env,
        args.H,
        back_edges=back,
        execute=not args.no_execute,
        options=options,
    )
    try:
        if args.sweep:
            try:
                out = run_sweep(session, parse_sweep_args(args.sweep))
            except SessionError as exc:
                raise SystemExit(f"bad --sweep: {exc}")
            if args.json:
                print(json.dumps(out, indent=2, sort_keys=True))
            else:
                _print_sweep(out)
            return 0
        solved = session.solve()
        doc = solved["document"]
        print(
            f"session over {program.name} at H={args.H}: chunks "
            f"{doc['plan']['phase_chunks']}, objective "
            f"{doc['plan']['objective']:.1f}"
        )
        return _repl(session)
    finally:
        session.close()


if __name__ == "__main__":
    sys.exit(main_session())
