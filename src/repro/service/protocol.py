"""Versioned JSON request/response schema of the analysis service.

One protocol serves three consumers: the HTTP server (``server.py``),
the blocking client (``client.py``) and the one-shot CLI's ``--json``
mode — all three speak exactly the documents built here, so a script
can move between ``python -m repro --json`` and ``curl /analyze``
without changing a parser.

A request names a program (a bundled-code name *or* mini-Fortran source
text), a parameter binding, the processor count ``H`` and an engine
options spec in the ``--opt`` grammar of
:meth:`repro.AnalysisOptions.from_spec`.  A response carries the LCG
labels and chains, the Table-2 constraint system, the Eq. 7 chunking,
the phase/communication schedule, the measured DSM report and — when
the options asked for them — the trace span tree and metrics counters.

Documents are serialized canonically (sorted keys, fixed separators),
which is what makes the acceptance property testable: a served response
for a request is *byte-identical* to serializing a serial
:func:`repro.analyze` of the same program and options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..document import WIRE_VERSION, dumps_canonical
from ..options import AnalysisOptions

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "AnalyzeRequest",
    "build_request_program",
    "materialize_request",
    "validate_request",
    "request_key",
    "response_document",
    "dumps_canonical",
]

PROTOCOL_VERSION = WIRE_VERSION


class ProtocolError(ValueError):
    """A malformed or unsatisfiable request (maps to HTTP 400)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError(message)


@dataclass(frozen=True)
class AnalyzeRequest:
    """One validated ``/analyze`` request.

    ``env`` and ``back_edges`` are stored as sorted/ordered tuples so a
    request is hashable and equal requests compare equal regardless of
    the JSON key order they arrived in.  ``back_edges is None`` means
    "use the bundled code's default back edges" (and no back edges for
    source-text programs); an explicit list overrides.
    """

    code: Optional[str] = None
    source: Optional[str] = None
    env: tuple = ()
    H: int = 4
    options_spec: str = ""
    execute: bool = True
    back_edges: Optional[tuple] = None

    def __post_init__(self):
        _require(
            (self.code is None) != (self.source is None),
            "provide exactly one of 'code' and 'source'",
        )
        # Parse eagerly so a bad spec fails at admission, not in a worker.
        object.__setattr__(self, "_options", self._parse_options())

    def _parse_options(self) -> AnalysisOptions:
        try:
            return AnalysisOptions.from_spec(self.options_spec)
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"bad options spec: {exc}")

    @property
    def options(self) -> AnalysisOptions:
        return self._options

    @classmethod
    def from_json(cls, doc) -> "AnalyzeRequest":
        _require(isinstance(doc, Mapping), "request body must be a JSON object")
        version = doc.get("version", PROTOCOL_VERSION)
        _require(
            version == PROTOCOL_VERSION,
            f"unsupported protocol version {version!r} "
            f"(this server speaks {PROTOCOL_VERSION})",
        )
        known = {
            "version", "code", "source", "env", "H", "options",
            "execute", "back_edges",
        }
        unknown = sorted(set(doc) - known)
        _require(not unknown, f"unknown request fields: {', '.join(unknown)}")

        code = doc.get("code")
        source = doc.get("source")
        _require(
            code is None or isinstance(code, str),
            "'code' must be a string",
        )
        _require(
            source is None or isinstance(source, str),
            "'source' must be a string",
        )

        env_doc = doc.get("env", {})
        _require(
            isinstance(env_doc, Mapping),
            "'env' must be an object of NAME -> integer",
        )
        env = []
        for name, value in env_doc.items():
            _require(
                isinstance(name, str)
                and isinstance(value, int)
                and not isinstance(value, bool),
                f"bad env entry {name!r}: expected NAME -> integer",
            )
            env.append((name, value))

        H = doc.get("H", 4)
        _require(
            isinstance(H, int) and not isinstance(H, bool) and H >= 1,
            f"'H' must be a positive integer, got {H!r}",
        )

        options = doc.get("options", "")
        _require(isinstance(options, str), "'options' must be a spec string")

        execute = doc.get("execute", True)
        _require(isinstance(execute, bool), "'execute' must be a boolean")

        back = doc.get("back_edges")
        if back is not None:
            _require(
                isinstance(back, (list, tuple))
                and all(
                    isinstance(e, (list, tuple))
                    and len(e) == 2
                    and all(isinstance(n, str) for n in e)
                    for e in back
                ),
                "'back_edges' must be a list of [from_phase, to_phase] pairs",
            )
            back = tuple((e[0], e[1]) for e in back)

        return cls(
            code=code,
            source=source,
            env=tuple(sorted(env)),
            H=H,
            options_spec=options,
            execute=execute,
            back_edges=back,
        )

    def to_json(self) -> dict:
        doc: dict = {"version": PROTOCOL_VERSION, "H": self.H}
        if self.code is not None:
            doc["code"] = self.code
        if self.source is not None:
            doc["source"] = self.source
        if self.env:
            doc["env"] = dict(self.env)
        if self.options_spec:
            doc["options"] = self.options_spec
        if not self.execute:
            doc["execute"] = False
        if self.back_edges is not None:
            doc["back_edges"] = [list(e) for e in self.back_edges]
        return doc


def materialize_request(request: AnalyzeRequest):
    """Parse or build a request's program: ``(program, env, back_edges)``.

    Bundled codes contribute their reference binding and default back
    edges; the request's ``env`` overrides per name and an explicit
    ``back_edges`` replaces the default.  An unknown code, a parse error
    or an empty binding is a :class:`ProtocolError` so the server can
    answer 400 rather than 500.  The program is *not* validated: that
    is :func:`validate_request`, which the cluster router leaves to the
    shard so a first-seen request is validated once, not twice.
    """
    if request.code is not None:
        from ..codes import ALL_CODES

        try:
            builder, default_env, default_back = ALL_CODES[request.code]
        except KeyError:
            raise ProtocolError(
                f"unknown code {request.code!r}; choose from "
                f"{', '.join(sorted(ALL_CODES))}"
            )
        program = builder()
    else:
        from ..ir.parser import parse_and_lower

        try:
            program = parse_and_lower(request.source)
        except Exception as exc:
            raise ProtocolError(f"source does not parse: {exc}")
        default_env, default_back = {}, []

    env = dict(default_env)
    env.update(dict(request.env))
    _require(bool(env), "no parameter binding: pass 'env'")

    back = (
        list(request.back_edges)
        if request.back_edges is not None
        else list(default_back)
    )
    return program, env, back


def validate_request(program) -> None:
    """Raise :class:`ProtocolError` if the program has a validation error."""
    from ..ir import validate_program

    errors = [d for d in validate_program(program) if d.severity == "error"]
    if errors:
        raise ProtocolError(
            "program does not validate: " + "; ".join(str(d) for d in errors)
        )


def build_request_program(request: AnalyzeRequest):
    """Materialize and validate a request: ``(program, env, back_edges)``."""
    program, env, back = materialize_request(request)
    validate_request(program)
    return program, env, back


def request_key(request: AnalyzeRequest, program, env: Mapping[str, int],
                back_edges) -> tuple:
    """The single-flight/result-cache key of one materialized request.

    Keyed on the PR-2 *structural* program fingerprint rather than the
    request text, so a bundled-code request and a source-text request
    that lower to the same program coalesce onto one in-flight analysis.
    The canonical options spec (``to_spec`` of the parsed options)
    normalizes spelling: ``fast_path=wide`` and ``fast_path = wide`` — and
    any alias key — produce the same key.
    """
    from ..descriptors.fingerprint import program_fingerprint

    return (
        program_fingerprint(program),
        tuple(sorted((k, int(v)) for k, v in env.items())),
        int(request.H),
        request.options.to_spec(),
        bool(request.execute),
        tuple(back_edges),
    )


# ---------------------------------------------------------------------------
# response documents
# ---------------------------------------------------------------------------


def response_document(
    result,
    env: Optional[Mapping[str, int]] = None,
    H: Optional[int] = None,
) -> dict:
    """The response body for one :class:`repro.AnalysisResult`.

    A thin delegate to :meth:`repro.AnalysisResult.to_document` — the
    result carries its own ``env``/``H`` binding since schema 2, so the
    wire format has exactly one producer (:mod:`repro.document`).  The
    legacy ``env``/``H`` arguments are accepted for caller symmetry and
    cross-checked when given.
    """
    if env is not None and dict(env) != dict(result.env):
        raise ValueError(
            f"env {dict(env)!r} does not match the analyzed binding "
            f"{dict(result.env)!r}"
        )
    if H is not None and int(H) != int(result.H):
        raise ValueError(
            f"H {H!r} does not match the analyzed machine size {result.H!r}"
        )
    return result.to_document()
