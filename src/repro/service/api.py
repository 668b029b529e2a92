"""The typed request/response API of the compile service.

One request type, one result type, one wire schema:

* :class:`CompileRequest` — the single typed entry point for every
  kind of work the service does.  A *definition* request mirrors
  ``repro.compile``'s signature; a *program* request carries
  ``result``/``fuse`` (``repro.compile_program``); ``kind="auto"``
  (the default for wire traffic) detects which one the source is.
  Every request compiles as ``repro.compile`` compiles the same
  arguments (:func:`repro.core.pipeline.build`): ``strategy`` defaults
  to ``"auto"``, and a field the parsed kind ignores is a
  ``CompileError``.  ``warm_only=True`` marks a
  cache-warming request: it compiles and stores like any other but the
  wire layer strips the generated source from the response.
* :class:`CompileResult` — one request's outcome: fingerprint, the
  live compiled object (in-process), which tier served it, the error
  if any.
* the **wire schema** — a versioned JSON rendering of both
  (:data:`WIRE_SCHEMA`), used verbatim by the HTTP endpoint
  (:mod:`repro.serve`) and by the worker pool to ship requests into
  compile worker processes.  Compiled objects do not cross the wire;
  their generated *source* does (definitions: ``source``; programs:
  ``sources`` keyed by binding), which is exactly what the
  bit-identical acceptance checks compare.

The service methods live in :mod:`repro.service.service`; this module
is deliberately dependency-light so worker processes can import it
cheaply.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Version tag of the JSON wire schema.  Bump on incompatible layout
#: changes; requests tagged with a different schema are rejected with
#: a reasoned 400 instead of being misparsed.
WIRE_SCHEMA = "repro-serve/1"

#: ``CompileRequest`` fields that cross the wire (everything).
_REQUEST_FIELDS = (
    "src", "params", "options", "force_strategy", "strategy",
    "old_array", "kind", "result", "fuse", "warm_only",
    "dist", "workers", "ooc",
)

_KINDS = ("auto", "definition", "program")

#: Wire field -> (the JSON types it takes, how an error names them).
#: Nothing is coerced: ``"false"`` is not a boolean.
_FIELD_TYPES = {
    **{name: (bool, "a JSON boolean")
       for name in ("fuse", "warm_only", "dist", "ooc")},
    **{name: (str, "a string") for name in ("strategy", "kind")},
    **{name: ((str, type(None)), "a string or null")
       for name in ("force_strategy", "old_array", "result")},
}


class WireError(ValueError):
    """A request or envelope that does not fit the wire schema."""


@dataclass
class CompileRequest:
    """One unit of work for :meth:`CompileService.submit`.

    The first six fields mirror ``repro.compile``.  The rest cover the
    service's other work: ``kind``/``result``/``fuse`` make a program
    request (``repro.compile_program``), and ``warm_only`` warms the
    cache.
    """

    src: object
    params: Optional[Dict] = None
    options: object = None
    force_strategy: Optional[str] = None
    #: ``repro.compile``'s default: the mode follows the source.
    strategy: str = "auto"
    old_array: Optional[str] = None
    #: ``"definition"``, ``"program"``, or ``"auto"`` — detect from
    #: the source (multi-binding programs route to the program
    #: pipeline; everything else is a single definition).
    kind: str = "auto"
    #: Program requests only: the binding the program returns.
    result: Optional[str] = None
    #: Program requests only: cross-binding loop fusion.
    fuse: bool = True
    #: Warm the cache; the wire response omits generated source.
    warm_only: bool = False
    #: Program requests only: plan block-partitioned convergence
    #: sweeps (:mod:`repro.core.distplan`) over ``workers`` processes.
    dist: bool = False
    #: Block count for ``dist``; ``0`` takes the machine's CPU count,
    #: and the planner refuses fewer than two workers with a reason.
    workers: int = 0
    #: Program requests only: plan out-of-core streaming sweeps
    #: (:mod:`repro.program.outofcore`; ``options.tile`` sets the rows
    #: per streamed tile).
    ooc: bool = False

    def to_wire(self) -> Dict:
        """The JSON-able wire form (requires string source/options)."""
        if not isinstance(self.src, str):
            raise WireError(
                "only string sources cross the wire; got "
                f"{type(self.src).__name__}"
            )
        out: Dict[str, object] = {"src": self.src}
        if self.params:
            out["params"] = dict(self.params)
        if self.options is not None:
            out["options"] = options_to_wire(self.options)
        for name in ("force_strategy", "old_array", "result"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.strategy != "auto":
            out["strategy"] = self.strategy
        if self.kind != "auto":
            out["kind"] = self.kind
        if not self.fuse:
            out["fuse"] = False
        if self.warm_only:
            out["warm_only"] = True
        if self.dist:
            out["dist"] = True
        if self.workers:
            out["workers"] = self.workers
        if self.ooc:
            out["ooc"] = True
        return out

    @classmethod
    def from_wire(cls, payload: Dict) -> "CompileRequest":
        """Parse one wire request, rejecting unknown keys and values of
        the wrong JSON type loudly."""
        if not isinstance(payload, dict):
            raise WireError(
                f"request must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = set(payload) - set(_REQUEST_FIELDS)
        if unknown:
            raise WireError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        if "src" not in payload or not isinstance(payload["src"], str):
            raise WireError("request needs a string 'src' field")
        for name, (types, what) in _FIELD_TYPES.items():
            if name in payload and not isinstance(payload[name], types):
                raise WireError(
                    f"{name} must be {what}; got {payload[name]!r}")
        kind = payload.get("kind", "auto")
        if kind not in _KINDS:
            raise WireError(
                f"kind must be one of {', '.join(_KINDS)}; got {kind!r}"
            )
        params = payload.get("params")
        if params is not None and not isinstance(params, dict):
            raise WireError("params must be an object of name -> number")
        for name, value in (params or {}).items():
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                raise WireError(
                    "params must be an object of name -> number; "
                    f"{name!r} is {value!r}"
                )
        workers = payload.get("workers", 0)
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 0:
            raise WireError("workers must be a non-negative integer")
        options = payload.get("options")
        return cls(
            src=payload["src"],
            params=dict(params) if params else None,
            options=options_from_wire(options),
            force_strategy=payload.get("force_strategy"),
            strategy=payload.get("strategy", "auto"),
            old_array=payload.get("old_array"),
            kind=kind,
            result=payload.get("result"),
            fuse=payload.get("fuse", True),
            warm_only=payload.get("warm_only", False),
            dist=payload.get("dist", False),
            workers=workers,
            ooc=payload.get("ooc", False),
        )


def require_request(request) -> CompileRequest:
    """``request`` itself; anything but a :class:`CompileRequest` is a
    :class:`TypeError`."""
    if not isinstance(request, CompileRequest):
        raise TypeError(
            "a request must be a CompileRequest, got "
            f"{type(request).__name__}"
        )
    return request


@dataclass
class CompileResult:
    """Outcome of one :class:`CompileRequest`.

    ``compiled`` is the live object (:class:`CompiledComp` or
    :class:`CompiledProgram`) for in-process callers; over the wire it
    is replaced by the generated source text.  ``cached`` means the
    entry existed before this request; ``tier`` names the store tier
    that served a hit (``None`` for a fresh compile).
    """

    fingerprint: Optional[str] = None
    compiled: Optional[object] = None
    error: Optional[BaseException] = field(default=None, repr=False)
    cached: bool = False
    tier: Optional[str] = None
    kind: str = "definition"
    elapsed_s: float = 0.0
    warm_only: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def value(self):
        """The compiled object, re-raising the captured error if any."""
        if self.error is not None:
            raise self.error
        return self.compiled

    def to_wire(self) -> Dict:
        """The JSON-able wire form of this result."""
        out: Dict[str, object] = {
            "ok": self.ok,
            "kind": self.kind,
            "cached": self.cached,
            "tier": self.tier,
            "elapsed_s": self.elapsed_s,
        }
        if self.fingerprint is not None:
            out["fingerprint"] = self.fingerprint
        if self.error is not None:
            out["error"] = {
                "type": type(self.error).__name__,
                "message": str(self.error),
            }
        if self.warm_only:
            out["warm_only"] = True
        elif self.compiled is not None:
            if hasattr(self.compiled, "sources"):
                out["sources"] = dict(self.compiled.sources())
            elif hasattr(self.compiled, "source"):
                out["source"] = self.compiled.source
            report = getattr(self.compiled, "report", None)
            strategy = getattr(report, "strategy", None)
            if strategy:
                out["strategy"] = strategy
        return out


def options_to_wire(options) -> Optional[Dict]:
    """``CodegenOptions`` -> plain dict of non-default fields."""
    if options is None:
        return None
    out = {}
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        if value != f.default:
            out[f.name] = value
    return out


def options_from_wire(payload):
    """Plain dict -> ``CodegenOptions`` (``None`` passes through).

    A malformed value is the options' own :class:`CodegenError`,
    re-raised as a :class:`WireError` (HTTP 400).
    """
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise WireError("options must be an object of option -> value")
    from repro.codegen.emit import CodegenError, CodegenOptions

    known = {f.name for f in dataclasses.fields(CodegenOptions)}
    unknown = set(payload) - known
    if unknown:
        raise WireError(
            f"unknown option(s): {', '.join(sorted(unknown))}"
        )
    try:
        return CodegenOptions(**payload)
    except CodegenError as exc:
        raise WireError(f"bad option value: {exc}") from exc


# ----------------------------------------------------------------------
# Envelopes: what actually travels in an HTTP body.


def decode_requests(payload: Dict) -> List[CompileRequest]:
    """Parse an envelope *or* a bare single request object.

    A bare object (no ``schema``/``requests`` keys) is treated as one
    request — the ergonomic curl form.  Envelopes must carry the
    current :data:`WIRE_SCHEMA`.  Either may carry ``timeout_s``, the
    body's compile budget, which the server reads and this parse
    leaves out of the request.
    """
    if not isinstance(payload, dict):
        raise WireError("body must be a JSON object")
    if "requests" not in payload and "schema" not in payload:
        return [CompileRequest.from_wire(
            {key: value for key, value in payload.items()
             if key != "timeout_s"}
        )]
    schema = payload.get("schema")
    if schema != WIRE_SCHEMA:
        raise WireError(
            f"unsupported wire schema {schema!r} (this server speaks "
            f"{WIRE_SCHEMA})"
        )
    requests = payload.get("requests")
    if not isinstance(requests, list) or not requests:
        raise WireError("'requests' must be a non-empty list")
    return [CompileRequest.from_wire(entry) for entry in requests]

