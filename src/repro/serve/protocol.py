"""Request/response objects of the label-serving API.

The serving layer talks in three explicit dataclasses instead of loose
dicts, so every transport (the stdlib HTTP endpoint, the CLI ``repro
query`` client, in-process callers, future RPC frontends) shares one
validated shape:

* :class:`EstimateRequest` — which label, which pattern(s).  Parsed from
  a JSON body carrying either ``{"pattern": {...}}`` or ``{"patterns":
  [{...}, ...]}``; a multi-pattern request is one unit of work and rides
  the micro-batcher as a whole.
* :class:`EstimateResponse` — the estimates plus the snapshot ``version``
  they were computed against (so a client can detect that a maintainer
  published an update between two calls) and the size of the coalesced
  micro-batch the request rode in (an observability hook, not a
  correctness field).
* :class:`ErrorResponse` — machine-readable failure: a stable ``code``
  string, a human message, and the HTTP status the service maps it to.

The :class:`ServeError` hierarchy is what the store/batcher/service
raise internally; :meth:`ErrorResponse.from_exception` is the single
place that turns any of them (or an unexpected exception) into the wire
shape.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Any, Mapping

from repro.api.errors import ApiError
from repro.core.pattern import Pattern

__all__ = [
    "ServeError",
    "UnknownLabelError",
    "BadRequestError",
    "UnsupportedOperationError",
    "EstimateRequest",
    "EstimateResponse",
    "ErrorResponse",
]


class ServeError(ApiError):
    """Base class for every error raised by the serving layer."""

    #: Stable machine-readable code; subclasses override.
    code = "serve_error"
    #: HTTP status the service responds with.
    status = 500


class UnknownLabelError(ServeError, KeyError):
    """No snapshot is published under the requested label name."""

    code = "not_found"
    status = 404

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else "unknown label"


class BadRequestError(ServeError, ValueError):
    """The request payload is malformed or does not match the label."""

    code = "bad_request"
    status = 400


class UnsupportedOperationError(ServeError, ValueError):
    """The label kind does not support the requested operation."""

    code = "unsupported"
    status = 409


@dataclass(frozen=True)
class EstimateRequest:
    """One estimation request against a named label.

    ``patterns`` holds one entry per requested pattern; a single-pattern
    JSON body parses to a one-tuple.  The request is the micro-batcher's
    unit of admission: all of its patterns are answered from the same
    snapshot in the same coalesced batch.
    """

    label: str
    patterns: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise BadRequestError("a request must name a label")
        if not self.patterns:
            raise BadRequestError("a request must carry at least one pattern")

    @classmethod
    def from_payload(
        cls, label: str, payload: Mapping[str, Any]
    ) -> "EstimateRequest":
        """Parse a JSON request body.

        Accepts ``{"pattern": {attr: value, ...}}`` for one pattern or
        ``{"patterns": [{...}, ...]}`` for a batch; values follow the
        artifact convention (CSV-born labels store strings).  A binding
        value may also be a one-key operator object — ``{"age": {">=":
        "30"}}`` — selecting the range predicate instead of equality
        (the operators of ``repro.core.pattern.OPS``).
        """
        # The abc (not typing) Mapping: its isinstance check runs in C.
        if not isinstance(payload, abc.Mapping):
            raise BadRequestError(
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        if ("pattern" in payload) == ("patterns" in payload):
            raise BadRequestError(
                "request body must carry exactly one of 'pattern' "
                "(an object) or 'patterns' (an array of objects)"
            )
        if "pattern" in payload:
            entries: Any = [payload["pattern"]]
        else:
            entries = payload["patterns"]
            if not isinstance(entries, list) or not entries:
                raise BadRequestError(
                    "'patterns' must be a non-empty JSON array of "
                    "{attribute: value} objects"
                )
        patterns = []
        for position, entry in enumerate(entries):
            if not isinstance(entry, abc.Mapping) or not entry:
                raise BadRequestError(
                    f"pattern {position} must be a non-empty JSON object "
                    f"of attribute/value bindings, got {entry!r}"
                )
            try:
                patterns.append(Pattern(entry))
            except (TypeError, ValueError) as exc:
                raise BadRequestError(
                    f"pattern {position} is not valid: {exc}"
                ) from exc
        return cls(label=label, patterns=tuple(patterns))

    def to_payload(self) -> dict[str, Any]:
        """The JSON body shape (used by the ``repro query`` client).

        Bindings serialize through ``Pattern.to_spec`` so range
        predicates become the same one-key operator objects
        ``from_payload`` parses.
        """
        if len(self.patterns) == 1:
            return {"pattern": self.patterns[0].to_spec()}
        return {"patterns": [p.to_spec() for p in self.patterns]}


@dataclass(frozen=True)
class EstimateResponse:
    """Estimates for one request, tagged with snapshot provenance.

    ``version`` is the published snapshot version the estimates were
    computed against; ``batched`` is how many patterns the micro-batch
    that served this request coalesced (1 when the request ran alone, 0
    when the whole request was answered from the result cache);
    ``cached`` is how many of the request's patterns were cache hits.
    Both are observability fields — the values never depend on them.
    """

    label: str
    version: int
    estimates: tuple[float, ...]
    batched: int = 1
    cached: int = 0

    def to_payload(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "version": self.version,
            "estimates": list(self.estimates),
            "batched": self.batched,
            "cached": self.cached,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "EstimateResponse":
        try:
            return cls(
                label=str(payload["label"]),
                version=int(payload["version"]),
                estimates=tuple(
                    float(v) for v in payload["estimates"]
                ),
                batched=int(payload.get("batched", 1)),
                cached=int(payload.get("cached", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequestError(
                f"malformed estimate response payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class ErrorResponse:
    """Machine-readable failure shape shared by every endpoint."""

    code: str
    message: str
    status: int = 400

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorResponse":
        """Map any exception to the wire shape.

        :class:`ServeError` subclasses carry their own code/status;
        ``KeyError`` (an unknown attribute or domain value reaching an
        estimator) reads as a bad request; anything else is an internal
        error.
        """
        if isinstance(exc, ServeError):
            return cls(code=exc.code, message=str(exc), status=exc.status)
        if isinstance(exc, (KeyError, ValueError)):
            message = exc.args[0] if exc.args else str(exc)
            return cls(
                code="bad_request", message=str(message), status=400
            )
        return cls(code="internal", message=str(exc), status=500)

    def to_payload(self) -> dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message}}
