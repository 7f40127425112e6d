"""Stdlib HTTP endpoint: labels as a concurrent JSON serving surface.

``ThreadingHTTPServer`` (one thread per connection, stdlib only) in
front of the :class:`~repro.serve.store.LabelStore` and the
:class:`~repro.serve.batching.MicroBatcher`:

* ``GET  /labels`` — catalog of published labels (name, version, kind,
  ``|PC|``, ``|D|``, estimator backend);
* ``GET  /stats`` — serving telemetry: per-worker micro-batch counters,
  result-cache occupancy and hit rate, the store's publish-generation
  counter, and per streamed label its WAL seq, batches, shards,
  compactions, detach reason, background failures and drift checks;
* ``GET  /labels/<name>`` — one label's catalog entry;
* ``GET  /labels/<name>/card`` — the nutrition card (``?format=text|
  markdown|html``; subset labels only);
* ``POST /labels/<name>/estimate`` — body ``{"pattern": {...}}`` or
  ``{"patterns": [...]}``; concurrent requests coalesce in the
  micro-batcher and the response reports the snapshot ``version`` the
  estimates describe;
* ``POST /labels/<name>/update`` — body ``{"inserted": [rows...],
  "deleted": [rows...]}`` (each row an ``{attribute: value}`` object
  over exactly the label's attributes); maintains the label exactly and
  publishes the next version without ever blocking readers.

Every handler resolves its snapshot *once* and answers entirely from it,
so a concurrent publish can never mix versions inside one response.
Errors come back as :class:`~repro.serve.protocol.ErrorResponse` JSON
with the matching HTTP status.

Request bodies are framed by ``Content-Length`` only and always
drained.  A request whose framing is unknown -- ``Transfer-Encoding``,
a malformed ``Content-Length``, a malformed header line -- gets a typed
400 and the connection closes after it.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from collections import abc
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.parse import parse_qs, unquote, urlparse

from repro.core.label import Label
from repro.dataset.table import Dataset
from repro.labeling.render import (
    render_label_html,
    render_label_markdown,
    render_label_text,
)
from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    BadRequestError,
    ErrorResponse,
    EstimateRequest,
    EstimateResponse,
    UnsupportedOperationError,
)
from repro.serve.store import LabelSnapshot, LabelStore
from repro.serve.workers import WorkerGroup

__all__ = ["LabelService"]

_CARD_RENDERERS = {
    "text": ("text/plain; charset=utf-8", render_label_text),
    "markdown": ("text/markdown; charset=utf-8", render_label_markdown),
    "html": ("text/html; charset=utf-8", render_label_html),
}

# One header line: field-name ":" OWS field-value (RFC 9112 §5).  The
# name is an RFC 9110 token; a value carries no CR, LF or NUL (RFC 9110
# §5.5).  Leading whitespace is not part of the value and trailing
# whitespace is, as ``http.client.parse_headers`` reads it.
_FIELD_LINE = re.compile(
    r"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):[ \t]*([^\r\n\0]*)\r?\n?"
)
# The limits ``http.client.parse_headers`` enforces; the blank line
# ending the head counts toward the 100 lines, as it does there.
_MAX_LINE = 65536
_MAX_HEADERS = 100


def _rows_dataset(
    entries: Any, snapshot: LabelSnapshot, field: str
) -> Dataset:
    """An update batch (JSON array of row objects) as a Dataset.

    Rows must bind exactly the label's attributes — the same contract
    :func:`repro.core.maintenance.apply_inserts` enforces, checked here
    first so the error names the offending row.
    """
    if not isinstance(snapshot.artifact, Label):
        raise UnsupportedOperationError(
            f"label {snapshot.name!r} is of kind {snapshot.kind!r}; exact "
            "maintenance is only supported for subset labels"
        )
    if not isinstance(entries, list) or not entries:
        raise BadRequestError(
            f"'{field}' must be a non-empty JSON array of "
            "{attribute: value} row objects"
        )
    attributes = snapshot.artifact.attribute_order
    expected = set(attributes)
    rows = []
    for position, entry in enumerate(entries):
        # The abc (not typing) Mapping: its isinstance check runs in C.
        if not isinstance(entry, abc.Mapping):
            raise BadRequestError(
                f"'{field}' row {position} must be a JSON object, got "
                f"{entry!r}"
            )
        if entry.keys() != expected:
            raise BadRequestError(
                f"'{field}' row {position} must bind exactly the label's "
                f"attributes {sorted(attributes)}, got {sorted(entry)}"
            )
        rows.append(tuple([entry[attribute] for attribute in attributes]))
    return Dataset.from_rows(list(attributes), rows)


class _Handler(BaseHTTPRequestHandler):
    """Route dispatch; the service instance hangs off the server."""

    server: "_Server"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket.  With Nagle's algorithm a
    # small segment waits until the previous one is ACKed, and a client
    # delays that ACK by ~40 ms: one stall per keep-alive response.
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.service.verbose:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Parse an HTTP/1.1 request head without ``email.parser``.

        ``http.client.parse_headers`` runs each head through the email
        feed parser, about half the server's CPU for a cached answer.
        A request line of three words ending in ``HTTP/1.1`` is parsed
        here with the stdlib's semantics: the same ``HTTPMessage``
        items, the ``//`` path collapse (gh-87389), the 431 limits,
        ``Connection`` and ``Expect: 100-continue``.  A header line that
        is not ``field-name ":" value`` -- no colon, whitespace before
        the colon, a name that is not a token, an obs-fold continuation
        (RFC 9112 §5.2 lets a server reject it) or a CR or NUL in the
        value -- gets a typed 400 and the connection closes.  Every
        other request line takes the stdlib path.
        """
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or words[2] != "HTTP/1.1":
            return super().parse_request()
        self.requestline = requestline
        self.command, path, self.request_version = words
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.path = path
        self.close_connection = False
        headers = self.MessageClass()
        lines = 0
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading "
                    "header line",
                )
                return False
            lines += 1
            if lines > _MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {_MAX_HEADERS} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            text = str(line, "iso-8859-1")
            field = _FIELD_LINE.fullmatch(text)
            if field is None:
                self.close_connection = True
                self._send_error_response(
                    BadRequestError(
                        f"malformed header line {text!r}; expected "
                        "'field-name: value' with a token name, no "
                        "whitespace before the colon and no line folding"
                    )
                )
                return False
            headers.set_raw(*field.groups())
        self.headers = headers
        if headers.get("Connection", "").lower() == "close":
            self.close_connection = True
        if headers.get("Expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def _send(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        """Write the whole response -- status line, headers, body -- at once.

        The head holds the bytes ``send_response`` + ``send_header`` +
        ``end_headers`` write; one write puts a small response in one
        TCP segment.
        """
        self.log_request(status)
        if self.request_version == "HTTP/0.9":  # a 0.9 response has no head
            self.wfile.write(body)
            return
        head = (
            f"{self.protocol_version} {status} "
            f"{self.responses.get(status, ('',))[0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self._date()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write((head + "\r\n").encode("latin-1") + body)

    def _date(self) -> str:
        """``date_time_string()``, formatted at most once a second.

        An HTTP-date has one-second resolution.  The server keeps the
        last ``(second, text)`` pair; a thread replaces it whole, so a
        race at worst formats the same second twice.
        """
        now = int(time.time())
        second, text = self.server.last_date
        if second != now:
            text = self.date_time_string(now)
            self.server.last_date = (now, text)
        return text

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        self._send(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _send_error_response(self, exc: BaseException) -> None:
        error = ErrorResponse.from_exception(exc)
        self._send_json(error.status, error.to_payload())

    def _read_body(self) -> bytes:
        """Drain the request body unconditionally.

        Called before any routing decision: an error response that
        leaves body bytes unread would desynchronize an HTTP/1.1
        keep-alive connection (the next request would be parsed from
        the middle of this one's payload).  A ``Content-Length`` that is
        not a non-negative integer, or any ``Transfer-Encoding`` (bodies
        are framed by length only; RFC 9112 §6), leaves the body's
        framing unknown, so the request is refused and the connection
        closed after the answer.
        """
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise BadRequestError(
                "Transfer-Encoding is not supported; frame the request "
                "body with Content-Length"
            )
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise BadRequestError(
                f"malformed Content-Length header {header!r}; expected a "
                "non-negative integer"
            )
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _parse_json_body(raw: bytes) -> Any:
        if not raw:
            raise BadRequestError("request body is empty; send JSON")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequestError(
                f"request body is not valid JSON: {exc}"
            ) from exc

    def _route(self) -> tuple[list[str], dict[str, list[str]]]:
        parsed = urlparse(self.path)
        parts = [
            unquote(part) for part in parsed.path.split("/") if part
        ]
        return parts, parse_qs(parsed.query)

    # -- methods ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        try:
            self._read_body()  # a GET body is drained and ignored
            parts, query = self._route()
            service = self.server.service
            if parts == ["labels"]:
                self._send_json(200, {"labels": service.store.catalog()})
                return
            if parts == ["stats"]:
                self._send_json(200, service.stats())
                return
            if len(parts) == 2 and parts[0] == "labels":
                snapshot = service.store.get(parts[1])
                self._send_json(200, snapshot.describe())
                return
            if len(parts) == 3 and parts[0] == "labels" and parts[2] == "card":
                snapshot = service.store.get(parts[1])
                if not isinstance(snapshot.artifact, Label):
                    raise UnsupportedOperationError(
                        "the nutrition card renders subset labels only; "
                        f"label {snapshot.name!r} is of kind "
                        f"{snapshot.kind!r}"
                    )
                fmt = query.get("format", ["text"])[0]
                if fmt not in _CARD_RENDERERS:
                    raise BadRequestError(
                        f"unknown card format {fmt!r}; pick one of "
                        f"{sorted(_CARD_RENDERERS)}"
                    )
                content_type, renderer = _CARD_RENDERERS[fmt]
                self._send(
                    200,
                    renderer(snapshot.artifact).encode("utf-8"),
                    content_type,
                )
                return
            raise BadRequestError(f"no such endpoint: GET {self.path}")
        except Exception as exc:  # noqa: BLE001 — wire boundary
            self._send_error_response(exc)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        try:
            raw = self._read_body()  # always drained, even for bad routes
            parts, _ = self._route()
            service = self.server.service
            if len(parts) == 3 and parts[0] == "labels":
                if parts[2] == "estimate":
                    self._handle_estimate(service, parts[1], raw)
                    return
                if parts[2] == "update":
                    self._handle_update(service, parts[1], raw)
                    return
            raise BadRequestError(f"no such endpoint: POST {self.path}")
        except Exception as exc:  # noqa: BLE001 — wire boundary
            self._send_error_response(exc)

    # -- endpoints --------------------------------------------------------------

    def _handle_estimate(
        self, service: "LabelService", name: str, raw: bytes
    ) -> None:
        # Resolve the snapshot once; the whole request — cache lookup,
        # batching, estimation, the version in the response — uses this
        # object, so a concurrent publish cannot tear the answer (and
        # cache keys carry this snapshot's version, never a newer one).
        snapshot = service.store.get(name)
        request = EstimateRequest.from_payload(
            name, self._parse_json_body(raw)
        )
        result = service.workers.estimate(
            snapshot, request.patterns, timeout=service.request_timeout
        )
        response = EstimateResponse(
            label=name,
            version=snapshot.version,
            estimates=tuple(result.values),
            batched=result.batched,
            cached=result.cached,
        )
        self._send_json(200, response.to_payload())

    def _handle_update(
        self, service: "LabelService", name: str, raw: bytes
    ) -> None:
        body = self._parse_json_body(raw)
        if not isinstance(body, Mapping):
            raise BadRequestError(
                f"request body must be a JSON object, got "
                f"{type(body).__name__}"
            )
        unknown = set(body) - {"inserted", "deleted"}
        if unknown:
            raise BadRequestError(
                f"unknown update fields {sorted(unknown)}; an update "
                "carries 'inserted' and/or 'deleted' row arrays"
            )
        snapshot = service.store.get(name)
        inserted = (
            _rows_dataset(body["inserted"], snapshot, "inserted")
            if "inserted" in body
            else None
        )
        deleted = (
            _rows_dataset(body["deleted"], snapshot, "deleted")
            if "deleted" in body
            else None
        )
        ingestor = service.streams.get(name)
        if ingestor is not None:
            # Streaming label: WAL-first durability, then the same
            # atomic publish readers already resolve.
            from repro.stream.wal import StreamError

            try:
                status = ingestor.submit(inserted=inserted, deleted=deleted)
            except StreamError as exc:
                raise BadRequestError(str(exc)) from exc
            payload = service.store.get(name).describe()
            payload["streamed"] = True
            payload["seq"] = status.seq
            self._send_json(200, payload)
            return
        published = service.store.update(
            name, inserted=inserted, deleted=deleted
        )
        self._send_json(200, published.describe())


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's backlog of 5 drops the SYNs of clients that connect
    # in a burst before the accept loop catches up; the kernel caps the
    # backlog at net.core.somaxconn.
    request_queue_size = socket.SOMAXCONN
    service: "LabelService"
    last_date: tuple[int, str] = (-1, "")


class LabelService:
    """The serving surface: a store, a worker group, and an HTTP frontend.

    Parameters
    ----------
    store:
        Share one :class:`LabelStore` between the service and an
        in-process maintainer; a fresh store is created when omitted.
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`port` / :attr:`url` after construction).
    workers:
        Micro-batcher worker count (see :class:`WorkerGroup`); 1 is the
        classic single-batcher service.
    cache_entries:
        Bound of the version-keyed result cache consulted before any
        ticket is enqueued; 0 (the default) disables caching.
    window / max_batch:
        Per-worker micro-batcher knobs.
    request_timeout:
        Upper bound one HTTP estimate waits on its batch.

    Usable as a context manager; :meth:`start` serves in a background
    thread, :meth:`serve_forever` serves in the calling thread (the CLI
    path).  :meth:`stop` / :meth:`close` are idempotent.
    """

    def __init__(
        self,
        store: LabelStore | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        cache_entries: int = 0,
        window: float = 0.001,
        max_batch: int = 1024,
        request_timeout: float = 30.0,
        verbose: bool = False,
    ) -> None:
        if cache_entries < 0:
            raise ValueError(
                f"cache_entries must be >= 0, got {cache_entries}"
            )
        self.store = store if store is not None else LabelStore()
        self.workers = WorkerGroup(
            workers=workers,
            window=window,
            max_batch=max_batch,
            cache=ResultCache(cache_entries) if cache_entries else None,
        )
        self.request_timeout = request_timeout
        self.verbose = verbose
        #: Streaming ingestors by label name; updates to these labels go
        #: WAL-first through the ingestor instead of ``store.update``.
        self.streams: dict[str, Any] = {}
        self._server = _Server((host, port), _Handler)
        self._server.service = self
        self._thread: threading.Thread | None = None
        self._serving = False
        self._stopped = False

    @property
    def batcher(self) -> WorkerGroup:
        """The worker group, under the pre-scale-out attribute name.

        Kept so single-batcher-era callers (``service.batcher.stats``,
        ``service.batcher.submit``) keep working — the group exposes
        the same submit/estimate/stats/close surface.
        """
        return self.workers

    @property
    def cache(self) -> ResultCache | None:
        """The result cache, or ``None`` when caching is disabled."""
        return self.workers.cache

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` payload: workers, cache, store generation,
        and each streamed label's ingest and drift state."""
        cache = self.workers.cache
        return {
            "workers": self.workers.describe(),
            "cache": cache.describe() if cache is not None else None,
            "store": {
                "labels": self.store.names(),
                "generation": self.store.generation,
                "versions": {
                    snapshot.name: snapshot.version
                    for snapshot in self.store.snapshots()
                },
            },
            "streams": {
                name: ingestor.describe()
                for name, ingestor in list(self.streams.items())
            },
        }

    # -- addressing -------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with port 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "LabelService":
        """Serve in a daemon thread; idempotent, returns self."""
        if self._thread is not None:
            return self
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-label-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until interrupted (CLI mode)."""
        self._serving = True
        self._server.serve_forever()

    def stop(self) -> None:
        """Shut down the HTTP server and drain the workers; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        if self._serving:
            # shutdown() blocks on serve_forever's exit handshake; on a
            # service that never served it would wait forever.
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.workers.close()
        for ingestor in self.streams.values():
            ingestor.join(timeout=5.0)

    def close(self) -> None:
        """Alias for :meth:`stop` (idempotent, like every ``close``)."""
        self.stop()

    # -- streaming --------------------------------------------------------------

    def attach_stream(self, ingestor: Any) -> "LabelService":
        """Route a label's updates through a streaming ingestor.

        The ingestor must publish into this service's store (so its
        snapshot swaps are what readers resolve); once attached,
        ``POST /labels/<name>/update`` for that label is WAL-logged and
        applied by the ingestor instead of ``store.update`` — same
        request and response shape, plus ``streamed``/``seq`` fields.
        """
        if ingestor.store is not self.store:
            raise ValueError(
                f"ingestor for {ingestor.name!r} publishes into a "
                "different store than this service reads from; build it "
                "with store=service.store"
            )
        self.streams[ingestor.name] = ingestor
        return self

    def __enter__(self) -> "LabelService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
