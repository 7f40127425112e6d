"""HTTP round trip against a live LabelService on an ephemeral port.

``TestRequestHead`` also drives the handler's head parser and response
writer on in-memory streams, against the stdlib code they replace.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import socket
import statistics
import string
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    LabelingSession,
    Pattern,
    PatternCounter,
    build_label,
)
from repro.serve import LabelService, LabelStore
from repro.serve.service import _Handler


@pytest.fixture
def session(figure2) -> LabelingSession:
    return LabelingSession(
        build_label(PatternCounter(figure2), ("age group", "gender"))
    )


@pytest.fixture
def service(session):
    with session.serve(name="compas") as service:
        yield service


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read().decode())


def _post(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode())


def _error(callable_):
    with pytest.raises(urllib.error.HTTPError) as info:
        callable_()
    return info.value.code, json.loads(info.value.read().decode())


def _raw_exchange(service, data: bytes) -> bytes:
    """Send raw bytes; everything the server writes until it hangs up."""
    with socket.create_connection(
        (service.host, service.port), timeout=10
    ) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


_BODY = json.dumps({"pattern": {"gender": "Female"}}).encode()
_ESTIMATE_HEAD = (
    "POST /labels/compas/estimate HTTP/1.1\r\n"
    "Host: 127.0.0.1\r\n"
    "Content-Type: application/json\r\n"
)
_LENGTH = f"Content-Length: {len(_BODY)}\r\n"
# Each request leaves its body's framing unknown; the second item names
# what the 400's message must mention.
MALFORMED_REQUESTS = [
    pytest.param(
        (_ESTIMATE_HEAD + "Content-Length: abc\r\n\r\n").encode() + _BODY,
        "Content-Length",
        id="length-abc",
    ),
    pytest.param(
        (_ESTIMATE_HEAD + "Content-Length: -5\r\n\r\n").encode() + _BODY,
        "Content-Length",
        id="length-neg",
    ),
    pytest.param(
        (
            _ESTIMATE_HEAD + "Transfer-Encoding: chunked\r\n\r\n"
            f"{len(_BODY):x}\r\n"
        ).encode()
        + _BODY
        + b"\r\n0\r\n\r\n",
        "Transfer-Encoding",
        id="chunked",
    ),
    pytest.param(
        (_ESTIMATE_HEAD + _LENGTH.replace(":", "") + "\r\n").encode()
        + _BODY,
        "header line",
        id="no-colon",
    ),
    pytest.param(
        (_ESTIMATE_HEAD + _LENGTH.replace(":", " :") + "\r\n").encode()
        + _BODY,
        "header line",
        id="space-colon",
    ),
    pytest.param(
        (
            _ESTIMATE_HEAD + "X-Note: first\r\n second\r\n" + _LENGTH
            + "\r\n"
        ).encode()
        + _BODY,
        "header line",
        id="obs-fold",
    ),
]


class TestCatalogEndpoints:
    def test_labels_catalog(self, service):
        status, payload = _get(service.url + "/labels")
        assert status == 200
        (entry,) = payload["labels"]
        assert entry["name"] == "compas"
        assert entry["version"] == 1
        assert entry["kind"] == "label"
        assert entry["total"] == 18

    def test_single_label_describe(self, service):
        status, payload = _get(service.url + "/labels/compas")
        assert status == 200
        assert payload["name"] == "compas"

    def test_card_formats(self, service):
        for fmt, marker in (
            ("text", "Total size"),
            ("markdown", "|"),
            ("html", "<table"),
        ):
            with urllib.request.urlopen(
                f"{service.url}/labels/compas/card?format={fmt}", timeout=10
            ) as response:
                assert response.status == 200
                assert marker in response.read().decode()

    def test_card_unknown_format(self, service):
        code, payload = _error(
            lambda: urllib.request.urlopen(
                service.url + "/labels/compas/card?format=pdf", timeout=10
            )
        )
        assert code == 400
        assert payload["error"]["code"] == "bad_request"

    def test_unknown_label_is_404(self, service):
        code, payload = _error(
            lambda: urllib.request.urlopen(
                service.url + "/labels/nope", timeout=10
            )
        )
        assert code == 404
        assert payload["error"]["code"] == "not_found"

    def test_unknown_endpoint_is_400(self, service):
        code, payload = _error(
            lambda: urllib.request.urlopen(
                service.url + "/nothing/here", timeout=10
            )
        )
        assert code == 400
        assert "no such endpoint" in payload["error"]["message"]


class TestEstimateEndpoint:
    def test_single_pattern_round_trip_is_byte_identical(
        self, service, session
    ):
        status, payload = _post(
            service.url + "/labels/compas/estimate",
            {"pattern": {"gender": "Female"}},
        )
        assert status == 200
        assert payload["estimates"] == [
            session.estimate(Pattern({"gender": "Female"}))
        ]
        assert payload["version"] == 1
        assert payload["label"] == "compas"
        assert payload["batched"] >= 1

    def test_batch_round_trip_is_byte_identical(self, service, session):
        bodies = [
            {"gender": "Female"},
            {"age group": "under 20", "gender": "Male"},
            {"race": "Hispanic", "marital status": "single"},
        ]
        status, payload = _post(
            service.url + "/labels/compas/estimate", {"patterns": bodies}
        )
        assert status == 200
        assert payload["estimates"] == [
            session.estimate(Pattern(body)) for body in bodies
        ]

    def test_concurrent_http_clients_all_get_exact_answers(
        self, service, session
    ):
        bodies = [
            {"gender": "Female"},
            {"age group": "20-39"},
            {"race": "Caucasian"},
            {"marital status": "married"},
        ]
        expected = {
            tuple(sorted(body.items())): session.estimate(Pattern(body))
            for body in bodies
        }
        failures: list[str] = []

        def client(body: dict) -> None:
            try:
                _, payload = _post(
                    service.url + "/labels/compas/estimate",
                    {"pattern": body},
                )
                if payload["estimates"] != [
                    expected[tuple(sorted(body.items()))]
                ]:
                    failures.append(f"wrong answer for {body}")
            except Exception as exc:  # noqa: BLE001 — surfaced below
                failures.append(f"{body}: {exc}")

        threads = [
            threading.Thread(target=client, args=(bodies[i % 4],))
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures[0]

    def test_malformed_body_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/labels/compas/estimate",
            data=b"{not json",
            method="POST",
        )
        code, payload = _error(
            lambda: urllib.request.urlopen(request, timeout=10)
        )
        assert code == 400
        assert "not valid JSON" in payload["error"]["message"]

    def test_missing_pattern_key_is_400(self, service):
        code, payload = _error(
            lambda: _post(service.url + "/labels/compas/estimate", {})
        )
        assert code == 400
        assert "exactly one of" in payload["error"]["message"]

    def test_unknown_attribute_is_400(self, service):
        code, payload = _error(
            lambda: _post(
                service.url + "/labels/compas/estimate",
                {"pattern": {"nope": "zzz"}},
            )
        )
        assert code == 400
        assert payload["error"]["code"] == "bad_request"

    def test_unknown_value_of_labeled_attribute_estimates_zero(
        self, service
    ):
        _, payload = _post(
            service.url + "/labels/compas/estimate",
            {"pattern": {"gender": "Unseen"}},
        )
        assert payload["estimates"] == [0.0]

    def test_mixed_64_pattern_request_matches_in_process_estimates(
        self, service, session, figure2
    ):
        """One request of 64 equality and range patterns, with ranges
        on attributes inside and outside ``S``, answers exactly the
        in-process scalar estimates."""
        import random

        from repro.core.pattern import OPS

        rng = random.Random(28)
        names = list(figure2.attribute_names)
        bodies = []
        for _ in range(64):
            attrs = rng.sample(names, rng.randint(1, len(names)))
            body = {}
            for attribute in attrs:
                value = rng.choice(list(figure2.schema[attribute].categories))
                op = rng.choice(OPS)
                body[attribute] = value if op == "=" else {op: value}
            bodies.append(body)
        in_s = set(session.artifact.attributes)
        ranged = [
            {a for a, v in body.items() if isinstance(v, dict)}
            for body in bodies
        ]
        assert any(r & in_s for r in ranged)
        assert any(r and not r & in_s for r in ranged)
        assert any(not r for r in ranged)
        status, payload = _post(
            service.url + "/labels/compas/estimate", {"patterns": bodies}
        )
        assert status == 200
        assert payload["estimates"] == [
            session.estimate(Pattern(body)) for body in bodies
        ]


class TestUpdateEndpoint:
    ROW = {
        "gender": "Female",
        "age group": "under 20",
        "race": "Hispanic",
        "marital status": "single",
    }

    def test_insert_bumps_version_and_counts(self, service, session):
        before = session.estimate(Pattern({"gender": "Female"}))
        status, payload = _post(
            service.url + "/labels/compas/update", {"inserted": [self.ROW]}
        )
        assert status == 200
        assert payload["version"] == 2
        assert payload["total"] == 19
        _, answer = _post(
            service.url + "/labels/compas/estimate",
            {"pattern": {"gender": "Female"}},
        )
        assert answer["version"] == 2
        assert answer["estimates"] == [before + 1.0]

    def test_insert_then_delete_round_trips(self, service):
        _post(
            service.url + "/labels/compas/update", {"inserted": [self.ROW]}
        )
        status, payload = _post(
            service.url + "/labels/compas/update", {"deleted": [self.ROW]}
        )
        assert status == 200
        assert payload["version"] == 3
        assert payload["total"] == 18

    def test_update_leaves_serving_session_untouched(self, service, session):
        _post(
            service.url + "/labels/compas/update", {"inserted": [self.ROW]}
        )
        # the session published a snapshot; its own state is independent
        assert session.artifact.total == 18
        assert session.version == 1

    def test_row_with_wrong_attributes_is_400(self, service):
        code, payload = _error(
            lambda: _post(
                service.url + "/labels/compas/update",
                {"inserted": [{"gender": "Female"}]},
            )
        )
        assert code == 400
        assert "exactly the label's attributes" in payload["error"]["message"]

    def test_unknown_field_is_400(self, service):
        code, payload = _error(
            lambda: _post(
                service.url + "/labels/compas/update",
                {"upserted": [self.ROW]},
            )
        )
        assert code == 400
        assert "unknown update fields" in payload["error"]["message"]

    def test_impossible_delete_is_400(self, service):
        code, payload = _error(
            lambda: _post(
                service.url + "/labels/compas/update",
                {
                    "deleted": [
                        {
                            "gender": "Nobody",
                            "age group": "none",
                            "race": "none",
                            "marital status": "none",
                        }
                    ]
                },
            )
        )
        assert code == 400
        assert "update batch rejected" in payload["error"]["message"]

    def test_update_on_flexible_label_is_409(self, figure2):
        flexible = LabelingSession.fit(
            figure2, 6, strategy="greedy_flexible"
        )
        with flexible.serve(name="flex") as service:
            code, payload = _error(
                lambda: _post(
                    service.url + "/labels/flex/update",
                    {"inserted": [self.ROW]},
                )
            )
        assert code == 409
        assert payload["error"]["code"] == "unsupported"


class TestServiceLifecycle:
    def test_ephemeral_port_resolves(self, service):
        assert service.port > 0
        assert service.url.startswith("http://127.0.0.1:")

    def test_multiple_labels_one_store(self, figure2, session):
        store = LabelStore()
        store.publish("a", session.artifact)
        store.publish("b", session.artifact)
        with LabelService(store) as service:
            _, payload = _get(service.url + "/labels")
        assert [e["name"] for e in payload["labels"]] == ["a", "b"]

    def test_maintainer_store_shared_with_http_readers(self, session):
        """An in-process maintainer publishing through the shared store
        is immediately visible to HTTP readers — the producer/consumer
        split of the paper, live."""
        store = LabelStore()
        store.publish("compas", session.artifact)
        with LabelService(store) as service:
            inserted = Dataset.from_rows(
                ["gender", "age group", "race", "marital status"],
                [("Male", "20-39", "Caucasian", "married")],
            )
            store.update("compas", inserted=inserted)
            _, payload = _post(
                service.url + "/labels/compas/estimate",
                {"pattern": {"gender": "Male"}},
            )
        assert payload["version"] == 2
        assert payload["estimates"] == [
            session.estimate(Pattern({"gender": "Male"})) + 1.0
        ]


class TestKeepAliveDiscipline:
    """Error responses must drain the request body: an HTTP/1.1 client
    reusing the connection would otherwise read garbage next."""

    def test_connection_survives_an_error_response(self, service, session):
        import http.client

        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            body = json.dumps({"pattern": {"gender": "Female"}})
            # 1: a 404 with an unread body on the same connection
            connection.request(
                "POST",
                "/labels/unknown/estimate",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # 2: the SAME connection must still speak clean HTTP
            connection.request(
                "POST",
                "/labels/compas/estimate",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            payload = json.loads(response.read().decode())
            assert payload["estimates"] == [
                session.estimate(Pattern({"gender": "Female"}))
            ]
        finally:
            connection.close()

    @pytest.mark.parametrize("request_bytes, names", MALFORMED_REQUESTS)
    def test_malformed_head_is_400_and_closes(
        self, service, request_bytes, names
    ):
        """A body whose framing is unknown cannot be drained: the server
        answers a typed 400 and hangs up instead of parsing the body (or
        a pipelined follow-up) as the next request."""
        follow_up = (
            _ESTIMATE_HEAD + f"Content-Length: {len(_BODY)}\r\n\r\n"
        ).encode() + _BODY
        reply = _raw_exchange(service, request_bytes + follow_up)
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert reply.count(b"HTTP/1.") == 1  # nothing after the 400
        error = json.loads(payload.decode())["error"]
        assert error["code"] == "bad_request"
        assert names in error["message"]

    def test_get_body_is_drained(self, service, session):
        """A GET's body is read and ignored, so a pipelined request
        after it is parsed from its own first byte."""
        get_body = b'{"ignored": "by GET"}'
        request = (
            "GET /labels HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(get_body)}\r\n\r\n"
        ).encode() + get_body
        follow_up = (
            _ESTIMATE_HEAD + f"Content-Length: {len(_BODY)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode() + _BODY
        reply = _raw_exchange(service, request + follow_up)
        assert re.findall(rb"HTTP/1.1 (\d+) ", reply) == [b"200", b"200"]
        estimate = json.loads(reply.rpartition(b"\r\n\r\n")[2])
        assert estimate["estimates"] == [
            session.estimate(Pattern({"gender": "Female"}))
        ]

    @pytest.mark.parametrize(
        "request_line",
        [b"GET /labels HTTP/1.0\r\n\r\n", b"GET /labels\r\n\r\n"],
        ids=["http-1.0", "http-0.9"],
    )
    def test_pre_1_1_request_is_answered_and_closed(
        self, service, request_line
    ):
        reply = _raw_exchange(service, request_line)
        if request_line.endswith(b"HTTP/1.0\r\n\r\n"):
            head, _, reply = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"\r\nConnection: close" in head
        # an HTTP/0.9 answer is the bare body
        assert json.loads(reply)["labels"][0]["name"] == "compas"

    def test_keep_alive_estimates_do_not_stall(self, service):
        """Sequential requests on one connection: with Nagle's algorithm
        and a delayed ACK each answer waited ~40 ms."""
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        seconds = []
        try:
            for _ in range(50):
                start = time.perf_counter()
                connection.request(
                    "POST",
                    "/labels/compas/estimate",
                    body=_BODY,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                seconds.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.010

    def test_listen_backlog_holds_a_burst_of_connects(self, session):
        """Clients that connect before the accept loop runs wait in the
        listen backlog instead of having their SYNs dropped."""
        service = session.serve(name="compas", start=False)
        connected = []
        try:
            for _ in range(32):
                try:
                    connected.append(
                        socket.create_connection(
                            (service.host, service.port), timeout=0.5
                        )
                    )
                except OSError:
                    pass
        finally:
            for sock in connected:
                sock.close()
            service.stop()
        assert len(connected) == 32

    def test_label_names_with_url_special_characters(self, session):
        from urllib.parse import quote

        store = LabelStore()
        store.publish("my label", session.artifact)
        with LabelService(store) as service:
            _, payload = _post(
                f"{service.url}/labels/{quote('my label', safe='')}/estimate",
                {"pattern": {"gender": "Female"}},
            )
        assert payload["label"] == "my label"


class TestRouting:
    """A request path becomes unquoted, non-empty parts plus its parsed
    query.  Over HTTP, ``test_card_formats`` sends ``?format=`` and
    ``test_label_names_with_url_special_characters`` a ``%20`` name."""

    @pytest.mark.parametrize(
        "path, parts, query",
        [
            ("/labels/compas/estimate", ["labels", "compas", "estimate"], {}),
            ("/labels", ["labels"], {}),
            ("/", [], {}),
            ("/labels//compas/", ["labels", "compas"], {}),
            ("/labels/my%20label", ["labels", "my label"], {}),
            (
                "/labels/compas/card?format=markdown",
                ["labels", "compas", "card"],
                {"format": ["markdown"]},
            ),
            ("/labels/compas#frag", ["labels", "compas"], {}),
            ("/labels/compas;v=1", ["labels", "compas"], {}),
            ("//host/labels", ["labels"], {}),
        ],
    )
    def test_route_splits_parts_and_query(self, path, parts, query):
        handler = SimpleNamespace(path=path)
        assert _Handler._route(handler) == (parts, query)

    @pytest.mark.parametrize(
        "path", ["//labels/compas", "///labels/compas", "/labels//compas"]
    )
    def test_double_slashes_collapse(self, service, path):
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            payload = json.loads(response.read().decode())
        finally:
            connection.close()
        assert response.status == 200
        assert payload["name"] == "compas"


class TestScaleOutService:
    """Multi-worker + result-cache configuration through LabelService."""

    @pytest.fixture
    def scaled(self, session):
        with session.serve(
            name="compas", workers=4, cache_entries=64, window=0.0
        ) as service:
            yield service

    def test_stats_endpoint_shape(self, scaled):
        status, payload = _get(scaled.url + "/stats")
        assert status == 200
        assert payload["workers"]["count"] == 4
        assert len(payload["workers"]["per_worker"]) == 4
        assert payload["cache"]["max_entries"] == 64
        assert payload["store"]["labels"] == ["compas"]
        assert payload["store"]["generation"] == 1
        assert payload["store"]["versions"] == {"compas": 1}
        assert payload["streams"] == {}

    def test_repeat_requests_hit_the_cache(self, scaled, session):
        pattern = {"gender": "Female"}
        expected = session.estimate(Pattern(pattern))
        first = _post(
            scaled.url + "/labels/compas/estimate", {"pattern": pattern}
        )[1]
        second = _post(
            scaled.url + "/labels/compas/estimate", {"pattern": pattern}
        )[1]
        assert first["estimates"] == second["estimates"] == [expected]
        assert first["cached"] == 0
        assert second["cached"] == 1
        _, stats = _get(scaled.url + "/stats")
        assert stats["cache"]["hits"] >= 1
        assert 0.0 < stats["cache"]["hit_rate"] <= 1.0

    def test_update_bumps_generation_and_invalidates(self, scaled, session):
        pattern = {"gender": "Female"}
        url = scaled.url + "/labels/compas/estimate"
        before = _post(url, {"pattern": pattern})[1]["estimates"][0]
        _post(url, {"pattern": pattern})  # cached now
        _post(
            scaled.url + "/labels/compas/update",
            {
                "inserted": [
                    {
                        "gender": "Female",
                        "age group": "under 20",
                        "race": "Hispanic",
                        "marital status": "single",
                    }
                ]
                * 3
            },
        )
        after = _post(url, {"pattern": pattern})[1]
        assert after["cached"] == 0  # version bump → old entry unreachable
        assert after["estimates"][0] == before + 3
        _, stats = _get(scaled.url + "/stats")
        assert stats["store"]["generation"] == 2
        assert stats["store"]["versions"] == {"compas": 2}

    def test_stats_without_cache_is_null(self, session):
        with session.serve(name="compas") as service:
            _, payload = _get(service.url + "/stats")
            assert payload["cache"] is None
            assert payload["workers"]["count"] == 1

    def test_scaled_service_answers_are_byte_identical(self, scaled, session):
        patterns = [
            {"gender": "Female"},
            {"age group": {">=": "20-39"}},
            {"race": "Hispanic", "gender": "Male"},
        ]
        for _ in range(3):
            for pattern in patterns:
                _, payload = _post(
                    scaled.url + "/labels/compas/estimate",
                    {"pattern": pattern},
                )
                assert payload["estimates"] == [
                    session.estimate(Pattern(pattern))
                ]


class _Writes(io.BytesIO):
    """A ``wfile`` that counts its ``write`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def write(self, data) -> int:
        self.calls += 1
        return super().write(data)


def _handler(server, rest: bytes) -> _Handler:
    """A handler on in-memory streams, wired as ``setup()`` wires one."""
    handler = _Handler.__new__(_Handler)
    handler.server = server
    handler.client_address = ("127.0.0.1", 0)
    handler.rfile = io.BytesIO(rest)
    handler.wfile = _Writes()
    handler.close_connection = True
    return handler


def _parse_both(raw: bytes):
    """Run the handler's ``parse_request`` and the stdlib's on ``raw``."""
    server = SimpleNamespace(
        service=SimpleNamespace(verbose=False), last_date=(-1, "")
    )
    line, _, rest = raw.partition(b"\n")
    handlers = []
    stdlib = BaseHTTPRequestHandler.parse_request
    for parse in (_Handler.parse_request, stdlib):
        handler = _handler(server, rest)
        handler.raw_requestline = line + b"\n"
        handlers.append((parse(handler), handler))
    return handlers


def _masked(response: bytes) -> bytes:
    return re.sub(rb"\r\nDate: [^\r]*", b"\r\nDate: -", response)


_TOKEN = string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~"
# Visible ASCII, space, tab and Latin-1 letters: no character any
# supported version's email parser treats as a line break.
_VALUE = st.text(
    st.sampled_from(
        [chr(c) for c in range(0x20, 0x7F)] + ["\t", "é", "ÿ", "\xa0"]
    ),
    max_size=12,
)
_FIELDS = st.one_of(
    st.tuples(st.text(st.sampled_from(_TOKEN), min_size=1, max_size=10),
              _VALUE),
    st.tuples(
        st.sampled_from(["Connection", "connection", "CONNECTION"]),
        st.sampled_from(
            ["close", "Close", "keep-alive", "Keep-Alive", "close ", ""]
        ),
    ),
    st.tuples(
        st.sampled_from(["Expect", "expect"]),
        st.sampled_from(["100-continue", "100-Continue", "nothing"]),
    ),
    st.tuples(st.sampled_from(["Content-Length", "Host", "X-Bench-Req"]),
              _VALUE),
)


@st.composite
def request_heads(draw) -> bytes:
    """A request head, mostly HTTP/1.1, its fields separated by optional
    whitespace and ended by CRLF or a bare LF, then a body."""
    method = draw(st.sampled_from(["GET", "POST", "PUT"]))
    path = draw(
        st.sampled_from(
            ["/labels", "/labels/c/estimate?q=1", "//labels//x", "///", "*"]
        )
    )
    version = draw(st.sampled_from(["HTTP/1.1"] * 3 + ["HTTP/1.0"]))
    eol = st.sampled_from(["\r\n", "\n"])
    text = f"{method} {path} {version}{draw(eol)}"
    for name, value in draw(st.lists(_FIELDS, max_size=8)):
        ows = draw(st.sampled_from(["", " ", "  ", "\t", " \t"]))
        text += f"{name}:{ows}{value}{draw(eol)}"
    return (text + draw(eol)).encode("latin-1") + b'{"body": 1}\r\n'


class TestRequestHead:
    """The handler's head parser and response writer against the stdlib
    code paths they replace, on in-memory streams."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(request_heads())
    def test_head_parser_matches_stdlib(self, raw):
        head = raw.partition(b"\n")[2]
        assume(not http.client.parse_headers(io.BytesIO(head)).defects)
        (ours_ok, ours), (std_ok, std) = _parse_both(raw)
        assert ours_ok is std_ok is True
        assert type(ours.headers) is type(std.headers)
        for attribute in (
            "command", "path", "request_version", "close_connection"
        ):
            assert getattr(ours, attribute) == getattr(std, attribute)
        assert ours.headers.items() == std.headers.items()
        assert ours.wfile.getvalue() == std.wfile.getvalue()  # 100 Continue
        assert ours.rfile.read() == std.rfile.read()  # the body is left

    @pytest.mark.parametrize(
        "fields, line_bytes, status",
        [
            (99, 20, None),
            (100, 20, 431),  # the blank line ending the head is line 101
            (101, 20, 431),
            (1, 65536, None),
            (1, 65537, 431),
        ],
    )
    def test_head_limits_match_stdlib(self, fields, line_bytes, status):
        filler = "x" * (line_bytes - len("X-0: \r\n"))
        raw = (
            "GET /labels HTTP/1.1\r\n"
            + "".join(f"X-{i % 10}: {filler}\r\n" for i in range(fields))
            + "\r\n"
        ).encode()
        (ours_ok, ours), (std_ok, std) = _parse_both(raw)
        assert ours_ok is std_ok is (status is None)
        assert _masked(ours.wfile.getvalue()) == _masked(std.wfile.getvalue())
        if status is None:
            assert ours.headers.items() == std.headers.items()
        else:
            assert ours.wfile.getvalue().startswith(b"HTTP/1.1 431 ")

    @pytest.mark.parametrize(
        "request_bytes, close",
        [
            pytest.param(
                (_ESTIMATE_HEAD + _LENGTH + "\r\n").encode() + _BODY,
                False,
                id="json",
            ),
            pytest.param(
                (_ESTIMATE_HEAD + "Content-Length: x\r\n\r\n").encode(),
                True,
                id="error-close",
            ),
            pytest.param(
                b"GET /labels/compas/card?format=text HTTP/1.1\r\n\r\n",
                False,
                id="card",
            ),
        ],
    )
    def test_response_is_one_write_of_the_stdlib_head(
        self, service, request_bytes, close
    ):
        ours = _handler(service._server, request_bytes)
        ours.handle_one_request()
        assert ours.wfile.calls == 1
        response = ours.wfile.getvalue()
        head, _, body = response.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        content_type = re.search(rb"\r\nContent-Type: ([^\r]*)", head)[1]
        assert ours.close_connection is close

        # The head the stdlib's send_response/send_header/end_headers
        # writes for the same answer, followed by its body.
        reference = _handler(service._server, b"")
        reference.request_version = "HTTP/1.1"
        reference.requestline = ours.requestline
        reference.close_connection = close
        reference.send_response(status)
        reference.send_header("Content-Type", content_type.decode())
        reference.send_header("Content-Length", str(len(body)))
        if close:
            reference.send_header("Connection", "close")
        reference.end_headers()
        reference.wfile.write(body)
        assert _masked(response) == _masked(reference.wfile.getvalue())
