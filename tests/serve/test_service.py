"""HTTP round trip against a live LabelService on an ephemeral port."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import (
    Dataset,
    LabelingSession,
    Pattern,
    PatternCounter,
    build_label,
)
from repro.serve import LabelService, LabelStore


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

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_and_closes(
        self, service, length
    ):
        """A body whose framing is unknown cannot be drained: the server
        answers a typed 400 and hangs up instead of parsing the body (or
        a pipelined follow-up) as the next request."""
        import socket

        body = b'{"pattern": {"gender": "F"}}'
        request = (
            "POST /labels/compas/estimate HTTP/1.1\r\n"
            f"Host: {service.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode() + body
        follow_up = (
            "POST /labels/compas/estimate HTTP/1.1\r\n"
            f"Host: {service.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(request + follow_up)
            reply = b""
            while chunk := sock.recv(65536):  # until the server closes
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert reply.count(b"HTTP/1.") == 1  # nothing after the 400
        error = json.loads(payload.decode())["error"]
        assert error["code"] == "bad_request"
        assert "Content-Length" in error["message"]

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
