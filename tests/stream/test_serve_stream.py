"""Streamed serving: WAL-logged HTTP updates, recovery, CLI flags."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import LabelingSession, Pattern, StreamConfig
from repro.cli import main
from repro.stream import StreamIngestor, WriteAheadLog

pytestmark = pytest.mark.stream

ROW = {
    "gender": "Female",
    "age group": "under 20",
    "race": "Hispanic",
    "marital status": "single",
}


@pytest.fixture
def session(figure2) -> LabelingSession:
    return LabelingSession.fit(figure2, 6)


@pytest.fixture
def streamed(session, tmp_path):
    with session.serve(name="compas") as service:
        ingestor = session.stream(
            tmp_path / "wal",
            name="compas",
            store=service.store,
            config=StreamConfig(drift_threshold=None),
        )
        service.attach_stream(ingestor)
        yield service, ingestor


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


class TestStreamedUpdates:
    def test_update_is_wal_logged_and_published(
        self, streamed, session, tmp_path
    ):
        service, ingestor = streamed
        status, payload = _post(
            service.url + "/labels/compas/update", {"inserted": [ROW]}
        )
        assert status == 200
        assert payload["streamed"] is True
        assert payload["seq"] == 1
        # serve published v1, attaching the ingestor v2, the batch v3
        assert payload["version"] == 3
        assert payload["total"] == 19
        replayed = WriteAheadLog(tmp_path / "wal").records("compas")
        assert [r.seq for r in replayed] == [1]

    def test_estimates_reflect_the_streamed_batch(self, streamed, session):
        service, _ = streamed
        before = session.estimate(Pattern({"gender": "Female"}))
        _post(service.url + "/labels/compas/update", {"inserted": [ROW]})
        _, answer = _post(
            service.url + "/labels/compas/estimate",
            {"pattern": {"gender": "Female"}},
        )
        assert answer["estimates"] == [before + 1.0]

    def test_bad_batch_is_400_and_not_logged(self, streamed, tmp_path):
        service, _ = streamed
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(
                service.url + "/labels/compas/update",
                {"inserted": [{"gender": "Female"}]},
            )
        assert info.value.code == 400
        assert WriteAheadLog(tmp_path / "wal").records() == []

    def test_crash_recovery_matches_served_state(
        self, streamed, session, tmp_path
    ):
        service, ingestor = streamed
        for _ in range(3):
            _post(
                service.url + "/labels/compas/update", {"inserted": [ROW]}
            )
        served = service.store.get("compas").artifact

        # A fresh process: same WAL, pre-stream label, replay=True.
        recovered = StreamIngestor(
            session.artifact,
            wal=WriteAheadLog(tmp_path / "wal"),
            name="compas",
            config=StreamConfig(drift_threshold=None),
            replay=True,
        )
        assert recovered.label.to_json() == served.to_json()
        assert recovered.last_seq == ingestor.last_seq

    def test_attach_rejects_foreign_store(self, session, tmp_path):
        with session.serve(name="compas") as service:
            foreign = session.stream(
                tmp_path / "wal",
                name="compas",
                config=StreamConfig(drift_threshold=None),
            )
            with pytest.raises(ValueError, match="different store"):
                service.attach_stream(foreign)

    def test_unattached_labels_keep_the_synchronous_path(
        self, streamed, session
    ):
        service, _ = streamed
        service.store.publish("plain", session.artifact)
        status, payload = _post(
            service.url + "/labels/plain/update", {"inserted": [ROW]}
        )
        assert status == 200
        assert "streamed" not in payload


class TestStreamStats:
    def test_stats_report_each_stream_and_a_failed_compaction(
        self, session, tmp_path, monkeypatch
    ):
        def failing_compaction(ingestor):
            raise RuntimeError("compaction failed on purpose")

        monkeypatch.setattr(
            StreamIngestor, "_compact_once", failing_compaction
        )
        with session.serve(name="compas") as service:
            ingestor = session.stream(
                tmp_path / "wal",
                name="compas",
                store=service.store,
                config=StreamConfig(compact_every=1, drift_check_every=1),
            )
            service.attach_stream(ingestor)
            _post(service.url + "/labels/compas/update", {"inserted": [ROW]})
            assert ingestor.join(timeout=30)
            status, stats = _get(service.url + "/stats")
        assert status == 200
        stream = stats["streams"]["compas"]
        assert stream["compact_error"] == repr(ingestor.compact_error)
        assert "compaction failed on purpose" in stream["compact_error"]
        assert stream["seq"] == stream["batches"] == 1
        assert stream["shards"] == ingestor.counter.n_shards
        assert stream["compactions"] == 0
        assert stream["detached"] is None
        monitor = ingestor.drift_monitor
        assert stream["drift"] == {
            "checks": 1,
            "baseline": monitor.baseline,
            "last_check": monitor.last_check.error,
            "researches": 0,
            "researching": False,
            "research_error": None,
        }


class TestServeCliFlags:
    def test_stream_requires_wal_dir(self, tmp_path, figure2_label_path):
        with pytest.raises(SystemExit, match="--wal-dir"):
            main(["serve", str(figure2_label_path), "--stream"])

    def test_wal_dir_requires_stream(self, tmp_path, figure2_label_path):
        with pytest.raises(SystemExit, match="--stream"):
            main(
                [
                    "serve",
                    str(figure2_label_path),
                    "--wal-dir",
                    str(tmp_path / "wal"),
                ]
            )


@pytest.fixture
def figure2_label_path(figure2, tmp_path):
    path = tmp_path / "compas.json"
    LabelingSession.fit(figure2, 6).save(path)
    return path
