"""StreamIngestor: maintain-log-count-publish, compaction, recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LabelingSession, StreamConfig
from repro.api.errors import RegistryError
from repro.core.counts import PatternCounter
from repro.core.label import build_label
from repro.core.maintenance import (
    _align_for_counter,
    apply_deletes,
    apply_inserts,
)
from repro.core.pattern import Pattern
from repro.dataset.table import Dataset
from repro.datasets import load_dataset
from repro.persist import open_pack
from repro.stream import StreamError, StreamIngestor, WriteAheadLog

pytestmark = pytest.mark.stream

ATTRS = ["a", "b", "c"]


@pytest.fixture
def data(rng) -> Dataset:
    return Dataset.from_columns(
        {
            "a": [int(v) for v in rng.integers(0, 4, 300)],
            "b": [int(v) for v in rng.integers(0, 3, 300)],
            "c": [int(v) for v in rng.integers(0, 2, 300)],
        }
    )


def _ingestor(data, tmp_path, **config_kwargs):
    counter = PatternCounter(data)
    label = build_label(counter, ("a", "b"))
    config = StreamConfig(drift_threshold=None, **config_kwargs)
    return StreamIngestor(
        label,
        wal=WriteAheadLog(tmp_path / "wal"),
        counter=counter,
        config=config,
    )


def _random_batch(rng, n=20) -> Dataset:
    return Dataset.from_rows(
        ATTRS,
        [
            [int(rng.integers(0, 4)), int(rng.integers(0, 3)),
             int(rng.integers(0, 2))]
            for _ in range(n)
        ],
    )


class TestWritePath:
    def test_labels_match_synchronous_maintenance_byte_identically(
        self, data, tmp_path, rng
    ):
        ingestor = _ingestor(data, tmp_path)
        reference = ingestor.label
        for _ in range(6):
            batch = _random_batch(rng)
            ingestor.submit(inserted=batch)
            reference = apply_inserts(reference, batch)
        assert ingestor.label.to_json() == reference.to_json()

    def test_every_batch_publishes_a_new_version(self, data, tmp_path, rng):
        ingestor = _ingestor(data, tmp_path)
        versions = [
            ingestor.submit(inserted=_random_batch(rng)).version
            for _ in range(4)
        ]
        assert versions == sorted(versions)
        assert len(set(versions)) == 4
        assert ingestor.publisher.version == versions[-1]

    def test_batch_is_wal_logged_before_visible(self, data, tmp_path, rng):
        ingestor = _ingestor(data, tmp_path)
        batch = _random_batch(rng)
        status = ingestor.submit(inserted=batch)
        replayed = WriteAheadLog(tmp_path / "wal").records("label")
        assert [r.seq for r in replayed] == [status.seq]

    def test_invalid_batch_logs_and_changes_nothing(self, data, tmp_path):
        ingestor = _ingestor(data, tmp_path)
        bad = Dataset.from_rows(["a", "wrong"], [[0, 0]])
        with pytest.raises(StreamError, match="rejected"):
            ingestor.submit(inserted=bad)
        assert WriteAheadLog(tmp_path / "wal").records() == []
        assert ingestor.last_seq == 0

    def test_submit_without_batches_raises(self, data, tmp_path):
        with pytest.raises(StreamError, match="at least one"):
            _ingestor(data, tmp_path).submit()

    def test_deletes_maintain_label_but_detach_counter(
        self, data, tmp_path, rng
    ):
        ingestor = _ingestor(data, tmp_path)
        reference = ingestor.label
        batch = _random_batch(rng)
        ingestor.submit(inserted=batch)
        reference = apply_inserts(reference, batch)
        first = next(iter(batch.iter_rows()))
        victim = Dataset.from_rows(ATTRS, [[first[a] for a in ATTRS]])
        status = ingestor.submit(deleted=victim)
        reference = apply_deletes(reference, victim)
        assert ingestor.label.to_json() == reference.to_json()
        assert ingestor.counter is None
        assert "delete" in status.detached

    def test_out_of_domain_insert_detaches_counter_but_maintains(
        self, data, tmp_path
    ):
        ingestor = _ingestor(data, tmp_path)
        reference = ingestor.label
        novel = Dataset.from_rows(ATTRS, [[99, 0, 0]])
        status = ingestor.submit(inserted=novel)
        reference = apply_inserts(reference, novel)
        assert ingestor.label.to_json() == reference.to_json()
        assert ingestor.counter is None
        assert "domain" in status.detached
        # The stream keeps flowing label-only.
        follow = ingestor.submit(inserted=Dataset.from_rows(ATTRS, [[0, 0, 0]]))
        assert follow.seq == 2


class TestCallerCounter:
    """Streaming never grows the counter it was handed: each insert batch
    yields a new counter, so the caller's label and counter still agree."""

    CONFIG = StreamConfig(drift_threshold=None, fsync=False)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_session_counter_and_its_pack_stay_consistent(
        self, tmp_path, shards
    ):
        data = load_dataset("bluenile", n_rows=1200, seed=3)
        session = LabelingSession.fit(data, bound=30, shards=shards)
        ingestor = session.stream(tmp_path / "wal", config=self.CONFIG)
        ingestor.submit(inserted=load_dataset("bluenile", n_rows=100, seed=4))
        assert ingestor.counter.total_rows == 1300
        assert session.counter.total_rows == session.artifact.total == 1200
        assert session.counter.n_shards == shards
        reader = open_pack(session.to_pack(tmp_path / "pack"))
        label = reader.load_label("label")
        assert label == build_label(reader.counter(), label.attributes)

    def test_pack_reader_counter_never_grows(self, tmp_path):
        data = load_dataset("bluenile", n_rows=1200, seed=3)
        session = LabelingSession.fit(data, bound=30, shards=2)
        reader = open_pack(session.to_pack(tmp_path / "pack"))
        ingestor = StreamIngestor(
            reader.load_label("label"),
            wal=WriteAheadLog(tmp_path / "wal", fsync=False),
            counter=reader.counter(),
            config=self.CONFIG,
        )
        ingestor.submit(inserted=load_dataset("bluenile", n_rows=100, seed=4))
        assert ingestor.counter.total_rows == 1300
        assert reader.counter().total_rows == 1200
        assert reader.counter().n_shards == 2


def _pinned_rebuild(rows: Dataset, schema) -> Dataset:
    """The batch rebuilt row by row with the counter's domains pinned —
    the reference the column-wise re-encode must reproduce."""
    names = [column.name for column in schema]
    return Dataset.from_rows(
        names,
        ([row[n] for n in names] for row in rows.select(names).iter_rows()),
        domains={column.name: column.categories for column in schema},
    )


class TestAlignForCounter:
    SCHEMA = Dataset.from_columns(
        {"a": [0], "b": ["x"], "c": [True]},
        domains={"a": (0, 1, 2, 3), "b": ("x", "y", "z"), "c": (True, False)},
    ).schema

    def test_codes_equal_pinned_domain_rebuild(self):
        # Observed domains, another column order, and missing values.
        batch = Dataset.from_rows(
            ["c", "b", "a"],
            [[False, "z", 3], [None, "x", 1], [True, None, None],
             [False, "z", 1]],
        )
        aligned = _align_for_counter(batch, self.SCHEMA)
        reference = _pinned_rebuild(batch, self.SCHEMA)
        assert aligned.schema == self.SCHEMA
        assert np.array_equal(aligned.codes_matrix(), reference.codes_matrix())

    def test_matching_schema_passes_through(self):
        batch = Dataset.from_rows(
            ["a", "b", "c"], [[2, "y", True]],
            domains={c.name: c.categories for c in self.SCHEMA},
        )
        assert _align_for_counter(batch, self.SCHEMA) == batch

    def test_out_of_domain_value_returns_none(self):
        batch = Dataset.from_rows(
            ["a", "b", "c"], [[1, "x", True], [9, "y", False]]
        )
        assert _align_for_counter(batch, self.SCHEMA) is None

    def test_unused_foreign_category_still_aligns(self):
        # The batch's domain holds a value the counter lacks, but no row
        # carries it — the pinned rebuild encodes the batch, and so must
        # the re-encode.
        batch = Dataset.from_columns(
            {"a": [1, 2], "b": ["x", "y"], "c": [True, True]},
            domains={"a": (1, 2, 99), "b": ("x", "y"), "c": (True,)},
        )
        aligned = _align_for_counter(batch, self.SCHEMA)
        reference = _pinned_rebuild(batch, self.SCHEMA)
        assert np.array_equal(aligned.codes_matrix(), reference.codes_matrix())


class TestCompaction:
    def test_policy_folds_tail_shards(self, data, tmp_path, rng):
        ingestor = _ingestor(data, tmp_path, compact_every=3)
        for _ in range(7):
            ingestor.submit(inserted=_random_batch(rng))
        assert ingestor.join(timeout=30)
        assert ingestor.compact_error is None
        assert ingestor.compactions >= 1
        assert ingestor.counter.n_shards < 8  # 1 base + 7 batches uncompacted

    def test_counts_stay_exact_after_compaction(self, data, tmp_path, rng):
        ingestor = _ingestor(data, tmp_path, compact_every=2)
        rows = [list(r.values()) for r in data.iter_rows()]
        for _ in range(5):
            batch = _random_batch(rng)
            rows += [list(r.values()) for r in batch.iter_rows()]
            ingestor.submit(inserted=batch)
        assert ingestor.join(timeout=30)
        assert ingestor.compact_error is None
        fresh = PatternCounter(Dataset.from_rows(ATTRS, rows))
        for a in range(4):
            for b in range(3):
                pattern = Pattern({"a": a, "b": b})
                assert ingestor.counter.count(pattern) == fresh.count(pattern)

    def test_min_rows_gate_defers_compaction(self, data, tmp_path, rng):
        ingestor = _ingestor(
            data, tmp_path, compact_every=2, compact_min_rows=10_000
        )
        for _ in range(4):
            ingestor.submit(inserted=_random_batch(rng))
        assert ingestor.join(timeout=30)
        assert ingestor.compactions == 0
        assert ingestor.counter.n_shards == 5

    def test_pack_checkpoint_truncates_wal(self, data, tmp_path, rng):
        pack_dir = tmp_path / "pack"
        ingestor = _ingestor(
            data, tmp_path, compact_every=2, pack_dir=str(pack_dir)
        )
        for _ in range(3):
            ingestor.submit(inserted=_random_batch(rng))
        assert ingestor.join(timeout=30)
        assert ingestor.compact_error is None
        assert ingestor.compactions >= 1
        assert pack_dir.exists()
        # Checkpointed batches no longer replay; later ones still do.
        remaining = WriteAheadLog(tmp_path / "wal").records()
        assert all(r.seq > 2 for r in remaining)
        reader = open_pack(pack_dir)
        packed = reader.load_label("label")
        recovered = packed
        for record in remaining:
            recovered = apply_inserts(recovered, record.inserted_dataset())
        assert recovered.to_json() == ingestor.label.to_json()


class TestRecovery:
    def test_replay_reconstructs_state_byte_identically(
        self, data, tmp_path, rng
    ):
        ingestor = _ingestor(data, tmp_path)
        for _ in range(5):
            ingestor.submit(inserted=_random_batch(rng))
        crashed_label = ingestor.label

        recovered = StreamIngestor(
            build_label(PatternCounter(data), ("a", "b")),
            wal=WriteAheadLog(tmp_path / "wal"),
            counter=PatternCounter(data),
            config=StreamConfig(drift_threshold=None),
            replay=True,
        )
        assert recovered.label.to_json() == crashed_label.to_json()
        assert recovered.last_seq == ingestor.last_seq
        assert recovered.counter.total_rows == ingestor.counter.total_rows

    def test_replay_publishes_once(self, data, tmp_path, rng):
        ingestor = _ingestor(data, tmp_path)
        for _ in range(4):
            ingestor.submit(inserted=_random_batch(rng))
        recovered = StreamIngestor(
            build_label(PatternCounter(data), ("a", "b")),
            wal=WriteAheadLog(tmp_path / "wal"),
            config=StreamConfig(drift_threshold=None),
            replay=True,
        )
        assert recovered.publisher.version == 1
        assert len(recovered.publisher.latencies) == 1


class TestConfig:
    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(RegistryError):
            StreamConfig(compact_every=0)
        with pytest.raises(RegistryError):
            StreamConfig(drift_threshold=0.5)
        with pytest.raises(RegistryError):
            StreamConfig(drift_check_every=0)
        with pytest.raises(RegistryError):
            StreamConfig(drift_sample=0)
        with pytest.raises(RegistryError):
            StreamConfig(research_budget_seconds=0.0)
        with pytest.raises(RegistryError):
            StreamConfig(research_bound=0)

    def test_defaults_construct(self):
        config = StreamConfig()
        assert config.compact_every == 16
        assert config.fsync is True
