"""The ``repro-pack/1`` on-disk format: round trips, laziness, corruption.

Three contracts under test:

* **Parity** — a counter reopened from a pack answers every query
  byte-identically to the fitted one (the deep sweep lives in
  ``tests/property/test_pack_parity.py``; here the worked example).
* **Laziness** — opening a pack reads the manifest and stats files
  only; label envelopes load without touching shard payloads, and a
  query through one shard's counter maps exactly that shard
  (``PackStats`` is the file-access instrumentation).
* **Corruption** — every damaged-input mode (truncation, flipped
  bytes, manifest lies, missing files) surfaces as a clean
  :class:`~repro.api.errors.ArtifactError` naming the offending file,
  never a raw numpy or ``KeyError``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    Dataset,
    LabelingSession,
    Pattern,
    PatternCounter,
    ShardedPatternCounter,
    build_label,
    open_pack,
    verify_pack,
    write_pack,
)
from repro.api.errors import ArtifactError, SessionError
from repro.persist.pack import MANIFEST_NAME
from repro.serve.protocol import BadRequestError, UnsupportedOperationError
from repro.serve.store import LabelStore

PATTERNS = [
    Pattern({"gender": "Female"}),
    Pattern({"gender": "Male", "race": "Hispanic"}),
    Pattern({"age group": "under 20", "marital status": "single"}),
    Pattern(
        {
            "gender": "Female",
            "age group": "20-39",
            "race": "Caucasian",
            "marital status": "married",
        }
    ),
]


@pytest.fixture
def sharded(figure2: Dataset) -> ShardedPatternCounter:
    return ShardedPatternCounter.from_dataset(figure2, 3)


def _flip_last_byte(path) -> None:
    """Corrupt a file without changing its size (defeats the stat screen)."""
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


def _edit_manifest(pack_dir, mutate) -> None:
    manifest_path = pack_dir / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    mutate(manifest)
    manifest_path.write_text(json.dumps(manifest))


# -- round trips ---------------------------------------------------------------


class TestRoundTrip:
    def test_single_counter(self, tmp_path, figure2_counter):
        pack = figure2_counter.dump(tmp_path / "pack")
        reopened = PatternCounter.from_pack(pack)
        assert reopened.total_rows == figure2_counter.total_rows
        np.testing.assert_array_equal(
            reopened.count_many(PATTERNS), figure2_counter.count_many(PATTERNS)
        )
        attrs = ("gender", "race")
        combos, counts = reopened.joint_table(attrs)
        expected_combos, expected_counts = figure2_counter.joint_table(attrs)
        np.testing.assert_array_equal(combos, expected_combos)
        np.testing.assert_array_equal(counts, expected_counts)
        assert (
            build_label(reopened, attrs).to_dict()
            == build_label(figure2_counter, attrs).to_dict()
        )

    def test_sharded_counter(self, tmp_path, figure2_counter, sharded):
        pack = sharded.dump(tmp_path / "pack")
        reopened = ShardedPatternCounter.from_pack(pack)
        assert reopened.n_shards == 3
        np.testing.assert_array_equal(
            reopened.count_many(PATTERNS), figure2_counter.count_many(PATTERNS)
        )

    def test_cold_pack_recomputes_identically(self, tmp_path, figure2_counter):
        # Warm the caches, then pack without them: the reopened counter
        # must recompute the same answers from the code matrix alone.
        figure2_counter.count_many(PATTERNS)
        pack = figure2_counter.dump(tmp_path / "cold", include_caches=False)
        reopened = PatternCounter.from_pack(pack)
        np.testing.assert_array_equal(
            reopened.count_many(PATTERNS), figure2_counter.count_many(PATTERNS)
        )

    def test_from_pack_shape_mismatch(self, tmp_path, figure2_counter, sharded):
        # from_pack opens any shard count in the pack's natural shape.
        multi = sharded.dump(tmp_path / "multi")
        assert PatternCounter.from_pack(multi).n_shards == 3
        single = figure2_counter.dump(tmp_path / "single")
        assert ShardedPatternCounter.from_pack(single).n_shards == 1

    def test_labels_round_trip(self, tmp_path, figure2, figure2_counter):
        labels = {
            "by-race": build_label(figure2, ("gender", "race")),
            "by-age": build_label(figure2, ("age group",)),
        }
        write_pack(tmp_path / "pack", figure2_counter, labels=labels)
        reader = open_pack(tmp_path / "pack")
        assert reader.label_names == ["by-age", "by-race"]
        assert reader.load_label("by-race").pc == labels["by-race"].pc
        assert set(reader.load_labels()) == {"by-age", "by-race"}

    def test_repack_over_existing_directory(self, tmp_path, figure2_counter):
        target = tmp_path / "pack"
        figure2_counter.dump(target)
        figure2_counter.dump(target)  # overwrite in place, atomically
        summary = verify_pack(target)
        assert summary["shards"] == 1
        assert summary["total_rows"] == 18

    def test_write_pack_rejects_non_counters(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot pack"):
            write_pack(tmp_path / "pack", object())


# -- compatibility -------------------------------------------------------------

#: A K=2 figure2 pack with warm caches, written by the pack writer of an
#: earlier version: each shard file still carries per-row ``row_keys``
#: arrays, a role the reader now accepts and ignores.
ROW_KEYS_PACK = Path(__file__).parent / "fixtures" / "figure2-k2-row-keys"


def _roles(pack_dir) -> set[str]:
    manifest = json.loads((Path(pack_dir) / MANIFEST_NAME).read_text())
    return {
        array["role"]
        for shard in manifest["shards"]
        for array in shard["arrays"]
    }


class TestCompatibility:
    def test_row_keys_pack_answers_like_the_fitted_counter(self, figure2):
        assert "row_keys" in _roles(ROW_KEYS_PACK)
        assert verify_pack(ROW_KEYS_PACK)["shards"] == 2
        reader = open_pack(ROW_KEYS_PACK)
        counter = reader.counter()
        reference = PatternCounter(figure2)
        patterns = PATTERNS + [
            Pattern({"gender": "Male", "race": {">=": "Caucasian"}})
        ]
        for _ in range(2):  # first batch and the promoted repeat
            np.testing.assert_array_equal(
                counter.count_many(patterns), reference.count_many(patterns)
            )
        for attrs in (
            ("gender", "race"),
            ("age group", "marital status"),
            ("race",),
        ):
            combos, counts = counter.joint_table(attrs)
            expected_combos, expected_counts = reference.joint_table(attrs)
            np.testing.assert_array_equal(combos, expected_combos)
            np.testing.assert_array_equal(counts, expected_counts)
        label = reader.load_label("figure2")
        assert label.to_dict() == build_label(
            reference, label.attributes
        ).to_dict()
        assert build_label(counter, label.attributes).to_dict() == (
            label.to_dict()
        )

    @pytest.mark.parametrize("k", (1, 3))
    def test_redump_writes_identical_shard_files(self, tmp_path, figure2, k):
        counter = ShardedPatternCounter.from_dataset(figure2, k)
        for _ in range(2):  # the repeat batch promotes key tables
            counter.count_many(PATTERNS)
        counter.joint_tables([("gender", "race"), ("race",)])
        first = write_pack(tmp_path / "first", counter)
        assert {"codes", "key_keys", "joint_combos"} <= _roles(first)
        assert "row_keys" not in _roles(first)
        second = write_pack(tmp_path / "second", open_pack(first).counter())
        for index in range(k):
            name = f"shard-{index:04d}.bin"
            assert (first / name).read_bytes() == (second / name).read_bytes()


# -- laziness ------------------------------------------------------------------


class TestLaziness:
    @pytest.fixture
    def pack_dir(self, tmp_path, figure2, sharded):
        label = build_label(figure2, ("gender", "race"))
        return write_pack(tmp_path / "pack", sharded, labels={"demo": label})

    def test_open_reads_no_payload(self, pack_dir):
        reader = open_pack(pack_dir)
        assert reader.n_shards == 3
        assert reader.total_rows == 18
        assert reader.stats.shard_loads == []
        assert reader.stats.label_loads == []

    def test_label_estimate_touches_no_shard(self, pack_dir):
        reader = open_pack(pack_dir)
        label = reader.load_label("demo")
        from repro import LabelEstimator

        LabelEstimator(label).estimate(PATTERNS[0])
        assert reader.stats.label_loads == ["label-demo.json"]
        assert reader.stats.shard_loads == []

    def test_query_loads_only_needed_shards(self, pack_dir):
        # The acceptance assertion: query one shard of a 3-shard pack
        # and exactly that shard's file is read.
        reader = open_pack(pack_dir)
        source = reader.shard_source(0)
        assert not source.loaded
        reader.shard_counter(0).count(PATTERNS[0])
        assert source.loaded
        assert reader.stats.shard_loads == ["shard-0000.bin"]

    def test_merged_query_loads_each_shard_once(self, pack_dir):
        manifest = json.loads((pack_dir / MANIFEST_NAME).read_text())
        shard_bytes = sum(int(e["bytes"]) for e in manifest["shards"])
        # Serially, and with the shards loading on the counter's threads.
        for options in ({}, {"parallel": True, "max_workers": 2}):
            reader = open_pack(pack_dir)
            with reader.counter(**options) as counter:
                assert reader.stats.shard_loads == []
                counter.count_many(PATTERNS)
                assert sorted(reader.stats.shard_loads) == [
                    "shard-0000.bin",
                    "shard-0001.bin",
                    "shard-0002.bin",
                ]
                counter.count_many(PATTERNS)  # cached: no re-verification
                assert len(reader.stats.shard_loads) == 3
                assert reader.stats.bytes_verified == shard_bytes

    def test_concurrent_shard_loads_keep_exact_stats(self, tmp_path, figure2):
        # More threads than cores and a tiny switch interval: a lost
        # update to the reader's shared bookkeeping would show here.
        import sys

        pack_dir = write_pack(
            tmp_path / "pack6", ShardedPatternCounter.from_dataset(figure2, 6)
        )
        shards = json.loads((pack_dir / MANIFEST_NAME).read_text())["shards"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                reader = open_pack(pack_dir)
                with reader.counter(parallel=True, max_workers=6) as counter:
                    counter.count_many(PATTERNS)
                assert sorted(reader.stats.shard_loads) == sorted(
                    entry["file"] for entry in shards
                )
                assert reader.stats.bytes_verified == sum(
                    int(entry["bytes"]) for entry in shards
                )
        finally:
            sys.setswitchinterval(interval)

    def test_mapped_arrays_are_read_only(self, pack_dir):
        counter = open_pack(pack_dir).shard_counter(1)
        codes = counter.dataset.codes_matrix()
        with pytest.raises(ValueError):
            codes[0, 0] = 0

    def test_packed_counter_stays_queryable_and_mutable(
        self, tmp_path, figure2, figure2_counter
    ):
        # Copy-on-write: extending a pack-backed sharded counter must
        # not touch the mapped (read-only) payloads.
        pack = figure2_counter.dump(tmp_path / "pack")
        reopened = ShardedPatternCounter.from_pack(pack)
        reopened.add_shard(figure2)
        assert reopened.total_rows == 36
        assert reopened.count(PATTERNS[0]) == 2 * figure2_counter.count(
            PATTERNS[0]
        )


# -- corruption ----------------------------------------------------------------


class TestCorruption:
    @pytest.fixture
    def pack_dir(self, tmp_path, figure2, sharded):
        label = build_label(figure2, ("gender", "race"))
        return write_pack(tmp_path / "pack", sharded, labels={"demo": label})

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such pack directory"):
            open_pack(tmp_path / "nope")

    def test_directory_without_manifest(self, tmp_path):
        (tmp_path / "not-a-pack").mkdir()
        with pytest.raises(ArtifactError, match="is not a pack"):
            open_pack(tmp_path / "not-a-pack")

    def test_manifest_not_json(self, pack_dir):
        (pack_dir / MANIFEST_NAME).write_text("{truncated")
        with pytest.raises(ArtifactError, match="unreadable"):
            open_pack(pack_dir)

    def test_unknown_format(self, pack_dir):
        _edit_manifest(pack_dir, lambda m: m.update(format="repro-pack/99"))
        with pytest.raises(ArtifactError, match="repro-pack/99"):
            open_pack(pack_dir)

    def test_shard_count_mismatch(self, pack_dir):
        _edit_manifest(pack_dir, lambda m: m.update(shard_count=7))
        with pytest.raises(
            ArtifactError, match="declares shard_count=7 but lists 3"
        ):
            open_pack(pack_dir)

    def test_missing_shard_file(self, pack_dir):
        (pack_dir / "shard-0001.bin").unlink()
        with pytest.raises(ArtifactError, match="shard-0001.bin is missing"):
            open_pack(pack_dir)

    def test_truncated_shard_file(self, pack_dir):
        shard = pack_dir / "shard-0002.bin"
        shard.write_bytes(shard.read_bytes()[:-16])
        with pytest.raises(
            ArtifactError, match="shard-0002.bin is truncated"
        ):
            open_pack(pack_dir)

    def test_bad_shard_checksum_fails_on_first_touch(self, pack_dir):
        _flip_last_byte(pack_dir / "shard-0000.bin")
        reader = open_pack(pack_dir)  # same size: the stat screen passes
        with pytest.raises(
            ArtifactError, match="shard-0000.bin fails its checksum"
        ):
            reader.shard_counter(0).count(PATTERNS[0])

    def test_bad_shard_checksum_fails_in_a_parallel_counter(self, pack_dir):
        # The corrupt shard is first touched on a pool thread; the same
        # typed error reaches the caller.
        _flip_last_byte(pack_dir / "shard-0000.bin")
        reader = open_pack(pack_dir)
        with reader.counter(parallel=True, max_workers=2) as counter:
            with pytest.raises(
                ArtifactError, match="shard-0000.bin fails its checksum"
            ):
                counter.count_many(PATTERNS)

    def test_bad_label_checksum(self, pack_dir):
        _flip_last_byte(pack_dir / "label-demo.json")
        reader = open_pack(pack_dir)
        with pytest.raises(
            ArtifactError, match="label-demo.json fails its checksum"
        ):
            reader.load_label("demo")

    def test_unknown_label_name(self, pack_dir):
        reader = open_pack(pack_dir)
        with pytest.raises(ArtifactError, match="no label 'nope'"):
            reader.load_label("nope")

    def test_shard_index_out_of_range(self, pack_dir):
        with pytest.raises(ArtifactError, match="no shard 9"):
            open_pack(pack_dir).shard_counter(9)

    def test_verify_pack_sweeps_eagerly(self, pack_dir):
        summary = verify_pack(pack_dir)
        assert summary["shards"] == 3 and summary["labels"] == 1
        _flip_last_byte(pack_dir / "shard-0001.bin")
        with pytest.raises(
            ArtifactError, match="shard-0001.bin fails its checksum"
        ):
            verify_pack(pack_dir)


# -- session integration -------------------------------------------------------


class TestSessionPack:
    @pytest.fixture
    def session(self, figure2):
        return LabelingSession.fit(figure2, bound=16)

    def test_from_pack_estimates_identically(self, tmp_path, session):
        session.to_pack(tmp_path / "pack", name="demo")
        warm = LabelingSession.from_pack(tmp_path / "pack")
        for pattern in PATTERNS:
            assert warm.estimate(pattern) == session.estimate(pattern)
        assert warm.pack.stats.shard_loads == []
        assert warm.counter.count(PATTERNS[0]) == session.counter.count(
            PATTERNS[0]
        )

    def test_from_pack_unknown_name(self, tmp_path, session):
        session.to_pack(tmp_path / "pack", name="demo")
        with pytest.raises(SessionError, match="no label 'other'"):
            LabelingSession.from_pack(tmp_path / "pack", name="other")

    def test_save_with_pack_reconnects_on_load(self, tmp_path, session):
        envelope = tmp_path / "label.json"
        session.save(envelope, pack=tmp_path / "state")
        payload = json.loads(envelope.read_text())
        assert payload["pack"] == "state"  # relative: the pair travels
        loaded = LabelingSession.load(envelope)
        assert loaded.estimate(PATTERNS[0]) == session.estimate(PATTERNS[0])
        assert loaded.counter.total_rows == 18

    def test_save_without_pack_keeps_plain_envelope(self, tmp_path, session):
        envelope = tmp_path / "label.json"
        session.save(envelope)
        payload = json.loads(envelope.read_text())
        assert "pack" not in payload
        assert LabelingSession.load(envelope).counter is None

    def test_to_pack_requires_counter_state(self, tmp_path, session):
        envelope = tmp_path / "label.json"
        session.save(envelope)
        bare = LabelingSession.load(envelope)
        with pytest.raises(SessionError, match="no counter state"):
            bare.to_pack(tmp_path / "pack")

    @pytest.mark.parametrize(
        "batch, reason",
        [
            ("deleted", "delete batch applied"),
            ("inserted", "values outside the counter's frozen domains"),
        ],
    )
    def test_to_pack_names_why_update_dropped_the_counter(
        self, tmp_path, session, figure2, batch, reason
    ):
        rows = figure2.head(1)
        if batch == "inserted":
            row = dict(next(iter(rows.iter_rows())), gender="Nonbinary")
            rows = Dataset.from_rows(list(row), [tuple(row.values())])
        session.update(**{batch: rows})
        with pytest.raises(SessionError, match=reason):
            session.to_pack(tmp_path / "pack")

    def test_parallel_fit_packs_identically(self, tmp_path):
        # Per-shard tables stay in the counter's own sources whether or
        # not they were built on the thread pool, so the pack bytes match.
        from repro.datasets import load_dataset

        data = load_dataset("bluenile", n_rows=3_000, seed=0)
        serial = LabelingSession.fit(data, 30, shards=3)
        parallel = LabelingSession.fit(
            data, 30, shards=3, parallel=True, max_workers=2
        )
        serial.to_pack(tmp_path / "serial", name="demo")
        parallel.to_pack(tmp_path / "parallel", name="demo")
        parallel.counter.close()
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(
            p.name for p in (tmp_path / "parallel").iterdir()
        )
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes(), name

    def test_update_detaches_stale_pack(self, tmp_path, session, figure2):
        session.to_pack(tmp_path / "pack")
        warm = LabelingSession.from_pack(tmp_path / "pack")
        warm.update(inserted=figure2)
        # The pack profiles the pre-update data; it must not survive.
        assert warm.pack is None
        # The counter follows the insert: it counts the updated rows.
        reference = PatternCounter(figure2.concat(figure2))
        for subset in (("gender",), ("gender", "race")):
            assert warm.counter.label_size(subset) == reference.label_size(
                subset
            )
            assert build_label(warm.counter, subset) == build_label(
                reference, subset
            )


# -- store integration ---------------------------------------------------------


class TestStorePack:
    @pytest.fixture
    def pack_dir(self, tmp_path, figure2):
        session = LabelingSession.fit(figure2, bound=16)
        return session.to_pack(tmp_path / "pack", name="demo")

    def test_publish_pack(self, pack_dir, figure2):
        store = LabelStore()
        snapshots = store.publish_pack(pack_dir)
        assert [snap.name for snap in snapshots] == ["demo"]
        snap = store.get("demo")
        assert snap.version == 1 and snap.kind == "label"
        reference = LabelingSession.from_pack(pack_dir)
        assert snap.estimate(PATTERNS[0]) == reference.estimate(PATTERNS[0])
        # Publishing and estimating are label-only; the counter maps on
        # the first exact query.
        assert snap.pack.stats.shard_loads == []
        assert snap.counter().count(PATTERNS[0]) == reference.counter.count(
            PATTERNS[0]
        )
        assert snap.pack.stats.shard_loads != []

    def test_update_drops_pack(self, pack_dir, figure2):
        store = LabelStore()
        store.publish_pack(pack_dir)
        updated = store.update("demo", inserted=figure2)
        assert updated.version == 2
        assert updated.pack is None
        with pytest.raises(UnsupportedOperationError, match="not published"):
            updated.counter()

    def test_publish_corrupt_pack(self, pack_dir):
        _flip_last_byte(pack_dir / "label-demo.json")
        with pytest.raises(BadRequestError, match="checksum"):
            LabelStore().publish_pack(pack_dir)

    def test_publish_label_less_pack(self, tmp_path, figure2_counter):
        figure2_counter.dump(tmp_path / "bare")
        with pytest.raises(BadRequestError, match="no labels"):
            LabelStore().publish_pack(tmp_path / "bare")


# -- verify modes --------------------------------------------------------------


class TestVerifyModes:
    """The checksum knob: ``eager`` / ``lazy``.

    ``PackStats.bytes_verified`` is the observable: eager hashes every
    referenced file at open; lazy hashes each file exactly once, on
    first touch.
    """

    @pytest.fixture
    def pack_dir(self, tmp_path, sharded):
        label = build_label(sharded, ("gender", "race"))
        return write_pack(tmp_path / "pack", sharded, labels={"demo": label})

    @staticmethod
    def _manifest_bytes(pack_dir):
        manifest = json.loads((pack_dir / MANIFEST_NAME).read_text())
        shard_bytes = sum(int(e["bytes"]) for e in manifest["shards"])
        label_bytes = sum(int(e["bytes"]) for e in manifest["labels"])
        return shard_bytes, label_bytes

    def test_eager_hashes_every_file_at_open(self, pack_dir):
        shard_bytes, label_bytes = self._manifest_bytes(pack_dir)
        reader = open_pack(pack_dir, verify="eager")
        assert reader.verify_mode == "eager"
        assert reader.stats.bytes_verified == shard_bytes + label_bytes
        # Touching payloads afterwards re-hashes nothing.
        reader.shard_counter(0).count(PATTERNS[0])
        reader.load_label("demo")
        assert reader.stats.bytes_verified == shard_bytes + label_bytes

    def test_lazy_hashes_once_on_first_touch(self, pack_dir):
        reader = open_pack(pack_dir)  # lazy is the default
        assert reader.verify_mode == "lazy"
        assert reader.stats.bytes_verified == 0
        counter = reader.shard_counter(1)
        count = counter.count(PATTERNS[0])
        after_first = reader.stats.bytes_verified
        assert after_first > 0
        # A second touch of the same shard does not re-hash it.
        assert reader.shard_counter(1).count(PATTERNS[0]) == count
        assert reader.stats.bytes_verified == after_first

    def test_eager_catches_corruption_at_open(self, pack_dir):
        _flip_last_byte(pack_dir / "label-demo.json")
        with pytest.raises(ArtifactError, match="checksum"):
            open_pack(pack_dir, verify="eager")

    def test_invalid_mode_rejected(self, pack_dir):
        for mode in ("never", "skip"):
            with pytest.raises(ValueError, match="verify"):
                open_pack(pack_dir, verify=mode)
