"""Write-ahead-log unit tests: framing, durability, crash recovery.

The crash suite simulates a kill mid-write byte-exactly: a log is
truncated at every byte offset inside its final frame and replayed —
the torn tail must be detected by the length/checksum framing and
dropped, while every earlier record replays byte-identically.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.dataset.table import Dataset
from repro.stream.wal import (
    WAL_MAGIC,
    WalError,
    WalRecord,
    WriteAheadLog,
)

pytestmark = pytest.mark.stream


def _batch(rows):
    return Dataset.from_rows(["a", "b"], rows)


def _append_n(wal: WriteAheadLog, n: int) -> list[WalRecord]:
    return [
        wal.append(
            label="lab",
            attributes=("a", "b"),
            inserted=_batch([[i, i % 3], [i + 1, (i + 1) % 3]]),
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_append_then_replay_returns_identical_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        written = _append_n(wal, 5)
        replay = WriteAheadLog(tmp_path).replay()
        assert replay.records == tuple(written)
        assert not replay.dropped_tail
        assert replay.last_seq == 5

    def test_payloads_are_byte_identical_across_processes(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        written = _append_n(wal, 3)
        replayed = WriteAheadLog(tmp_path).replay().records
        for a, b in zip(written, replayed):
            assert a.to_payload() == b.to_payload()

    def test_datasets_rebuild_from_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        batch = _batch([[1, 2], [0, 1]])
        wal.append(label="lab", attributes=("a", "b"), inserted=batch)
        (record,) = WriteAheadLog(tmp_path).replay().records
        rebuilt = record.inserted_dataset()
        assert list(rebuilt.iter_rows()) == list(batch.iter_rows())
        assert record.deleted_dataset() is None

    def test_sequence_numbers_continue_across_reopen(self, tmp_path):
        _append_n(WriteAheadLog(tmp_path), 2)
        record = WriteAheadLog(tmp_path).append(
            label="lab", attributes=("a", "b"), inserted=_batch([[0, 0]])
        )
        assert record.seq == 3

    def test_empty_log_replays_empty(self, tmp_path):
        replay = WriteAheadLog(tmp_path).replay()
        assert replay.records == ()
        assert replay.last_seq == 0
        assert not replay.dropped_tail

    def test_records_filters_by_label(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(label="x", attributes=("a", "b"), inserted=_batch([[0, 0]]))
        wal.append(label="y", attributes=("a", "b"), inserted=_batch([[1, 1]]))
        assert [r.label for r in wal.records()] == ["x", "y"]
        assert [r.seq for r in wal.records("y")] == [2]


def _row_dict_values(dataset, attributes):
    """Row value lists decoded one row dict at a time — the reference
    the WAL's column-at-a-time decode must reproduce value for value."""
    projected = dataset.select(list(attributes))
    return tuple(
        tuple(row[attribute] for attribute in attributes)
        for row in projected.iter_rows()
    )


def _typed_batch():
    """str, int, float and bool columns, each with a missing value."""
    return Dataset.from_columns(
        {
            "s": ["x", None, "y", "x", "z"],
            "i": [3, 1, None, 3, 0],
            "f": [0.25, None, 2.5, 0.25, 1.0],
            "b": [True, False, None, True, False],
        }
    )


class TestColumnDecode:
    def test_frames_equal_row_dict_decode(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        attributes = ("b", "s", "f", "i")  # not the schema's order
        inserted = _typed_batch()
        deleted = inserted.take([1, 4])
        wal.append(
            label="lab", attributes=attributes, inserted=inserted,
            deleted=deleted,
        )
        wal.append(label="lab", attributes=attributes, deleted=deleted)
        expected = WAL_MAGIC
        for seq, ins in ((1, inserted), (2, None)):
            payload = WalRecord(
                seq=seq,
                label="lab",
                attributes=attributes,
                inserted=(
                    None if ins is None else _row_dict_values(ins, attributes)
                ),
                deleted=_row_dict_values(deleted, attributes),
            ).to_payload()
            expected += struct.pack(
                "<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF
            ) + payload
        assert wal.path.read_bytes() == expected
        # Types survive the round trip: true/false stay JSON booleans.
        (first, _) = WriteAheadLog(tmp_path).replay().records
        assert first.inserted == _row_dict_values(inserted, attributes)
        assert first.inserted[0] == (True, "x", 0.25, 3)


class TestValidation:
    def test_append_without_batch_raises(self, tmp_path):
        with pytest.raises(WalError, match="at least one"):
            WriteAheadLog(tmp_path).append(label="lab", attributes=("a",))

    def test_non_json_value_raises_before_writing(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        batch = Dataset.from_rows(["a"], [[object()]])
        with pytest.raises(WalError, match="JSON"):
            wal.append(label="lab", attributes=("a",), inserted=batch)
        assert not wal.path.exists()

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "stream.wal"
        path.write_bytes(b"not a wal file at all" * 2)
        with pytest.raises(WalError, match="magic"):
            WriteAheadLog(tmp_path).replay()


class TestCrashRecovery:
    """Kill-mid-write simulation: truncate at every tail byte offset."""

    def test_torn_tail_dropped_earlier_records_byte_identical(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        written = _append_n(wal, 4)
        whole = wal.path.read_bytes()
        replay_all = WriteAheadLog(tmp_path).replay()
        assert replay_all.last_seq == 4
        last_frame_len = 8 + len(written[-1].to_payload())
        frame_start = len(whole) - last_frame_len
        for cut in range(frame_start + 1, len(whole)):
            crash_dir = tmp_path / f"cut-{cut}"
            crash_dir.mkdir()
            (crash_dir / "stream.wal").write_bytes(whole[:cut])
            replay = WriteAheadLog(crash_dir).replay()
            assert replay.dropped_tail, f"cut at {cut} not detected"
            assert replay.records == replay_all.records[:3]
            for a, b in zip(replay.records, written[:3]):
                assert a.to_payload() == b.to_payload()

    def test_replay_repairs_file_so_appends_extend_cleanly(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _append_n(wal, 3)
        data = wal.path.read_bytes()
        wal.path.write_bytes(data[:-5])  # torn tail
        recovered = WriteAheadLog(tmp_path)
        replay = recovered.replay()
        assert replay.dropped_tail and replay.last_seq == 2
        recovered.append(
            label="lab", attributes=("a", "b"), inserted=_batch([[9, 0]])
        )
        final = WriteAheadLog(tmp_path).replay()
        assert not final.dropped_tail
        assert [r.seq for r in final.records] == [1, 2, 3]

    def test_checksum_mismatch_mid_file_drops_rest(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        written = _append_n(wal, 3)
        data = bytearray(wal.path.read_bytes())
        # Corrupt one payload byte of the second frame.
        first_frame_len = 8 + len(written[0].to_payload())
        target = len(WAL_MAGIC) + first_frame_len + 8 + 2
        data[target] ^= 0xFF
        wal.path.write_bytes(bytes(data))
        replay = WriteAheadLog(tmp_path).replay()
        assert replay.dropped_tail
        assert replay.reason == "checksum mismatch"
        assert [r.seq for r in replay.records] == [1]

    def test_unparseable_but_checksummed_payload_drops_rest(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _append_n(wal, 1)
        payload = b"not json"
        import struct

        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with open(wal.path, "ab") as handle:
            handle.write(frame)
        replay = WriteAheadLog(tmp_path).replay()
        assert replay.dropped_tail
        assert replay.reason == "unparseable payload"
        assert replay.last_seq == 1


class TestTruncate:
    def test_truncate_through_seq_keeps_suffix(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _append_n(wal, 5)
        assert wal.truncate(through_seq=3) == 3
        replay = WriteAheadLog(tmp_path).replay()
        assert [r.seq for r in replay.records] == [4, 5]
        assert not replay.dropped_tail

    def test_truncate_all_then_append_restarts_numbering(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _append_n(wal, 2)
        assert wal.truncate() == 2
        # Within the same handle the sequence keeps climbing...
        record = wal.append(
            label="lab", attributes=("a", "b"), inserted=_batch([[0, 0]])
        )
        assert record.seq == 3
        # ...while a reopened empty log would have restarted at 1.

    def test_truncate_nothing_is_a_cheap_no_op(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _append_n(wal, 2)
        before = wal.path.read_bytes()
        assert wal.truncate(through_seq=0) == 0
        assert wal.path.read_bytes() == before
