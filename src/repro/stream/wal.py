"""Append-only write-ahead log of update batches.

Durability for the streaming ingestion path: every update batch is
logged *before* any in-memory state changes, so a crash between batches
loses nothing — on restart :meth:`WriteAheadLog.replay` reconstructs the
exact batch sequence and the ingestor re-applies it on top of the last
checkpointed base state.

On-disk layout (one file, ``stream.wal``, inside the WAL directory)::

    +----------------------------+
    | magic  "repro-wal/1\\n" + 4 |   16-byte file header
    +----------------------------+
    | u32 length | u32 crc32 | payload ...   one frame per batch
    +----------------------------+
    | ...                        |

Each frame is a length-prefixed binary record: a little-endian ``u32``
payload length, a ``u32`` CRC-32 of the payload, then the payload —
compact sorted-key JSON of ``{"seq", "label", "attributes", "inserted",
"deleted"}`` with rows as value arrays in attribute order.  The CRC is
what makes crash recovery exact: a record cut short by a kill (torn
length prefix, torn payload, or a checksum mismatch) is detected and
**dropped together with everything after it** — framing downstream of a
corrupt frame cannot be trusted — while every earlier record replays
byte-identically.

Appends go straight to the log file with an ``fsync`` per batch (an
append-only log cannot use temp-file-plus-rename); every *rewrite* of
the log — :meth:`truncate` after a successful pack checkpoint — goes
through the :mod:`repro.persist.atomic` helpers, so a crash mid-truncate
leaves the previous complete log in place.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Sequence

from repro.api.errors import ApiError
from repro.dataset.table import Dataset
from repro.persist.atomic import atomic_open

__all__ = [
    "StreamError",
    "WalError",
    "WalRecord",
    "WalReplay",
    "WriteAheadLog",
]

#: 16-byte file header: format name + newline + reserved padding.
WAL_MAGIC = b"repro-wal/1\n\x00\x00\x00\x00"
_FRAME_HEADER = struct.Struct("<II")  # payload length, payload crc32


class StreamError(ApiError):
    """Base class for every error raised by the streaming layer."""


class WalError(StreamError):
    """The WAL file cannot be used (bad magic, unwritable payload...).

    Torn or checksum-failing *tail* records are not errors — they are
    the crash the log exists for, detected and dropped by ``replay``.
    """


def _dataset_rows(
    dataset: Dataset, attributes: Sequence[str]
) -> tuple[tuple[Hashable, ...], ...]:
    """Row value tuples in ``attributes`` order (missing values → None).

    Decoded a column at a time: the column's categories with ``None``
    appended form a lookup list that code ``-1`` indexes from the end.
    """
    columns = []
    for attribute in attributes:
        values = [*dataset.schema[attribute].categories, None]
        codes = dataset.codes(attribute).tolist()
        columns.append([values[code] for code in codes])
    return tuple(zip(*columns))


@dataclass(frozen=True)
class WalRecord:
    """One logged update batch.

    ``inserted``/``deleted`` hold row value tuples in ``attributes``
    order — exactly what :meth:`inserted_dataset` /
    :meth:`deleted_dataset` rebuild, with domains inferred from the
    batch the same way the synchronous serve path
    (``_rows_dataset``) does, so replayed maintenance is byte-identical.
    """

    seq: int
    label: str
    attributes: tuple[str, ...]
    inserted: tuple[tuple[Hashable, ...], ...] | None
    deleted: tuple[tuple[Hashable, ...], ...] | None

    def _dataset(
        self, rows: tuple[tuple[Hashable, ...], ...] | None
    ) -> Dataset | None:
        if rows is None:
            return None
        return Dataset.from_rows(list(self.attributes), [tuple(r) for r in rows])

    def inserted_dataset(self) -> Dataset | None:
        """The insert batch as a Dataset (``None`` for delete-only)."""
        return self._dataset(self.inserted)

    def deleted_dataset(self) -> Dataset | None:
        """The delete batch as a Dataset (``None`` for insert-only)."""
        return self._dataset(self.deleted)

    def to_payload(self) -> bytes:
        payload = {
            "seq": self.seq,
            "label": self.label,
            "attributes": list(self.attributes),
            "inserted": (
                [list(row) for row in self.inserted]
                if self.inserted is not None
                else None
            ),
            "deleted": (
                [list(row) for row in self.deleted]
                if self.deleted is not None
                else None
            ),
        }
        try:
            return json.dumps(
                payload, sort_keys=True, separators=(",", ":"),
                allow_nan=False,
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise WalError(
                f"update batch is not WAL-serializable (values must be "
                f"JSON scalars): {exc}"
            ) from exc

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        try:
            data = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WalError(f"WAL payload is not valid JSON: {exc}") from exc
        return cls(
            seq=int(data["seq"]),
            label=str(data["label"]),
            attributes=tuple(data["attributes"]),
            inserted=(
                tuple(tuple(row) for row in data["inserted"])
                if data.get("inserted") is not None
                else None
            ),
            deleted=(
                tuple(tuple(row) for row in data["deleted"])
                if data.get("deleted") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class WalReplay:
    """Outcome of one log scan.

    ``dropped_tail`` reports a crash signature: the file held bytes past
    the last complete, checksum-verified record — a torn frame (or a
    corrupt one, plus everything after it) that was discarded.
    """

    records: tuple[WalRecord, ...]
    valid_bytes: int
    dropped_tail: bool
    reason: str | None = None

    @property
    def last_seq(self) -> int:
        """Highest replayed sequence number (0 for an empty log)."""
        return self.records[-1].seq if self.records else 0


class WriteAheadLog:
    """The append-only update-batch log of one streaming deployment.

    Several ingestors may share one log — records carry the label name —
    but appends must come from one process (the log is not advisory-
    locked).  ``fsync=False`` trades the per-batch fsync for OS-crash
    durability only (process crashes still replay).
    """

    def __init__(self, directory: str | Path, *, fsync: bool = True) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._path = self._dir / "stream.wal"
        self._fsync = fsync
        self._next_seq: int | None = None  # resolved by the first scan

    @property
    def path(self) -> Path:
        """The log file (may not exist before the first append)."""
        return self._path

    @property
    def directory(self) -> Path:
        return self._dir

    # -- scanning ---------------------------------------------------------------

    def _scan(self) -> WalReplay:
        """Parse the log; stop (and report) at the first bad frame."""
        if not self._path.exists():
            return WalReplay((), 0, False)
        data = self._path.read_bytes()
        if not data:
            return WalReplay((), 0, False)
        if len(data) < len(WAL_MAGIC) or not data.startswith(WAL_MAGIC[:12]):
            raise WalError(
                f"{self._path} is not a repro-wal/1 file (bad magic)"
            )
        offset = len(WAL_MAGIC)
        records: list[WalRecord] = []
        dropped = False
        reason: str | None = None
        while offset < len(data):
            if offset + _FRAME_HEADER.size > len(data):
                dropped, reason = True, "torn frame header at tail"
                break
            length, crc = _FRAME_HEADER.unpack_from(data, offset)
            start = offset + _FRAME_HEADER.size
            end = start + length
            if end > len(data):
                dropped, reason = True, "torn payload at tail"
                break
            payload = data[start:end]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                dropped, reason = True, "checksum mismatch"
                break
            try:
                records.append(WalRecord.from_payload(payload))
            except WalError:
                # A frame that checksums but does not parse is the same
                # trust boundary as a checksum failure: drop it and the
                # rest.
                dropped, reason = True, "unparseable payload"
                break
            offset = end
        return WalReplay(tuple(records), offset, dropped, reason)

    def replay(self) -> WalReplay:
        """Reconstruct the logged batch sequence; repair a torn tail.

        Every complete, checksum-verified record is returned in append
        order.  A torn or corrupt tail is *truncated off the file* so
        subsequent appends extend a clean log, and reported through
        ``dropped_tail``/``reason``.
        """
        replay = self._scan()
        if replay.dropped_tail:
            with open(self._path, "r+b") as handle:
                handle.truncate(replay.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._next_seq = replay.last_seq + 1
        return replay

    def records(self, label: str | None = None) -> list[WalRecord]:
        """Convenience: the replayable records, optionally per label."""
        records = self.replay().records
        if label is None:
            return list(records)
        return [record for record in records if record.label == label]

    # -- appending --------------------------------------------------------------

    def append(
        self,
        *,
        label: str,
        attributes: Sequence[str],
        inserted: Dataset | None = None,
        deleted: Dataset | None = None,
    ) -> WalRecord:
        """Log one update batch; returns the durable record.

        The record is on disk (flushed, and fsynced unless the log was
        opened with ``fsync=False``) before this returns — the caller
        may then mutate in-memory state knowing a crash replays the
        batch.
        """
        if inserted is None and deleted is None:
            raise WalError(
                "append() needs at least one of inserted= or deleted="
            )
        if self._next_seq is None:
            self.replay()
        assert self._next_seq is not None
        attributes = tuple(attributes)
        record = WalRecord(
            seq=self._next_seq,
            label=label,
            attributes=attributes,
            inserted=(
                _dataset_rows(inserted, attributes)
                if inserted is not None
                else None
            ),
            deleted=(
                _dataset_rows(deleted, attributes)
                if deleted is not None
                else None
            ),
        )
        payload = record.to_payload()
        frame = (
            _FRAME_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            + payload
        )
        with open(self._path, "ab") as handle:
            if handle.tell() == 0:
                handle.write(WAL_MAGIC)
            handle.write(frame)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        self._next_seq += 1
        return record

    # -- truncation -------------------------------------------------------------

    def truncate(self, through_seq: int | None = None) -> int:
        """Drop records up to ``through_seq`` (all, when ``None``).

        Called after a successful pack checkpoint: the checkpointed
        batches no longer need replaying.  The retained suffix is
        rewritten through :func:`repro.persist.atomic.atomic_open`, so a
        crash mid-truncate leaves the previous complete log intact.
        Returns the number of records dropped.
        """
        replay = self.replay()
        if through_seq is None:
            through_seq = replay.last_seq
        retained = [r for r in replay.records if r.seq > through_seq]
        dropped = len(replay.records) - len(retained)
        if dropped == 0:
            return 0
        with atomic_open(self._path, "wb") as handle:
            handle.write(WAL_MAGIC)
            for record in retained:
                payload = record.to_payload()
                handle.write(
                    _FRAME_HEADER.pack(
                        len(payload), zlib.crc32(payload) & 0xFFFFFFFF
                    )
                )
                handle.write(payload)
        # Sequence numbers keep climbing across a truncate within this
        # handle's lifetime; a reopened empty log restarts at 1.
        return dropped

    def __repr__(self) -> str:
        return f"WriteAheadLog({str(self._path)!r}, fsync={self._fsync})"
