"""repro.stream — WAL-logged streaming ingestion with zero-pause serving.

The streaming subsystem closes the loop between the paper's one-shot
label search and a live, updating relation:

* :mod:`repro.stream.wal` — durable, checksummed log of update batches;
  crash recovery replays it byte-identically.
* :mod:`repro.stream.ingest` — the WAL-first write path: maintain
  exactly, log, count (insert shards), publish atomically; background
  compaction folds shard tails off the reader path.
* :mod:`repro.stream.publish` — the single versioned copy-on-write
  publish path into a :class:`~repro.serve.store.LabelStore`.
* :mod:`repro.stream.drift` — drift checks on a fixed pattern panel
  and the budgeted background re-search trigger.

Configuration lives in :class:`~repro.api.registry.StreamConfig`; the
session entry point is :meth:`repro.api.session.LabelingSession.stream`.
"""

from repro.api.registry import StreamConfig
from repro.stream.drift import DriftMonitor, DriftStatus
from repro.stream.ingest import IngestStatus, StreamIngestor
from repro.stream.publish import LabelPublisher
from repro.stream.wal import (
    StreamError,
    WalError,
    WalRecord,
    WalReplay,
    WriteAheadLog,
)

__all__ = [
    "DriftMonitor",
    "DriftStatus",
    "IngestStatus",
    "LabelPublisher",
    "StreamConfig",
    "StreamError",
    "StreamIngestor",
    "WalError",
    "WalRecord",
    "WalReplay",
    "WriteAheadLog",
]
