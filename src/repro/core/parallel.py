"""Zero-copy worker pool for the sharded counting backend.

The first parallel path (PR 3) pickled whole shard datasets into a
fresh ``ProcessPoolExecutor`` per query batch — at bench scale the
fan-out cost more than the work it fanned out.  This module replaces it
with workers that never receive data, only *references*:

* **pack-backed shards** ship a :class:`PackShardRef` — a pack
  directory plus shard index.  Each worker process reopens the pack
  with ``verify="skip"`` (the parent verified the shard checksums once,
  when the pool was built) and memory-maps the shard read-only: the OS
  page cache makes the mapping shared across every worker for free.
  *The packs are the shared memory.*
* **in-memory shards** with no pack behind them are exported **once**
  into :mod:`multiprocessing.shared_memory` blocks (:class:`ShmShardRef`)
  that workers map as read-only code matrices — again one physical copy,
  shared by all workers for the lifetime of the pool.

The pool itself (:class:`ShardWorkerPool`) is persistent: spawned
lazily on the first parallel query of a multi-shard
:class:`~repro.core.counts.PatternCounter`, reused across
``count_many``/``joint_tables``/``label_size_many``/fit, and shut down
via ``close()`` (or the owning counter's context manager).  Workers
keep per-process row sources, so repeat queries against the same
attribute sets are served from warm per-shard tables exactly as in the
serial path.  A crashed worker (``BrokenProcessPool``) retires the
executor with ``shutdown(wait=False, cancel_futures=True)`` and the
task batch is retried once on a fresh pool before the error propagates.

Task granularity is *chunked*: a batch of work items over K shards is
split into M chunks so that ``K x M`` tasks keep every worker busy (see
:func:`chunk_bounds`), instead of exactly K tasks whose slowest shard
gates the batch.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.counts import RowSource
from repro.dataset.schema import Schema
from repro.dataset.table import Dataset

__all__ = [
    "PackShardRef",
    "ShmShardRef",
    "ShardWorkerPool",
    "chunk_bounds",
]


@dataclass(frozen=True)
class PackShardRef:
    """One shard of an on-disk pack: directory path + shard index."""

    path: str
    index: int


@dataclass(frozen=True)
class ShmShardRef:
    """One shard exported to a named shared-memory block."""

    name: str
    rows: int
    columns: int
    dtype: str


def chunk_bounds(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``n_items`` into up to ``n_chunks`` contiguous ranges."""
    n_chunks = max(1, min(int(n_chunks), n_items)) if n_items else 0
    if not n_chunks:
        return []
    boundaries = np.linspace(0, n_items, n_chunks + 1, dtype=np.int64)
    return [
        (int(boundaries[i]), int(boundaries[i + 1]))
        for i in range(n_chunks)
        if boundaries[i] < boundaries[i + 1]
    ]


# -- worker side --------------------------------------------------------------
#
# One module-level state object per worker process, installed by the
# pool initializer.  Row sources are resolved lazily: a worker only
# opens (and the OS only pages in) the shards its tasks actually touch.

_WORKER_STATE: "_WorkerState | None" = None


class _WorkerState:
    def __init__(
        self, schema: Schema, refs: Sequence[PackShardRef | ShmShardRef]
    ) -> None:
        self.schema = schema
        self.refs = tuple(refs)
        self.sources: dict[int, RowSource] = {}
        self.readers: dict[str, Any] = {}
        self.blocks: list[Any] = []  # keep attached shm blocks alive


def _init_worker(
    schema: Schema, refs: Sequence[PackShardRef | ShmShardRef]
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(schema, refs)


def _attach_shared_block(ref: ShmShardRef):
    # Attaching would register the block with the resource tracker
    # (bpo-38119), which then unlinks it when any worker exits —
    # destroying memory the parent still owns — and under the fork
    # start method several workers sharing one tracker would race each
    # other's unregisters.  Only the parent may own cleanup, so the
    # register call is suppressed for the duration of the attach
    # (Python 3.13's ``track=False`` made this official; workers are
    # single-threaded, so the swap is not racy).
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register

    def _untracked_register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - not hit here
            original_register(name, rtype)

    resource_tracker.register = _untracked_register
    try:
        return shared_memory.SharedMemory(name=ref.name)
    finally:
        resource_tracker.register = original_register


def _resolve_source(shard_index: int) -> RowSource:
    state = _WORKER_STATE
    assert state is not None, "worker used before initialization"
    source = state.sources.get(shard_index)
    if source is not None:
        return source
    ref = state.refs[shard_index]
    if isinstance(ref, PackShardRef):
        reader = state.readers.get(ref.path)
        if reader is None:
            from repro.persist.pack import open_pack

            # The parent checksummed every referenced shard file when it
            # built the pool; workers trust that verification.
            reader = open_pack(ref.path, verify="skip")
            state.readers[ref.path] = reader
        source = reader.shard_source(ref.index)
    elif isinstance(ref, ShmShardRef):
        block = _attach_shared_block(ref)
        state.blocks.append(block)
        codes = np.ndarray(
            (ref.rows, ref.columns), dtype=np.dtype(ref.dtype), buffer=block.buf
        )
        source = RowSource(Dataset(state.schema, codes, copy=False))
    else:  # pragma: no cover - refs are built by the pool
        raise TypeError(f"unknown shard reference {type(ref).__name__}")
    state.sources[shard_index] = source
    return source


#: The :class:`~repro.core.counts.RowSource` methods a task may run.
#: ``count_runs`` is the mask fallback of range counting: its code runs
#: are plain ints, so the payload pickles without touching shard data.
_SHARD_TASKS = frozenset(
    {"joint_table", "key_table", "distinct_keys", "count_runs"}
)


def _run_shard_task(shard_index: int, method: str, payload: Any) -> Any:
    """Run ``source.method(*args)`` for each ``args`` in one chunk."""
    if method not in _SHARD_TASKS:
        raise ValueError(f"unknown shard task {method!r}")
    call = getattr(_resolve_source(shard_index), method)
    return [call(*args) for args in payload]


# -- parent side --------------------------------------------------------------


def _export_shared(source: RowSource):
    """Copy one in-memory shard's code matrix into a shared block."""
    from multiprocessing import shared_memory

    codes = np.ascontiguousarray(source.dataset.codes_matrix())
    block = shared_memory.SharedMemory(
        create=True, size=max(1, codes.nbytes)
    )
    view = np.ndarray(codes.shape, dtype=codes.dtype, buffer=block.buf)
    view[:] = codes
    ref = ShmShardRef(
        name=block.name,
        rows=int(codes.shape[0]),
        columns=int(codes.shape[1]),
        dtype=codes.dtype.str,
    )
    return block, ref


class ShardWorkerPool:
    """A persistent process pool over zero-copy shard references.

    Parameters
    ----------
    sources:
        The row sources of the owning counter, in shard order.
        Pack-backed sources contribute a :class:`PackShardRef` (their
        shard file's checksum is verified parent-side, once, right
        here); in-memory sources are exported to shared memory.
    schema:
        The shared shard schema, sent to each worker once via the pool
        initializer (never re-pickled per task).
    max_workers:
        Pool size; clamped to the shard count (more workers than shards
        would idle — chunking multiplies *tasks*, not shards a worker
        can be exclusively useful for) and to ``os.cpu_count()`` by
        default.
    """

    def __init__(
        self,
        sources: Sequence[RowSource],
        schema: Schema,
        *,
        max_workers: int | None = None,
    ) -> None:
        n_shards = len(sources)
        if n_shards < 2:
            raise ValueError(
                "a worker pool needs at least 2 shards; route single-"
                "shard counters through the serial path"
            )
        cpu = os.cpu_count() or 1
        requested = max_workers if max_workers is not None else cpu
        self.max_workers = max(1, min(int(requested), n_shards))
        self._schema = schema
        self._blocks: list[Any] = []
        refs: list[PackShardRef | ShmShardRef] = []
        try:
            for source in sources:
                pack_ref = source.pack_shard_ref
                if pack_ref is not None:
                    # Verify the shard file's checksum in the parent —
                    # exactly once per file — so every worker can open
                    # the pack with verify="skip".
                    source.ensure_verified()
                    refs.append(pack_ref)
                else:
                    block, ref = _export_shared(source)
                    self._blocks.append(block)
                    refs.append(ref)
        except BaseException:
            self._release_blocks()
            raise
        self._refs = tuple(refs)
        self._executor: ProcessPoolExecutor | None = None

    @property
    def n_shards(self) -> int:
        return len(self._refs)

    @property
    def started(self) -> bool:
        """True once worker processes have actually been spawned."""
        return self._executor is not None

    def _get_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(self._schema, self._refs),
            )
        return self._executor

    def chunk_count(self, n_items: int) -> int:
        """How many chunks to split an ``n_items`` batch into.

        Targets a few tasks per worker (K shards x M chunks >> pool
        size) so a slow shard or an uneven batch cannot leave workers
        idle, without shattering the batch into per-item dispatch.
        """
        if n_items <= 1:
            return 1
        target_tasks = 4 * self.max_workers
        return max(1, min(n_items, -(-target_tasks // self.n_shards)))

    def run_shard_tasks(
        self, tasks: Sequence[tuple[int, str, Any]]
    ) -> list[Any]:
        """Run ``(shard_index, method, payload)`` tasks; results align.

        On a crashed worker the executor is retired (``shutdown`` with
        ``cancel_futures``) and the whole batch retried once on a fresh
        pool — per-worker caches are lost, correctness is not.  Any
        other failure cancels the batch's outstanding futures and
        propagates; the owning counter retires the pool in its
        ``finally`` (see ``PatternCounter._run_parallel``).
        """
        last_error: BaseException | None = None
        for attempt in range(2):
            executor = self._get_executor()
            futures: list[Future] = []
            try:
                futures = [
                    executor.submit(_run_shard_task, *task) for task in tasks
                ]
                return [future.result() for future in futures]
            except BrokenProcessPool as exc:
                last_error = exc
                self._retire_executor()
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        assert last_error is not None
        raise last_error

    def _retire_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _release_blocks(self) -> None:
        for block in self._blocks:
            try:
                block.close()
                block.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
        self._blocks = []

    def close(self) -> None:
        """Retire the workers and release the shared-memory exports.

        Idempotent; the pool is unusable afterwards (the owning counter
        builds a fresh one if another parallel query arrives).
        """
        self._retire_executor()
        self._release_blocks()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
