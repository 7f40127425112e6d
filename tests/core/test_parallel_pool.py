"""Lifecycle tests for the persistent zero-copy worker pool.

The parallel path of :class:`~repro.core.sharding.ShardedPatternCounter`
is built on :class:`~repro.core.parallel.ShardWorkerPool`.  These tests
pin the lifecycle contracts rather than numeric parity (which lives in
``tests/property/test_shard_parity.py``):

* the pool is created lazily, reused across query batches, and clamped
  to the shard count;
* a single-shard counter never builds a pool at all (serial routing);
* a failing parallel batch retires the pool — executor shut down with
  cancelled futures, shared-memory exports unlinked — and the next
  query rebuilds a fresh one (the PR-3 leak regression);
* ``close()`` releases every shared-memory block.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import PatternCounter, ShardedPatternCounter
from repro.core.parallel import (
    PackShardRef,
    ShardWorkerPool,
    ShmShardRef,
    chunk_bounds,
)
from repro.core.workload import random_pattern_workload
from repro.datasets import load_dataset


@pytest.fixture(scope="module")
def data():
    return load_dataset("bluenile", n_rows=400, seed=3)


@pytest.fixture(scope="module")
def patterns(data):
    workload = random_pattern_workload(
        PatternCounter(data), 12, np.random.default_rng(3), min_arity=1, max_arity=3
    )
    return [workload.pattern(i) for i in range(len(workload))]


def _wait_for_no_children(timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return not multiprocessing.active_children()


# -- chunking -----------------------------------------------------------------


class TestChunkBounds:
    def test_partitions_exactly(self):
        bounds = chunk_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        assert sum(stop - start for start, stop in bounds) == 10

    def test_never_produces_empty_chunks(self):
        assert chunk_bounds(2, 5) == [(0, 1), (1, 2)]
        assert chunk_bounds(1, 4) == [(0, 1)]

    def test_zero_items(self):
        assert chunk_bounds(0, 3) == []

    def test_single_chunk(self):
        assert chunk_bounds(7, 1) == [(0, 7)]


# -- pool construction --------------------------------------------------------


class TestPoolConstruction:
    def test_rejects_single_shard(self, data):
        with pytest.raises(ValueError, match="at least 2 shards"):
            ShardWorkerPool([PatternCounter(data)], data.schema)

    def test_max_workers_clamped_to_shard_count(self, data):
        sharded = ShardedPatternCounter.from_dataset(data, 3)
        pool = ShardWorkerPool(
            list(sharded.sources), data.schema, max_workers=64
        )
        try:
            assert pool.max_workers == 3
            assert not pool.started  # construction alone spawns nothing
        finally:
            pool.close()

    def test_max_workers_floor_is_one(self, data):
        sharded = ShardedPatternCounter.from_dataset(data, 2)
        pool = ShardWorkerPool(
            list(sharded.sources), data.schema, max_workers=0
        )
        try:
            assert pool.max_workers == 1
        finally:
            pool.close()

    def test_in_memory_shards_export_shared_blocks(self, data):
        sharded = ShardedPatternCounter.from_dataset(data, 2)
        pool = ShardWorkerPool(list(sharded.sources), data.schema)
        names = [
            ref.name for ref in pool._refs if isinstance(ref, ShmShardRef)
        ]
        assert len(names) == 2
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent(self, data):
        sharded = ShardedPatternCounter.from_dataset(data, 2)
        pool = ShardWorkerPool(list(sharded.sources), data.schema)
        pool.close()
        pool.close()

    def test_chunk_count_targets_a_few_tasks_per_worker(self, data):
        sharded = ShardedPatternCounter.from_dataset(data, 2)
        pool = ShardWorkerPool(
            list(sharded.sources), data.schema, max_workers=2
        )
        try:
            assert pool.chunk_count(1) == 1
            assert pool.chunk_count(100) == 4  # 4*2 workers / 2 shards
            assert pool.chunk_count(3) <= 3
        finally:
            pool.close()


# -- serial routing (K = 1) ---------------------------------------------------


class TestSerialRouting:
    def test_single_shard_never_builds_a_pool(self, data, patterns):
        counter = ShardedPatternCounter.from_dataset(data, 1, parallel=True)
        reference = PatternCounter(data)
        assert list(counter.count_many(patterns)) == list(
            reference.count_many(patterns)
        )
        subset = data.attribute_names[:2]
        assert counter.label_size(subset) == reference.label_size(subset)
        combos, counts = counter.joint_table(subset)
        ref_combos, ref_counts = reference.joint_table(subset)
        assert np.array_equal(combos, ref_combos)
        assert np.array_equal(counts, ref_counts)
        assert counter._pool is None  # satellite pin: K=1 stays serial

    def test_serial_counter_close_is_safe(self, data):
        counter = ShardedPatternCounter.from_dataset(data, 1, parallel=True)
        counter.close()
        assert counter._pool is None


# -- pool lifecycle on the sharded counter ------------------------------------


@pytest.mark.parallel
class TestPoolLifecycle:
    def test_pool_is_persistent_across_query_batches(self, data, patterns):
        with ShardedPatternCounter.from_dataset(
            data, 3, parallel=True, max_workers=2
        ) as counter:
            reference = PatternCounter(data)
            assert counter._pool is None  # lazy: nothing spawned yet
            assert list(counter.count_many(patterns)) == list(
                reference.count_many(patterns)
            )
            pool = counter._pool
            assert pool is not None and pool.started
            # Subsequent batches (and other query families) reuse it.
            subset = data.attribute_names[:2]
            counter.joint_table(subset)
            assert counter.label_size(subset) == reference.label_size(
                subset
            )
            assert counter._pool is pool
        assert counter._pool is None
        assert _wait_for_no_children()

    def test_failed_batch_retires_pool_without_orphans(self, data, patterns):
        counter = ShardedPatternCounter.from_dataset(
            data, 3, parallel=True, max_workers=2
        )
        try:
            counter.count_many(patterns)
            pool = counter._pool
            assert pool is not None and pool.started
            blocks = list(pool._blocks)
            # An unknown task method fails inside the workers; the
            # counter's finally must retire the pool entirely.
            with pytest.raises(ValueError, match="unknown shard task"):
                counter._run_parallel([(0, "no_such_method", None)])
            assert counter._pool is None
            assert pool._executor is None  # shut down, futures cancelled
            assert pool._blocks == []  # shared memory unlinked
            for block in blocks:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=block.name)
            assert _wait_for_no_children()  # the leak regression
            # The next uncached parallel query builds a fresh pool.
            # (A repeat of the warmed batch would be answered from the
            # merged key-table cache without touching workers.)
            reference = PatternCounter(data)
            subset = data.attribute_names[:2]
            combos, counts = counter.joint_table(subset)
            ref_combos, ref_counts = reference.joint_table(subset)
            assert np.array_equal(combos, ref_combos)
            assert np.array_equal(counts, ref_counts)
            assert counter._pool is not None and counter._pool is not pool
        finally:
            counter.close()
        assert _wait_for_no_children()

    def test_pool_survives_repeat_use_after_close(self, data, patterns):
        counter = ShardedPatternCounter.from_dataset(
            data, 2, parallel=True, max_workers=2
        )
        reference = PatternCounter(data)
        expected = list(reference.count_many(patterns))
        assert list(counter.count_many(patterns)) == expected
        counter.close()
        assert counter._pool is None
        # A closed counter stays usable: cached answers need no pool,
        # and the next *uncached* query builds a fresh one.
        assert list(counter.count_many(patterns)) == expected
        assert counter._pool is None  # served from merged caches
        subset = data.attribute_names[:2]
        ref_combos, ref_counts = reference.joint_table(subset)
        combos, counts = counter.joint_table(subset)
        assert np.array_equal(combos, ref_combos)
        assert np.array_equal(counts, ref_counts)
        assert counter._pool is not None
        counter.close()
        assert _wait_for_no_children()

    def test_unknown_method_raises_from_pool(self, data):
        sharded = ShardedPatternCounter.from_dataset(data, 2)
        pool = ShardWorkerPool(
            list(sharded.sources), data.schema, max_workers=1
        )
        try:
            with pytest.raises(ValueError, match="unknown shard task"):
                pool.run_shard_tasks([(0, "bogus", None)])
        finally:
            pool.close()
        assert _wait_for_no_children()


# -- pack-backed refs ---------------------------------------------------------


class TestPackBackedRefs:
    def test_pack_counters_ship_references_not_blocks(self, data, tmp_path):
        from repro import write_pack

        base = ShardedPatternCounter.from_dataset(data, 3)
        pack_dir = write_pack(tmp_path / "pack", base)
        reopened = ShardedPatternCounter.from_pack(pack_dir)
        pool = ShardWorkerPool(
            list(reopened.sources), reopened.schema
        )
        try:
            assert all(
                isinstance(ref, PackShardRef) for ref in pool._refs
            )
            assert [ref.index for ref in pool._refs] == [0, 1, 2]
            assert pool._blocks == []  # nothing copied: packs are shared
        finally:
            pool.close()
