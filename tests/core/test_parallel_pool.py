"""Lifecycle tests for the thread pool behind ``parallel=True``.

A multi-shard :class:`~repro.core.counts.PatternCounter` built with
``parallel=True`` runs its per-shard calls on a
:class:`concurrent.futures.ThreadPoolExecutor` it owns.  These tests pin
the lifecycle contracts rather than numeric parity (which lives in
``tests/property/test_shard_parity.py``):

* the pool is created on the first parallel query and reused after;
* it has ``min(max_workers, K)`` threads, with a floor of 1;
* a single-shard counter never creates one;
* ``close()`` is idempotent and the counter keeps answering after it;
* an exception raised in one source's call reaches the caller, and the
  next query still answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PatternCounter, ShardedPatternCounter
from repro.core.counts import RowSource
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


def _assert_joint_table_matches(counter, data) -> None:
    subset = data.attribute_names[:2]
    combos, counts = counter.joint_table(subset)
    ref_combos, ref_counts = PatternCounter(data).joint_table(subset)
    assert np.array_equal(combos, ref_combos)
    assert np.array_equal(counts, ref_counts)


# -- pool size ------------------------------------------------------------------


class TestPoolConstruction:
    def test_max_workers_clamped_to_shard_count(self, data, patterns):
        with ShardedPatternCounter.from_dataset(
            data, 3, parallel=True, max_workers=64
        ) as counter:
            counter.count_many(patterns)
            assert counter._executor._max_workers == 3

    def test_max_workers_floor_is_one(self, data, patterns):
        with ShardedPatternCounter.from_dataset(
            data, 2, parallel=True, max_workers=0
        ) as counter:
            counter.count_many(patterns)
            assert counter._executor._max_workers == 1

    def test_close_is_idempotent(self, data, patterns):
        counter = ShardedPatternCounter.from_dataset(data, 2, parallel=True)
        counter.count_many(patterns)
        counter.close()
        counter.close()
        assert counter._executor is None


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
        _assert_joint_table_matches(counter, data)
        assert counter._executor is None  # K=1 stays serial

    def test_serial_counter_close_is_safe(self, data):
        counter = ShardedPatternCounter.from_dataset(data, 1, parallel=True)
        counter.close()
        assert counter._executor is None


# -- pool lifecycle on the sharded counter ------------------------------------


class _FailOnceSource(RowSource):
    """A row source whose first ``joint_table`` call raises."""

    def __init__(self, dataset) -> None:
        super().__init__(dataset)
        self.failures_left = 1

    def joint_table(self, attributes):
        if self.failures_left:
            self.failures_left -= 1
            raise RuntimeError("shard read failed")
        return super().joint_table(attributes)


class TestPoolLifecycle:
    def test_pool_is_persistent_across_query_batches(self, data, patterns):
        with ShardedPatternCounter.from_dataset(
            data, 3, parallel=True, max_workers=2
        ) as counter:
            reference = PatternCounter(data)
            assert counter._executor is None  # lazy: nothing started yet
            assert list(counter.count_many(patterns)) == list(
                reference.count_many(patterns)
            )
            executor = counter._executor
            assert executor is not None
            # Subsequent batches (and other query families) reuse it.
            subset = data.attribute_names[:2]
            counter.joint_table(subset)
            assert counter.label_size(subset) == reference.label_size(
                subset
            )
            assert counter._executor is executor
        assert counter._executor is None

    def test_source_error_reaches_the_caller(self, data):
        shards = PatternCounter.from_dataset(data, 3).shards
        failing = _FailOnceSource(shards[1])
        with PatternCounter(
            [shards[0], failing, shards[2]], parallel=True, max_workers=2
        ) as counter:
            with pytest.raises(RuntimeError, match="shard read failed"):
                counter.joint_table(data.attribute_names[:2])
            assert failing.failures_left == 0
            # The next query retries the same per-source builds and
            # answers exactly.
            _assert_joint_table_matches(counter, data)

    def test_unknown_method_raises_from_pool(self, data, patterns):
        with ShardedPatternCounter.from_dataset(
            data, 2, parallel=True, max_workers=1
        ) as counter:
            with pytest.raises(AttributeError, match="no_such_method"):
                counter._per_source("no_such_method", [()])
            reference = PatternCounter(data)
            assert list(counter.count_many(patterns)) == list(
                reference.count_many(patterns)
            )

    def test_pool_survives_repeat_use_after_close(self, data, patterns):
        counter = ShardedPatternCounter.from_dataset(
            data, 2, parallel=True, max_workers=2
        )
        reference = PatternCounter(data)
        expected = list(reference.count_many(patterns))
        assert list(counter.count_many(patterns)) == expected
        counter.close()
        assert counter._executor is None
        # A closed counter stays usable: cached answers need no pool,
        # and the next *uncached* query starts a fresh one.
        assert list(counter.count_many(patterns)) == expected
        assert counter._executor is None  # served from merged caches
        _assert_joint_table_matches(counter, data)
        assert counter._executor is not None
        counter.close()
