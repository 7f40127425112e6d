"""Unit tests for :mod:`repro.core.sharding`."""

import gc
import weakref

import numpy as np
import pytest

from repro import Dataset, Pattern, PatternCounter, build_label
from repro.core.sharding import (
    ShardedPatternCounter,
    make_counter,
    merge_count_tables,
)
from repro.datasets import load_dataset


@pytest.fixture
def sharded(figure2):
    return ShardedPatternCounter.from_dataset(figure2, 3)


class TestConstruction:
    def test_requires_at_least_one_shard(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedPatternCounter([])

    def test_rejects_non_dataset_shards(self, figure2):
        with pytest.raises(TypeError, match="expected Dataset"):
            ShardedPatternCounter([figure2, "nope"])

    def test_rejects_mixed_schemas(self, figure2):
        other = Dataset.from_columns({"x": ["1", "2"]})
        with pytest.raises(ValueError, match="different schema"):
            ShardedPatternCounter([figure2, other])

    def test_from_dataset_partitions_all_rows(self, figure2):
        counter = ShardedPatternCounter.from_dataset(figure2, 4)
        assert counter.n_shards == 4
        assert counter.total_rows == figure2.n_rows
        assert sum(s.n_rows for s in counter.shards) == figure2.n_rows

    def test_more_shards_than_rows_allows_empty_shards(self, figure2):
        small = figure2.head(3)
        counter = ShardedPatternCounter.from_dataset(small, 7)
        assert counter.total_rows == 3
        reference = PatternCounter(small)
        pattern = Pattern({"gender": "Female"})
        assert counter.count(pattern) == reference.count(pattern)

    def test_invalid_shard_count(self, figure2):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedPatternCounter.from_dataset(figure2, 0)

    def test_is_counter_like(self, sharded, figure2):
        # One counter class serves every shard count.
        assert ShardedPatternCounter is PatternCounter
        assert make_counter(sharded) is sharded
        assert make_counter(figure2).n_shards == 1


class TestDatasetView:
    def test_basic_shape(self, sharded, figure2):
        view = sharded.dataset
        assert view.n_rows == len(view) == figure2.n_rows
        assert view.schema == figure2.schema
        assert view.attribute_names == figure2.attribute_names
        assert view.n_attributes == figure2.n_attributes
        assert not view.has_missing

    def test_rows_preserved_in_shard_order(self, sharded, figure2):
        view = sharded.dataset
        assert view.row(0) == figure2.row(0)
        assert view.row(figure2.n_rows - 1) == figure2.row(
            figure2.n_rows - 1
        )
        assert list(view.iter_rows()) == list(figure2.iter_rows())
        assert view.row(-1) == figure2.row(figure2.n_rows - 1)
        assert view.row(-figure2.n_rows) == figure2.row(0)
        for index in (figure2.n_rows, -figure2.n_rows - 1):
            with pytest.raises(IndexError, match="out of range"):
                view.row(index)

    def test_non_missing_mask_concatenates(self, sharded, figure2):
        np.testing.assert_array_equal(
            sharded.dataset.non_missing_mask(["gender"]),
            figure2.non_missing_mask(["gender"]),
        )

    def test_view_is_live_after_add_shard(self, figure2):
        counter = ShardedPatternCounter.from_dataset(figure2, 2)
        view = counter.dataset
        counter.add_shard(figure2.head(4))
        assert view.n_rows == figure2.n_rows + 4


class TestMergedAnswers:
    def test_joint_table_matches_and_is_cached(self, sharded, figure2):
        reference = PatternCounter(figure2)
        combos, counts = sharded.joint_table(["gender", "race"])
        ref_combos, ref_counts = reference.joint_table(["gender", "race"])
        assert np.array_equal(combos, ref_combos)
        assert np.array_equal(counts, ref_counts)
        again, _ = sharded.joint_table(["gender", "race"])
        assert again is combos  # cached object, no re-merge

    def test_counts_for_codes(self, sharded, figure2):
        reference = PatternCounter(figure2)
        combos = np.array([[0, 0], [1, 1], [0, 2]], dtype=np.int32)
        np.testing.assert_array_equal(
            sharded.counts_for_codes(["gender", "race"], combos),
            reference.counts_for_codes(["gender", "race"], combos),
        )

    def test_empty_batches_are_noops(self, sharded):
        assert list(sharded.count_many([])) == []
        assert sharded.joint_tables([]) == {}
        empty = sharded.counts_for_codes(
            ["gender"], np.empty((0, 1), dtype=np.int32)
        )
        assert empty.size == 0

    def test_fraction_and_value_count(self, sharded, figure2):
        reference = PatternCounter(figure2)
        assert sharded.value_count("gender", "Male") == reference.value_count(
            "gender", "Male"
        )
        assert sharded.fraction("race", "Hispanic") == pytest.approx(
            reference.fraction("race", "Hispanic")
        )

    def test_unknown_attribute_error_names_itself_and_the_known(
        self, sharded
    ):
        for method in (sharded.value_counts, sharded.fractions):
            with pytest.raises(KeyError) as info:
                method("zodiac")
            message = str(info.value)
            assert "'zodiac'" in message
            assert "known attributes" in message
            assert "gender" in message

    def test_pattern_codecs(self, sharded):
        pattern = sharded.pattern_from_codes(["gender", "race"], [0, 1])
        assert sharded.codes_from_pattern(pattern) == {
            "gender": 0,
            "race": 1,
        }
        with pytest.raises(ValueError, match="missing value"):
            sharded.pattern_from_codes(["gender"], [-1])


class TestShardLifecycle:
    def test_add_shard_matches_concat(self, figure2):
        counter = ShardedPatternCounter.from_dataset(figure2, 2)
        batch = figure2.head(5)
        counter.add_shard(batch)
        reference = PatternCounter(figure2.concat(batch))
        assert counter.total_rows == reference.total_rows
        for subset in (("gender",), ("gender", "race")):
            assert counter.label_size(subset) == reference.label_size(subset)
        label = build_label(counter, ("gender", "race"))
        assert label == build_label(reference, ("gender", "race"))

    def test_add_shard_rejects_schema_mismatch(self, sharded):
        with pytest.raises(ValueError, match="schema"):
            sharded.add_shard(Dataset.from_columns({"x": ["1"]}))

    def test_add_empty_shard_is_noop(self, figure2):
        counter = ShardedPatternCounter.from_dataset(figure2, 2)
        before = counter.n_shards
        counter.add_shard(figure2.head(0))
        assert counter.n_shards == before

    def test_add_shard_refreshes_merged_caches(self, figure2):
        counter = ShardedPatternCounter.from_dataset(figure2, 2)
        before = dict(counter.value_counts("gender"))
        counter.add_shard(figure2.filter_equals("gender", "Male"))
        after = counter.value_counts("gender")
        assert after["Male"] > before["Male"]
        assert after["Female"] == before["Female"]

    def test_counter_is_freed_without_the_cycle_collector(self, figure2):
        # Update paths replace their counter once per batch; a replaced
        # counter and its merged caches must go when the last reference
        # does, not wait for the cyclic garbage collector.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            counter = ShardedPatternCounter.from_dataset(figure2, 2)
            assert counter.dataset.n_rows == figure2.n_rows
            counter.value_counts("gender")
            ref = weakref.ref(counter)
            del counter
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestParallel:
    def test_parallel_joint_tables_match_serial(self):
        data = load_dataset("bluenile", n_rows=400, seed=1)
        serial = ShardedPatternCounter.from_dataset(data, 3)
        parallel = ShardedPatternCounter.from_dataset(
            data, 3, parallel=True, max_workers=2
        )
        sets = [data.attribute_names[:2], data.attribute_names[2:4]]
        serial_tables = serial.joint_tables(sets)
        parallel_tables = parallel.joint_tables(sets)
        assert serial_tables.keys() == parallel_tables.keys()
        for key in serial_tables:
            assert np.array_equal(
                serial_tables[key][0], parallel_tables[key][0]
            )
            assert np.array_equal(
                serial_tables[key][1], parallel_tables[key][1]
            )


class TestMergeCountTables:
    def test_merges_and_sorts(self):
        a = (np.array([[0, 1], [2, 0]], dtype=np.int32), np.array([2, 3]))
        b = (np.array([[2, 0], [1, 1]], dtype=np.int32), np.array([5, 1]))
        combos, counts = merge_count_tables([a, b], 2)
        assert combos.tolist() == [[0, 1], [1, 1], [2, 0]]
        assert counts.tolist() == [2, 1, 8]

    def test_empty_inputs(self):
        combos, counts = merge_count_tables([], 3)
        assert combos.shape == (0, 3)
        assert counts.size == 0
        empty_part = (
            np.empty((0, 2), dtype=np.int32),
            np.empty(0, dtype=np.int64),
        )
        combos, counts = merge_count_tables([empty_part, empty_part], 2)
        assert combos.shape == (0, 2)


class TestMakeCounter:
    def test_dataset_dispatch(self, figure2):
        assert isinstance(make_counter(figure2), PatternCounter)
        assert isinstance(
            make_counter(figure2, shards=2), ShardedPatternCounter
        )
        assert isinstance(make_counter(figure2, shards=1), PatternCounter)

    def test_counters_pass_through(self, figure2, sharded):
        plain = PatternCounter(figure2)
        assert make_counter(plain) is plain
        assert make_counter(sharded) is sharded
        assert make_counter(sharded, shards=9) is sharded  # already built

    def test_chunk_iterable_one_shard_per_chunk(self, figure2):
        chunks = [figure2.head(6), figure2.take(np.arange(6, 18))]
        counter = make_counter(iter(chunks))
        assert isinstance(counter, ShardedPatternCounter)
        assert counter.n_shards == 2
        assert counter.total_rows == figure2.n_rows

    def test_chunk_iterable_coalesced(self, figure2):
        chunks = [figure2.take(np.arange(i, i + 6)) for i in (0, 6, 12)]
        counter = make_counter(chunks, shards=2)
        assert counter.n_shards == 2
        assert counter.total_rows == figure2.n_rows
        collapsed = make_counter(chunks, shards=1)
        assert isinstance(collapsed, PatternCounter)
        assert collapsed.total_rows == figure2.n_rows

    def test_more_shards_than_chunks_resplits_by_rows(self, figure2):
        """A chunk stream coarser than the requested shard count is
        re-partitioned, not silently delivered with fewer shards."""
        chunks = [figure2]  # one chunk, e.g. a file smaller than chunk_rows
        counter = make_counter(chunks, shards=4)
        assert isinstance(counter, ShardedPatternCounter)
        assert counter.n_shards == 4
        assert counter.total_rows == figure2.n_rows
        reference = PatternCounter(figure2)
        assert counter.value_counts("gender") == reference.value_counts(
            "gender"
        )

    def test_bad_sources_rejected(self):
        with pytest.raises(ValueError, match="zero chunks"):
            make_counter([])
        with pytest.raises(TypeError, match="expected Dataset"):
            make_counter(["nope"])
        with pytest.raises(TypeError, match="cannot build a counter"):
            make_counter(42)
