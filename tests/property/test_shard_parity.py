"""Parity properties of the sharded counting backend.

``ShardedPatternCounter`` answers by merging per-shard count tables;
the merge is exact because every quantity it serves is additive (counts,
joint tables, value counts) or union-stable (distinct-combination label
sizes).  These properties pin that claim against the single
``PatternCounter``, the executable specification: for random relations
(with and without missing values), every shard count in {1, 2, 3, 7},
and every dataset generator in ``repro.datasets``, the sharded answers
must be *identical* — not merely close.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    Pattern,
    PatternCounter,
    ShardedPatternCounter,
    build_label,
    top_down_search,
)
from repro.core.pattern import Predicate
from repro.core.workload import (
    random_mixed_workload,
    random_pattern_workload,
)
from repro.datasets import load_dataset

from tests.property.test_batch_parity import (
    _brute_count,
    datasets,
    mixed_workloads,
    workloads,
)

SHARD_COUNTS = (1, 2, 3, 7)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sharded(data: Dataset, k: int) -> ShardedPatternCounter:
    return ShardedPatternCounter.from_dataset(data, k)


def _subsets_of(draw, data: Dataset):
    names = list(data.attribute_names)
    k = draw(st.integers(1, len(names)))
    return tuple(
        draw(
            st.lists(
                st.sampled_from(names), min_size=k, max_size=k, unique=True
            )
        )
    )


@SETTINGS
@given(st.data(), st.booleans())
def test_counts_match_single_counter(data_strategy, allow_missing):
    data = data_strategy.draw(datasets(allow_missing=allow_missing))
    patterns = data_strategy.draw(workloads(data))
    single = PatternCounter(data)
    expected = list(single.count_many(patterns))
    for k in SHARD_COUNTS:
        sharded = _sharded(data, k)
        assert list(sharded.count_many(patterns)) == expected, k
        # Scalar path agrees too.
        assert [sharded.count(p) for p in patterns[:4]] == [
            single.count(p) for p in patterns[:4]
        ], k
        # Repeat batches (promoted per-shard key tables) stay equal.
        assert list(sharded.count_many(patterns)) == expected, k


@SETTINGS
@given(st.data(), st.booleans())
def test_joint_tables_match_single_counter(data_strategy, allow_missing):
    data = data_strategy.draw(datasets(allow_missing=allow_missing))
    subset = _subsets_of(data_strategy.draw, data)
    single = PatternCounter(data)
    combos, counts = single.joint_table(subset)
    for k in SHARD_COUNTS:
        sharded_combos, sharded_counts = _sharded(data, k).joint_table(
            subset
        )
        # Identical content *and* identical (lexicographic) order: a
        # merged table is indistinguishable from a monolithic one.
        assert np.array_equal(combos, sharded_combos), k
        assert np.array_equal(counts, sharded_counts), k


@SETTINGS
@given(st.data(), st.booleans())
def test_value_counts_and_label_sizes_match(data_strategy, allow_missing):
    data = data_strategy.draw(datasets(allow_missing=allow_missing))
    subset = _subsets_of(data_strategy.draw, data)
    single = PatternCounter(data)
    for k in SHARD_COUNTS:
        sharded = _sharded(data, k)
        for attribute in data.attribute_names:
            assert sharded.value_counts(attribute) == single.value_counts(
                attribute
            ), (k, attribute)
            np.testing.assert_array_equal(
                sharded.fractions(attribute), single.fractions(attribute)
            )
        assert sharded.label_size(subset) == single.label_size(subset), k
        full = single.distinct_full_rows()
        sharded_full = sharded.distinct_full_rows()
        assert np.array_equal(full[0], sharded_full[0]), k
        assert np.array_equal(full[1], sharded_full[1]), k


@SETTINGS
@given(st.data(), st.booleans())
def test_built_labels_match(data_strategy, allow_missing):
    """Label construction through a sharded counter is byte-identical."""
    data = data_strategy.draw(datasets(allow_missing=allow_missing))
    subset = _subsets_of(data_strategy.draw, data)
    reference = build_label(PatternCounter(data), subset)
    for k in SHARD_COUNTS:
        label = build_label(_sharded(data, k), subset)
        assert label == reference, k
        assert label.to_json() == reference.to_json(), k


@SETTINGS
@given(st.data())
def test_add_shard_equals_concat(data_strategy):
    """The incremental path: appending a shard == recounting the union."""
    data = data_strategy.draw(datasets())
    n_extra = data_strategy.draw(st.integers(0, 8))
    rows = [
        tuple(
            data_strategy.draw(
                st.sampled_from(list(data.schema[a].categories))
            )
            for a in data.attribute_names
        )
        for _ in range(n_extra)
    ]
    aligned = Dataset.from_rows(
        data.attribute_names,
        rows,
        domains={
            a: data.schema[a].categories for a in data.attribute_names
        },
    )
    sharded = ShardedPatternCounter.from_dataset(data, 2)
    sharded.add_shard(aligned)
    reference = PatternCounter(data.concat(aligned))
    patterns = data_strategy.draw(workloads(data))
    assert list(sharded.count_many(patterns)) == list(
        reference.count_many(patterns)
    )
    subset = _subsets_of(data_strategy.draw, data)
    assert sharded.label_size(subset) == reference.label_size(subset)
    for attribute in data.attribute_names:
        assert sharded.value_counts(attribute) == reference.value_counts(
            attribute
        )


#: Wider than the domains whose row bitsets a source caches, so a
#: binding on this column packs its mask per query.
WIDE_CARDINALITY = 40


def _with_wide_column(data_strategy, data: Dataset, allow_missing: bool):
    """``data`` plus a column ``W`` of cardinality ``WIDE_CARDINALITY``
    (zero-padded values, so its ``repr`` order is its value order)."""
    domain = tuple(f"w{j:02d}" for j in range(WIDE_CARDINALITY))
    values = data_strategy.draw(
        st.lists(
            st.sampled_from(list(domain) + ([None] if allow_missing else [])),
            min_size=data.n_rows,
            max_size=data.n_rows,
        )
    )
    return data.with_column("W", values, domain=domain)


@SETTINGS
@given(st.data(), st.booleans(), st.booleans())
def test_mixed_range_counts_match_single_counter(
    data_strategy, allow_missing, wide
):
    """Mixed equality/range workloads: sharded == single == brute force,
    through the batch kernel and the bitset path alike — with a column
    too wide for cached bitsets when ``wide``."""
    data = data_strategy.draw(datasets(allow_missing=allow_missing))
    if wide:
        data = _with_wide_column(data_strategy, data, allow_missing)
    patterns = data_strategy.draw(mixed_workloads(data))
    if wide:
        patterns += [
            Pattern({"W": "w03"}),
            Pattern({"W": Predicate(">=", "w30"), "A0": "v0"}),
        ]
    brute = [_brute_count(data, p) for p in patterns]
    single = PatternCounter(data)
    assert list(single.count_many(patterns)) == brute
    for k in SHARD_COUNTS:
        sharded = _sharded(data, k)
        assert list(sharded.count_many(patterns)) == brute, k
        # Repeat batch: merged key tables and cumsums stay identical.
        assert list(sharded.count_many(patterns)) == brute, k
        assert [sharded.count(p) for p in patterns] == brute, k


# -- parity across parallel execution modes -------------------------------------

PARALLEL_MODES = ("serial", "pool", "pack")


def _mode_counter(mode, data, k, tmp_path):
    """Build a K-shard counter in one of the three execution modes."""
    if mode == "serial":
        return ShardedPatternCounter.from_dataset(data, k)
    if mode == "pool":
        return ShardedPatternCounter.from_dataset(
            data, k, parallel=True, max_workers=2
        )
    from repro import write_pack

    pack_dir = write_pack(
        tmp_path / f"pack{k}", ShardedPatternCounter.from_dataset(data, k)
    )
    return ShardedPatternCounter.from_pack(
        pack_dir, parallel=True, max_workers=2
    )


@pytest.mark.parametrize("k", (1, 2, 4))
@pytest.mark.parametrize("mode", PARALLEL_MODES)
def test_parallel_mode_parity(tmp_path, mode, k):
    """Serial, thread-pool, and pack-backed thread-pool counters agree
    byte for byte.

    The parallel fan-out must be invisible: identical ``count_many``
    vectors, identical joint tables, and labels whose JSON renderings
    match the single-counter reference exactly, for every shard count
    including the K=1 serial-routed case.
    """
    data = load_dataset("bluenile", n_rows=300, seed=7)
    single = PatternCounter(data)
    rng = np.random.default_rng(7)
    workload = random_pattern_workload(
        single, 25, rng, min_arity=1, max_arity=3
    )
    patterns = [workload.pattern(i) for i in range(len(workload))]
    expected_counts = list(single.count_many(patterns))
    subset = data.attribute_names[:2]
    reference = build_label(single, subset)

    with _mode_counter(mode, data, k, tmp_path) as counter:
        assert list(counter.count_many(patterns)) == expected_counts
        # Repeat batch: warmed (promoted) key tables answer identically.
        assert list(counter.count_many(patterns)) == expected_counts
        combos, counts = single.joint_table(subset)
        got_combos, got_counts = counter.joint_table(subset)
        assert np.array_equal(combos, got_combos)
        assert np.array_equal(counts, got_counts)
        label = build_label(counter, subset)
        assert label == reference
        assert label.to_json() == reference.to_json()
        if k == 1:
            assert counter._executor is None  # K=1 routes serial
        elif mode != "serial":
            assert counter._executor is not None


@pytest.mark.parametrize("k", (1, 2, 4))
@pytest.mark.parametrize("mode", PARALLEL_MODES)
def test_parallel_mode_parity_mixed_ranges(tmp_path, mode, k):
    """Range predicates answer byte for byte in every execution mode.

    A 50/50 equality/range workload must come back identical from the
    serial path, the thread pool, and the pack-backed thread pool.
    """
    data = load_dataset("bluenile", n_rows=300, seed=7)
    single = PatternCounter(data)
    rng = np.random.default_rng(11)
    workload = random_mixed_workload(
        single, 25, rng, min_arity=1, max_arity=3, range_share=0.5
    )
    patterns = [workload.pattern(i) for i in range(len(workload))]
    assert any(p.has_ranges for p in patterns)
    expected = [_brute_count(data, p) for p in patterns]
    assert list(single.count_many(patterns)) == expected

    with _mode_counter(mode, data, k, tmp_path) as counter:
        assert list(counter.count_many(patterns)) == expected
        # Repeat batch: warmed key tables and cumsums answer identically.
        assert list(counter.count_many(patterns)) == expected
        assert [counter.count(p) for p in patterns[:5]] == expected[:5]


def test_range_counts_survive_radix_overflow_pool(tmp_path):
    """The per-shard ``count_runs`` fallback runs on the pool on radix
    overflow.

    A pattern binding eight attributes of cardinality 256 pushes the
    Horner radix to 2**64, so no merged key table exists for that set
    and its code runs must fan out to the per-shard pool tasks.
    """
    rng = np.random.default_rng(13)
    names = [f"A{i}" for i in range(8)]
    domains = {n: tuple(f"{v:03d}" for v in range(256)) for n in names}
    columns = {
        n: [f"{v:03d}" for v in rng.integers(0, 4, size=64)]
        for n in names
    }
    data = Dataset.from_columns(columns, domains=domains)
    single = PatternCounter(data)
    wide_spec = {n: Predicate(">=", "001") for n in names}
    patterns = [
        Pattern(wide_spec),
        Pattern({**wide_spec, "A0": "002", "A1": Predicate("<", "003")}),
        Pattern({"A3": Predicate(">", "000"), "A4": Predicate("<=", "002")}),
    ]
    expected = [_brute_count(data, p) for p in patterns]
    assert [single.count(p) for p in patterns] == expected
    assert list(single.count_many(patterns)) == expected

    with ShardedPatternCounter.from_dataset(
        data, 2, parallel=True, max_workers=2
    ) as sharded:
        assert list(sharded.count_many(patterns)) == expected
        assert list(sharded.count_many(patterns)) == expected
        # The premise of this test: the 8-attribute radix genuinely
        # overflows, so the wide patterns had no merged key table and
        # took the per-shard pool path.
        overflow_sets = [
            attrs
            for attrs, table in sharded._key_tables.items()
            if table is None
        ]
        assert overflow_sets, "expected a radix-overflow attribute set"
        assert sharded._executor is not None


# -- parity on every shipped dataset generator ----------------------------------

GENERATORS = ("bluenile", "compas", "creditcard")


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("k", (2, 3))
def test_generator_parity(name, k):
    """Acceptance: sharded == single on every ``repro.datasets`` generator."""
    data = load_dataset(name, n_rows=600, seed=5)
    single = PatternCounter(data)
    sharded = ShardedPatternCounter.from_dataset(data, k)

    rng = np.random.default_rng(5)
    workload = random_pattern_workload(
        PatternCounter(data), 40, rng, min_arity=1, max_arity=3
    )
    patterns = [workload.pattern(i) for i in range(len(workload))]
    assert list(sharded.count_many(patterns)) == list(
        single.count_many(patterns)
    )

    subset = data.attribute_names[:2]
    assert sharded.label_size(subset) == single.label_size(subset)
    combos, counts = single.joint_table(subset)
    sharded_combos, sharded_counts = sharded.joint_table(subset)
    assert np.array_equal(combos, sharded_combos)
    assert np.array_equal(counts, sharded_counts)
    for attribute in data.attribute_names:
        assert sharded.value_counts(attribute) == single.value_counts(
            attribute
        )


@pytest.mark.parametrize("name", GENERATORS)
def test_generator_search_parity(name):
    """The full search pipeline lands on the same label either way."""
    data = load_dataset(name, n_rows=500, seed=2)
    reference = top_down_search(PatternCounter(data), 25)
    sharded = top_down_search(
        ShardedPatternCounter.from_dataset(data, 3), 25
    )
    assert sharded.attributes == reference.attributes
    assert sharded.label == reference.label
    assert sharded.summary.max_abs == pytest.approx(
        reference.summary.max_abs
    )
