"""Tests for byte-level label sizing and the byte-budget search."""

import itertools

import pytest

from repro import Dataset, PatternCounter, ShardedPatternCounter, build_label
from repro.core.sizing import (
    COUNT_BYTES,
    find_optimal_label_bytes,
    label_bytes,
    pc_bytes,
)


class TestPcBytes:
    def test_matches_manual_accounting(self, figure2):
        counter = PatternCounter(figure2)
        subset = ("gender", "age group")
        label = build_label(counter, subset)
        expected = sum(
            COUNT_BYTES + sum(len(str(v).encode()) for v in combo)
            for combo in label.pc
        )
        assert pc_bytes(counter, subset) == expected

    def test_empty_subset_is_free(self, figure2):
        assert pc_bytes(figure2, ()) == 0

    def test_monotone_under_attribute_addition(self, figure2):
        counter = PatternCounter(figure2)
        import itertools

        names = figure2.attribute_names
        for subset in itertools.combinations(names, 2):
            for extra in names:
                if extra in subset:
                    continue
                bigger = tuple(sorted(subset + (extra,)))
                assert pc_bytes(counter, bigger) >= pc_bytes(
                    counter, subset
                )

    def test_charges_partial_projections_with_missing_values(self):
        """With missing values ``PC`` stores Appendix A's partial
        projections, each charged for the values it binds."""
        data = Dataset.from_columns(
            {
                "a": ["x", "y", "x"],
                "b": [None, None, "x"],
                "c": ["x", "y", "x"],
            }
        )
        # PC over (a, b, c): (x, -, x), (y, -, y) and (x, x, x).  Sized
        # from complete rows only, it was one 11-byte pattern: below the
        # 20 bytes of (a, c), its subset.
        assert pc_bytes(data, ("a", "b", "c")) == 3 * COUNT_BYTES + 7
        assert pc_bytes(data, ("a", "c")) == 2 * COUNT_BYTES + 4
        for counter in (
            PatternCounter(data),
            ShardedPatternCounter.from_dataset(data, 2),
        ):
            for size in (1, 2, 3):
                for subset in itertools.combinations("abc", size):
                    label = build_label(counter, subset)
                    expected = sum(
                        COUNT_BYTES
                        + sum(
                            len(str(v).encode())
                            for v in combo
                            if v is not None
                        )
                        for combo in label.pc
                    )
                    assert pc_bytes(counter, subset) == expected, subset

    def test_long_value_names_cost_more(self):
        short = Dataset.from_columns(
            {"a": ["x", "y"] * 5, "b": ["1", "2"] * 5}
        )
        long = Dataset.from_columns(
            {
                "a": ["extremely-long-category", "another-long-one"] * 5,
                "b": ["1", "2"] * 5,
            }
        )
        assert pc_bytes(long, ("a", "b")) > pc_bytes(short, ("a", "b"))


class TestLabelBytes:
    def test_positive_and_tracks_pc(self, figure2):
        small = build_label(figure2, ["gender"])
        large = build_label(figure2, ["gender", "race", "marital status"])
        assert 0 < label_bytes(small) < label_bytes(large)

    def test_consistent_with_serialization(self, figure2):
        label = build_label(figure2, ["gender", "race"])
        assert label_bytes(label) == len(
            label.to_json(indent=None).encode("utf-8")
        )


class TestByteBudgetSearch:
    def test_result_fits_budget(self, figure2):
        counter = PatternCounter(figure2)
        budget = 400
        result = find_optimal_label_bytes(counter, budget)
        assert pc_bytes(counter, result.attributes) <= budget

    def test_tighter_budget_never_better(self, bluenile_small):
        counter = PatternCounter(bluenile_small)
        loose = find_optimal_label_bytes(counter, 3000)
        tight = find_optimal_label_bytes(counter, 600)
        assert loose.objective_value <= tight.objective_value + 1e-9

    def test_budget_validation(self, figure2):
        with pytest.raises(ValueError, match="positive"):
            find_optimal_label_bytes(figure2, 0)

    def test_byte_and_count_budgets_can_differ(self, figure2):
        """Long value strings make byte budgets pick differently than
        |PC| budgets of the 'same' size."""
        counter = PatternCounter(figure2)
        by_bytes = find_optimal_label_bytes(counter, 250)
        # The chosen subset must fit 250 bytes even though its |PC| may
        # differ from what a count-based bound would allow.
        assert pc_bytes(counter, by_bytes.attributes) <= 250
