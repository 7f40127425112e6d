"""Unit tests for :mod:`repro.core.counts` against the paper's Figure 2."""

import pytest

from repro.core.counts import PatternCounter
from repro.core.pattern import Pattern
from repro.dataset.table import Dataset


class TestCount:
    def test_example_2_4(self, figure2_counter):
        """Example 2.4: c_D({age=under 20, marital=single}) = 6."""
        pattern = Pattern(
            {"age group": "under 20", "marital status": "single"}
        )
        assert figure2_counter.count(pattern) == 6

    def test_single_attribute_counts_match_figure2(self, figure2_counter):
        assert figure2_counter.count(Pattern({"gender": "Female"})) == 9
        assert figure2_counter.count(Pattern({"gender": "Male"})) == 9
        assert figure2_counter.count(Pattern({"age group": "under 20"})) == 6
        assert figure2_counter.count(Pattern({"age group": "20-39"})) == 12

    def test_zero_count_pattern(self, figure2_counter):
        pattern = Pattern(
            {"age group": "under 20", "marital status": "married"}
        )
        assert figure2_counter.count(pattern) == 0

    def test_full_width_pattern(self, figure2_counter):
        pattern = Pattern(
            {
                "gender": "Female",
                "age group": "under 20",
                "race": "African-American",
                "marital status": "single",
            }
        )
        assert figure2_counter.count(pattern) == 1

    def test_unknown_value_raises(self, figure2_counter):
        with pytest.raises(KeyError):
            figure2_counter.count(Pattern({"gender": "robot"}))

    def test_missing_values_never_satisfy(self):
        data = Dataset.from_columns({"a": ["x", None, "x"], "b": ["1", "1", "1"]})
        counter = PatternCounter(data)
        assert counter.count(Pattern({"a": "x"})) == 2
        assert counter.count(Pattern({"a": "x", "b": "1"})) == 2


class TestValueStatistics:
    def test_value_counts_cached_and_correct(self, figure2_counter):
        first = figure2_counter.value_counts("race")
        assert first == {
            "African-American": 6,
            "Caucasian": 6,
            "Hispanic": 6,
        }
        assert figure2_counter.value_counts("race") is first  # cached

    def test_fractions_sum_to_one(self, figure2_counter):
        fractions = figure2_counter.fractions("marital status")
        assert fractions.sum() == pytest.approx(1.0)

    def test_fraction_single_value(self, figure2_counter):
        assert figure2_counter.fraction("gender", "Female") == pytest.approx(
            0.5
        )

    def test_fractions_with_missing_normalize_over_present(self):
        data = Dataset.from_columns({"a": ["x", "x", "y", None]})
        counter = PatternCounter(data)
        assert counter.fraction("a", "x") == pytest.approx(2 / 3)

    def test_unknown_attribute_error_names_itself_and_the_known(
        self, figure2_counter
    ):
        """The KeyError names the bad attribute AND the valid ones."""
        for method in (
            figure2_counter.value_counts,
            figure2_counter.fractions,
        ):
            with pytest.raises(KeyError) as info:
                method("zodiac")
            message = str(info.value)
            assert "'zodiac'" in message
            assert "known attributes" in message
            assert "gender" in message and "race" in message


class TestAttributeSetStatistics:
    def test_label_size_example_2_10(self, figure2_counter):
        """Example 2.10: |PC| over {age, marital} = 3; over {gender, age} = 4."""
        assert figure2_counter.label_size(("age group", "marital status")) == 3
        assert figure2_counter.label_size(("gender", "age group")) == 4

    def test_label_size_cached(self, figure2_counter):
        key = ("gender", "race")
        first = figure2_counter.label_size(key)
        assert figure2_counter.label_size(key) == first

    def test_joint_table_counts_sum_to_rows(self, figure2_counter):
        _, counts = figure2_counter.joint_table(("gender", "race"))
        assert counts.sum() == 18

    def test_distinct_full_rows_cached(self, figure2_counter):
        first = figure2_counter.distinct_full_rows()
        second = figure2_counter.distinct_full_rows()
        assert first[0] is second[0]

    def test_distinct_full_rows_cover_all_tuples(self, figure2_counter):
        _, counts = figure2_counter.distinct_full_rows()
        assert counts.sum() == 18


class TestConversions:
    def test_pattern_from_codes_roundtrip(self, figure2_counter):
        pattern = Pattern({"gender": "Female", "race": "Hispanic"})
        codes = figure2_counter.codes_from_pattern(pattern)
        rebuilt = figure2_counter.pattern_from_codes(
            list(codes), [codes[a] for a in codes]
        )
        assert rebuilt == pattern

    def test_pattern_from_missing_code_rejected(self, figure2_counter):
        with pytest.raises(ValueError, match="missing"):
            figure2_counter.pattern_from_codes(["gender"], [-1])


class TestBatchCounting:
    """count_many / counts_for_codes: the batch kernel's contract."""

    def test_count_many_matches_scalar_loop(self, figure2_counter):
        patterns = [
            Pattern({"age group": "under 20", "marital status": "single"}),
            Pattern({"gender": "Female"}),
            Pattern({"age group": "under 20", "marital status": "married"}),
            Pattern({"gender": "Male", "race": "Caucasian"}),
            Pattern({"gender": "Female"}),  # duplicates allowed
        ]
        batch = figure2_counter.count_many(patterns)
        assert list(batch) == [
            figure2_counter.count(p) for p in patterns
        ]

    def test_count_many_empty_batch(self, figure2_counter):
        assert figure2_counter.count_many([]).size == 0

    def test_count_many_stable_on_repeat(self, figure2_counter):
        """Second batch promotes to the key table; results must agree."""
        patterns = [
            Pattern({"gender": "Female", "race": "Hispanic"}),
            Pattern({"gender": "Male", "race": "Hispanic"}),
        ]
        first = figure2_counter.count_many(patterns)
        second = figure2_counter.count_many(patterns)
        third = figure2_counter.count_many(patterns)
        assert list(first) == list(second) == list(third)

    def test_counts_for_codes_shape_check(self, figure2_counter):
        import numpy as np

        with pytest.raises(ValueError, match="combos"):
            figure2_counter.counts_for_codes(
                ["gender"], np.zeros((2, 2), dtype=np.int32)
            )

    def test_count_many_with_missing_values(self):
        data = Dataset.from_columns(
            {
                "a": ["x", "x", None, "y", "x"],
                "b": ["u", None, "u", "v", "u"],
            }
        )
        counter = PatternCounter(data)
        patterns = [
            Pattern({"a": "x"}),
            Pattern({"a": "x", "b": "u"}),
            Pattern({"b": "v"}),
            Pattern({"a": "y", "b": "u"}),
        ]
        assert list(counter.count_many(patterns)) == [
            counter.count(p) for p in patterns
        ]

    def test_joint_tables_batch_matches_single(self, figure2_counter):
        tables = figure2_counter.joint_tables(
            [("gender",), ("gender", "race"), ("gender",)]
        )
        assert set(tables) == {("gender",), ("gender", "race")}
        combos, counts = tables[("gender", "race")]
        single = figure2_counter.joint_table(("gender", "race"))
        assert (combos == single[0]).all()
        assert (counts == single[1]).all()


class TestRadixOverflowFallback:
    """Attribute sets whose domain product overflows int64 must fall
    back to the scalar mask path — with identical counts."""

    def test_overflow_parity_and_no_key_cache(self):
        import numpy as np

        # 5 attributes x 2**16 categories: product is 2**80 >> 2**63.
        card = 2**16
        n_attrs, n_rows = 5, 40
        rng = np.random.default_rng(0)
        codes = rng.integers(0, card, size=(n_rows, n_attrs)).astype(
            np.int32
        )
        codes[5:] = codes[:35]  # force repeated rows -> counts > 1
        from repro.dataset.schema import Column, Schema

        schema = Schema(
            [
                Column(f"A{i}", tuple(range(card)))
                for i in range(n_attrs)
            ]
        )
        data = Dataset(schema, codes)
        counter = PatternCounter(data)
        attrs = tuple(f"A{i}" for i in range(n_attrs))
        assert counter.encoded_rows(attrs) is None

        patterns = [
            Pattern(
                {f"A{i}": int(codes[r, i]) for i in range(n_attrs)}
            )
            for r in (0, 5, 39)
        ] + [Pattern({f"A{i}": 1 for i in range(n_attrs)})]
        batch = counter.count_many(patterns)
        assert list(batch) == [counter.count(p) for p in patterns]
        assert batch[0] >= 1 and list(batch)[-1] in (0, 1)

    def test_narrow_subsets_of_wide_schema_still_batch(self):
        import numpy as np

        card = 2**16
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 3, size=(30, 5)).astype(np.int32)
        from repro.dataset.schema import Column, Schema

        schema = Schema(
            [Column(f"A{i}", tuple(range(card))) for i in range(5)]
        )
        data = Dataset(schema, codes)
        counter = PatternCounter(data)
        # A 2-attribute projection fits easily; the kernel must use it.
        assert counter.encoded_rows(("A0", "A1")) is not None
        patterns = [
            Pattern({"A0": 0, "A1": 2}),
            Pattern({"A0": 1}),
        ]
        assert list(counter.count_many(patterns)) == [
            counter.count(p) for p in patterns
        ]


class TestEmptyBatchGuards:
    """Empty query batches are exact no-ops, never edge-case crashes."""

    def test_count_many_of_nothing(self, figure2_counter):
        result = figure2_counter.count_many([])
        assert result.size == 0
        assert result.dtype.kind == "i"

    def test_count_many_of_empty_iterator(self, figure2_counter):
        assert figure2_counter.count_many(iter([])).size == 0

    def test_joint_tables_of_nothing(self, figure2_counter):
        assert figure2_counter.joint_tables([]) == {}

    def test_counts_for_codes_of_nothing(self, figure2_counter):
        import numpy as np

        result = figure2_counter.counts_for_codes(
            ["gender"], np.empty((0, 1), dtype=np.int32)
        )
        assert result.size == 0
