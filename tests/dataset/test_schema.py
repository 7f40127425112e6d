"""Unit tests for :mod:`repro.dataset.schema`."""

import numpy as np
import pytest

from repro.core.pattern import Predicate
from repro.dataset.schema import MISSING_CODE, Column, Schema


class TestColumn:
    def test_basic_construction(self):
        column = Column("color", ("red", "green", "blue"))
        assert column.name == "color"
        assert column.cardinality == 3
        assert column.categories == ("red", "green", "blue")

    def test_code_of_maps_to_position(self):
        column = Column("color", ("red", "green", "blue"))
        assert column.code_of("red") == 0
        assert column.code_of("blue") == 2

    def test_code_of_unknown_value_raises(self):
        column = Column("color", ("red",))
        with pytest.raises(KeyError, match="active domain"):
            column.code_of("magenta")

    def test_category_of_roundtrip(self):
        column = Column("color", ("red", "green"))
        for code, category in enumerate(column.categories):
            assert column.category_of(code) == category
            assert column.code_of(category) == code

    def test_category_of_missing_code_raises(self):
        column = Column("color", ("red",))
        with pytest.raises(ValueError, match="missing"):
            column.category_of(MISSING_CODE)

    def test_encode_maps_values_and_none(self):
        column = Column("color", ("red", "green", "blue"))
        codes = column.encode(["blue", None, "red", "blue"])
        assert codes.dtype == np.int32
        assert codes.tolist() == [2, MISSING_CODE, 0, 2]
        assert column.encode([]).tolist() == []

    def test_encode_unknown_value_raises_code_of_error(self):
        column = Column("color", ("red",))
        with pytest.raises(KeyError) as encoded:
            column.encode(["red", "magenta", "cyan"])
        with pytest.raises(KeyError) as looked_up:
            column.code_of("magenta")
        assert str(encoded.value) == str(looked_up.value)

    def test_contains(self):
        column = Column("color", ("red", "green"))
        assert "red" in column
        assert "magenta" not in column

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Column("color", ("red", "red"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Column("", ("red",))

    def test_sequence_categories_coerced_to_tuple(self):
        column = Column("color", ["red", "green"])
        assert isinstance(column.categories, tuple)

    def test_with_name(self):
        column = Column("color", ("red",))
        renamed = column.with_name("colour")
        assert renamed.name == "colour"
        assert renamed.categories == column.categories


class TestCodeRuns:
    """Predicates normalize to maximal half-open code runs."""

    def test_equality_is_a_single_unit_run(self):
        column = Column("color", ("blue", "green", "red"))
        assert column.code_runs(Predicate("=", "green")) == ((1, 2),)

    def test_contiguous_matches_merge_to_one_run(self):
        column = Column("grade", ("A", "B", "C", "D"))
        assert column.code_runs(Predicate("<=", "B")) == ((0, 2),)
        assert column.code_runs(Predicate(">", "B")) == ((2, 4),)

    def test_whole_domain_collapses_to_one_run(self):
        column = Column("grade", ("A", "B", "C"))
        assert column.code_runs(Predicate("<=", "Z")) == ((0, 3),)

    def test_numeric_domain_splits_into_multiple_runs(self):
        # Integer categories in repr-sorted order: 10 and 11 sit between
        # 1 and 2, so "value <= 9" matches codes {0, 3, 4} — two runs.
        column = Column("n", (1, 10, 11, 2, 9))
        assert column.code_runs(Predicate("<=", 9)) == ((0, 1), (3, 5))
        assert column.code_runs(Predicate(">=", 10)) == ((1, 3),)
        assert column.code_runs(Predicate(">", 0)) == ((0, 5),)

    def test_empty_match_is_empty_tuple(self):
        column = Column("grade", ("A", "B"))
        assert column.code_runs(Predicate(">", "Z")) == ()

    def test_runs_are_cached_per_op_and_bound(self):
        column = Column("grade", ("A", "B", "C"))
        first = column.code_runs(Predicate(">=", "B"))
        assert column.code_runs(Predicate(">=", "B")) is first

    def test_unorderable_bound_names_attribute(self):
        column = Column("grade", ("A", "B"))
        with pytest.raises(TypeError, match="'grade'"):
            column.code_runs(Predicate(">=", 7))


class TestSchema:
    def make(self) -> Schema:
        return Schema(
            [
                Column("a", ("x", "y")),
                Column("b", ("1", "2", "3")),
                Column("c", ("p",)),
            ]
        )

    def test_len_and_iteration_order(self):
        schema = self.make()
        assert len(schema) == 3
        assert [c.name for c in schema] == ["a", "b", "c"]

    def test_names_and_cardinalities(self):
        schema = self.make()
        assert schema.names == ("a", "b", "c")
        assert schema.cardinalities == (2, 3, 1)

    def test_lookup_by_name_and_position(self):
        schema = self.make()
        assert schema["b"].cardinality == 3
        assert schema[1].name == "b"

    def test_unknown_name_raises(self):
        schema = self.make()
        with pytest.raises(KeyError, match="no attribute"):
            schema["zzz"]

    def test_position_and_positions(self):
        schema = self.make()
        assert schema.position("c") == 2
        assert schema.positions(["c", "a"]) == (2, 0)

    def test_contains(self):
        schema = self.make()
        assert "a" in schema
        assert "z" not in schema

    def test_subset_preserves_requested_order(self):
        schema = self.make()
        sub = schema.subset(["c", "a"])
        assert sub.names == ("c", "a")

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema([Column("a", ("x",)), Column("a", ("y",))])

    def test_equality_and_hash(self):
        assert self.make() == self.make()
        assert hash(self.make()) == hash(self.make())
        other = Schema([Column("a", ("x", "y"))])
        assert self.make() != other

    def test_validate_value(self):
        schema = self.make()
        assert schema.validate_value("b", "2") == 1
        with pytest.raises(KeyError):
            schema.validate_value("b", "9")
