"""Unit tests for :mod:`repro.core.pattern` (Definitions 2.1–2.3)."""

import pytest

from repro.core.pattern import OPS, Pattern, Predicate, encode_groups


class TestConstruction:
    def test_basic(self):
        pattern = Pattern({"age": "under 20", "marital": "single"})
        assert pattern["age"] == "under 20"
        assert len(pattern) == 2

    def test_attributes_sorted(self):
        pattern = Pattern({"z": 1, "a": 2})
        assert pattern.attributes == ("a", "z")

    def test_order_insensitive_equality_and_hash(self):
        p1 = Pattern({"a": 1, "b": 2})
        p2 = Pattern({"b": 2, "a": 1})
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_inequality_on_values(self):
        assert Pattern({"a": 1}) != Pattern({"a": 2})

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Pattern({})

    def test_none_value_rejected(self):
        with pytest.raises(ValueError, match="None"):
            Pattern({"a": None})

    def test_non_string_attribute_rejected(self):
        with pytest.raises(TypeError, match="non-empty strings"):
            Pattern({3: "x"})

    def test_usable_as_dict_key(self):
        counts = {Pattern({"a": 1}): 5}
        assert counts[Pattern({"a": 1})] == 5

    def test_mapping_protocol(self):
        pattern = Pattern({"a": 1, "b": {">=": "x"}})
        assert dict(pattern) == {"a": 1, "b": Predicate(">=", "x")}
        assert set(pattern) == {"a", "b"}
        assert "a" in pattern and "b" in pattern
        assert "c" not in pattern and 3 not in pattern
        assert pattern.get("b") == Predicate(">=", "x")
        assert pattern.get("c") is None
        assert pattern.get("c", "fallback") == "fallback"

    def test_repr_mentions_bindings(self):
        assert "a=1" in repr(Pattern({"a": 1}))

    @pytest.mark.parametrize("key", [[], {}, {"a"}])
    def test_unhashable_keys_raise_like_the_mapping_defaults(self, key):
        """``__contains__`` and ``get`` read ``_lookup`` directly; an
        unhashable key still raises ``TypeError``, as the ``Mapping``
        defaults (which go through ``__getitem__``) do."""
        from collections.abc import Mapping

        pattern = Pattern({"a": 1})
        for lookup in (
            lambda: key in pattern,
            lambda: pattern.get(key),
            lambda: Mapping.__contains__(pattern, key),
            lambda: Mapping.get(pattern, key),
        ):
            with pytest.raises(TypeError, match="unhashable"):
                lookup()

    def test_string_values_skip_normalization_unchanged(self):
        """A plain ``str`` binding is stored as given; a ``str``
        subclass still goes through ``Predicate.normalize``, which keeps
        it as the raw value."""

        class Tag(str):
            pass

        pattern = Pattern({"a": "x", "b": Tag("y")})
        assert pattern["a"] == "x" and type(pattern["a"]) is str
        assert type(pattern["b"]) is Tag
        assert not pattern.has_ranges
        assert Pattern({"a": "x", "b": {"<": "y"}}).has_ranges


class TestOperations:
    def test_restrict_keeps_listed_attributes(self):
        pattern = Pattern({"a": 1, "b": 2, "c": 3})
        restricted = pattern.restrict({"a", "c"})
        assert restricted == Pattern({"a": 1, "c": 3})

    def test_restrict_ignores_extraneous_names(self):
        pattern = Pattern({"a": 1})
        assert pattern.restrict({"a", "zzz"}) == pattern

    def test_restrict_to_nothing_returns_none(self):
        assert Pattern({"a": 1}).restrict({"b"}) is None

    def test_extend(self):
        extended = Pattern({"a": 1}).extend("b", 2)
        assert extended == Pattern({"a": 1, "b": 2})

    def test_extend_bound_attribute_rejected(self):
        with pytest.raises(ValueError, match="already bound"):
            Pattern({"a": 1}).extend("a", 2)

    def test_drop(self):
        assert Pattern({"a": 1, "b": 2}).drop("a") == Pattern({"b": 2})
        assert Pattern({"a": 1}).drop("a") is None

    def test_drop_unbound_rejected(self):
        with pytest.raises(KeyError):
            Pattern({"a": 1}).drop("b")

    def test_is_subpattern_of(self):
        small = Pattern({"a": 1})
        big = Pattern({"a": 1, "b": 2})
        assert small.is_subpattern_of(big)
        assert not big.is_subpattern_of(small)
        assert not Pattern({"a": 9}).is_subpattern_of(big)

    def test_matches_row(self):
        pattern = Pattern({"a": 1, "b": 2})
        assert pattern.matches_row({"a": 1, "b": 2, "c": 3})
        assert not pattern.matches_row({"a": 1, "b": 9})
        assert not pattern.matches_row({"a": 1})  # b missing


class TestPredicate:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown predicate operator"):
            Predicate("!=", 3)

    def test_none_bound_rejected(self):
        with pytest.raises(ValueError, match="None"):
            Predicate(">=", None)

    def test_immutable(self):
        predicate = Predicate(">=", 3)
        with pytest.raises(AttributeError, match="immutable"):
            predicate.value = 4

    def test_matches(self):
        assert Predicate(">=", 3).matches(3)
        assert Predicate(">", 3).matches(4)
        assert not Predicate("<", 3).matches(3)
        assert Predicate("<=", 3).matches(3)
        assert Predicate("=", 3).matches(3)
        assert not Predicate("=", 3).matches(4)

    def test_none_value_never_matches(self):
        for op in OPS:
            assert not Predicate(op, 3).matches(None)

    def test_equality_and_hash(self):
        assert Predicate(">=", 3) == Predicate(">=", 3)
        assert Predicate(">=", 3) != Predicate(">", 3)
        assert hash(Predicate(">=", 3)) == hash(Predicate(">=", 3))
        # A predicate never compares equal to its bare bound: equality
        # bindings are canonicalized away, range bindings never are.
        assert Predicate(">=", 3) != 3

    def test_normalize_collapses_equality(self):
        assert Predicate.normalize({"=": "v"}) == "v"
        assert Predicate.normalize(Predicate("=", "v")) == "v"
        assert Predicate.normalize({">=": "v"}) == Predicate(">=", "v")
        assert Predicate.normalize("v") == "v"

    def test_normalize_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="exactly one operator"):
            Predicate.normalize({">=": 1, "<": 2})
        with pytest.raises(ValueError, match="unknown predicate operator"):
            Predicate.normalize({"~=": 1})


class TestRangePatterns:
    def test_operator_dict_spec(self):
        pattern = Pattern({"age": {">=": 30}, "gender": "F"})
        assert pattern["age"] == Predicate(">=", 30)
        assert pattern["gender"] == "F"
        assert pattern.has_ranges
        assert pattern.range_attributes == ("age",)

    def test_equality_spec_stays_raw_value(self):
        # {"=": v} and Predicate("=", v) collapse to the historical shape.
        assert Pattern({"a": {"=": 1}}) == Pattern({"a": 1})
        assert Pattern({"a": Predicate("=", 1)}) == Pattern({"a": 1})
        assert not Pattern({"a": {"=": 1}}).has_ranges

    def test_hash_and_equality_order_insensitive(self):
        p1 = Pattern({"a": Predicate("<", 5), "b": 2})
        p2 = Pattern({"b": 2, "a": {"<": 5}})
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_predicate_method_is_uniform(self):
        pattern = Pattern({"a": 1, "b": Predicate(">", 0)})
        assert pattern.predicate("a") == Predicate("=", 1)
        assert pattern.predicate("b") == Predicate(">", 0)

    def test_to_spec_round_trip(self):
        pattern = Pattern({"age": {">=": 30}, "gender": "F"})
        spec = pattern.to_spec()
        assert spec == {"age": {">=": 30}, "gender": "F"}
        assert Pattern(spec) == pattern

    def test_matches_row_with_ranges(self):
        pattern = Pattern({"age": {">=": 30}, "gender": "F"})
        assert pattern.matches_row({"age": 30, "gender": "F"})
        assert not pattern.matches_row({"age": 29, "gender": "F"})
        assert not pattern.matches_row({"age": 31, "gender": "M"})
        assert not pattern.matches_row({"gender": "F"})  # age missing

    def test_repr_shows_operator(self):
        assert "age>=30" in repr(Pattern({"age": {">=": 30}}))

    def test_restrict_and_drop_preserve_predicates(self):
        pattern = Pattern({"a": Predicate("<", 5), "b": 2})
        assert pattern.restrict({"a"}) == Pattern({"a": {"<": 5}})
        assert pattern.drop("b") == Pattern({"a": {"<": 5}})

    def test_encode_groups_rejects_range_patterns(self):
        with pytest.raises(ValueError, match="equality-only"):
            encode_groups([Pattern({"a": {">=": 1}})], schema=None)
