"""Tests for incremental label maintenance."""

import pytest

from repro import Dataset, build_label
from repro.core.maintenance import apply_deletes, apply_inserts


@pytest.fixture
def base_and_batch(figure2):
    batch = Dataset.from_rows(
        ["gender", "age group", "race", "marital status"],
        [
            ("Female", "under 20", "Hispanic", "single"),
            ("Male", "20-39", "Caucasian", "married"),
            ("Male", "20-39", "Caucasian", "married"),
        ],
        domains={
            name: figure2.schema[name].categories
            for name in figure2.attribute_names
        },
    )
    return figure2, batch


class TestApplyInserts:
    def test_matches_label_of_concatenated_data(self, base_and_batch):
        data, batch = base_and_batch
        label = build_label(data, ["age group", "marital status"])
        updated = apply_inserts(label, batch)
        reference = build_label(
            data.concat(batch), ["age group", "marital status"]
        )
        assert updated.pc == reference.pc
        assert updated.vc == reference.vc
        assert updated.total == reference.total

    def test_new_combination_appears(self, base_and_batch):
        data, batch = base_and_batch
        label = build_label(data, ["gender", "marital status"])
        assert ("Male", "married") in build_label(
            data, ["gender", "marital status"]
        ).pc
        updated = apply_inserts(label, batch)
        assert updated.pc[("Male", "married")] == label.pc[
            ("Male", "married")
        ] + 2

    def test_column_order_irrelevant(self, base_and_batch):
        data, batch = base_and_batch
        shuffled = batch.select(
            ["marital status", "gender", "race", "age group"]
        )
        label = build_label(data, ["gender"])
        updated = apply_inserts(label, shuffled)
        assert updated.total == 21

    def test_wrong_schema_rejected(self, figure2):
        label = build_label(figure2, ["gender"])
        wrong = Dataset.from_columns({"x": ["1"]})
        with pytest.raises(ValueError, match="exactly the labeled"):
            apply_inserts(label, wrong)

    def test_empty_label_updates_total_and_vc(self, base_and_batch):
        data, batch = base_and_batch
        label = build_label(data, [])
        updated = apply_inserts(label, batch)
        assert updated.total == 21
        assert updated.vc["gender"]["Male"] == 11


class TestApplyDeletes:
    def test_insert_then_delete_roundtrip(self, base_and_batch):
        data, batch = base_and_batch
        label = build_label(data, ["age group", "marital status"])
        roundtrip = apply_deletes(apply_inserts(label, batch), batch)
        assert roundtrip.pc == label.pc
        assert roundtrip.vc == label.vc
        assert roundtrip.total == label.total

    def test_roundtrip_with_new_values_is_byte_identical(self, figure2):
        """Regression for the ``counts[value] = 0`` VC bug: a batch that
        introduces *new* domain values and is then deleted must leave the
        maintained label equal to a fresh ``build_label`` on the final
        data — including ``vc_size``, serialization, and rendering, which
        all diverged while 0-count VC entries were kept."""
        label = build_label(figure2, ["age group", "marital status"])
        batch = Dataset.from_rows(
            ["gender", "age group", "race", "marital status"],
            [
                ("Nonbinary", "40+", "Asian", "widowed"),
                ("Male", "40+", "Asian", "married"),
            ],
        )
        roundtrip = apply_deletes(apply_inserts(label, batch), batch)
        reference = build_label(figure2, ["age group", "marital status"])
        assert roundtrip.pc == reference.pc
        assert roundtrip.vc == reference.vc
        assert roundtrip.vc_size == reference.vc_size
        assert roundtrip.total == reference.total
        assert roundtrip.to_json() == reference.to_json()

    def test_deleting_all_of_a_value_drops_its_vc_entry(self, figure2):
        """VC mirrors PC: a count driven to zero is dropped, not stored."""
        label = build_label(figure2, ["age group", "marital status"])
        singles = figure2.filter_equals("marital status", "single")
        updated = apply_deletes(label, singles)
        assert "single" not in updated.vc["marital status"]
        # In Figure 2 every "under 20" tuple is single, so that value
        # vanishes too — exactly like a fresh build on the remaining data.
        assert "under 20" not in updated.vc["age group"]
        assert updated.vc_size == label.vc_size - 2
        # PC/total parity against a fresh build on the remaining rows.
        # (VC is compared by the drop assertions above instead: `take`
        # preserves figure2's full schema domains, so the fresh build
        # would carry 0-count entries for the vanished values — the
        # maintained label tracks the *observed-domain* form, the one a
        # from-scratch ingest of the remaining data produces.)
        reference = build_label(
            figure2.take(
                [
                    i
                    for i in range(figure2.n_rows)
                    if figure2.row(i)["marital status"] != "single"
                ]
            ),
            ["age group", "marital status"],
        )
        assert updated.pc == reference.pc
        assert updated.total == reference.total

    def test_zero_count_delta_does_not_invent_entries(self, figure2):
        """A batch whose schema pins a wider domain than it uses must not
        create 0-count VC entries for the unused values."""
        wide_domains = {
            name: tuple(figure2.schema[name].categories) + (f"ghost-{name}",)
            for name in figure2.attribute_names
        }
        batch = Dataset.from_rows(
            ["gender", "age group", "race", "marital status"],
            [("Male", "20-39", "Caucasian", "married")],
            domains=wide_domains,
        )
        label = build_label(figure2, ["gender"])
        updated = apply_inserts(label, batch)
        for name in figure2.attribute_names:
            assert f"ghost-{name}" not in updated.vc[name]

    def test_combination_vanishing_removes_key(self, figure2):
        label = build_label(figure2, ["age group", "marital status"])
        singles = figure2.filter_equals("marital status", "single")
        updated = apply_deletes(label, singles)
        assert ("under 20", "single") not in updated.pc

    def test_overdelete_rejected(self, base_and_batch):
        data, batch = base_and_batch
        label = build_label(data, ["age group", "marital status"])
        doubled = batch.concat(batch).concat(batch).concat(batch)
        with pytest.raises(ValueError, match="below zero"):
            apply_deletes(label, doubled.concat(doubled))


class TestEmptyBatches:
    """0-row update batches must be validated no-ops, not crashes."""

    def test_empty_insert_returns_same_label(self, figure2):
        label = build_label(figure2, ["gender", "race"])
        assert apply_inserts(label, figure2.head(0)) is label

    def test_empty_delete_returns_same_label(self, figure2):
        label = build_label(figure2, ["gender", "race"])
        assert apply_deletes(label, figure2.head(0)) is label

    def test_empty_batch_still_validates_attributes(self, figure2):
        label = build_label(figure2, ["gender"])
        wrong = Dataset.from_columns({"x": []})
        with pytest.raises(ValueError, match="exactly the labeled"):
            apply_inserts(label, wrong)
        with pytest.raises(ValueError, match="exactly the labeled"):
            apply_deletes(label, wrong)
