"""LabelingSession lifecycle: fit → estimate → evaluate → update → ship."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, LabelingSession, Pattern, PatternCounter, build_label
from repro.api import MultiLabelBundle, SessionError, dump_artifact
from repro.core.flexlabel import FlexibleLabel
from repro.core.label import Label
from repro.core.patternsets import full_pattern_set


@pytest.fixture
def workload(figure2_counter):
    return full_pattern_set(figure2_counter)


class TestFit:
    def test_default_strategy_is_top_down(self, figure2):
        session = LabelingSession.fit(figure2, 5)
        assert session.kind == "label"
        assert session.strategy == "top_down"
        assert session.result is not None
        assert session.size <= 5

    def test_greedy_flexible_strategy(self, figure2):
        session = LabelingSession.fit(figure2, 5, strategy="greedy_flexible")
        assert session.kind == "flexible"
        assert isinstance(session.artifact, FlexibleLabel)
        assert session.result is None
        assert session.size <= 5

    def test_strategy_options_are_validated(self, figure2):
        from repro.api import RegistryError

        with pytest.raises(RegistryError, match="valid options"):
            LabelingSession.fit(figure2, 5, strategy="top_down", nope=1)

    def test_accepts_counter(self, figure2_counter):
        session = LabelingSession.fit(figure2_counter, 5)
        assert session.kind == "label"


class TestEstimation:
    def test_estimate_matches_label_estimator(self, figure2, workload):
        session = LabelingSession.fit(figure2, 5)
        from repro import LabelEstimator

        reference = LabelEstimator(session.artifact)
        for pattern, _ in workload.iter_with_counts():
            assert session.estimate(pattern) == reference.estimate(pattern)

    def test_estimate_many_patternset_and_list_agree(self, figure2, workload):
        session = LabelingSession.fit(figure2, 5)
        patterns = [workload.pattern(i) for i in range(len(workload))]
        assert session.estimate_many(workload) == session.estimate_many(
            patterns
        )

    def test_evaluate_returns_error_summary(self, figure2, workload):
        session = LabelingSession.fit(figure2, 5)
        summary = session.evaluate(workload)
        assert summary.n_patterns == len(workload)
        assert summary.max_abs >= 0.0


class TestSaveLoad:
    @pytest.mark.parametrize("strategy", ["top_down", "greedy_flexible"])
    def test_round_trip_is_estimate_identical(
        self, figure2, workload, tmp_path, strategy
    ):
        session = LabelingSession.fit(figure2, 5, strategy=strategy)
        path = session.save(tmp_path / "artifact.json")
        reloaded = LabelingSession.load(path)
        assert reloaded.kind == session.kind
        assert reloaded.estimate_many(workload) == session.estimate_many(
            workload
        )

    def test_load_legacy_bare_label(self, figure2, workload, tmp_path):
        session = LabelingSession.fit(figure2, 5)
        path = tmp_path / "legacy.json"
        path.write_text(session.artifact.to_json())
        reloaded = LabelingSession.load(path)
        assert reloaded.kind == "label"
        assert reloaded.estimate_many(workload) == session.estimate_many(
            workload
        )

    def test_load_multi_bundle(self, figure2_counter, workload, tmp_path):
        bundle = MultiLabelBundle(
            (
                build_label(figure2_counter, ["gender", "race"]),
                build_label(figure2_counter, ["age group"]),
            ),
            reduce="mean",
        )
        path = tmp_path / "multi.json"
        dump_artifact(bundle, path)
        session = LabelingSession.load(path)
        assert session.kind == "multi"
        reference = bundle.make_estimator()
        assert session.estimate_many(workload) == [
            reference.estimate(p) for p, _ in workload.iter_with_counts()
        ]


class TestUpdate:
    def test_insert_matches_rebuilt_label(self, figure2):
        session = LabelingSession.fit(figure2, 5)
        attributes = session.artifact.attributes
        new_rows = [("Female", "20-39", "Hispanic", "single")] * 3
        rows = Dataset.from_rows(list(figure2.attribute_names), new_rows)
        session.update(inserted=rows)
        names = list(figure2.attribute_names)
        grown = Dataset.from_rows(
            names,
            [tuple(row[a] for a in names) for row in figure2.iter_rows()]
            + new_rows,
        )
        rebuilt = build_label(PatternCounter(grown), attributes)
        assert session.artifact.total == rebuilt.total
        assert dict(session.artifact.pc) == dict(rebuilt.pc)
        # Search stats describe the pre-update label; they are dropped.
        assert session.result is None

    def test_insert_then_delete_is_identity(self, figure2, workload):
        session = LabelingSession.fit(figure2, 5)
        before = session.estimate_many(workload)
        rows = Dataset.from_rows(
            list(figure2.attribute_names),
            [("Male", "20-39", "Caucasian", "married")],
        )
        session.update(inserted=rows)
        session.update(deleted=rows)
        assert session.estimate_many(workload) == before

    @pytest.mark.parametrize("source", ["fit", "fit-3-shards", "pack"])
    def test_insert_keeps_an_exact_counter(
        self, figure2, workload, tmp_path, source
    ):
        shards = 3 if source == "fit-3-shards" else None
        session = LabelingSession.fit(figure2, 5, shards=shards)
        if source == "pack":
            session = LabelingSession.from_pack(
                session.to_pack(tmp_path / "pack")
            )
        rows = Dataset.from_rows(
            list(figure2.attribute_names),
            [("Female", "20-39", "Hispanic", "single")] * 3
            + [("Male", "under 20", "Caucasian", "married")],
        )
        session.update(inserted=rows)
        grown = Dataset.from_rows(
            list(figure2.attribute_names),
            [tuple(r.values()) for r in figure2.iter_rows()]
            + [tuple(r.values()) for r in rows.iter_rows()],
            domains={c.name: c.categories for c in figure2.schema},
        )
        fresh = PatternCounter(grown)
        patterns = [workload.pattern(i) for i in range(len(workload))]
        patterns += [Pattern(row) for row in rows.iter_rows()]
        assert list(session.counter.count_many(patterns)) == list(
            fresh.count_many(patterns)
        )
        assert session.counter.total_rows == figure2.n_rows + 4

    def test_delete_drops_the_counter(self, figure2):
        session = LabelingSession.fit(figure2, 5)
        session.update(deleted=figure2.head(2))
        assert session.counter is None

    def test_update_requires_a_batch(self, figure2):
        session = LabelingSession.fit(figure2, 5)
        with pytest.raises(SessionError, match="at least one"):
            session.update()

    def test_update_rejected_for_flexible(self, figure2):
        session = LabelingSession.fit(figure2, 5, strategy="greedy_flexible")
        rows = Dataset.from_rows(
            list(figure2.attribute_names),
            [("Male", "20-39", "Caucasian", "married")],
        )
        with pytest.raises(SessionError, match="subset labels"):
            session.update(inserted=rows)


class TestConstruction:
    def test_rejects_unsupported_artifact(self):
        with pytest.raises(SessionError, match="unsupported artifact"):
            LabelingSession({"not": "an artifact"})

    def test_repr_names_kind_and_size(self, figure2):
        session = LabelingSession.fit(figure2, 5)
        assert "kind='label'" in repr(session)
