"""Registry conformance: every backend resolves by name and agrees with
itself between the per-pattern and vectorized estimation paths."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    Dataset,
    Pattern,
    PatternCounter,
    ShardedPatternCounter,
    build_label,
)
from repro.api import (
    RegistryError,
    estimate_many,
    make_estimator,
    make_strategy,
    register_estimator,
    register_strategy,
    registered_estimators,
    registered_strategies,
)
from repro.baselines.base import CardinalityEstimator
from repro.core.flexlabel import FlexibleLabel
from repro.core.label import Label
from repro.core.patternsets import full_pattern_set
from repro.core.workload import random_pattern_workload

ALL_ESTIMATORS = (
    "label",
    "flexible",
    "multi_label",
    "independence",
    "sampling",
    "dephist",
    "postgres",
)

ALL_STRATEGIES = ("naive", "top_down", "greedy_flexible")


@pytest.fixture(scope="module")
def synthetic() -> Dataset:
    rng = np.random.default_rng(99)
    n = 200
    a = rng.choice(["x", "y", "z"], size=n)
    # b correlates with a so the label has something to capture.
    b = np.where(rng.random(n) < 0.7, a, rng.choice(["x", "y", "z"], size=n))
    c = rng.choice(["p", "q"], size=n)
    return Dataset.from_columns(
        {"a": list(a), "b": list(b), "c": list(c)}
    )


class TestEstimatorRegistry:
    def test_all_seven_names_registered(self):
        assert set(ALL_ESTIMATORS) <= set(registered_estimators())

    @pytest.mark.parametrize("name", ALL_ESTIMATORS)
    def test_make_estimator_from_dataset(self, synthetic, name):
        estimator = make_estimator(name, synthetic, bound=10, seed=0)
        assert isinstance(estimator, CardinalityEstimator)
        value = estimator.estimate(Pattern({"a": "x"}))
        assert isinstance(value, float) and value >= 0.0

    @pytest.mark.parametrize("name", ALL_ESTIMATORS)
    def test_estimate_vs_estimate_many_agree(self, synthetic, name):
        """Conformance: per-pattern and workload paths agree to 1e-9.

        The workload path goes through ``estimate_codes`` for tabular
        backends, so this pins the vectorized kernels to the scalar
        estimation function.
        """
        counter = PatternCounter(synthetic)
        workload = full_pattern_set(counter)
        estimator = make_estimator(name, counter, bound=10, seed=0)
        many = estimate_many(estimator, workload)
        single = [
            estimator.estimate(workload.pattern(i))
            for i in range(len(workload))
        ]
        np.testing.assert_allclose(many, single, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("name", ALL_ESTIMATORS)
    def test_estimate_many_heterogeneous_workload(self, synthetic, name):
        counter = PatternCounter(synthetic)
        rng = np.random.default_rng(5)
        workload = random_pattern_workload(counter, 20, rng, min_arity=1)
        estimator = make_estimator(name, counter, bound=10, seed=0)
        many = estimate_many(estimator, workload)
        single = [
            estimator.estimate(workload.pattern(i))
            for i in range(len(workload))
        ]
        np.testing.assert_allclose(many, single, atol=1e-9, rtol=0)

    def test_dash_and_case_normalization(self, synthetic):
        estimator = make_estimator("Multi-Label", synthetic, bound=6)
        assert estimator.estimate(Pattern({"a": "x"})) >= 0.0

    def test_label_backend_accepts_artifact(self, synthetic):
        label = build_label(PatternCounter(synthetic), ["a", "b"])
        estimator = make_estimator("label", label)
        assert estimator.label is label

    def test_flexible_backend_accepts_artifact(self, synthetic):
        counter = PatternCounter(synthetic)
        flexible = FlexibleLabel(
            pc={Pattern({"a": "x"}): counter.count(Pattern({"a": "x"}))},
            vc={
                col.name: counter.value_counts(col.name)
                for col in synthetic.schema
            },
            total=synthetic.n_rows,
            attribute_order=synthetic.attribute_names,
        )
        estimator = make_estimator("flexible", flexible)
        assert estimator.label is flexible

    def test_unknown_name_lists_registered(self, synthetic):
        with pytest.raises(RegistryError, match="label"):
            make_estimator("no-such-backend", synthetic)

    def test_bad_params_raise_registry_error(self, synthetic):
        with pytest.raises(RegistryError, match="bad parameters"):
            make_estimator("label", synthetic, bogus_option=1)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_estimator("label", lambda source: None)

    def test_custom_registration_round_trip(self, synthetic):
        class Constant:
            def estimate(self, pattern) -> float:
                return 42.0

        register_estimator(
            "constant-test", lambda source: Constant(), replace=True
        )
        estimator = make_estimator("constant_test", synthetic)
        assert estimator.estimate(Pattern({"a": "x"})) == 42.0

    def test_needs_data_backend_rejects_artifacts(self, synthetic):
        label = build_label(PatternCounter(synthetic), ["a"])
        with pytest.raises(RegistryError, match="must be built from a dataset"):
            make_estimator("sampling", label)

    @pytest.mark.parametrize(
        "name", ("independence", "sampling", "dephist", "postgres")
    )
    def test_raw_row_backends_reject_multi_shard_counters(
        self, figure2, name
    ):
        sharded = ShardedPatternCounter.from_dataset(figure2, 3)
        with pytest.raises(RegistryError, match="raw row access"):
            make_estimator(name, sharded)
        # A dataset and a single-shard counter still carry raw rows.
        for source in (figure2, ShardedPatternCounter.from_dataset(figure2, 1)):
            estimator = make_estimator(name, source)
            assert estimator.estimate(Pattern({"gender": "Female"})) >= 0.0

    def test_label_factory_uses_strategy_registry(self, synthetic):
        estimator = make_estimator(
            "label", synthetic, bound=10, algorithm="naive"
        )
        assert estimator.label.size <= 10
        with pytest.raises(RegistryError, match="'flexible' artifact"):
            make_estimator(
                "label", synthetic, bound=10, algorithm="greedy_flexible"
            )


class TestScoreEstimators:
    def test_by_name_and_prebuilt_agree(self, synthetic):
        from repro.experiments.harness import score_estimators

        by_name = score_estimators(
            synthetic, ["independence"], bound=10
        )
        prebuilt = score_estimators(
            synthetic,
            {"independence": make_estimator("independence", synthetic)},
            bound=10,
        )
        assert by_name.rows() == prebuilt.rows()

    def test_narrow_custom_factory_is_not_force_fed_options(self, synthetic):
        from repro.experiments.harness import score_estimators

        class Constant:
            def estimate(self, pattern) -> float:
                return 1.0

        # A factory without bound/seed parameters must still sweep.
        register_estimator(
            "narrow-test", lambda source: Constant(), replace=True
        )
        table = score_estimators(synthetic, ["narrow_test"], bound=10)
        assert table.column("estimator") == ["narrow_test"]


class TestStrategyRegistry:
    def test_all_three_strategies_registered(self):
        assert set(ALL_STRATEGIES) <= set(registered_strategies())

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_fit_produces_artifact_within_bound(self, synthetic, name):
        strategy = make_strategy(name)
        fitted = strategy.fit(synthetic, 8)
        assert isinstance(fitted.artifact, (Label, FlexibleLabel))
        assert fitted.artifact.size <= 8
        assert fitted.kind in ("label", "flexible")

    def test_config_is_validated_dataclass(self):
        strategy = make_strategy("naive", min_size=2, max_size=3)
        assert dataclasses.is_dataclass(strategy.config)
        assert strategy.config.max_size == 3

    def test_unknown_config_key_lists_valid_fields(self):
        with pytest.raises(RegistryError, match="prune_parents"):
            make_strategy("top_down", bogus=True)

    def test_unknown_strategy_name(self):
        with pytest.raises(RegistryError, match="top_down"):
            make_strategy("no-such-strategy")

    def test_legacy_top_down_spelling(self, synthetic):
        fitted = make_strategy("top-down").fit(synthetic, 8)
        assert fitted.search is not None
        assert fitted.summary is not None
        with pytest.raises(RegistryError, match="config_cls"):
            register_strategy(
                "bad", lambda *a: None, config_cls=int, replace=True
            )
