"""Tests for workload pattern sets and grouped vectorized evaluation."""

import numpy as np
import pytest

from repro import (
    Dataset,
    Pattern,
    PatternCounter,
    build_label,
    evaluate_label,
    top_down_search,
)
from repro.core.errors import grouped_estimates
from repro.core.estimator import LabelEstimator
from repro.core.workload import (
    arity_pattern_set,
    marginals_pattern_set,
    random_pattern_workload,
)


def _row_dict_draws(counter, n_patterns, rng, *, min_arity, max_arity):
    """The tuple sampler's row-dict loop — one ``dataset.row`` per draw —
    kept as the reference the code-matrix sampler must reproduce draw
    for draw."""
    dataset = counter.dataset
    names = dataset.attribute_names
    if max_arity is None:
        max_arity = len(names)
    patterns = []
    while len(patterns) < n_patterns:
        row = dataset.row(int(rng.integers(0, dataset.n_rows)))
        present = [a for a in names if row[a] is not None]
        if len(present) < min_arity:
            continue
        arity = int(rng.integers(min_arity, min(max_arity, len(present)) + 1))
        chosen = rng.choice(len(present), size=arity, replace=False)
        patterns.append(
            Pattern({present[i]: row[present[i]] for i in chosen})
        )
    return patterns


def _sparse_relation(seed: int, missing: bool) -> Dataset:
    """200 rows over five attributes of mixed value types; with
    ``missing`` about a quarter of the cells are ``None``."""
    rng = np.random.default_rng(seed)
    domains = {
        "s": ["x", "y", "z"],
        "i": [1, 2, 3, 4],
        "f": [0.5, 1.5],
        "b": [True, False],
        "t": ["p", "q", "r", "u", "v"],
    }
    columns = {}
    for name, domain in domains.items():
        values = [domain[j] for j in rng.integers(0, len(domain), 200)]
        if missing:
            values = [
                None if drop else value
                for value, drop in zip(values, rng.random(200) < 0.25)
            ]
        columns[name] = values
    return Dataset.from_columns(columns)


class TestRandomWorkload:
    def test_patterns_have_positive_counts(self, figure2_counter, rng):
        workload = random_pattern_workload(figure2_counter, 40, rng)
        assert len(workload) == 40
        assert (workload.counts > 0).all()

    def test_arity_bounds_respected(self, figure2_counter, rng):
        workload = random_pattern_workload(
            figure2_counter, 30, rng, min_arity=2, max_arity=3
        )
        for index in range(len(workload)):
            assert 2 <= len(workload.pattern(index)) <= 3

    def test_deterministic_given_rng(self, figure2_counter):
        w1 = random_pattern_workload(
            figure2_counter, 10, np.random.default_rng(3)
        )
        w2 = random_pattern_workload(
            figure2_counter, 10, np.random.default_rng(3)
        )
        patterns1 = [w1.pattern(i) for i in range(10)]
        patterns2 = [w2.pattern(i) for i in range(10)]
        assert patterns1 == patterns2

    def test_invalid_parameters(self, figure2_counter, rng):
        with pytest.raises(ValueError, match="positive"):
            random_pattern_workload(figure2_counter, 0, rng)
        with pytest.raises(ValueError, match="min_arity"):
            random_pattern_workload(
                figure2_counter, 5, rng, min_arity=3, max_arity=2
            )

    def test_empty_dataset_rejected(self, rng):
        from repro import Dataset
        from repro.dataset.schema import Column, Schema

        empty = Dataset(
            Schema([Column("a", ("x",))]),
            np.empty((0, 1), dtype=np.int32),
        )
        with pytest.raises(ValueError, match="empty"):
            random_pattern_workload(PatternCounter(empty), 5, rng)


class TestTupleSampler:
    @pytest.mark.parametrize("missing", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("arity", [(1, None), (2, 3), (4, 5)])
    def test_code_matrix_draws_match_row_dict_draws(self, k, missing, arity):
        min_arity, max_arity = arity
        data = _sparse_relation(k, missing)
        counter = PatternCounter.from_dataset(data, k)
        for seed in range(4):
            workload = random_pattern_workload(
                counter,
                64,
                np.random.default_rng(seed),
                min_arity=min_arity,
                max_arity=max_arity,
            )
            expected = _row_dict_draws(
                counter,
                64,
                np.random.default_rng(seed),
                min_arity=min_arity,
                max_arity=max_arity,
            )
            assert [
                workload.pattern(i) for i in range(len(workload))
            ] == expected


class TestArityPatternSet:
    def test_arity_one_matches_marginals(self, figure2_counter):
        by_arity = arity_pattern_set(figure2_counter, 1)
        marginals = marginals_pattern_set(figure2_counter)
        assert len(by_arity) == len(marginals)
        # 2 + 2 + 3 + 3 present values in Figure 2.
        assert len(by_arity) == 10

    def test_arity_two_counts(self, figure2_counter):
        pattern_set = arity_pattern_set(figure2_counter, 2)
        for index in range(len(pattern_set)):
            pattern = pattern_set.pattern(index)
            assert len(pattern) == 2
            assert figure2_counter.count(pattern) == pattern_set.counts[index]

    def test_max_patterns_cap(self, figure2_counter):
        capped = arity_pattern_set(figure2_counter, 2, max_patterns=5)
        assert len(capped) == 5

    def test_invalid_arity(self, figure2_counter):
        with pytest.raises(ValueError, match="arity"):
            arity_pattern_set(figure2_counter, 0)
        with pytest.raises(ValueError, match="arity"):
            arity_pattern_set(figure2_counter, 99)


class TestMarginalsFloor:
    def test_every_label_exact_on_marginals(self, figure2_counter):
        marginals = marginals_pattern_set(figure2_counter)
        for subset in ((), ("gender",), ("age group", "race")):
            summary = evaluate_label(figure2_counter, subset, marginals)
            assert summary.max_abs == 0.0


class TestGroupedEstimates:
    def test_matches_per_pattern_estimator(self, figure2_counter, rng):
        workload = random_pattern_workload(figure2_counter, 50, rng)
        patterns = [workload.pattern(i) for i in range(len(workload))]
        subset = ("age group", "marital status")
        grouped = grouped_estimates(figure2_counter, subset, patterns)
        estimator = LabelEstimator(
            build_label(figure2_counter, subset)
        )
        for index, pattern in enumerate(patterns):
            assert grouped[index] == pytest.approx(
                estimator.estimate(pattern)
            )

    def test_evaluate_label_uses_grouped_path(self, figure2_counter, rng):
        workload = random_pattern_workload(figure2_counter, 30, rng)
        summary = evaluate_label(
            figure2_counter, ("gender", "race"), workload
        )
        assert summary.n_patterns == 30


class TestWorkloadDrivenSearch:
    def test_search_optimizes_for_the_workload(self, compas_small, rng):
        """A label optimized for a sensitive-attribute workload should do
        at least as well on it as the P_A-optimized label."""
        counter = PatternCounter(compas_small)
        workload = arity_pattern_set(
            counter, 2, max_patterns=400
        )
        targeted = top_down_search(counter, 30, pattern_set=workload)
        generic = top_down_search(counter, 30)
        targeted_error = targeted.objective_value
        generic_on_workload = evaluate_label(
            counter, generic.attributes, workload
        ).max_abs
        assert targeted_error <= generic_on_workload + 1e-9
