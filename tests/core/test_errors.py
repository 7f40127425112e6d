"""Unit tests for :mod:`repro.core.errors`."""

import numpy as np
import pytest

from repro.core.counts import PatternCounter
from repro.core.errors import (
    BatchLabelEvaluator,
    ErrorSummary,
    Objective,
    absolute_error,
    evaluate_label,
    q_error,
    scan_max_abs_error,
    vectorized_estimates,
)
from repro.core.estimator import LabelEstimator
from repro.core.label import build_label
from repro.core.pattern import Pattern
from repro.core.patternsets import PatternSet, full_pattern_set, patterns_over
from repro.core.search import driver as search_driver
from repro.core.search.driver import SearchDriver
from repro.core.search.strategies import naive_search, top_down_search


class TestScalarMetrics:
    def test_absolute_error(self):
        assert absolute_error(10, 7.5) == 2.5
        assert absolute_error(3, 3) == 0.0

    def test_q_error_symmetric(self):
        assert q_error(10, 5) == pytest.approx(2.0)
        assert q_error(5, 10) == pytest.approx(2.0)

    def test_q_error_exact_is_one(self):
        assert q_error(7, 7) == 1.0

    def test_q_error_zero_estimate_guard(self):
        """Section IV-B: est(p) := 1 when the estimate is 0."""
        assert q_error(5, 0.0) == pytest.approx(5.0)

    def test_q_error_rounds_to_integral_counts(self):
        # 0.4 rounds to 0 -> guard to 1; q = 3.
        assert q_error(3, 0.4) == pytest.approx(3.0)
        # 2.6 rounds to 3 -> exact.
        assert q_error(3, 2.6) == pytest.approx(1.0)

    def test_q_error_zero_true_count_guard(self):
        assert q_error(0, 4) == pytest.approx(4.0)


class TestErrorSummary:
    def test_from_arrays(self):
        true = np.array([10.0, 4.0, 1.0])
        est = np.array([8.0, 4.0, 3.0])
        summary = ErrorSummary.from_arrays(true, est)
        assert summary.n_patterns == 3
        assert summary.max_abs == 2.0
        assert summary.mean_abs == pytest.approx(4 / 3)
        assert summary.max_q == pytest.approx(3.0)

    def test_empty_arrays(self):
        summary = ErrorSummary.from_arrays(np.array([]), np.array([]))
        assert summary.n_patterns == 0
        assert summary.max_abs == 0.0
        assert summary.mean_q == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ErrorSummary.from_arrays(np.array([1.0]), np.array([1.0, 2.0]))

    def test_max_abs_fraction(self):
        summary = ErrorSummary.from_arrays(
            np.array([100.0]), np.array([90.0])
        )
        assert summary.max_abs_fraction(1000) == pytest.approx(0.01)

    def test_objective_extraction(self):
        summary = ErrorSummary(1, 5.0, 2.0, 0.0, 4.0, 1.5)
        assert Objective.MAX_ABS.of(summary) == 5.0
        assert Objective.MEAN_ABS.of(summary) == 2.0
        assert Objective.MAX_Q.of(summary) == 4.0
        assert Objective.MEAN_Q.of(summary) == 1.5


class TestVectorizedEstimates:
    def test_matches_per_pattern_estimator(self, figure2):
        """The vectorized path must agree with LabelEstimator exactly."""
        counter = PatternCounter(figure2)
        pattern_set = full_pattern_set(counter)
        for subset in (
            ("gender",),
            ("age group", "marital status"),
            ("gender", "race"),
            (),
        ):
            vec = vectorized_estimates(counter, subset, pattern_set)
            estimator = LabelEstimator(build_label(counter, subset))
            loop = np.array(
                [
                    estimator.estimate(pattern_set.pattern(i))
                    for i in range(len(pattern_set))
                ]
            )
            np.testing.assert_allclose(vec, loop, rtol=1e-12)

    def test_matches_on_real_dataset(self, bluenile_small):
        counter = PatternCounter(bluenile_small)
        pattern_set = full_pattern_set(counter)
        subset = ("cut", "polish")
        vec = vectorized_estimates(counter, subset, pattern_set)
        estimator = LabelEstimator(build_label(counter, subset))
        sampled = range(0, len(pattern_set), 97)
        for index in sampled:
            expected = estimator.estimate(pattern_set.pattern(index))
            assert vec[index] == pytest.approx(expected, rel=1e-9)

    def test_requires_tabular_set(self, figure2):
        counter = PatternCounter(figure2)
        explicit = PatternSet.from_patterns(
            counter, [Pattern({"gender": "Female"})]
        )
        with pytest.raises(ValueError, match="tabular"):
            vectorized_estimates(counter, ("gender",), explicit)


class TestEvaluateLabel:
    def test_full_coverage_label_has_zero_error(self, figure2):
        """S = A stores every pattern: error must be exactly 0."""
        counter = PatternCounter(figure2)
        summary = evaluate_label(
            counter, tuple(figure2.attribute_names)
        )
        assert summary.max_abs == 0.0
        assert summary.max_q == 1.0

    def test_accepts_label_object_or_attribute_tuple(self, figure2):
        counter = PatternCounter(figure2)
        by_attrs = evaluate_label(counter, ("gender", "race"))
        by_label = evaluate_label(
            counter, build_label(counter, ["gender", "race"])
        )
        assert by_attrs == by_label

    def test_explicit_pattern_set_loop_path(self, figure2):
        counter = PatternCounter(figure2)
        patterns = [
            Pattern({"gender": "Female", "race": "Hispanic"}),
            Pattern({"age group": "20-39"}),
        ]
        explicit = PatternSet.from_patterns(counter, patterns)
        summary = evaluate_label(counter, ("gender", "race"), explicit)
        assert summary.n_patterns == 2
        # First pattern within S -> exact; second exact via marginal.
        assert summary.max_abs == 0.0

    def test_larger_s_never_hurts_on_chain(self, figure2):
        counter = PatternCounter(figure2)
        small = evaluate_label(counter, ("gender",))
        large = evaluate_label(counter, ("gender", "age group"))
        full = evaluate_label(
            counter, ("gender", "age group", "marital status")
        )
        assert large.max_abs <= small.max_abs + 1e-9
        assert full.max_abs <= large.max_abs + 1e-9


class TestEarlyTerminationScan:
    def test_agrees_with_exact_on_real_data(self, bluenile_small):
        counter = PatternCounter(bluenile_small)
        for subset in (("cut",), ("cut", "polish"), ("shape", "color")):
            exact = evaluate_label(counter, subset).max_abs
            scanned, evaluated = scan_max_abs_error(counter, subset)
            assert scanned == pytest.approx(exact)
            assert evaluated <= counter.distinct_full_rows()[1].size

    def test_scan_evaluates_fewer_patterns(self, bluenile_small):
        counter = PatternCounter(bluenile_small)
        total = counter.distinct_full_rows()[1].size
        _, evaluated = scan_max_abs_error(counter, ("cut", "polish"))
        assert evaluated < total

    def test_scan_requires_tabular(self, figure2):
        counter = PatternCounter(figure2)
        explicit = PatternSet.from_patterns(
            counter, [Pattern({"gender": "Male"})]
        )
        with pytest.raises(ValueError, match="tabular"):
            scan_max_abs_error(counter, ("gender",), explicit)


class TestEvaluatorMemo:
    """``BatchLabelEvaluator`` memoizes a group's estimates under the
    attributes a candidate shares with it — except for a group binding
    every attribute (``P_A``'s one group), whose key is the whole
    candidate and so never repeats."""

    @pytest.fixture
    def evaluators(self, monkeypatch):
        made = []

        class Recording(BatchLabelEvaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(search_driver, "BatchLabelEvaluator", Recording)
        return made

    @pytest.mark.parametrize("search", [top_down_search, naive_search])
    def test_full_width_group_is_not_memoized(
        self, evaluators, bluenile_small, search
    ):
        counter = PatternCounter(bluenile_small)
        result = search(counter, 40)
        (evaluator,) = evaluators
        assert result.stats.labels_evaluated > 1
        assert evaluator._group_estimates == {}
        # The result is the best candidate under the memo-free
        # one-candidate path, with the canonical tie-break.
        pattern_set = full_pattern_set(counter)
        best, best_summary, best_value = None, None, float("inf")
        for candidate in result.candidates:
            summary = ErrorSummary.from_arrays(
                pattern_set.counts,
                vectorized_estimates(counter, candidate, pattern_set),
            )
            if SearchDriver.better(
                candidate, summary.max_abs, best, best_value
            ):
                best, best_summary, best_value = (
                    candidate,
                    summary,
                    summary.max_abs,
                )
        assert result.attributes == best
        assert result.summary == best_summary

    def test_narrower_groups_still_memoize(self, evaluators, bluenile_small):
        counter = PatternCounter(bluenile_small)
        pattern_set = patterns_over(
            counter, bluenile_small.attribute_names[:3]
        )
        result = naive_search(counter, 40, pattern_set=pattern_set)
        (evaluator,) = evaluators
        memo = evaluator._group_estimates
        assert 0 < len(memo) < result.stats.labels_evaluated
