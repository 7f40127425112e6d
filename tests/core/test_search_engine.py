"""Unit tests for the unified search engine (driver, new strategies,
unified deadlines, batched sizing kernel)."""

import itertools

import numpy as np
import pytest

from repro import PatternCounter, ShardedPatternCounter
from repro.core.search import (
    NoFeasibleLabelError,
    SearchDriver,
    SearchTimeout,
    anytime_search,
    beam_search,
    find_optimal_label,
    naive_search,
    top_down_search,
)


class FakeClock:
    """Deterministic injectable clock for deadline-phase tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestUnifiedDeadlines:
    def test_naive_timeout_carries_sizing_stats(self, compas_small):
        with pytest.raises(SearchTimeout) as exc:
            naive_search(compas_small, bound=60, time_limit_seconds=1e-9)
        assert exc.value.phase == "sizing"
        assert exc.value.stats.subsets_examined > 0
        assert exc.value.stats.search_seconds > 0.0

    def test_top_down_honors_time_limit(self, compas_small):
        """Regression: top_down_search used to have no wall-clock limit
        at all."""
        with pytest.raises(SearchTimeout) as exc:
            top_down_search(
                compas_small, bound=30, time_limit_seconds=1e-9
            )
        assert exc.value.stats.subsets_examined > 0

    def test_deadline_covers_evaluation_phase(self, figure2):
        """Regression: the naive deadline used to stop at the sizing
        phase — a search could overrun its budget inside candidate
        evaluation unchecked.  Driven by a fake clock: sizing happens
        inside the budget, the clock then jumps past it, and the
        evaluation loop must abort with partial evaluation stats."""
        clock = FakeClock()
        counter = PatternCounter(figure2)
        driver = SearchDriver(
            counter, bound=30, time_limit_seconds=5.0, clock=clock
        )
        level = list(
            itertools.combinations(figure2.attribute_names, 2)
        )
        feasible = driver.prune_to_bound(level)
        assert len(feasible) >= 2  # enough to abort mid-way
        clock.now = 10.0  # past the deadline, before evaluation
        with pytest.raises(SearchTimeout) as exc:
            driver.select_best(feasible)
        assert exc.value.phase == "evaluation"
        assert exc.value.stats.labels_evaluated >= 1
        assert exc.value.stats.subsets_examined == len(level)

    def test_beam_honors_time_limit(self, compas_small):
        with pytest.raises(SearchTimeout):
            beam_search(compas_small, bound=30, time_limit_seconds=1e-9)

    def test_anytime_never_raises_on_timeout(self, compas_small):
        result = anytime_search(
            compas_small, bound=30, time_limit_seconds=1e-9
        )
        assert result.stats.labels_evaluated >= 1
        assert result.is_exact is False
        assert (
            PatternCounter(compas_small).label_size(result.attributes)
            <= 30
        )


class TestSelectBest:
    @pytest.mark.parametrize("search", [top_down_search, naive_search])
    def test_each_candidate_is_counted_once(self, bluenile_small, search):
        """The winner is not evaluated a second time: a repeat count
        batch over its attribute set would build a key table, and a pack
        would persist it."""
        counter = PatternCounter(bluenile_small)
        result = search(counter, 40)
        assert result.stats.labels_evaluated > 1
        (source,) = counter.sources
        roles = {role for role, _, _ in source.persisted_arrays()}
        assert "key_keys" not in roles


class TestBeamSearch:
    def test_unlimited_width_matches_naive(self, bluenile_small):
        reference = naive_search(bluenile_small, 40)
        beam = beam_search(bluenile_small, 40)
        assert beam.attributes == reference.attributes
        assert beam.objective_value == reference.objective_value
        assert beam.label.to_json() == reference.label.to_json()
        assert beam.is_exact

    def test_width_one_truncates_and_flags(self, bluenile_small):
        narrow = beam_search(bluenile_small, 100, beam_width=1)
        wide = beam_search(bluenile_small, 100)
        assert narrow.stats.labels_evaluated < wide.stats.labels_evaluated
        assert narrow.is_exact is False
        # Heuristic but never infeasible, never better than exhaustive.
        assert narrow.objective_value >= wide.objective_value - 1e-12

    def test_invalid_width_rejected(self, figure2):
        with pytest.raises(ValueError, match="beam_width"):
            beam_search(figure2, 5, beam_width=0)

    def test_no_feasible_label_raises(self, figure2):
        with pytest.raises(NoFeasibleLabelError):
            beam_search(figure2, bound=2)


class TestAnytimeSearch:
    def test_generous_budget_is_exact(self, figure2):
        reference = naive_search(figure2, 8)
        anytime = anytime_search(figure2, 8)
        assert anytime.is_exact
        assert anytime.attributes == reference.attributes
        assert anytime.label.to_json() == reference.label.to_json()

    def test_candidate_budget_respected(self, bluenile_small):
        result = anytime_search(bluenile_small, 40, max_candidates=3)
        assert result.stats.labels_evaluated <= 3
        assert result.is_exact is False
        assert "approximate" in repr(result)

    def test_invalid_budget_rejected(self, figure2):
        with pytest.raises(ValueError, match="max_candidates"):
            anytime_search(figure2, 8, max_candidates=0)

    def test_no_feasible_label_raises_despite_budget(self, figure2):
        with pytest.raises(NoFeasibleLabelError):
            anytime_search(figure2, bound=2, max_candidates=1)


class TestFindOptimalLabelRegistry:
    def test_new_strategies_reachable(self, figure2):
        """Regression: dispatch used to be hardcoded to
        {'top-down', 'naive'}; it now routes through the registry."""
        reference = find_optimal_label(figure2, 5, algorithm="naive")
        for algorithm in ("beam", "anytime"):
            result = find_optimal_label(figure2, 5, algorithm=algorithm)
            assert result.objective_value == reference.objective_value

    def test_strategy_options_forwarded(self, bluenile_small):
        result = find_optimal_label(
            bluenile_small, 40, algorithm="beam", beam_width=1
        )
        assert result.is_exact is False

    def test_unknown_algorithm_lists_registered(self, figure2):
        with pytest.raises(ValueError, match="unknown algorithm") as exc:
            find_optimal_label(figure2, 5, algorithm="quantum")
        message = str(exc.value)
        for name in ("naive", "top_down", "beam", "anytime"):
            assert name in message

    def test_non_search_strategy_rejected(self, figure2):
        with pytest.raises(ValueError, match="does not run a label search"):
            find_optimal_label(figure2, 5, algorithm="greedy_flexible")

    def test_bad_option_is_a_config_error(self, figure2):
        with pytest.raises(ValueError, match="does not accept"):
            find_optimal_label(
                figure2, 5, algorithm="naive", beam_width=3
            )


class TestSizingKernel:
    def test_size_many_counts_and_filters(self, figure2):
        counter = PatternCounter(figure2)
        driver = SearchDriver(counter, bound=5)
        level = list(itertools.combinations(figure2.attribute_names, 2))
        sizes = driver.size_many(level)
        assert driver.stats.subsets_examined == len(level)
        expected = [counter.label_size(s) for s in level]
        assert list(sizes) == expected
        assert driver.prune_to_bound(level) == [
            s for s, z in zip(level, expected) if z <= 5
        ]

    def test_empty_subset_matches_scalar(self, figure2):
        """Regression: the batched kernel must agree with the scalar
        path on the empty attribute set too (reachable via
        ``naive_search(..., min_size=0)``)."""
        counter = PatternCounter(figure2)
        names = figure2.attribute_names
        expected = [counter.label_size(s) for s in [(), (names[0],)]]
        assert list(counter.label_size_many([(), (names[0],)])) == expected
        assert counter.distinct_keys(()) is None
        sharded = ShardedPatternCounter.from_dataset(figure2, 2)
        assert list(sharded.label_size_many([(), (names[0],)])) == expected

    def test_sharded_kernel_matches_scalar(self, bluenile_small):
        names = bluenile_small.attribute_names
        subsets = [
            c for k in (1, 2, 3) for c in itertools.combinations(names, k)
        ]
        expected = [
            PatternCounter(bluenile_small).label_size(s) for s in subsets
        ]
        sharded = ShardedPatternCounter.from_dataset(bluenile_small, 3)
        assert list(sharded.label_size_many(subsets)) == expected
        # and again from the warm cache
        assert list(sharded.label_size_many(subsets)) == expected

    def test_kernel_does_not_corrupt_column_cache(self, bluenile_small):
        counter = PatternCounter(bluenile_small)
        names = bluenile_small.attribute_names
        counter.label_size_many([(names[0], names[1])])
        columns = counter.sources[0]._columns64
        frozen = columns[names[0]][0].copy()
        counter.label_size_many(
            [(names[0],), (names[0], names[2]), (names[0], names[1])]
        )
        np.testing.assert_array_equal(columns[names[0]][0], frozen)

    def test_distinct_keys_merge_is_exact(self, bluenile_small):
        subset = bluenile_small.attribute_names[:2]
        single = PatternCounter(bluenile_small)
        keys = single.distinct_keys(subset)
        assert keys is not None and keys.size == single.label_size(subset)
        sharded = ShardedPatternCounter.from_dataset(bluenile_small, 4)
        merged = np.unique(
            np.concatenate(
                [
                    PatternCounter(shard).distinct_keys(subset)
                    for shard in sharded.shards
                ]
            )
        )
        np.testing.assert_array_equal(merged, keys)


class TestSessionThreading:
    def test_fit_with_anytime_budget(self, bluenile_small):
        from repro import LabelingSession

        session = LabelingSession.fit(
            bluenile_small,
            40,
            strategy="anytime",
            max_candidates=2,
        )
        assert session.strategy == "anytime"
        assert session.result is not None
        assert session.result.is_exact is False

    def test_fit_with_beam_width(self, bluenile_small):
        from repro import LabelingSession

        session = LabelingSession.fit(
            bluenile_small, 40, strategy="beam", beam_width=2
        )
        assert session.strategy == "beam"
        assert session.size <= 40
