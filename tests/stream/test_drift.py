"""Drift monitor: sampled recounts, staleness, background re-search."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import StreamConfig
from repro.core.counts import PatternCounter
from repro.core.errors import evaluate_label
from repro.core.label import build_label
from repro.core.workload import random_pattern_workload
from repro.dataset.table import Dataset
from repro.stream import DriftMonitor, StreamError, StreamIngestor, WriteAheadLog

pytestmark = pytest.mark.stream

ATTRS = ["a", "b", "c"]


def _independent(rng, n=300) -> Dataset:
    return Dataset.from_columns(
        {
            "a": [int(v) for v in rng.integers(0, 4, n)],
            "b": [int(v) for v in rng.integers(0, 3, n)],
            "c": [int(v) for v in rng.integers(0, 2, n)],
        }
    )


def _correlated(n=100) -> Dataset:
    # c is a function of a: an ("a", "b") label's independence fallback
    # for patterns touching c goes badly wrong once these dominate.
    return Dataset.from_rows(
        ATTRS, [[i % 4, i % 3, (i % 4) % 2] for i in range(n)]
    )


class TestCheck:
    def test_first_check_sets_baseline_and_never_flags(self, rng):
        counter = PatternCounter(_independent(rng))
        label = build_label(counter, ("a", "b"))
        monitor = DriftMonitor(counter, threshold=1.0, sample=64)
        status = monitor.check(label)
        assert not status.stale
        assert monitor.baseline == max(status.error, 1.0)

    def test_mismatched_label_flags_stale(self, rng):
        stale_label = build_label(PatternCounter(_independent(rng, 100)), ("a",))
        live = PatternCounter(_correlated(1000))
        monitor = DriftMonitor(live, threshold=1.0, sample=64)
        monitor.rebase(1.0)
        status = monitor.check(stale_label)
        assert status.stale
        assert status.error > status.threshold * status.baseline

    def test_checks_draw_fresh_workloads(self, rng):
        counter = PatternCounter(_independent(rng))
        label = build_label(counter, ("a", "b"))
        monitor = DriftMonitor(counter, sample=64)
        errors = {monitor.check(label).error for _ in range(4)}
        # A frozen workload would produce one error forever.
        assert len(errors) > 1

    def test_validation(self):
        counter = PatternCounter(_correlated(10))
        with pytest.raises(StreamError, match="threshold"):
            DriftMonitor(counter, threshold=0.5)
        with pytest.raises(StreamError, match="sample"):
            DriftMonitor(counter, sample=0)


#: Six attributes with pinned domains, so every batch drawn by
#: :func:`_relation` shares one schema and can become a counter shard.
DOMAINS = {
    "a": tuple(range(5)),
    "b": ("u", "v", "w"),
    "c": (0.5, 1.5),
    "d": tuple(range(7)),
    "e": (True, False),
    "f": ("p", "q", "r", "s"),
}


def _relation(rng, n: int, missing: bool) -> Dataset:
    """``n`` random rows over :data:`DOMAINS`; with ``missing`` about a
    fifth of the cells are ``None``."""
    columns = {}
    for name, domain in DOMAINS.items():
        values = [domain[j] for j in rng.integers(0, len(domain), n)]
        if missing:
            values = [
                None if drop else value
                for value, drop in zip(values, rng.random(n) < 0.2)
            ]
        columns[name] = values
    return Dataset.from_columns(columns, domains=DOMAINS)


class TestSampledRecount:
    @pytest.mark.parametrize("missing", [False, True])
    def test_error_equals_batch_kernel_recount(self, missing):
        """Each check scores the label on the workload
        ``random_pattern_workload`` draws for the check's seed, counted
        by the batch kernel — across shards added between checks."""
        rng = np.random.default_rng(21)
        counter = PatternCounter.from_dataset(_relation(rng, 400, missing), 3)
        label = build_label(counter, ("a", "b"))
        seed, sample = 7, 128
        monitor = DriftMonitor(counter, sample=sample, seed=seed)
        max_arity = min(4, len(DOMAINS))
        for i in range(6):
            status = monitor.check(label)
            workload = random_pattern_workload(
                counter,
                sample,
                np.random.default_rng(seed + i),
                min_arity=1,
                max_arity=max_arity,
            )
            expected = evaluate_label(counter, label, workload).max_abs
            assert status.error == expected, i
            counter.add_shard(_relation(rng, 50, missing))

    def test_checks_cache_only_the_label_subsets(self):
        """A sampled recount builds no key table for the attribute sets
        it samples: after 20 checks the merged and per-source caches
        hold subsets of the label's attributes only."""
        rng = np.random.default_rng(22)
        counter = PatternCounter.from_dataset(_relation(rng, 400, False), 2)
        label = build_label(counter, ("a", "b"))
        monitor = DriftMonitor(counter)
        for _ in range(20):
            counter.add_shard(_relation(rng, 50, False))
            monitor.check(label)
        allowed = set(label.attributes)
        caches = [counter._key_tables]
        caches += [source._key_tables for source in counter.sources]
        assert counter._key_tables  # the label's own subsets are cached
        for cache in caches:
            assert all(set(attrs) <= allowed for attrs in cache), sorted(
                cache
            )


class TestResearch:
    def _stale_status(self, monitor, rng):
        stale_label = build_label(
            PatternCounter(_independent(rng, 100)), ("a",)
        )
        monitor.rebase(1.0)
        return monitor.check(stale_label)

    def test_not_stale_is_a_no_op(self, rng):
        counter = PatternCounter(_independent(rng))
        monitor = DriftMonitor(counter, sample=64)
        status = monitor.check(build_label(counter, ("a", "b")))
        assert not monitor.maybe_research(status)
        assert monitor.join()

    def test_stale_check_triggers_budgeted_research(self, rng):
        live = PatternCounter(_correlated(1000))
        swapped = []
        monitor = DriftMonitor(
            live,
            threshold=1.0,
            sample=64,
            budget_seconds=2.0,
            bound=8,
            swap=lambda result: swapped.append(result) or None,
        )
        assert monitor.maybe_research(self._stale_status(monitor, rng))
        assert monitor.join(timeout=30)
        assert monitor.last_error is None
        assert monitor.researches == 1
        assert monitor.last_result is not None
        assert monitor.last_result.label.size <= 8
        assert swapped == [monitor.last_result]
        # The winner's error is the new baseline.
        assert monitor.baseline == max(
            monitor.last_result.summary.max_abs, 1.0
        )

    def test_at_most_one_research_in_flight(self, rng):
        release = threading.Event()
        monitor = DriftMonitor(
            PatternCounter(_correlated(1000)),
            threshold=1.0,
            sample=64,
            bound=8,
            swap=lambda result: (release.wait(30), None)[1],
        )
        status = self._stale_status(monitor, rng)
        assert monitor.maybe_research(status)
        try:
            assert monitor.researching
            assert not monitor.maybe_research(status)
        finally:
            release.set()
        assert monitor.join(timeout=30)
        assert monitor.researches == 1

    def test_missing_bound_surfaces_on_last_error(self, rng):
        monitor = DriftMonitor(
            PatternCounter(_correlated(1000)), threshold=1.0, sample=64
        )
        assert monitor.maybe_research(self._stale_status(monitor, rng))
        assert monitor.join(timeout=30)
        assert isinstance(monitor.last_error, StreamError)
        assert monitor.researches == 0


class TestIngestorDrift:
    def test_drifted_stream_researches_and_rebases(self, tmp_path, rng):
        counter = PatternCounter(_independent(rng))
        ingestor = StreamIngestor(
            build_label(counter, ("a", "b")),
            wal=WriteAheadLog(tmp_path / "wal"),
            counter=counter,
            config=StreamConfig(
                drift_check_every=1,
                drift_threshold=1.0,
                drift_sample=64,
                research_budget_seconds=1.0,
            ),
        )
        monitor = ingestor.drift_monitor
        assert monitor is not None
        statuses = [
            ingestor.submit(inserted=_correlated(200)).drift
            for _ in range(10)
        ]
        assert ingestor.join(timeout=60)
        assert monitor.last_error is None
        assert any(s is not None and s.stale for s in statuses)
        assert monitor.researches >= 1
        # Re-search published through the same path the batches use.
        assert ingestor.publisher.version > len(statuses)
