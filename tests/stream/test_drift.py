"""Drift monitor: fixed-panel checks, staleness, background re-search."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import StreamConfig
from repro.core.counts import PatternCounter
from repro.core.estimator import LabelEstimator
from repro.core.label import build_label
from repro.core.workload import draw_tuple_patterns
from repro.dataset.table import Dataset
from repro.stream import (
    DriftMonitor,
    DriftStatus,
    StreamError,
    StreamIngestor,
    WriteAheadLog,
)

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


def _stationary(rng, n: int) -> Dataset:
    """``c`` follows ``a`` in 80% of rows, the same way in every call:
    an ``("a", "b")`` label's error on patterns binding ``c`` is
    systematic, so it grows with the rows."""
    a = rng.integers(0, 4, n)
    c = np.where(rng.random(n) < 0.8, a % 2, rng.integers(0, 2, n))
    return Dataset.from_columns(
        {
            "a": [int(v) for v in a],
            "b": [int(v) for v in rng.integers(0, 3, n)],
            "c": [int(v) for v in c],
        },
        domains={"a": (0, 1, 2, 3), "b": (0, 1, 2), "c": (0, 1)},
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
        # Errors are per live row, and the baseline's floor is one row.
        assert monitor.baseline == max(status.error, 1 / counter.total_rows)

    def test_mismatched_label_flags_stale(self, rng):
        stale_label = build_label(PatternCounter(_independent(rng, 100)), ("a",))
        live = PatternCounter(_correlated(1000))
        monitor = DriftMonitor(live, threshold=1.0, sample=64)
        monitor.rebase(0.0)
        assert monitor.baseline == 1 / live.total_rows
        status = monitor.check(stale_label)
        assert status.stale
        assert status.error > status.threshold * status.baseline

    def test_checks_score_one_panel_until_reset(self, rng):
        counter = PatternCounter(_independent(rng))
        label = build_label(counter, ("a", "b"))
        monitor = DriftMonitor(counter, sample=64)
        assert monitor.panel is None
        errors = {monitor.check(label).error for _ in range(4)}
        panel = monitor.panel
        # The same label on the same data scores one panel: one error.
        assert len(errors) == 1
        assert len(panel) == 64 and monitor.checks == 4
        monitor.reset()
        assert monitor.panel is None and monitor.baseline is None
        status = monitor.check(label)
        # A rebase draws a new panel and takes its baseline from it.
        assert monitor.panel != panel
        assert monitor.baseline == max(status.error, 1 / counter.total_rows)

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
        """Each check scores the label on one panel, the patterns
        ``draw_tuple_patterns`` draws for the seed: max |count - Est(p,
        l)| per live row, with counts from the batch kernel — across
        shards added between checks."""
        rng = np.random.default_rng(21)
        counter = PatternCounter.from_dataset(_relation(rng, 400, missing), 3)
        label = build_label(counter, ("a", "b"))
        seed, sample = 7, 128
        monitor = DriftMonitor(counter, sample=sample, seed=seed)
        drawn = draw_tuple_patterns(
            counter,
            sample,
            np.random.default_rng(seed),
            min_arity=1,
            max_arity=4,
        )
        estimates = np.asarray(LabelEstimator(label).estimate_many(drawn))
        for i in range(6):
            status = monitor.check(label)
            if i == 0:
                panel = monitor.panel
                assert list(panel) == drawn
            assert monitor.panel is panel
            truths = counter.count_many(drawn)
            expected = np.abs(estimates - truths).max() / counter.total_rows
            assert status.error == expected, i
            counter.add_shard(_relation(rng, 50, missing))

    def test_checks_build_no_key_tables(self):
        """A check counts its panel on row bitsets and estimates it from
        the label alone: after 20 checks over a growing counter, neither
        the merged nor any per-source cache holds a key table."""
        rng = np.random.default_rng(22)
        base = _relation(rng, 400, False)
        label = build_label(PatternCounter(base), ("a", "b"))
        counter = PatternCounter.from_dataset(base, 2)
        monitor = DriftMonitor(counter)
        for _ in range(20):
            counter.add_shard(_relation(rng, 50, False))
            monitor.check(label)
        assert monitor.checks == 20
        assert not counter._key_tables
        for source in counter.sources:
            assert not source._key_tables


class TestResearch:
    def _stale_status(self, monitor, rng):
        stale_label = build_label(
            PatternCounter(_independent(rng, 100)), ("a",)
        )
        monitor.rebase(0.0)
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
            # What the ingestor's swap does: publish, then drop the panel.
            swap=lambda result: (swapped.append(result), monitor.reset()),
        )
        assert monitor.maybe_research(self._stale_status(monitor, rng))
        assert monitor.join(timeout=30)
        assert monitor.last_error is None
        assert monitor.researches == 1
        assert monitor.last_result is not None
        assert monitor.last_result.label.size <= 8
        assert swapped == [monitor.last_result]
        # No baseline survives the swap: the next check draws a new
        # panel and rebases on the label it is given.
        assert monitor.panel is None and monitor.baseline is None
        winner = build_label(live, monitor.last_result.label.attributes)
        status = monitor.check(winner)
        assert not status.stale
        assert monitor.baseline == max(status.error, 1 / live.total_rows)

    def test_research_without_swap_keeps_the_panel(self, rng):
        monitor = DriftMonitor(
            PatternCounter(_correlated(1000)),
            threshold=1.0,
            sample=64,
            budget_seconds=1.0,
            bound=8,
        )
        status = self._stale_status(monitor, rng)
        panel, baseline = monitor.panel, monitor.baseline
        assert monitor.maybe_research(status)
        assert monitor.join(timeout=30)
        assert monitor.last_error is None and monitor.researches == 1
        # Nothing published, so the label it checks did not change.
        assert monitor.panel is panel and monitor.baseline == baseline

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

    def test_forced_research_on_undrifted_data_stays_quiet(self, tmp_path):
        """A re-search rebases the way checks measure: after one forced
        re-search on undrifted data, no check of the following stream
        is stale and nothing re-searches again."""
        rng = np.random.default_rng(31)
        counter = PatternCounter(_relation(rng, 2000, False))
        ingestor = StreamIngestor(
            build_label(counter, ("a", "b")),
            wal=WriteAheadLog(tmp_path / "wal", fsync=False),
            counter=counter,
            config=StreamConfig(
                drift_check_every=1, research_budget_seconds=1.0, fsync=False
            ),
        )
        monitor = ingestor.drift_monitor
        forced = DriftStatus(
            error=1.0, baseline=0.0, threshold=4.0, stale=True,
            researching=False,
        )
        assert monitor.maybe_research(forced)
        assert ingestor.join(timeout=60)
        assert monitor.last_error is None and monitor.researches == 1
        batches = 32
        statuses = [
            ingestor.submit(inserted=_relation(rng, 100, False)).drift
            for _ in range(batches)
        ]
        assert ingestor.join(timeout=60)
        assert [s.stale for s in statuses] == [False] * batches
        assert monitor.researches == 1
        # start-up, the re-search's swap, then one version per batch
        assert ingestor.publisher.version == 1 + batches + 1

    def test_no_check_scores_the_new_label_on_the_old_panel(self, tmp_path):
        """The swap drops the panel inside the ingest-lock section that
        checks run under: a batch submitted while the drop runs waits
        for the lock, so its check draws a new panel and rebases on its
        own error instead of scoring the new label against the old
        baseline."""
        rng = np.random.default_rng(33)
        base = 2000
        counter = PatternCounter(_relation(rng, base, False))
        ingestor = StreamIngestor(
            build_label(counter, ("a", "b")),
            wal=WriteAheadLog(tmp_path / "wal", fsync=False),
            counter=counter,
            config=StreamConfig(
                drift_check_every=1, research_budget_seconds=1.0, fsync=False
            ),
        )
        monitor = ingestor.drift_monitor
        first = ingestor.submit(inserted=_relation(rng, 50, False)).drift
        batch = _relation(rng, 50, False)
        statuses, writers = [], []
        reset = monitor.reset

        def reset_while_a_batch_races():
            writer = threading.Thread(
                target=lambda: statuses.append(ingestor.submit(inserted=batch))
            )
            writers.append(writer)
            writer.start()
            writer.join(timeout=0.2)  # blocked while the swap holds the lock
            reset()

        monitor.reset = reset_while_a_batch_races
        forced = DriftStatus(
            error=1.0, baseline=0.0, threshold=4.0, stale=True,
            researching=False,
        )
        assert monitor.maybe_research(forced)
        assert ingestor.join(timeout=60)
        (writer,) = writers
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert monitor.last_error is None and monitor.researches == 1
        (status,) = statuses
        # start-up v1, the first batch v2, the swap v3, the racing batch v4
        assert status.version == 4
        rows = base + 2 * 50
        assert status.drift.baseline == max(status.drift.error, 1 / rows)
        assert status.drift.baseline != first.baseline

    def test_undrifted_growth_never_flags_stale(self, tmp_path):
        """Errors are per row: a stationary stream that grows the
        relation 6x keeps the label's systematic error per row, while
        its absolute error grows with the rows."""
        rng = np.random.default_rng(32)
        base = 500
        counter = PatternCounter(_stationary(rng, base))
        ingestor = StreamIngestor(
            build_label(counter, ("a", "b")),
            wal=WriteAheadLog(tmp_path / "wal", fsync=False),
            counter=counter,
            config=StreamConfig(drift_check_every=1, fsync=False),
        )
        statuses = [
            ingestor.submit(inserted=_stationary(rng, 100)).drift
            for _ in range(25)
        ]
        assert ingestor.join(timeout=60)
        assert ingestor.counter.total_rows >= 5 * base
        assert [s.stale for s in statuses] == [False] * len(statuses)
        assert ingestor.drift_monitor.researches == 0

    def test_rows_without_values_check_an_empty_panel(self, tmp_path):
        """Rows that bind no value leave nothing to draw a panel from:
        the check scores an empty panel instead of failing a batch that
        is already logged and published, and draws the panel once rows
        with values arrive."""
        domains = {"a": (0, 1), "b": (0, 1)}
        blank = Dataset.from_columns(
            {"a": [None] * 4, "b": [None] * 4}, domains=domains
        )
        counter = PatternCounter(blank)
        ingestor = StreamIngestor(
            build_label(counter, ("a",)),
            wal=WriteAheadLog(tmp_path / "wal", fsync=False),
            counter=counter,
            config=StreamConfig(drift_check_every=1, fsync=False),
        )
        monitor = ingestor.drift_monitor
        status = ingestor.submit(inserted=blank).drift
        assert status.error == 0.0 and not status.stale
        assert monitor.panel == () and monitor.baseline is None
        filled = Dataset.from_columns(
            {"a": [0, 1] * 10, "b": [1, 0] * 10}, domains=domains
        )
        status = ingestor.submit(inserted=filled).drift
        assert len(monitor.panel) == 256
        assert monitor.baseline == max(
            status.error, 1 / ingestor.counter.total_rows
        )
