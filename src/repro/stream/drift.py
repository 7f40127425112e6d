"""Drift detection and budgeted background re-search.

Exact maintenance keeps a streamed label *correct* — it is always
``L_S(D')`` for the live data — but the *choice* of ``S`` goes stale as
the distribution drifts.  The monitor quantifies that the way the paper
evaluates labels: draw a fresh sampled workload from the live counter
(tuple-sampled positive-count patterns, a new sample every check),
recount it exactly, and compare against the maintained label's
estimates.  When the sampled max error exceeds ``threshold ×`` the
baseline error (measured the same way at attach / last re-search time),
the label is flagged stale and an :func:`~repro.core.search.anytime_search`
re-search is kicked off **on a background thread** under a wall-clock
budget — readers keep answering from the current snapshot the whole
time, and the winner hot-swaps in through the same single publish path
every batch uses.

The monitor does not publish by itself: the owning
:class:`~repro.stream.ingest.StreamIngestor` passes a ``swap`` callback
that rebuilds the winning subset's label from the *live* counter under
the ingest lock (so batches applied while the search ran are included)
and publishes it.  Standalone use without a callback just records the
result on :attr:`last_result`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.errors import evaluate_label
from repro.core.patternsets import PatternSet
from repro.core.search import SearchResult, anytime_search
from repro.core.workload import draw_tuple_patterns
from repro.stream.wal import StreamError

__all__ = ["DriftMonitor", "DriftStatus"]


@dataclass(frozen=True)
class DriftStatus:
    """Outcome of one sampled-recount drift check."""

    #: Sampled max |error| of the maintained label, this check.
    error: float
    #: Error measured when the monitor attached / last re-searched.
    baseline: float
    threshold: float
    #: ``error > threshold × baseline`` — a re-search is worthwhile.
    stale: bool
    #: A background re-search was already running when this check ran.
    researching: bool


class DriftMonitor:
    """Sampled-recount drift checks plus the anytime re-search trigger.

    Parameters
    ----------
    counter:
        The live exact counting backend, or a zero-arg callable
        resolving it (the ingestor passes a callable because compaction
        swaps the counter object).
    threshold:
        Staleness factor over the baseline error.
    sample:
        Patterns per sampled recount.
    budget_seconds:
        Wall-clock budget of the background ``anytime`` re-search.
    bound:
        ``|PC|`` budget of the re-search; a callable is resolved at
        research time (the ingestor passes the current label's size —
        always feasible, since the current subset witnesses it).
    seed:
        Base seed; every check draws a fresh workload (seed + check #).
    swap:
        Callback invoked with the winning :class:`SearchResult` when a
        re-search completes; expected to publish the rebuilt label and
        return the new baseline error (or ``None`` to keep the search's
        own summary error as baseline).
    """

    def __init__(
        self,
        counter,
        *,
        threshold: float = 4.0,
        sample: int = 256,
        budget_seconds: float = 5.0,
        bound: int | Callable[[], int] | None = None,
        seed: int = 0,
        swap: Callable[[SearchResult], float | None] | None = None,
    ) -> None:
        if threshold < 1.0:
            raise StreamError("drift threshold must be >= 1")
        if sample < 1:
            raise StreamError("drift sample size must be >= 1")
        self._counter = counter if callable(counter) else (lambda: counter)
        self._threshold = threshold
        self._sample = sample
        self._budget = budget_seconds
        self._bound = bound
        self._seed = seed
        self._swap = swap
        self._baseline: float | None = None
        self._checks = 0
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        #: Completed background re-searches.
        self.researches = 0
        #: The last completed re-search result (``None`` before any).
        self.last_result: SearchResult | None = None
        #: Exception a background re-search died with, if any.
        self.last_error: BaseException | None = None

    # -- checking ---------------------------------------------------------------

    def _sampled_error(self, label) -> float:
        """Max error of ``label`` on this check's tuple sample.

        The sample is :func:`~repro.core.workload.random_pattern_workload`'s
        for the same seed, but counted pattern by pattern on the
        counter's row bitsets: a one-off sample touches ~200 attribute
        sets, and the batch kernel would build (and keep) a key table
        for each of them on every source.
        """
        counter = self._counter()
        rng = np.random.default_rng(self._seed + self._checks)
        max_arity = min(4, len(counter.schema))
        patterns = draw_tuple_patterns(
            counter, self._sample, rng, min_arity=1, max_arity=max_arity
        )
        workload = PatternSet.from_patterns(
            counter, patterns, [counter.count(p) for p in patterns]
        )
        return evaluate_label(counter, label, workload).max_abs

    def rebase(self, error: float) -> None:
        """Reset the baseline (after an external rebuild/re-search)."""
        with self._lock:
            self._baseline = max(float(error), 1.0)

    @property
    def baseline(self) -> float | None:
        """Current baseline error (``None`` before the first check)."""
        return self._baseline

    @property
    def researching(self) -> bool:
        """A background re-search is currently running."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def check(self, label) -> DriftStatus:
        """One sampled recount of ``label`` against the live counter.

        The first check establishes the baseline (clamped to >= 1) and
        never flags stale.
        """
        error = self._sampled_error(label)
        self._checks += 1
        with self._lock:
            if self._baseline is None:
                self._baseline = max(error, 1.0)
                return DriftStatus(
                    error=error,
                    baseline=self._baseline,
                    threshold=self._threshold,
                    stale=False,
                    researching=self.researching,
                )
            baseline = self._baseline
        return DriftStatus(
            error=error,
            baseline=baseline,
            threshold=self._threshold,
            stale=error > self._threshold * baseline,
            researching=self.researching,
        )

    # -- re-search --------------------------------------------------------------

    def _resolve_bound(self) -> int:
        bound = self._bound
        if callable(bound):
            bound = bound()
        if bound is None:
            raise StreamError(
                "re-search needs a size bound; configure research_bound "
                "or attach the monitor through a StreamIngestor"
            )
        return int(bound)

    def _research(self) -> None:
        try:
            result = anytime_search(
                self._counter(),
                self._resolve_bound(),
                time_limit_seconds=self._budget,
            )
            baseline: float | None = None
            if self._swap is not None:
                baseline = self._swap(result)
            self.rebase(
                baseline if baseline is not None else result.summary.max_abs
            )
            self.last_result = result
            self.researches += 1
        except BaseException as exc:  # noqa: BLE001 — thread boundary
            self.last_error = exc

    def maybe_research(self, status: DriftStatus) -> bool:
        """Kick off one background re-search for a stale check.

        At most one re-search runs at a time; a stale check while one is
        in flight is a no-op.  Returns whether a thread was started.
        """
        if not status.stale:
            return False
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return False
            self._thread = threading.Thread(
                target=self._research,
                name="repro-stream-research",
                daemon=True,
            )
            self._thread.start()
        return True

    def join(self, timeout: float | None = None) -> bool:
        """Wait for an in-flight re-search; True when none remains."""
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()
