"""Drift detection and budgeted background re-search.

Exact maintenance keeps a streamed label *correct* — it is always
``L_S(D')`` for the live data — but the *choice* of ``S`` goes stale as
the distribution drifts.  The monitor quantifies that the way the paper
evaluates labels: a label's max absolute error over a pattern set
(Definitions 2.13 and 2.15), divided by the live row count as on
Figure 4's axis, so that growth alone does not move it.

The pattern set is one fixed **panel**: ``sample`` tuple-sampled
positive-count patterns of arity 1–4, drawn from the live counter at
the first check after start-up or after a re-search.  Every check
recounts the panel exactly on the live counter's row bitsets and
estimates it from the label alone with
:class:`~repro.core.estimator.LabelEstimator` (the paper's ``Est(p, l)``
and the estimator the server answers with), so two checks differ only
by what changed in the data and the label, never by sampling noise.
The first check on a panel sets the baseline; a later check whose error
exceeds ``threshold ×`` the baseline flags the label stale and kicks off
an :func:`~repro.core.search.anytime_search` re-search **on a background
thread** under a wall-clock budget — readers keep answering from the
current snapshot the whole time, and the winner hot-swaps in through the
same single publish path every batch uses.

A panel sees the value combinations present when it was drawn: drift
confined to combinations that were absent then shows only through their
sub-patterns.

The monitor does not publish by itself: the owning
:class:`~repro.stream.ingest.StreamIngestor` passes a ``swap`` callback
that rebuilds the winning subset's label from the *live* counter under
the ingest lock (so batches applied while the search ran are included),
publishes it, and calls :meth:`DriftMonitor.reset` before releasing the
lock, so the next check draws a new panel and takes its baseline from
the label live at that point.  Standalone use without a callback just
records the result on :attr:`last_result` and keeps the panel: the
label it checks did not change.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.estimator import LabelEstimator
from repro.core.pattern import Pattern
from repro.core.search import SearchResult, anytime_search
from repro.core.workload import draw_tuple_patterns
from repro.stream.wal import StreamError

__all__ = ["DriftMonitor", "DriftStatus"]


@dataclass(frozen=True)
class DriftStatus:
    """Outcome of one panel drift check; errors are per live row."""

    #: Max |error| of the maintained label over the panel, per row.
    error: float
    #: The first check's error on this panel (or a :meth:`rebase`).
    baseline: float
    threshold: float
    #: ``error > threshold × baseline`` — a re-search is worthwhile.
    stale: bool
    #: A background re-search was already running when this check ran.
    researching: bool


class DriftMonitor:
    """Fixed-panel drift checks plus the anytime re-search trigger.

    Parameters
    ----------
    counter:
        The live exact counting backend, or a zero-arg callable
        resolving it (the ingestor passes a callable because every
        batch and compaction swaps the counter object).
    threshold:
        Staleness factor over the baseline error.
    sample:
        Patterns in the panel.
    budget_seconds:
        Wall-clock budget of the background ``anytime`` re-search.
    bound:
        ``|PC|`` budget of the re-search; a callable is resolved at
        research time (the ingestor passes the current label's size —
        always feasible, since the current subset witnesses it).
    seed:
        Base seed; the n-th panel this monitor draws uses seed + n.
    swap:
        Callback invoked with the winning :class:`SearchResult` when a
        re-search completes.  It publishes the rebuilt label and calls
        :meth:`reset` while no check can run, so the next check scores
        the new label on a new panel.
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
        swap: Callable[[SearchResult], None] | None = None,
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
        self._panel: tuple[Pattern, ...] | None = None
        self._panels = 0
        self._baseline: float | None = None
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        #: Checks run so far.
        self.checks = 0
        #: The last check's status (``None`` before any).
        self.last_check: DriftStatus | None = None
        #: Completed background re-searches.
        self.researches = 0
        #: The last completed re-search result (``None`` before any).
        self.last_result: SearchResult | None = None
        #: Exception a background re-search died with, if any.
        self.last_error: BaseException | None = None

    # -- checking ---------------------------------------------------------------

    def _draw_panel(self, counter) -> tuple[Pattern, ...]:
        """The next panel, or ``()`` when too few rows bind any value
        for :func:`~repro.core.workload.draw_tuple_patterns` to draw one
        (it gives up after 50 draws per pattern)."""
        rng = np.random.default_rng(self._seed + self._panels)
        self._panels += 1
        try:
            patterns = draw_tuple_patterns(
                counter,
                self._sample,
                rng,
                min_arity=1,
                max_arity=min(4, len(counter.schema)),
            )
        except RuntimeError:
            return ()
        return tuple(patterns)

    @staticmethod
    def _rows(counter) -> int:
        return max(counter.total_rows, 1)

    @property
    def panel(self) -> tuple[Pattern, ...] | None:
        """The patterns every check scores: ``None`` until the first
        check after start-up or a :meth:`reset`, and ``()`` while the
        relation is too sparse to draw from (each check tries again)."""
        return self._panel

    @property
    def baseline(self) -> float | None:
        """Current per-row baseline error (``None`` before the first
        check on the panel)."""
        return self._baseline

    def rebase(self, error: float) -> None:
        """Set the baseline to ``error``, a per-row error, floored at
        one row of the live relation."""
        self._baseline = max(float(error), 1.0 / self._rows(self._counter()))

    def reset(self) -> None:
        """Drop the panel and its baseline: the next check draws a new
        panel and takes its baseline from the label it is given."""
        self._panel = None
        self._baseline = None

    @property
    def researching(self) -> bool:
        """A background re-search is currently running."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def check(self, label) -> DriftStatus:
        """Score ``label`` on the panel against the live counter.

        The panel's patterns are counted exactly on the counter's row
        bitsets and estimated from ``label`` alone; the error is the
        max absolute difference over the live row count.  A check with
        no baseline (the first on a panel, unless :meth:`rebase` set
        one) sets it, floored at one row, and never flags stale.
        """
        counter = self._counter()
        if not self._panel:
            self._panel = self._draw_panel(counter)
        panel = self._panel
        truths = np.fromiter(
            (counter.count(pattern) for pattern in panel),
            dtype=np.float64,
            count=len(panel),
        )
        estimates = np.asarray(
            LabelEstimator(label).estimate_many(panel), dtype=np.float64
        )
        rows = self._rows(counter)
        error = float(np.abs(estimates - truths).max(initial=0.0)) / rows
        baseline = self._baseline
        if baseline is None:
            baseline = max(error, 1.0 / rows)
            if panel:  # an empty panel measured nothing to rebase on
                self._baseline = baseline
            stale = False
        else:
            stale = error > self._threshold * baseline
        status = DriftStatus(
            error=error,
            baseline=baseline,
            threshold=self._threshold,
            stale=stale,
            researching=self.researching,
        )
        self.checks += 1
        self.last_check = status
        return status

    def describe(self) -> dict[str, Any]:
        """The ``drift`` object of ``GET /stats``: plain attribute reads."""
        last, error = self.last_check, self.last_error
        return {
            "checks": self.checks,
            "baseline": self._baseline,
            "last_check": None if last is None else last.error,
            "researches": self.researches,
            "researching": self.researching,
            "research_error": None if error is None else repr(error),
        }

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
            if self._swap is not None:
                self._swap(result)
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
