"""The search driver: shared machinery under every frontier strategy.

The optimal-label search decomposes into three independently replaceable
concerns:

* **frontier strategy** — which attribute subsets to explore next
  (level-wise exhaustive, lattice BFS, width-limited beam, best-first
  anytime — see :mod:`repro.core.search.strategies`);
* **sizing backend** — how the label sizes of a frontier are computed:
  the driver feeds whole batches to the counter's ``label_size_many``
  kernel (plain or sharded, see :meth:`SearchDriver.size_many`), so a
  lattice level costs one vectorized call instead of ``C(n, k)`` scalar
  ``label_size`` calls; :meth:`SearchDriver.fit_level` first decides
  what the previous level's sizes already settle, and batches only the
  rest;
* **candidate evaluation** — scoring candidates against the pattern set
  through one shared :class:`~repro.core.errors.BatchLabelEvaluator`
  (the set is encoded once per search, not once per candidate).

:class:`SearchDriver` owns the cross-cutting state every strategy needs:
the resolved counter, the pattern set, the objective, the
:class:`SearchStats` instrumentation, and the **unified deadline** — one
wall-clock budget covering *both* the sizing and the evaluation phase.
Strategies that promise exact answers let the deadline raise
:class:`SearchTimeout` (``raise_on_deadline=True``, the default); the
anytime strategy polls :attr:`SearchDriver.out_of_time` cooperatively
and returns its best label so far instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.counts import PatternCounter
from repro.core.errors import BatchLabelEvaluator, ErrorSummary, Objective
from repro.core.label import Label, build_label
from repro.core.patternsets import PatternSet, full_pattern_set
from repro.core.sharding import make_counter
from repro.dataset.table import Dataset

__all__ = [
    "SIZING_CHUNK",
    "SearchStats",
    "SearchResult",
    "NoFeasibleLabelError",
    "SearchTimeout",
    "SearchDriver",
]

#: Subsets sized between two deadline checks.  Large enough that the
#: per-chunk clock read is noise, small enough that a cooperative
#: deadline fires within a fraction of a second on wide lattices.
SIZING_CHUNK = 1024


class NoFeasibleLabelError(ValueError):
    """No attribute subset (of the sizes explored) fits the budget."""


class SearchTimeout(TimeoutError):
    """The search exceeded its wall-clock limit.

    Mirrors the paper's Section IV-C observation that "the naive
    algorithm did not terminate within 30 minutes beyond bound of 50" on
    the Credit Card dataset.  Carries the stats gathered so far and the
    ``phase`` (``"sizing"`` or ``"evaluation"``) the deadline fired in —
    the unified driver deadline covers both.
    """

    def __init__(
        self, message: str, stats: "SearchStats", *, phase: str = "sizing"
    ) -> None:
        super().__init__(message)
        self.stats = stats
        self.phase = phase


@dataclass
class SearchStats:
    """Instrumentation of one search run.

    Attributes
    ----------
    subsets_examined:
        Number of attribute subsets the search generated and decided
        (fits the budget or not) — the quantity plotted in Figure 9
        ("# cands generated").
    subsets_sized:
        Number of those subsets whose label size was computed against
        the data; the rest were decided from the lattice alone (see
        :meth:`SearchDriver.fit_level`).
    labels_evaluated:
        Number of candidates whose error was evaluated against ``P``.
    search_seconds:
        Time spent enumerating/sizing subsets.
    evaluation_seconds:
        Time spent error-evaluating candidates (Section IV-C reports this
        split: 62.6% / 18% / 44.4% of total on the three datasets).
    """

    subsets_examined: int = 0
    subsets_sized: int = 0
    labels_evaluated: int = 0
    search_seconds: float = 0.0
    evaluation_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end runtime."""
        return self.search_seconds + self.evaluation_seconds


@dataclass
class SearchResult:
    """Outcome of a label search.

    ``is_exact`` records completeness: exact strategies (``naive``,
    ``top_down``, unlimited-width ``beam``) either explore every
    feasible subset or raise; the ``anytime`` strategy (and a
    width-limited beam) may stop early, in which case the result is the
    best label found within the budget and ``is_exact`` is False.
    """

    attributes: tuple[str, ...]
    label: Label
    summary: ErrorSummary
    objective: Objective
    objective_value: float
    stats: SearchStats
    candidates: list[tuple[str, ...]] = field(default_factory=list)
    is_exact: bool = True

    def __repr__(self) -> str:
        marker = "" if self.is_exact else ", approximate"
        return (
            f"SearchResult(S={list(self.attributes)}, size={self.label.size}, "
            f"{self.objective.value}={self.objective_value:.4g}{marker})"
        )


class SearchDriver:
    """Shared engine every frontier strategy runs on.

    Parameters
    ----------
    source:
        Dataset or counter to label (resolved through
        :func:`~repro.core.sharding.make_counter`).
    bound:
        The size budget ``Bs`` on ``|PC|``.
    pattern_set:
        The target set ``P`` (default ``P_A``).
    objective:
        Error objective (default max absolute error, as in the paper).
    size_fn:
        Alternative scalar label size measure (e.g.
        :func:`repro.core.sizing.pc_bytes`); when given, sizing runs
        through it one subset at a time instead of the batched kernel,
        and :meth:`fit_level` sizes every subset it is given, deciding
        none from the lattice.
    time_limit_seconds:
        Unified wall-clock budget covering sizing *and* evaluation.
    raise_on_deadline:
        True (default): exceeding the budget raises
        :class:`SearchTimeout`.  False: the driver only reports
        :attr:`out_of_time` and the strategy decides (the anytime
        contract).
    clock:
        Injectable time source (tests drive deadline phases
        deterministically with a fake clock).
    """

    def __init__(
        self,
        source: Dataset | PatternCounter,
        bound: int,
        *,
        pattern_set: PatternSet | None = None,
        objective: Objective = Objective.MAX_ABS,
        size_fn: Callable[[tuple[str, ...]], int] | None = None,
        time_limit_seconds: float | None = None,
        raise_on_deadline: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if bound < 1:
            raise ValueError("bound must be positive")
        self.counter = make_counter(source)
        self.bound = bound
        self.names: tuple[str, ...] = tuple(
            self.counter.dataset.attribute_names
        )
        if pattern_set is None:
            pattern_set = full_pattern_set(self.counter)
        self.pattern_set = pattern_set
        self.objective = objective
        self.stats = SearchStats()
        self._size_fn = size_fn
        self._time_limit = time_limit_seconds
        self._raise_on_deadline = raise_on_deadline
        self._clock = clock
        self._evaluator: BatchLabelEvaluator | None = None
        # The deadline clock starts after the (potentially expensive)
        # pattern-set resolution, mirroring the pre-driver algorithms.
        self._started = clock()

    # -- deadline -----------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Seconds since the driver was armed."""
        return self._clock() - self._started

    @property
    def out_of_time(self) -> bool:
        """True once the wall-clock budget is exhausted."""
        return (
            self._time_limit is not None and self.elapsed > self._time_limit
        )

    def check_deadline(self, phase: str) -> None:
        """Raise :class:`SearchTimeout` when armed and out of budget."""
        if self._raise_on_deadline and self.out_of_time:
            raise SearchTimeout(
                f"search exceeded {self._time_limit:g}s during {phase} "
                f"after examining {self.stats.subsets_examined} subsets "
                f"({self.stats.subsets_sized} sized against the data) and "
                f"evaluating {self.stats.labels_evaluated} candidates",
                self.stats,
                phase=phase,
            )

    # -- sizing -------------------------------------------------------------------

    def size_many(
        self, subsets: Sequence[tuple[str, ...]]
    ) -> np.ndarray:
        """Label sizes for a whole frontier, batched.

        One ``label_size_many`` kernel call per :data:`SIZING_CHUNK`
        subsets (a custom ``size_fn`` runs one subset at a time
        instead).  Updates ``subsets_examined`` and ``subsets_sized``,
        accrues ``search_seconds``, and checks the deadline between
        chunks — always *after* the first chunk, so timeout stats are
        never empty.
        """
        subsets = list(subsets)
        out = np.empty(len(subsets), dtype=np.int64)
        start = self._clock()
        try:
            for low in range(0, len(subsets), SIZING_CHUNK):
                chunk = subsets[low : low + SIZING_CHUNK]
                if self._size_fn is not None:
                    sizes = np.array(
                        [self._size_fn(subset) for subset in chunk],
                        dtype=np.int64,
                    )
                else:
                    sizes = self.counter.label_size_many(chunk)
                out[low : low + len(chunk)] = sizes
                self.stats.subsets_examined += len(chunk)
                self.stats.subsets_sized += len(chunk)
                self.check_deadline("sizing")
        finally:
            self.stats.search_seconds += self._clock() - start
        return out

    def prune_to_bound(
        self, subsets: Sequence[tuple[str, ...]]
    ) -> list[tuple[str, ...]]:
        """The subsets of a frontier whose label size fits the budget."""
        subsets = list(subsets)
        sizes = self.size_many(subsets)
        return [
            subset
            for subset, size in zip(subsets, sizes)
            if size <= self.bound
        ]

    def fit_level(
        self,
        children: Sequence[tuple[str, ...]],
        known: Mapping[tuple[str, ...], int],
    ) -> dict[tuple[str, ...], int]:
        """The fitting subsets of one lattice level, with their known sizes.

        ``children`` is one BFS level of ``gen`` children, and ``known``
        maps every fitting subset of the previous level to its size:
        exact, or a certified upper bound.  Under the built-in ``|P_S|``
        sizing, two rules decide a child from ``known`` alone:

        * **Apriori** (the candidate pruning of Agrawal & Srikant, VLDB
          1994): a child of three or more attributes with a parent
          missing from ``known`` is over the bound.  The BFS generated
          every fitting parent, and label size is monotone from two
          attributes up.  It is not from one: with missing values a
          singleton's size bounds no pair's (Lemma A.8 charges no
          one-attribute projection).
        * **Product bound**: ``|P_{T ∪ a}| <= |P_T| * |dom(a)|`` for
          every parent ``T``.  When the smallest of these fits the
          budget, the child fits, and that bound is its known size.  It
          holds only on a relation without missing values: a partial
          tuple can add a projection that no parent's projection
          extends.

        Every other child is sized against the data in one
        :meth:`size_many` batch; under a custom ``size_fn`` that is every
        child, since neither rule holds for an arbitrary measure.  All
        children count in ``subsets_examined``, the batch alone in
        ``subsets_sized``.  The deadline is checked even when no child
        needs sizing.

        Returns the fitting children, in ``children`` order, each mapped
        to its known size — the ``known`` of the next level.
        """
        children = list(children)
        certified: dict[tuple[str, ...], int] = {}
        undecided: list[tuple[str, ...]] = []
        start = self._clock()
        if self._size_fn is None:
            schema = self.counter.schema
            domain = {name: schema[name].cardinality for name in self.names}
            product = not self.counter.dataset.has_missing
            for child in children:
                parents = [
                    child[:i] + child[i + 1 :] for i in range(len(child))
                ]
                if len(child) >= 3 and not all(p in known for p in parents):
                    continue  # Apriori: over the bound
                if product:
                    upper = min(
                        known[parent] * domain[added]
                        for parent, added in zip(parents, child)
                    )
                    if upper <= self.bound:
                        certified[child] = upper
                        continue
                undecided.append(child)
        else:
            undecided = children
        self.stats.subsets_examined += len(children) - len(undecided)
        self.stats.search_seconds += self._clock() - start
        if undecided:
            sized = dict(zip(undecided, self.size_many(undecided).tolist()))
        else:
            sized = {}
            self.check_deadline("sizing")
        fitting: dict[tuple[str, ...], int] = {}
        for child in children:
            size = certified.get(child, sized.get(child))
            if size is not None and size <= self.bound:
                fitting[child] = size
        return fitting

    # -- evaluation ---------------------------------------------------------------

    @property
    def evaluator(self) -> BatchLabelEvaluator:
        """The shared batched evaluator (pattern set encoded once)."""
        if self._evaluator is None:
            self._evaluator = BatchLabelEvaluator(
                self.counter, self.pattern_set
            )
        return self._evaluator

    @staticmethod
    def better(
        candidate: tuple[str, ...],
        value: float,
        best: tuple[str, ...] | None,
        best_value: float,
    ) -> bool:
        """The canonical candidate order: lower objective wins; ties go
        to fewer attributes, then attribute tuple order — shared by all
        strategies so exact strategies land on identical winners."""
        if value < best_value:
            return True
        return (
            value == best_value
            and best is not None
            and (len(candidate), candidate) < (len(best), best)
        )

    def score(
        self, candidate: tuple[str, ...]
    ) -> tuple[ErrorSummary, float]:
        """Evaluate one candidate; returns ``(summary, objective value)``."""
        start = self._clock()
        try:
            summary = self.evaluator.evaluate(candidate)
            self.stats.labels_evaluated += 1
        finally:
            self.stats.evaluation_seconds += self._clock() - start
        return summary, self.objective.of(summary)

    def select_best(
        self, candidates: Iterable[tuple[str, ...]]
    ) -> tuple[tuple[str, ...], ErrorSummary, float]:
        """Pick the best candidate under the objective.

        The deferred evaluation phase of the exact strategies: every
        candidate is scored through the shared evaluator, the deadline
        is checked per candidate (the evaluation phase is covered by the
        same budget as sizing), and ties break canonically.

        A ``MAX_ABS`` search over a vectorized evaluator scores each
        candidate by ``max |c - est|`` alone, with the expression of
        :meth:`ErrorSummary.from_arrays`, and keeps the leader's
        estimates; the winner's full summary is built from them once.
        The winner is not re-evaluated: a second count batch over one
        attribute set would build (and a pack would persist) a key table.

        Raises
        ------
        NoFeasibleLabelError
            If ``candidates`` is empty.
        SearchTimeout
            If the unified deadline fires mid-evaluation.
        """
        evaluator = self.evaluator
        counts = np.asarray(self.pattern_set.counts, dtype=np.float64)
        max_abs_only = (
            self.objective is Objective.MAX_ABS
            and evaluator.vectorizable
            and counts.size > 0
        )
        best: tuple[str, ...] | None = None
        best_summary: ErrorSummary | None = None
        best_estimates: np.ndarray | None = None
        best_value = float("inf")
        start = self._clock()
        try:
            for candidate in candidates:
                summary: ErrorSummary | None = None
                if max_abs_only:
                    estimates = evaluator.estimates(candidate)
                    value = float(np.abs(counts - estimates).max())
                else:
                    summary = evaluator.evaluate(candidate)
                    value = self.objective.of(summary)
                self.stats.labels_evaluated += 1
                if self.better(candidate, value, best, best_value):
                    best, best_value = candidate, value
                    if max_abs_only:
                        best_estimates = estimates
                    else:
                        best_summary = summary
                self.check_deadline("evaluation")
            if best_estimates is not None:
                best_summary = ErrorSummary.from_arrays(
                    counts, best_estimates
                )
        finally:
            self.stats.evaluation_seconds += self._clock() - start
        if best is None or best_summary is None:
            raise NoFeasibleLabelError(
                "no candidate subset fits the label size budget"
            )
        return best, best_summary, best_value

    # -- results ------------------------------------------------------------------

    def result(
        self,
        best: tuple[str, ...],
        summary: ErrorSummary,
        value: float,
        *,
        candidates: Sequence[tuple[str, ...]],
        is_exact: bool = True,
    ) -> SearchResult:
        """Assemble the :class:`SearchResult` (builds the winning label)."""
        return SearchResult(
            attributes=best,
            label=build_label(self.counter, best),
            summary=summary,
            objective=self.objective,
            objective_value=value,
            stats=self.stats,
            candidates=list(candidates),
            is_exact=is_exact,
        )
