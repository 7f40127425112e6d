"""Frontier strategies over the search driver.

Four registered strategies, all thin orchestrations of
:class:`~repro.core.search.driver.SearchDriver` (batched sizing, shared
batched evaluation, unified deadlines):

* :func:`naive_search` — the baseline described at the top of Section
  III: enumerate attribute subsets level by level (size 2, 3, ...),
  size each level in one batched kernel call, evaluate every label that
  fits the budget, and stop at the first level where *no* label fits
  (label size is monotone in ``S``, so no larger subset can fit either).

* :func:`top_down_search` — Algorithm 1: a BFS over the label lattice
  driven by the duplicate-free ``gen`` operator.  Only children whose
  label size fits the budget are expanded, and only children the
  previous level's sizes leave undecided are sized against the data
  (:meth:`~repro.core.search.driver.SearchDriver.fit_level`); the
  candidate list is kept an antichain by removing each new candidate's
  parents (justified by Proposition 3.2 — a superset's label is
  empirically at least as accurate); finally, only the surviving
  candidates are error-evaluated.

* :func:`beam_search` — width-limited frontier, best-objective-first:
  each lattice level keeps only the ``beam_width`` best-scoring fitting
  subsets for expansion.  With ``beam_width=None`` the beam is unlimited
  and the search is exhaustive (identical winners to ``naive``).

* :func:`anytime_search` — priority best-first under a wall-clock /
  candidate budget: feasible subsets are expanded in best-objective
  order and the best label found so far is always returned;
  ``SearchResult.is_exact`` flags whether the frontier drained before
  the budget did.

:func:`find_optimal_label` stays the convenience front door; it resolves
``algorithm`` through the :mod:`repro.api.registry` strategy registry,
so strategies registered later are automatically reachable.

All strategies share :class:`~repro.core.search.driver.SearchStats`
instrumentation, so the experiments of Figures 6–9 (runtime and
candidate counts) regenerate unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.core.counts import PatternCounter
from repro.core.errors import Objective
from repro.core.lattice import gen_children
from repro.core.patternsets import PatternSet
from repro.core.search.driver import (
    NoFeasibleLabelError,
    SearchDriver,
    SearchResult,
)
from repro.dataset.table import Dataset

__all__ = [
    "naive_search",
    "top_down_search",
    "beam_search",
    "anytime_search",
    "find_optimal_label",
]


def naive_search(
    source: Dataset | PatternCounter,
    bound: int,
    *,
    pattern_set: PatternSet | None = None,
    objective: Objective = Objective.MAX_ABS,
    min_size: int = 2,
    max_size: int | None = None,
    time_limit_seconds: float | None = None,
) -> SearchResult:
    """Level-wise exhaustive search (the paper's naive baseline).

    Iterates over subset sizes starting at ``min_size`` (2 in the paper —
    a singleton label adds nothing beyond the ``VC`` every label already
    carries).  Each level is sized in **one** batched
    ``label_size_many`` call; subsets within ``bound`` are
    error-evaluated.  The search stops at the first level where no label
    fits, which is sound because label size is monotone non-decreasing
    under attribute addition.

    Raises
    ------
    NoFeasibleLabelError
        If no subset of any explored size fits ``bound``.
    SearchTimeout
        If ``time_limit_seconds`` elapses during sizing *or* evaluation.
    """
    driver = SearchDriver(
        source,
        bound,
        pattern_set=pattern_set,
        objective=objective,
        time_limit_seconds=time_limit_seconds,
    )
    names = driver.names
    feasible: list[tuple[str, ...]] = []
    top_size = len(names) if max_size is None else min(max_size, len(names))
    for size in range(min_size, top_size + 1):
        level = list(itertools.combinations(names, size))
        if not level:
            break
        fitting = driver.prune_to_bound(level)
        if not fitting:
            break
        feasible.extend(fitting)
    best, summary, value = driver.select_best(feasible)
    return driver.result(best, summary, value, candidates=feasible)


def top_down_search(
    source: Dataset | PatternCounter,
    bound: int,
    *,
    pattern_set: PatternSet | None = None,
    objective: Objective = Objective.MAX_ABS,
    prune_parents: bool = True,
    size_fn: Callable[[tuple[str, ...]], int] | None = None,
    time_limit_seconds: float | None = None,
) -> SearchResult:
    """Algorithm 1: top-down lattice traversal with parent pruning.

    The BFS runs level-synchronous: every fitting node's ``gen``
    children are collected into one level (``gen`` produces each node at
    most once across parents, Proposition 3.8, so no dedup pass is
    needed), and :meth:`SearchDriver.fit_level` decides which of them
    fit: from the previous level's sizes where Apriori pruning or the
    product bound settles a child, in one batched sizing call for the
    rest.  ``stats.subsets_examined`` counts every generated child,
    ``stats.subsets_sized`` the ones sized against the data.

    Parameters
    ----------
    source:
        Dataset or counter to label.
    bound:
        The size budget ``Bs`` on ``|PC|``.
    pattern_set:
        The target set ``P`` (default ``P_A``).
    objective:
        Error objective (default max absolute error, as in the paper).
    prune_parents:
        Algorithm 1's ``removeParents`` step.  Disabling it keeps every
        fitting subset in the candidate list — an ablation that quantifies
        how many error evaluations the antichain maintenance saves.
    size_fn:
        Alternative label size measure (default ``|P_S|``), e.g.
        :func:`repro.core.sizing.pc_bytes`.  The BFS expands only fitting
        subsets, so it finds every fitting subset only when the measure
        never shrinks as attributes are added.  Every generated child is
        sized through it: the lattice rules hold for ``|P_S|`` alone.
    time_limit_seconds:
        Unified wall-clock budget over sizing *and* evaluation.

    Raises
    ------
    NoFeasibleLabelError
        If not even one two-attribute subset fits ``bound``.
    SearchTimeout
        If ``time_limit_seconds`` elapses during either phase.
    """
    driver = SearchDriver(
        source,
        bound,
        pattern_set=pattern_set,
        objective=objective,
        size_fn=size_fn,
        time_limit_seconds=time_limit_seconds,
    )
    names = driver.names
    schema = driver.counter.schema
    # The frontier with each node's known size: every singleton, bounded
    # by its domain (singletons are expanded unsized).
    frontier: dict[tuple[str, ...], int] = {
        node: schema[node[0]].cardinality for node in gen_children(names, ())
    }
    cands: set[tuple[str, ...]] = set()
    while frontier:
        children = [
            child
            for node in frontier
            for child in gen_children(names, node)
        ]
        if not children:
            break
        frontier = driver.fit_level(children, frontier)
        for child in frontier:
            if prune_parents:
                # Removing direct parents keeps cands an antichain: the
                # BFS generates every fitting subset level by level, so
                # each ancestor was pruned when its own child arrived
                # (label size is monotone, hence every intermediate
                # subset of a fitting set also fits).
                for attribute in child:
                    cands.discard(tuple(a for a in child if a != attribute))
            cands.add(child)
    ordered_cands = sorted(cands, key=lambda c: (len(c), c))
    best, summary, value = driver.select_best(ordered_cands)
    return driver.result(best, summary, value, candidates=ordered_cands)


def _extensions(
    names: tuple[str, ...],
    subset: tuple[str, ...],
    seen: set[tuple[str, ...]],
) -> list[tuple[str, ...]]:
    """All one-attribute extensions of ``subset`` not yet in ``seen``.

    Unlike ``gen``, extensions use *every* absent attribute (a beam that
    truncated a level must still be able to reach e.g. ``{A1, A9}`` from
    ``{A9}``-flavored survivors), so duplicates across parents are
    possible and ``seen`` dedups them.  Each child comes out in
    attribute order; ``seen`` is updated in place.
    """
    position = {name: index for index, name in enumerate(names)}
    present = set(subset)
    children = []
    for name in names:
        if name in present:
            continue
        child = tuple(sorted(subset + (name,), key=position.__getitem__))
        if child not in seen:
            seen.add(child)
            children.append(child)
    return children


def beam_search(
    source: Dataset | PatternCounter,
    bound: int,
    *,
    pattern_set: PatternSet | None = None,
    objective: Objective = Objective.MAX_ABS,
    beam_width: int | None = None,
    min_size: int = 2,
    max_size: int | None = None,
    time_limit_seconds: float | None = None,
) -> SearchResult:
    """Width-limited frontier search, best-objective-first.

    Level ``k`` holds fitting ``k``-subsets; each is scored immediately
    (sizing batched per level, evaluation through the shared batched
    evaluator) and only the ``beam_width`` best-scoring survivors are
    extended to level ``k + 1``.  ``beam_width=None`` lifts the limit:
    the search then scores *every* feasible subset and returns exactly
    the ``naive`` winner (``is_exact`` stays True; any truncated level
    flips it to False).

    Raises
    ------
    NoFeasibleLabelError
        If no subset of any explored size fits ``bound``.
    SearchTimeout
        If ``time_limit_seconds`` elapses during either phase.
    """
    if beam_width is not None and beam_width < 1:
        raise ValueError("beam_width must be >= 1 (or None for unlimited)")
    driver = SearchDriver(
        source,
        bound,
        pattern_set=pattern_set,
        objective=objective,
        time_limit_seconds=time_limit_seconds,
    )
    names = driver.names
    top_size = len(names) if max_size is None else min(max_size, len(names))
    evaluated: list[tuple[str, ...]] = []
    best: tuple[str, ...] | None = None
    best_summary = None
    best_value = float("inf")
    is_exact = True

    level = list(itertools.combinations(names, min_size))
    seen: set[tuple[str, ...]] = set(level)
    size = min_size
    while level and size <= top_size:
        fitting = driver.prune_to_bound(level)
        if not fitting:
            break
        scored: list[tuple[float, tuple[str, ...]]] = []
        for subset in fitting:
            summary, value = driver.score(subset)
            evaluated.append(subset)
            scored.append((value, subset))
            if driver.better(subset, value, best, best_value):
                best, best_summary, best_value = subset, summary, value
            driver.check_deadline("evaluation")
        scored.sort(key=lambda item: (item[0], len(item[1]), item[1]))
        if beam_width is not None and len(scored) > beam_width:
            is_exact = False
            scored = scored[:beam_width]
        level = [
            child
            for _, subset in scored
            for child in _extensions(names, subset, seen)
        ]
        size += 1
    if best is None or best_summary is None:
        raise NoFeasibleLabelError(
            "no candidate subset fits the label size budget"
        )
    return driver.result(
        best, best_summary, best_value, candidates=evaluated, is_exact=is_exact
    )


def anytime_search(
    source: Dataset | PatternCounter,
    bound: int,
    *,
    pattern_set: PatternSet | None = None,
    objective: Objective = Objective.MAX_ABS,
    time_limit_seconds: float | None = None,
    max_candidates: int | None = None,
) -> SearchResult:
    """Best-first search that always returns the best label found so far.

    Feasible subsets sit in a priority queue ordered by their evaluated
    objective (ties: fewer attributes first); the best is expanded, its
    fitting extensions are scored and enqueued, and so on until the
    frontier drains — or the budget (``time_limit_seconds`` wall-clock
    and/or ``max_candidates`` evaluations) runs out, in which case the
    incumbent is returned with ``is_exact=False`` instead of raising.
    At least one feasible candidate is always evaluated, so a feasible
    problem always yields a label, however tiny the budget.

    With a generous budget the frontier drains completely: every
    feasible subset is scored and the result is identical to
    ``naive_search`` (``is_exact=True``).

    Raises
    ------
    NoFeasibleLabelError
        If no two-attribute subset fits ``bound`` (budget-independent:
        feasibility of the seed level is always fully checked).
    """
    if max_candidates is not None and max_candidates < 1:
        raise ValueError("max_candidates must be >= 1 (or None)")
    driver = SearchDriver(
        source,
        bound,
        pattern_set=pattern_set,
        objective=objective,
        time_limit_seconds=time_limit_seconds,
        raise_on_deadline=False,  # the budget degrades, never raises
    )
    names = driver.names

    def budget_left() -> bool:
        if (
            max_candidates is not None
            and driver.stats.labels_evaluated >= max_candidates
        ):
            return False
        return not driver.out_of_time

    seeds = list(itertools.combinations(names, 2))
    seen: set[tuple[str, ...]] = set(seeds)
    feasible_seeds = driver.prune_to_bound(seeds)
    if not feasible_seeds:
        raise NoFeasibleLabelError(
            "no candidate subset fits the label size budget"
        )
    evaluated: list[tuple[str, ...]] = []
    heap: list[tuple[float, int, tuple[str, ...]]] = []
    best: tuple[str, ...] | None = None
    best_summary = None
    best_value = float("inf")
    exhausted = False

    def admit(subset: tuple[str, ...]) -> None:
        nonlocal best, best_summary, best_value
        summary, value = driver.score(subset)
        evaluated.append(subset)
        if driver.better(subset, value, best, best_value):
            best, best_summary, best_value = subset, summary, value
        heapq.heappush(heap, (value, len(subset), subset))

    for subset in feasible_seeds:
        if evaluated and not budget_left():
            exhausted = True
            break
        admit(subset)
    while heap and not exhausted:
        if not budget_left():
            exhausted = True
            break
        _, _, subset = heapq.heappop(heap)
        children = _extensions(names, subset, seen)
        if not children:
            continue
        for child in driver.prune_to_bound(children):
            if not budget_left():
                exhausted = True
                break
            admit(child)
    assert best is not None and best_summary is not None
    return driver.result(
        best,
        best_summary,
        best_value,
        candidates=evaluated,
        is_exact=not exhausted,
    )


def find_optimal_label(
    source: Dataset | PatternCounter,
    bound: int,
    *,
    algorithm: str = "top-down",
    pattern_set: PatternSet | None = None,
    objective: Objective = Objective.MAX_ABS,
    **strategy_options: Any,
) -> SearchResult:
    """Convenience front door: solve the optimal-label problem.

    ``algorithm`` resolves through the :mod:`repro.api.registry`
    strategy registry (``top-down``/``top_down``, ``naive``, ``beam``,
    ``anytime``, or anything registered later), and
    ``strategy_options`` are validated against that strategy's config
    dataclass (e.g. ``beam_width=4`` for ``beam``,
    ``time_limit_seconds=10`` for ``anytime``).

    Raises
    ------
    ValueError
        Unknown algorithm (the message lists the registered strategy
        names), or a resolvable strategy that does not produce a
        :class:`SearchResult` (e.g. ``greedy_flexible`` — build those
        through ``make_strategy(...).fit`` or ``LabelingSession.fit``).
    """
    # Imported lazily: the registry lives in the api layer above core
    # and itself imports this module at load time.
    from repro.api.errors import RegistryError
    from repro.api.registry import (
        make_strategy,
        registered_strategies,
        strategy_spec,
    )

    try:
        spec = strategy_spec(algorithm)
    except RegistryError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; registered strategies: "
            f"{', '.join(sorted(registered_strategies()))}"
        ) from None
    if not spec.produces_search:
        # Rejected before fitting: a full (potentially expensive) fit
        # whose result we would throw away is pure waste.
        raise ValueError(
            f"strategy {spec.name!r} does not run a label search; "
            "use make_strategy(...).fit or LabelingSession.fit for it"
        )
    strategy = make_strategy(algorithm, **strategy_options)
    fitted = strategy.fit(
        source, bound, pattern_set=pattern_set, objective=objective
    )
    if fitted.search is None:
        # Safety net for third-party strategies that declared
        # produces_search but returned no result.
        raise ValueError(
            f"strategy {strategy.name!r} did not produce a search result"
        )
    return fitted.search
