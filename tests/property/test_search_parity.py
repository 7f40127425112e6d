"""Cross-strategy parity of the unified search engine.

The frontier strategies share one driver (batched sizing, one batched
evaluator, canonical tie-breaking), so on any feasible instance the
exact strategies — ``naive``, ``top_down``, and exhaustive ``beam``
(unlimited width) — must return identical ``(attributes,
objective_value)`` pairs and *byte-identical* winning labels, and
``anytime`` with a generous budget must match them too.  Hypothesis
generates random small relations (n <= 6 attributes) and random bounds;
infeasible instances must be rejected consistently by every strategy.

The batched sizing kernel itself (``label_size_many``) is pinned
against the scalar ``label_size`` loop — its executable specification —
on the same generated relations, including missing-value relations
(which exercise the ``n_distinct`` fallback) and sharded counters.

``top_down_search`` decides most children from the previous level's
sizes (``SearchDriver.fit_level``); :func:`reference_top_down` keeps
Algorithm 1 sizing every ``gen`` child and scoring every candidate's
full error summary, and the search must match it exactly.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    NoFeasibleLabelError,
    PatternCounter,
    ShardedPatternCounter,
    anytime_search,
    beam_search,
    naive_search,
    top_down_search,
)
from repro.core.errors import BatchLabelEvaluator, evaluate_label
from repro.core.lattice import gen_children
from repro.core.patternsets import PatternSet
from repro.core.search import SearchDriver, SearchTimeout
from repro.core.sizing import pc_bytes
from repro.datasets import load_dataset

from tests.core.test_search_engine import FakeClock
from tests.property.test_batch_parity import datasets, mixed_workloads

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(st.data())
def test_exact_strategies_agree(data_strategy):
    data = data_strategy.draw(datasets())
    bound = data_strategy.draw(st.integers(2, 30))
    try:
        reference = naive_search(data, bound)
    except NoFeasibleLabelError:
        for strategy in (top_down_search, beam_search, anytime_search):
            with pytest.raises(NoFeasibleLabelError):
                strategy(data, bound)
        return
    beam = beam_search(data, bound)  # unlimited width = exhaustive
    anytime = anytime_search(data, bound)  # no budget = exhaustive
    # Unpruned top-down scores the same feasible pool as naive; with
    # parent pruning only the antichain survives, whose minimum can
    # never beat the full pool's (and equals it whenever Proposition
    # 3.2's empirical claim holds — adversarial random relations may
    # break that, which is exactly why the ablation flag exists).
    unpruned = top_down_search(data, bound, prune_parents=False)
    pruned = top_down_search(data, bound)

    for run in (beam, anytime, unpruned):
        assert run.attributes == reference.attributes
        assert run.objective_value == pytest.approx(
            reference.objective_value
        )
        assert run.label.to_json() == reference.label.to_json()
    assert pruned.objective_value >= reference.objective_value - 1e-9
    assert reference.is_exact and beam.is_exact and anytime.is_exact
    # Exhaustive beam and anytime score exactly the feasible subsets the
    # naive enumeration does (order aside).
    assert set(beam.candidates) == set(reference.candidates)
    assert set(anytime.candidates) == set(reference.candidates)


@SETTINGS
@given(st.data())
def test_anytime_budget_degrades_not_breaks(data_strategy):
    """Any candidate budget >= 1 yields a feasible label no worse than
    nothing, and the incumbent is one of the evaluated candidates."""
    data = data_strategy.draw(datasets())
    bound = data_strategy.draw(st.integers(3, 30))
    budget = data_strategy.draw(st.integers(1, 4))
    try:
        result = anytime_search(data, bound, max_candidates=budget)
    except NoFeasibleLabelError:
        return
    assert result.stats.labels_evaluated <= budget
    assert result.attributes in result.candidates
    counter = PatternCounter(data)
    assert counter.label_size(result.attributes) <= bound


@SETTINGS
@given(st.data(), st.booleans())
def test_label_size_many_matches_scalar(data_strategy, allow_missing):
    data = data_strategy.draw(datasets(allow_missing=allow_missing))
    names = list(data.attribute_names)
    subsets = [
        combo
        for size in range(1, len(names) + 1)
        for combo in itertools.combinations(names, size)
    ]
    counter = PatternCounter(data)
    expected = [PatternCounter(data).label_size(s) for s in subsets]
    assert list(counter.label_size_many(subsets)) == expected
    # Repeat batches answer from the shared per-set cache, identically.
    assert list(counter.label_size_many(subsets)) == expected
    for shards in (1, 2, 3):
        sharded = ShardedPatternCounter.from_dataset(data, shards)
        assert list(sharded.label_size_many(subsets)) == expected, shards


@pytest.mark.parametrize("name", ("bluenile", "compas", "creditcard"))
def test_generator_strategy_parity(name):
    """Acceptance: byte-identical winners on every shipped generator."""
    data = load_dataset(name, n_rows=400, seed=7)
    reference = naive_search(data, 25)
    for run in (
        top_down_search(data, 25),
        beam_search(data, 25),
        anytime_search(data, 25),
    ):
        assert run.attributes == reference.attributes
        assert run.label.to_json() == reference.label.to_json()


def reference_top_down(counter, bound, *, size_fn=None):
    """Algorithm 1 sizing every ``gen`` child against the data, and
    scoring every candidate by its full error summary.

    Returns ``(attributes, candidates, objective value, summary,
    subsets examined)``.
    """
    driver = SearchDriver(counter, bound, size_fn=size_fn)
    names = driver.names
    frontier = gen_children(names, ())
    cands: set[tuple[str, ...]] = set()
    while frontier:
        children = [
            child for node in frontier for child in gen_children(names, node)
        ]
        if not children:
            break
        sizes = driver.size_many(children)
        frontier = []
        for child, size in zip(children, sizes):
            if size <= bound:
                frontier.append(child)
                for attribute in child:
                    cands.discard(tuple(a for a in child if a != attribute))
                cands.add(child)
    candidates = sorted(cands, key=lambda c: (len(c), c))
    if not candidates:
        raise NoFeasibleLabelError("no candidate fits")
    evaluator = BatchLabelEvaluator(counter)
    scored = [(evaluator.evaluate(c), c) for c in candidates]
    summary, best = min(
        scored, key=lambda item: (item[0].max_abs, len(item[1]), item[1])
    )
    return (
        best,
        candidates,
        summary.max_abs,
        summary,
        driver.stats.subsets_examined,
    )


@settings(SETTINGS, max_examples=60)
@given(
    st.data(),
    st.booleans(),
    st.sampled_from((1, 3)),
    st.booleans(),
)
def test_top_down_matches_reference(
    data_strategy, allow_missing, shards, by_bytes
):
    """Deciding children from the lattice changes no result and no
    Figure 9 count, with and without missing values, at K = 1 and 3,
    under the built-in sizing and under ``size_fn=pc_bytes``."""
    data = data_strategy.draw(
        datasets(min_rows=3, allow_missing=allow_missing)
    )
    counter = ShardedPatternCounter.from_dataset(data, shards)
    if by_bytes:
        bound = data_strategy.draw(st.integers(12, 300))
        size_fn = lambda subset: pc_bytes(counter, subset)  # noqa: E731
    else:
        bound = data_strategy.draw(st.integers(2, 30))
        size_fn = None
    try:
        expected = reference_top_down(counter, bound, size_fn=size_fn)
    except NoFeasibleLabelError:
        with pytest.raises(NoFeasibleLabelError):
            top_down_search(counter, bound, size_fn=size_fn)
        return
    result = top_down_search(counter, bound, size_fn=size_fn)
    attributes, candidates, value, summary, examined = expected
    assert result.attributes == attributes
    assert result.candidates == candidates
    assert result.objective_value == value
    assert result.summary == summary
    assert result.stats.subsets_examined == examined
    if by_bytes:
        assert result.stats.subsets_sized == examined
    else:
        assert result.stats.subsets_sized <= examined


def test_no_product_bound_with_missing_values():
    """A partial tuple adds projections that no parent's projection
    extends: (b, c) has no complete row, yet (a, b, c) stores four
    partial projections.  A product bound (0 * |dom(a)|) would certify
    the triple under a bound of 3."""
    data = Dataset.from_columns(
        {
            "a": ["x", "y", "x", "y"],
            "b": [None, None, None, "x"],
            "c": ["x", "y", "y", None],
        },
        domains={name: ("x", "y") for name in "abc"},
    )
    result = top_down_search(data, 3)
    assert result.candidates == [("a", "b"), ("a", "c"), ("b", "c")]
    assert result.stats.subsets_examined == 4
    assert result.stats.subsets_sized == 4


@SETTINGS
@given(st.data(), st.booleans(), st.booleans())
def test_max_abs_selection_matches_full_summary(
    data_strategy, allow_missing, workload
):
    """Scoring a candidate by ``max_abs`` alone gives exactly
    ``evaluate(c).max_abs``, and the winner's summary is its full one —
    over ``P_A`` and over mixed equality/range workloads."""
    data = data_strategy.draw(datasets(allow_missing=allow_missing))
    counter = PatternCounter(data)
    pattern_set = None
    if workload:
        pattern_set = PatternSet.from_patterns(
            counter, data_strategy.draw(mixed_workloads(data))
        )
    names = data.attribute_names
    for size in range(1, len(names) + 1):
        for candidate in itertools.combinations(names, size):
            expected = evaluate_label(counter, candidate, pattern_set)
            driver = SearchDriver(counter, 1, pattern_set=pattern_set)
            best, summary, value = driver.select_best([candidate])
            assert best == candidate
            assert value == expected.max_abs
            assert summary == expected


def test_decided_level_still_checks_the_deadline():
    """A level ``fit_level`` decides without sizing anything still
    raises once the deadline has passed, with its children counted."""
    data = Dataset.from_columns(
        {
            "a": ["x", "y", "x", "y"],
            "b": ["x", "x", "y", "y"],
            "c": ["x", "y", "y", "x"],
        }
    )
    clock = FakeClock()
    driver = SearchDriver(data, 100, time_limit_seconds=5.0, clock=clock)
    known = {(name,): 2 for name in driver.names}
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    # Within the budget the product bound (2 * 2) certifies every pair.
    assert driver.fit_level(pairs, known) == {pair: 4 for pair in pairs}
    assert driver.stats.subsets_examined == 3
    assert driver.stats.subsets_sized == 0
    clock.now = 10.0
    with pytest.raises(SearchTimeout) as exc:
        driver.fit_level(pairs, known)
    assert exc.value.phase == "sizing"
    assert exc.value.stats.subsets_examined == 6
    assert exc.value.stats.subsets_sized == 0
    assert "6 subsets (0 sized against the data)" in str(exc.value)
    # A level Apriori rejects entirely: a parent is missing from known.
    with pytest.raises(SearchTimeout):
        driver.fit_level([("a", "b", "c")], {("a", "b"): 4})
    assert driver.stats.subsets_examined == 7
    assert driver.stats.subsets_sized == 0
