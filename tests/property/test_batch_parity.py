"""Parity properties of the batch kernel vs the scalar reference paths.

The batch counting engine (``PatternCounter.count_many``, the
``BatchLabelEvaluator`` error pass, the per-backend ``estimate_many``
implementations) must be *observably identical* to the per-pattern
scalar paths it replaces — the scalar paths are kept precisely to serve
as the executable specification.  Hypothesis generates random small
relations (optionally with missing values) and random mixed-arity
workloads, and every batch answer is checked against its scalar twin.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    LabelEstimator,
    Pattern,
    PatternCounter,
    build_label,
    evaluate_label,
)
from repro.api import RegistryError, make_estimator, registered_estimators
from repro.api.registry import estimate_many as registry_estimate_many
from repro.core.counts import _dense_fits
from repro.core.errors import BatchLabelEvaluator, evaluate_labels
from repro.core.pattern import OPS, Predicate
from repro.core.patternsets import PatternSet, full_pattern_set

# -- strategies -----------------------------------------------------------------


@st.composite
def datasets(draw, min_rows: int = 2, max_rows: int = 24, allow_missing=False):
    """A random small categorical relation with pinned domains."""
    n_attrs = draw(st.integers(2, 4))
    names = [f"A{i}" for i in range(n_attrs)]
    domain_sizes = [draw(st.integers(2, 3)) for _ in range(n_attrs)]
    n_rows = draw(st.integers(min_rows, max_rows))
    columns = {}
    for name, size in zip(names, domain_sizes):
        domain = [f"v{j}" for j in range(size)]
        columns[name] = draw(
            st.lists(
                st.sampled_from(domain + ([None] if allow_missing else [])),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
    domains = {
        name: tuple(f"v{j}" for j in range(size))
        for name, size in zip(names, domain_sizes)
    }
    return Dataset.from_columns(columns, domains=domains)


@st.composite
def workloads(draw, data: Dataset, min_patterns=1, max_patterns=12):
    """Random mixed-arity patterns over ``data``'s domains.

    Values are drawn from the *domains*, not from the rows, so the
    workload exercises zero-count patterns too.
    """
    names = list(data.attribute_names)
    schema = data.schema
    n_patterns = draw(st.integers(min_patterns, max_patterns))
    patterns = []
    for _ in range(n_patterns):
        arity = draw(st.integers(1, len(names)))
        attrs = draw(
            st.lists(
                st.sampled_from(names),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        patterns.append(
            Pattern(
                {
                    a: draw(st.sampled_from(list(schema[a].categories)))
                    for a in attrs
                }
            )
        )
    return patterns


@st.composite
def mixed_workloads(draw, data: Dataset, min_patterns=1, max_patterns=12):
    """Random patterns mixing equality bindings and range predicates.

    Each binding independently draws an operator from :data:`OPS`; the
    ``=`` draw keeps the historical equality shape, the comparison draws
    anchor a range predicate at a domain value (the ``v0``/``v1``/...
    string domains are totally ordered, so every operator is valid).
    """
    names = list(data.attribute_names)
    schema = data.schema
    n_patterns = draw(st.integers(min_patterns, max_patterns))
    patterns = []
    for _ in range(n_patterns):
        arity = draw(st.integers(1, len(names)))
        attrs = draw(
            st.lists(
                st.sampled_from(names),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        spec = {}
        for a in attrs:
            value = draw(st.sampled_from(list(schema[a].categories)))
            op = draw(st.sampled_from(OPS))
            spec[a] = value if op == "=" else Predicate(op, value)
        patterns.append(Pattern(spec))
    return patterns


@st.composite
def dataset_and_workload(draw, allow_missing=False):
    data = draw(datasets(allow_missing=allow_missing))
    return data, draw(workloads(data))


def _brute_count(data: Dataset, pattern: Pattern) -> int:
    """Row-by-row reference count via ``Pattern.matches_row``."""
    return sum(
        pattern.matches_row(data.row(i)) for i in range(data.n_rows)
    )


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _subsets_of(draw, data: Dataset):
    names = list(data.attribute_names)
    k = draw(st.integers(1, len(names)))
    return tuple(
        draw(
            st.lists(
                st.sampled_from(names), min_size=k, max_size=k, unique=True
            )
        )
    )


# -- count_many == looped count -------------------------------------------------


@SETTINGS
@given(dataset_and_workload())
def test_count_many_matches_scalar_loop(data_workload):
    data, patterns = data_workload
    counter = PatternCounter(data)
    batch = counter.count_many(patterns)
    scalar = [counter.count(p) for p in patterns]
    assert list(batch) == scalar
    # Repeat batches go through the promoted key tables — still equal.
    assert list(counter.count_many(patterns)) == scalar


@SETTINGS
@given(dataset_and_workload(allow_missing=True))
def test_count_many_matches_scalar_loop_with_missing(data_workload):
    """Missing values never satisfy a pattern, on both paths."""
    data, patterns = data_workload
    counter = PatternCounter(data)
    assert list(counter.count_many(patterns)) == [
        counter.count(p) for p in patterns
    ]


@SETTINGS
@given(st.data())
def test_count_many_matches_brute_force_mixed(data_strategy):
    """Mixed equality/range workloads: kernel == scalar == brute force."""
    data = data_strategy.draw(datasets(allow_missing=True))
    patterns = data_strategy.draw(mixed_workloads(data))
    counter = PatternCounter(data)
    brute = [_brute_count(data, p) for p in patterns]
    assert [counter.count(p) for p in patterns] == brute
    assert list(counter.count_many(patterns)) == brute
    # Repeat batch: warm key tables and cumsum caches, still identical.
    assert list(counter.count_many(patterns)) == brute


# -- a single source's first batch == bitset == key table -----------------------

#: Cardinality of the two wide columns ``W`` and ``X``.  A set binding
#: both has radix >= 300 * 300 = 90,000, past the dense rule at these
#: row counts (``max(1 << 16, 8 * rows)``), so it takes the sort one-shot;
#: every other set holding ``W`` stays dense.
WIDE_CARDINALITY = 300


@st.composite
def first_batch_case(draw, allow_missing):
    """A relation with the two wide columns, a dense and a sort-path
    attribute set over it, and query codes drawn from the domains."""
    data = draw(datasets(allow_missing=allow_missing))
    narrow = list(data.attribute_names)
    for name in ("W", "X"):
        domain = tuple(f"{name}{j:03d}" for j in range(WIDE_CARDINALITY))
        values = draw(
            st.lists(
                st.sampled_from(
                    list(domain) + ([None] if allow_missing else [])
                ),
                min_size=data.n_rows,
                max_size=data.n_rows,
            )
        )
        data = data.with_column(name, values, domain=domain)
    extra = tuple(
        draw(st.lists(st.sampled_from(narrow), max_size=2, unique=True))
    )
    cases = []
    for attrs in (("W",) + extra, ("W", "X") + extra):
        cards = [data.schema[a].cardinality for a in attrs]
        combos = np.array(
            [
                [draw(st.integers(0, card - 1)) for card in cards]
                for _ in range(draw(st.integers(1, 8)))
            ],
            dtype=np.int32,
        ).reshape(-1, len(attrs))
        cases.append((attrs, combos))
    return data, cases


@SETTINGS
@given(st.data(), st.booleans())
def test_first_batch_matches_bitset_and_key_table(
    data_strategy, allow_missing
):
    """``counts_for_codes`` on a fresh one-source counter — the dense
    ``bincount`` and the sort one-shot alike — equals the bitset counts
    and the repeat batch's key table, counts an absent combination 0,
    and caches no key table."""
    data, cases = data_strategy.draw(first_batch_case(allow_missing))
    dense = [
        _dense_fits(
            math.prod(data.schema[a].cardinality for a in attrs),
            data.n_rows,
        )
        for attrs, _ in cases
    ]
    assert dense == [True, False]  # both branches run
    w_codes = set(data.codes("W").tolist())
    absent_w = next(c for c in range(WIDE_CARDINALITY) if c not in w_codes)
    for attrs, combos in cases:
        absent = combos[:1].copy()
        absent[0, 0] = absent_w  # no row holds this W value
        combos = np.vstack([combos, absent])
        counter = PatternCounter(data)
        first = counter.counts_for_codes(attrs, combos)
        assert first.dtype == np.int64
        assert not counter._key_tables
        assert not counter.sources[0]._key_tables
        bitset = [
            counter.count(counter.pattern_from_codes(attrs, row))
            for row in combos
        ]
        assert first.tolist() == bitset
        assert first[-1] == 0
        repeat = counter.counts_for_codes(attrs, combos)
        assert counter._key_tables[attrs] is not None  # the key table path
        assert repeat.tolist() == bitset


# -- batched evaluate_label == scalar -------------------------------------------


@SETTINGS
@given(st.data())
def test_batched_evaluation_matches_scalar_estimator(data_strategy):
    """BatchLabelEvaluator == evaluate_label == per-pattern LabelEstimator."""
    data = data_strategy.draw(datasets())
    counter = PatternCounter(data)
    patterns = data_strategy.draw(workloads(data))
    pattern_set = PatternSet.from_patterns(counter, patterns)
    subset = _subsets_of(data_strategy.draw, data)

    scalar_estimator = LabelEstimator(build_label(counter, subset))
    scalar_estimates = np.array(
        [scalar_estimator.estimate(p) for p in patterns]
    )

    evaluator = BatchLabelEvaluator(counter, pattern_set)
    np.testing.assert_allclose(
        evaluator.estimates(tuple(sorted(subset))),
        scalar_estimates,
        rtol=1e-9,
        atol=1e-12,
    )

    batch_summary = evaluator.evaluate(subset)
    plain_summary = evaluate_label(counter, subset, pattern_set)
    for field in ("n_patterns", "max_abs", "mean_abs", "max_q", "mean_q"):
        assert getattr(batch_summary, field) == pytest.approx(
            getattr(plain_summary, field), rel=1e-9
        ), field


@SETTINGS
@given(st.data())
def test_evaluate_labels_matches_per_candidate_calls(data_strategy):
    data = data_strategy.draw(datasets())
    counter = PatternCounter(data)
    pattern_set = full_pattern_set(counter)
    candidates = [
        _subsets_of(data_strategy.draw, data) for _ in range(3)
    ]
    batch = evaluate_labels(counter, candidates, pattern_set)
    for candidate, summary in zip(candidates, batch):
        reference = evaluate_label(counter, candidate, pattern_set)
        assert summary.max_abs == pytest.approx(reference.max_abs, rel=1e-9)
        assert summary.mean_q == pytest.approx(reference.mean_q, rel=1e-9)


@SETTINGS
@given(st.data())
def test_batched_evaluation_matches_scalar_estimator_mixed(data_strategy):
    """Range-bearing pattern sets through the batch evaluation pass."""
    data = data_strategy.draw(datasets())
    counter = PatternCounter(data)
    patterns = data_strategy.draw(mixed_workloads(data))
    pattern_set = PatternSet.from_patterns(counter, patterns)
    subset = _subsets_of(data_strategy.draw, data)

    scalar_estimator = LabelEstimator(build_label(counter, subset))
    scalar_estimates = np.array(
        [scalar_estimator.estimate(p) for p in patterns]
    )

    evaluator = BatchLabelEvaluator(counter, pattern_set)
    np.testing.assert_allclose(
        evaluator.estimates(tuple(sorted(subset))),
        scalar_estimates,
        rtol=1e-9,
        atol=1e-12,
    )
    batch_summary = evaluator.evaluate(subset)
    plain_summary = evaluate_label(counter, subset, pattern_set)
    for field in ("n_patterns", "max_abs", "mean_abs", "max_q", "mean_q"):
        assert getattr(batch_summary, field) == pytest.approx(
            getattr(plain_summary, field), rel=1e-9
        ), field


# -- estimate vs estimate_many across every registered backend ------------------

_BACKEND_PARAMS = {
    # bound 12 > 3*3, the largest possible 2-attribute label of the
    # generated relations, so the search always finds a feasible subset.
    "label": {"bound": 12},
    "flexible": {"bound": 4},
    "multi_label": {"bound": 12, "n_labels": 2},
    "independence": {},
    "sampling": {"bound": 8, "seed": 0},
    "dephist": {},
    "postgres": {"seed": 0},
}


def test_backend_param_table_covers_registry():
    """Every built-in backend must appear in the parity sweep below.

    Subset, not equality: the registry is global and other tests (and
    deployments) legitimately register extra backends at runtime.
    """
    assert set(_BACKEND_PARAMS) <= set(registered_estimators())
    builtins = {
        "label",
        "flexible",
        "multi_label",
        "independence",
        "sampling",
        "dephist",
        "postgres",
    }
    assert builtins <= set(_BACKEND_PARAMS)


@SETTINGS
@given(dataset_and_workload())
def test_estimate_many_matches_estimate_for_all_backends(data_workload):
    data, patterns = data_workload
    for name, params in _BACKEND_PARAMS.items():
        try:
            estimator = make_estimator(name, data, **params)
        except RegistryError:
            continue  # optional dependency missing (e.g. networkx)
        scalar = [float(estimator.estimate(p)) for p in patterns]
        batched = registry_estimate_many(estimator, patterns)
        np.testing.assert_allclose(
            batched, scalar, rtol=1e-9, atol=1e-12, err_msg=name
        )


#: Backends whose scalar ``estimate`` understands range predicates; the
#: DBMS-statistics baselines (dephist, postgres) stay equality-only.
_RANGE_BACKENDS = ("label", "flexible", "multi_label", "independence", "sampling")


@SETTINGS
@given(st.data())
def test_estimate_many_matches_estimate_for_range_backends(data_strategy):
    data = data_strategy.draw(datasets())
    patterns = data_strategy.draw(mixed_workloads(data))
    for name in _RANGE_BACKENDS:
        estimator = make_estimator(name, data, **_BACKEND_PARAMS[name])
        scalar = [float(estimator.estimate(p)) for p in patterns]
        batched = registry_estimate_many(estimator, patterns)
        np.testing.assert_allclose(
            batched, scalar, rtol=1e-9, atol=1e-12, err_msg=name
        )


@SETTINGS
@given(st.data())
def test_label_estimate_many_is_bit_identical_to_estimate(data_strategy):
    """``LabelEstimator.estimate_many`` equals the scalar ``estimate``
    exactly (``==``, not ``allclose``).

    The workload mixes equality patterns with ranges on attributes both
    inside and outside ``S``.  Missing values give ``PC`` partial-support
    keys, which the batch path must hit as exact keys, as the scalar
    path does.  The batch runs on its own label, so its marginal tables
    start cold, and then once more warm.
    """
    data = data_strategy.draw(datasets(allow_missing=True))
    names = list(data.attribute_names)
    subset = data_strategy.draw(
        st.lists(st.sampled_from(names), unique=True, max_size=len(names))
    )
    patterns = data_strategy.draw(
        mixed_workloads(data, max_patterns=24)
    ) + data_strategy.draw(workloads(data))
    counter = PatternCounter(data)
    scalar_estimator = LabelEstimator(build_label(counter, subset))
    scalar = [scalar_estimator.estimate(p) for p in patterns]
    batched = LabelEstimator(build_label(counter, subset))
    assert batched.estimate_many(patterns) == scalar
    assert batched.estimate_many(patterns) == scalar


@SETTINGS
@given(datasets())
def test_tabular_pattern_set_dispatch_matches_scalar(data):
    """PatternSet dispatch (estimate_codes fast path) stays consistent."""
    counter = PatternCounter(data)
    pattern_set = full_pattern_set(counter)
    patterns = [pattern_set.pattern(i) for i in range(len(pattern_set))]
    for name in ("independence", "postgres", "sampling"):
        estimator = make_estimator(
            name, data, **_BACKEND_PARAMS[name]
        )
        via_set = registry_estimate_many(estimator, pattern_set)
        scalar = [float(estimator.estimate(p)) for p in patterns]
        np.testing.assert_allclose(
            via_set, scalar, rtol=1e-9, atol=1e-12, err_msg=name
        )
