"""Property-based tests (hypothesis) for the core invariants.

Random small categorical relations are generated and the paper's
structural claims are checked on every one of them: estimation exactness
inside ``S`` (Section III-A), exact marginalization, label-size
monotonicity (the naive cutoff's soundness), ``gen``'s no-duplicates
guarantee (Proposition 3.8), metric properties of the error functions,
and serialization round-trips.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    Label,
    LabelEstimator,
    Pattern,
    PatternCounter,
    build_label,
    evaluate_label,
    q_error,
)
from repro.core.errors import absolute_error, vectorized_estimates
from repro.core.lattice import LabelLattice
from repro.core.patternsets import full_pattern_set
from repro.core.search import NoFeasibleLabelError, naive_search, top_down_search
from repro.dataset.table import combine_codes

# -- strategies -----------------------------------------------------------------


@st.composite
def datasets(draw, min_rows: int = 1, max_rows: int = 24, allow_missing=False):
    """A random small categorical relation."""
    n_attrs = draw(st.integers(2, 4))
    names = [f"A{i}" for i in range(n_attrs)]
    domain_sizes = [draw(st.integers(2, 3)) for _ in range(n_attrs)]
    n_rows = draw(st.integers(min_rows, max_rows))
    columns = {}
    for name, size in zip(names, domain_sizes):
        domain = [f"v{j}" for j in range(size)]
        values = draw(
            st.lists(
                st.sampled_from(domain + ([None] if allow_missing else [])),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        columns[name] = values
    domains = {
        name: tuple(f"v{j}" for j in range(size))
        for name, size in zip(names, domain_sizes)
    }
    return Dataset.from_columns(columns, domains=domains)


@st.composite
def dataset_and_subset(draw, allow_missing=False):
    data = draw(datasets(allow_missing=allow_missing))
    names = list(data.attribute_names)
    k = draw(st.integers(1, len(names)))
    subset = draw(
        st.lists(st.sampled_from(names), min_size=k, max_size=k, unique=True)
    )
    return data, tuple(subset)


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- combine_codes --------------------------------------------------------------


@SETTINGS
@given(
    st.integers(1, 50),
    st.integers(1, 6),
    st.integers(2, 5),
    st.integers(0, 2**31 - 1),
)
def test_combine_codes_groups_like_row_equality(n_rows, n_cols, card, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, card, size=(n_rows, n_cols)).astype(np.int32)
    keys = combine_codes(codes, [card] * n_cols)
    for i in range(min(n_rows, 12)):
        for j in range(i + 1, min(n_rows, 12)):
            rows_equal = bool((codes[i] == codes[j]).all())
            assert (keys[i] == keys[j]) == rows_equal


# -- estimation -----------------------------------------------------------------


@SETTINGS
@given(dataset_and_subset())
def test_estimation_exact_within_s(data_subset):
    """Section III-A: Attr(p) ⊆ S implies Est(p, l) = c_D(p)."""
    data, subset = data_subset
    counter = PatternCounter(data)
    estimator = LabelEstimator(build_label(counter, subset))
    domains = {a: data.schema[a].categories for a in subset}
    for combo in itertools.islice(
        itertools.product(*(domains[a] for a in subset)), 20
    ):
        pattern = Pattern(dict(zip(subset, combo)))
        assert estimator.estimate(pattern) == counter.count(pattern)


@SETTINGS
@given(dataset_and_subset())
def test_restricted_count_marginalizes_exactly(data_subset):
    data, subset = data_subset
    counter = PatternCounter(data)
    label = build_label(counter, subset)
    attribute = subset[0]
    for value in data.schema[attribute].categories:
        pattern = Pattern({attribute: value})
        assert label.restricted_count(pattern) == counter.count(pattern)


@SETTINGS
@given(dataset_and_subset())
def test_vectorized_estimates_match_estimator(data_subset):
    data, subset = data_subset
    counter = PatternCounter(data)
    pattern_set = full_pattern_set(counter)
    if len(pattern_set) == 0:
        return
    vectorized = vectorized_estimates(counter, subset, pattern_set)
    estimator = LabelEstimator(build_label(counter, subset))
    for index in range(len(pattern_set)):
        single = estimator.estimate(pattern_set.pattern(index))
        assert abs(vectorized[index] - single) <= 1e-9 * max(1.0, single)


@SETTINGS
@given(datasets())
def test_full_attribute_label_has_zero_error(data):
    counter = PatternCounter(data)
    summary = evaluate_label(counter, data.attribute_names)
    assert summary.max_abs == 0.0
    assert summary.max_q == 1.0


@SETTINGS
@given(datasets())
def test_estimates_are_non_negative_and_bounded(data):
    counter = PatternCounter(data)
    pattern_set = full_pattern_set(counter)
    for subset_size in (0, 1):
        for subset in itertools.combinations(
            data.attribute_names, subset_size
        ):
            estimates = vectorized_estimates(counter, subset, pattern_set)
            assert (estimates >= 0).all()
            assert (estimates <= data.n_rows + 1e-9).all()


# -- label size -----------------------------------------------------------------


@SETTINGS
@given(datasets())
def test_label_size_monotone_under_attribute_addition(data):
    """Soundness of the naive cutoff: |P_S| never shrinks as S grows."""
    counter = PatternCounter(data)
    names = data.attribute_names
    for subset_size in range(1, len(names)):
        for subset in itertools.combinations(names, subset_size):
            for extra in names:
                if extra in subset:
                    continue
                bigger = tuple(sorted(subset + (extra,)))
                assert counter.label_size(bigger) >= counter.label_size(
                    subset
                )


@SETTINGS
@given(datasets(allow_missing=True))
def test_label_size_monotone_with_missing_values(data):
    counter = PatternCounter(data)
    names = data.attribute_names
    for subset in itertools.combinations(names, 2):
        full = tuple(names)
        assert counter.label_size(full) >= counter.label_size(subset) or (
            counter.label_size(subset) == 0
        )


@SETTINGS
@given(datasets())
def test_label_size_bounded_by_domain_product_and_rows(data):
    counter = PatternCounter(data)
    names = data.attribute_names
    for subset in itertools.combinations(names, 2):
        size = counter.label_size(subset)
        product = 1
        for attribute in subset:
            product *= data.schema[attribute].cardinality
        assert size <= min(product, data.n_rows)


# -- error metrics ---------------------------------------------------------------


@SETTINGS
@given(
    st.integers(0, 10_000),
    st.floats(0, 10_000, allow_nan=False),
)
def test_metric_properties(true_count, estimate):
    assert absolute_error(true_count, estimate) >= 0.0
    assert q_error(true_count, estimate) >= 1.0


@SETTINGS
@given(st.integers(1, 10_000))
def test_exact_estimate_metrics(count):
    assert absolute_error(count, count) == 0.0
    assert q_error(count, count) == 1.0


# -- lattice ----------------------------------------------------------------------


@SETTINGS
@given(st.integers(1, 6))
def test_gen_traversal_covers_each_nonempty_subset_once(n):
    order = tuple(f"A{i}" for i in range(n))
    lattice = LabelLattice(order)
    visited = list(lattice.iter_top_down())
    assert len(visited) == len(set(visited)) == 2**n - 1


@SETTINGS
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_gen_children_partition_against_parents(n, seed):
    """Every subset of size >= 2 is generated by exactly one parent."""
    order = tuple(f"A{i}" for i in range(n))
    lattice = LabelLattice(order)
    generated_by: dict[tuple[str, ...], int] = {}
    for node in lattice.iter_top_down():
        for child in lattice.gen(node):
            generated_by[child] = generated_by.get(child, 0) + 1
    assert all(count == 1 for count in generated_by.values())


# -- search -----------------------------------------------------------------------


@SETTINGS
@given(datasets(min_rows=4), st.integers(2, 12))
def test_topdown_candidates_subset_of_naive_feasible(data, bound):
    counter = PatternCounter(data)
    pattern_set = full_pattern_set(counter)
    try:
        naive = naive_search(counter, bound, pattern_set=pattern_set)
    except NoFeasibleLabelError:
        try:
            top_down_search(counter, bound, pattern_set=pattern_set)
            raise AssertionError("top-down found a label where naive did not")
        except NoFeasibleLabelError:
            return
    top = top_down_search(counter, bound, pattern_set=pattern_set)
    assert set(top.candidates) <= set(naive.candidates)
    # The exhaustive optimum can only be at least as good.
    assert naive.objective_value <= top.objective_value + 1e-9


@SETTINGS
@given(datasets(min_rows=4), st.integers(2, 12))
def test_search_result_fits_bound(data, bound):
    counter = PatternCounter(data)
    try:
        result = top_down_search(counter, bound)
    except NoFeasibleLabelError:
        return
    assert result.label.size <= bound
    assert result.summary.max_abs == result.objective_value


# -- serialization ----------------------------------------------------------------


@SETTINGS
@given(dataset_and_subset())
def test_label_json_roundtrip(data_subset):
    data, subset = data_subset
    label = build_label(data, subset)
    restored = Label.from_json(label.to_json())
    assert restored.attributes == label.attributes
    assert restored.pc == label.pc
    assert restored.vc == label.vc
    assert restored.total == label.total


@SETTINGS
@given(dataset_and_subset())
def test_roundtripped_label_estimates_identically(data_subset):
    data, subset = data_subset
    counter = PatternCounter(data)
    label = build_label(counter, subset)
    restored = Label.from_json(label.to_json())
    original = LabelEstimator(label)
    recovered = LabelEstimator(restored)
    names = data.attribute_names
    pattern = Pattern(
        {names[0]: data.schema[names[0]].categories[0]}
    )
    assert original.estimate(pattern) == recovered.estimate(pattern)


# -- dataset operations ------------------------------------------------------------


@SETTINGS
@given(datasets())
def test_concat_counts_additive(data):
    doubled = data.concat(data)
    for attribute in data.attribute_names:
        base = data.value_counts(attribute)
        combined = doubled.value_counts(attribute)
        for value, count in base.items():
            assert combined[value] == 2 * count


@SETTINGS
@given(datasets())
def test_joint_counts_marginalize_to_value_counts(data):
    names = data.attribute_names
    combos, counts = data.joint_counts(list(names[:2]))
    first = names[0]
    marginal: dict[int, int] = {}
    for combo, count in zip(combos, counts):
        marginal[int(combo[0])] = marginal.get(int(combo[0]), 0) + int(count)
    expected = data.value_counts(first)
    for code, total in marginal.items():
        value = data.schema[first].category_of(code)
        assert expected[value] >= total  # missing rows in other column
