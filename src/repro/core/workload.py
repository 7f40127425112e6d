"""Workload-style pattern sets: the flexible ``P`` of Definition 2.15.

The paper's problem statement is parameterized by an arbitrary pattern
set ``P`` — *"Our problem definition is more flexible, and allows the
user to define a different pattern set, e.g., patterns that include only
sensitive attributes."*  The experiments fix ``P = P_A``; this module
supplies the other constructions a deployment needs:

* :func:`random_pattern_workload` — ``n`` random positive-count patterns
  of a given arity (range), drawn from actual data tuples so they are
  satisfiable: a query-workload model for the selectivity-estimation
  reading of the paper;
* :func:`arity_pattern_set` — every positive-count pattern of exactly
  arity ``k`` (all ``k``-subsets of attributes × their joint tables),
  optionally capped;
* :func:`marginals_pattern_set` — all 1-D patterns (the sanity floor:
  every label estimates these exactly through ``VC``).

All three return :class:`~repro.core.patternsets.PatternSet` objects and
plug directly into the search (``top_down_search(..., pattern_set=...)``),
so labels can be *optimized for the queries that will actually be asked*.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np

from repro.core.counts import PatternCounter
from repro.core.pattern import Pattern, Predicate
from repro.core.patternsets import PatternSet
from repro.dataset.schema import MISSING_CODE

__all__ = [
    "draw_tuple_patterns",
    "random_pattern_workload",
    "random_mixed_workload",
    "arity_pattern_set",
    "marginals_pattern_set",
]


def random_pattern_workload(
    counter: PatternCounter,
    n_patterns: int,
    rng: np.random.Generator,
    *,
    min_arity: int = 1,
    max_arity: int | None = None,
) -> PatternSet:
    """Draw ``n_patterns`` random positive-count patterns.

    Each pattern is built by sampling a data tuple uniformly and keeping
    a random attribute subset of the requested arity — so every pattern
    has count ≥ 1 (an empty-result query needs no label to answer).
    Duplicates are allowed, mirroring real workloads where popular
    queries repeat.

    Parameters
    ----------
    counter:
        Count oracle of the dataset.
    n_patterns:
        Workload size.
    rng:
        Randomness source.
    min_arity, max_arity:
        Inclusive bounds on the number of bound attributes; ``max_arity``
        defaults to the full attribute count.
    """
    patterns = draw_tuple_patterns(
        counter, n_patterns, rng, min_arity=min_arity, max_arity=max_arity
    )
    return PatternSet.from_patterns(counter, patterns)


def draw_tuple_patterns(
    counter: PatternCounter,
    n_patterns: int,
    rng: np.random.Generator,
    *,
    min_arity: int = 1,
    max_arity: int | None = None,
) -> list[Pattern]:
    """The tuple-sampling loop behind the workload generators.

    The patterns of :func:`random_pattern_workload` without their
    counts.  Each draw reads its row's codes straight from the owning
    source's code matrix (found by bisecting the sources' cumulative row
    counts) instead of materializing the row.
    """
    if n_patterns < 1:
        raise ValueError("n_patterns must be positive")
    n_rows = counter.total_rows
    if n_rows == 0:
        raise ValueError("cannot draw a workload from an empty dataset")
    schema = counter.schema
    names = schema.names
    if max_arity is None:
        max_arity = len(names)
    if not 1 <= min_arity <= max_arity <= len(names):
        raise ValueError(
            f"need 1 <= min_arity <= max_arity <= {len(names)}, got "
            f"[{min_arity}, {max_arity}]"
        )
    sources = counter.sources
    matrices = [source.dataset.codes_matrix() for source in sources]
    ends = list(itertools.accumulate(source.rows for source in sources))
    categories = [column.categories for column in schema]

    patterns: list[Pattern] = []
    attempts = 0
    while len(patterns) < n_patterns:
        attempts += 1
        if attempts > 50 * n_patterns:
            raise RuntimeError(
                "could not draw enough fully-present tuples; the data is "
                "dominated by missing values"
            )
        index = int(rng.integers(0, n_rows))
        shard = bisect.bisect_right(ends, index)
        start = ends[shard - 1] if shard else 0
        codes = matrices[shard][index - start].tolist()
        present = [j for j, code in enumerate(codes) if code != MISSING_CODE]
        if len(present) < min_arity:
            continue
        arity = int(rng.integers(min_arity, min(max_arity, len(present)) + 1))
        chosen = rng.choice(len(present), size=arity, replace=False)
        bound = [present[i] for i in chosen]
        patterns.append(
            Pattern({names[j]: categories[j][codes[j]] for j in bound})
        )
    return patterns


_RANGE_OPS = ("<", "<=", ">", ">=")


def _is_orderable(column) -> bool:
    """True when every pair of the column's categories can be compared."""
    try:
        sorted(value for value in column.categories if value is not None)
    except TypeError:
        return False
    return True


def random_mixed_workload(
    counter: PatternCounter,
    n_patterns: int,
    rng: np.random.Generator,
    *,
    min_arity: int = 1,
    max_arity: int | None = None,
    range_share: float = 0.5,
) -> PatternSet:
    """Draw a workload mixing equality and range predicates.

    Patterns are sampled from data tuples exactly as in
    :func:`random_pattern_workload`; each pattern is then, with
    probability ``range_share``, converted to a *range* pattern by
    replacing one randomly-chosen binding's equality value with a
    comparison predicate anchored at that value (operator drawn
    uniformly from ``<``, ``<=``, ``>``, ``>=``).  Only attributes
    whose active domain is totally orderable are eligible anchors —
    mixed-type domains keep their equality bindings.

    This is the workload shape of the range benchmarks: roughly half
    the queries exercise the code-run kernel, the other half the
    historical equality kernels, through the same batched entry point.
    """
    if not 0.0 <= range_share <= 1.0:
        raise ValueError("range_share must be within [0, 1]")
    drawn = draw_tuple_patterns(
        counter, n_patterns, rng, min_arity=min_arity, max_arity=max_arity
    )
    schema = counter.dataset.schema
    orderable = {column.name: _is_orderable(column) for column in schema}
    patterns: list[Pattern] = []
    for pattern in drawn:
        spec = dict(pattern.items_sorted)
        eligible = [a for a in spec if orderable[a]]
        if eligible and float(rng.random()) < range_share:
            attribute = eligible[int(rng.integers(0, len(eligible)))]
            op = _RANGE_OPS[int(rng.integers(0, len(_RANGE_OPS)))]
            spec[attribute] = Predicate(op, spec[attribute])
        patterns.append(Pattern(spec))
    return PatternSet.from_patterns(counter, patterns)


def arity_pattern_set(
    counter: PatternCounter,
    arity: int,
    *,
    max_patterns: int | None = None,
) -> PatternSet:
    """Every positive-count pattern binding exactly ``arity`` attributes.

    Enumerates the joint count table of each ``arity``-subset of
    attributes.  ``max_patterns`` truncates the enumeration (subsets are
    visited in attribute order) for the high-dimensional datasets, where
    the full arity-3 set alone is enormous.
    """
    dataset = counter.dataset
    names = dataset.attribute_names
    if not 1 <= arity <= len(names):
        raise ValueError(f"arity must be within [1, {len(names)}]")
    schema = dataset.schema
    patterns: list[Pattern] = []
    for subset in itertools.combinations(names, arity):
        combos, _counts = counter.joint_table(subset)
        for row in combos:
            patterns.append(
                Pattern(
                    {
                        a: schema[a].category_of(int(code))
                        for a, code in zip(subset, row)
                    }
                )
            )
            if max_patterns is not None and len(patterns) >= max_patterns:
                return PatternSet.from_patterns(counter, patterns)
    return PatternSet.from_patterns(counter, patterns)


def marginals_pattern_set(counter: PatternCounter) -> PatternSet:
    """All single-attribute patterns with positive count.

    Every label estimates these exactly (their counts are in ``VC``), so
    this set is the floor any estimator must clear — useful as a test
    oracle and as a workload sanity check.
    """
    patterns = [
        Pattern({column.name: value})
        for column in counter.dataset.schema
        for value, count in counter.value_counts(column.name).items()
        if count > 0
    ]
    return PatternSet.from_patterns(counter, patterns)
