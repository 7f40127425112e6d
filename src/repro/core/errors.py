"""Error metrics and label evaluation (Definition 2.13, Section II-B).

Two metric families:

* **absolute error** ``|c_D(p) - Est(p, l)|`` — the paper's headline
  metric is its *maximum* over the pattern set ("stiffer and gives us a
  sense of the error bound"), with the mean reported in parentheses in
  Figure 4;
* **q-error** ``max(c/est, est/c)`` — the selectivity-estimation standard,
  reported as mean (Figure 5), with ``est := 1`` substituted whenever the
  estimate is 0 to avoid division by zero (Section IV-B).

:func:`evaluate_label` computes a full :class:`ErrorSummary` of a label
against a pattern set, using a vectorized fast path for tabular sets — the
hot loop of the search algorithms.  :class:`BatchLabelEvaluator` amortizes
that loop across *many* candidate subsets: the pattern set is encoded
once (code groups, per-attribute independence-factor columns) and every
candidate is then scored with one base-count lookup plus cached factor
multiplies.  :func:`scan_max_abs_error` implements the paper's
early-termination scan (Section IV-C): patterns are visited in decreasing
count order and the scan stops once the next count falls below the
running maximum error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.counts import PatternCounter
from repro.core.estimator import LabelEstimator
from repro.core.label import Label, build_label
from repro.core.pattern import (
    encode_groups,
    encode_range_groups,
    split_by_ranges,
)
from repro.core.patternsets import PatternSet, full_pattern_set
from repro.core.sharding import make_counter

__all__ = [
    "absolute_error",
    "q_error",
    "ErrorSummary",
    "Objective",
    "estimates_for_codes",
    "estimates_for_runs",
    "vectorized_estimates",
    "grouped_estimates",
    "evaluate_label",
    "evaluate_labels",
    "BatchLabelEvaluator",
    "scan_max_abs_error",
]


def absolute_error(true_count: float, estimate: float) -> float:
    """``Err(l, p) = |c_D(p) - Est(p, l)|`` (Definition 2.13)."""
    return abs(float(true_count) - float(estimate))


def q_error(true_count: float, estimate: float) -> float:
    """``q-error(p) = max(c/est, est/c)`` with the paper's zero guard.

    Counts are integers, so the estimate is rounded to the nearest count
    before comparison; a rounded estimate of 0 is replaced by 1
    (Section IV-B: "we set est(p) = 1 whenever the actual estimation was
    0" — without integral estimates the guard would never fire and any
    fractional estimate of a count-1 pattern would explode the metric).
    A true count of 0 is likewise guarded, although the shipped pattern
    sets only contain positive counts.
    """
    est = float(round(estimate))
    if est <= 0:
        est = 1.0
    true = float(true_count) if true_count > 0 else 1.0
    return max(true / est, est / true)


@dataclass(frozen=True)
class ErrorSummary:
    """Aggregate error of one label over one pattern set."""

    n_patterns: int
    max_abs: float
    mean_abs: float
    std_abs: float
    max_q: float
    mean_q: float

    @classmethod
    def from_arrays(
        cls, true_counts: np.ndarray, estimates: np.ndarray
    ) -> "ErrorSummary":
        """Summarize per-pattern true counts against estimates."""
        true_counts = np.asarray(true_counts, dtype=np.float64)
        estimates = np.asarray(estimates, dtype=np.float64)
        if true_counts.shape != estimates.shape:
            raise ValueError("true counts / estimates length mismatch")
        if true_counts.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 1.0, 1.0)
        abs_errors = np.abs(true_counts - estimates)
        # q-error on integral estimates with the est=0 -> 1 guard (see
        # q_error); absolute error stays on the raw estimates.
        rounded = np.rint(estimates)
        guarded_est = np.where(rounded > 0, rounded, 1.0)
        guarded_true = np.where(true_counts > 0, true_counts, 1.0)
        q_errors = np.maximum(
            guarded_true / guarded_est, guarded_est / guarded_true
        )
        return cls(
            n_patterns=int(true_counts.size),
            max_abs=float(abs_errors.max()),
            mean_abs=float(abs_errors.mean()),
            std_abs=float(abs_errors.std()),
            max_q=float(q_errors.max()),
            mean_q=float(q_errors.mean()),
        )

    def max_abs_fraction(self, total: int) -> float:
        """Max absolute error as a fraction of the data size (Fig. 4 y-axis)."""
        return self.max_abs / total if total else 0.0


class Objective(enum.Enum):
    """Optimization objective of the label search.

    The paper optimizes ``MAX_ABS`` (Definition 2.15) and notes that the
    problem and algorithms are unchanged under q-error (Section II-B); the
    other members make that claim executable.
    """

    MAX_ABS = "max-abs"
    MEAN_ABS = "mean-abs"
    MAX_Q = "max-q"
    MEAN_Q = "mean-q"

    def of(self, summary: ErrorSummary) -> float:
        """Extract this objective's value from a summary."""
        return {
            Objective.MAX_ABS: summary.max_abs,
            Objective.MEAN_ABS: summary.mean_abs,
            Objective.MAX_Q: summary.max_q,
            Objective.MEAN_Q: summary.mean_q,
        }[self]


def estimates_for_codes(
    counter: PatternCounter,
    label_attributes: Sequence[str],
    pattern_attributes: Sequence[str],
    combos: np.ndarray,
) -> np.ndarray:
    """``Est(p, L_S(D))`` for each code row of a homogeneous batch.

    All patterns bind exactly ``pattern_attributes``; ``combos`` holds
    their codes row-wise.  The base term ``c_D(p|_S)`` is looked up in
    the joint count table over ``S ∩ T`` (which coincides with the exact
    marginal of the label's ``PC``); the independence factors of the
    remaining attributes come from per-code fraction arrays.
    """
    pattern_attrs = tuple(pattern_attributes)
    combos = np.asarray(combos)
    label_set = set(label_attributes)

    shared = [a for a in pattern_attrs if a in label_set]
    outside = [a for a in pattern_attrs if a not in label_set]

    if shared:
        shared_positions = [pattern_attrs.index(a) for a in shared]
        # The base term c_D(p|_S) is exactly a batched count over the
        # shared attributes — resolved by the counting kernel against its
        # cached sorted key table.
        base = counter.counts_for_codes(
            shared, combos[:, shared_positions]
        ).astype(np.float64)
    else:
        base = np.full(combos.shape[0], float(counter.total_rows))

    estimates = base
    for attribute in outside:
        position = pattern_attrs.index(attribute)
        fractions = counter.fractions(attribute)
        estimates = estimates * fractions[combos[:, position]]
    return estimates


def _run_fraction(fractions: np.ndarray, runs) -> float:
    """Summed independence factor of one binding's code runs.

    Equality bindings arrive as the single run ``(c, c + 1)``, so this
    reduces exactly to ``fractions[c]`` — the historical factor.
    """
    return float(sum(fractions[lo:hi].sum() for lo, hi in runs))


def estimates_for_runs(
    counter: PatternCounter,
    label_attributes: Sequence[str],
    order: Sequence[str],
    runs_rows: Sequence,
) -> np.ndarray:
    """``Est(p, L_S(D))`` for each row of a homogeneous *code-run* batch.

    The range twin of :func:`estimates_for_codes`: all patterns bind
    exactly the attributes of ``order`` and ``runs_rows[j][i]`` holds
    pattern ``j``'s half-open code runs on ``order[i]`` (an equality
    binding is the single run ``(c, c + 1)``).  The base term
    ``c_D(p|_S)`` is a batched run count over the shared attributes; the
    independence factor of an attribute outside ``S`` is the summed
    fraction mass of its runs.
    """
    order = tuple(order)
    label_set = set(label_attributes)

    shared = [a for a in order if a in label_set]
    outside = [a for a in order if a not in label_set]

    if shared:
        positions = [order.index(a) for a in shared]
        base = counter.counts_for_runs(
            tuple(shared),
            [tuple(row[i] for i in positions) for row in runs_rows],
        ).astype(np.float64)
    else:
        base = np.full(len(runs_rows), float(counter.total_rows))

    estimates = base
    for attribute in outside:
        position = order.index(attribute)
        fractions = counter.fractions(attribute)
        estimates = estimates * np.array(
            [_run_fraction(fractions, row[position]) for row in runs_rows],
            dtype=np.float64,
        )
    return estimates


def vectorized_estimates(
    counter: PatternCounter,
    label_attributes: Sequence[str],
    pattern_set: PatternSet,
) -> np.ndarray:
    """``Est(p, L_S(D))`` for every pattern of a *tabular* set, vectorized."""
    if not pattern_set.is_tabular:
        raise ValueError("vectorized path requires a tabular pattern set")
    assert pattern_set.attributes is not None and pattern_set.combos is not None
    return estimates_for_codes(
        counter,
        label_attributes,
        pattern_set.attributes,
        pattern_set.combos,
    )


def grouped_estimates(
    counter: PatternCounter,
    label_attributes: Sequence[str],
    patterns: Sequence,
) -> np.ndarray:
    """Vectorized estimates for a *heterogeneous* pattern list.

    Patterns are grouped by their attribute tuple; equality-only groups
    are encoded into code matrices and dispatched to
    :func:`estimates_for_codes`, range-bearing groups into code-run rows
    for :func:`estimates_for_runs` — so workload-style pattern sets
    (mixed arities, attribute choices, and predicate kinds) evaluate at
    vector speed instead of one Python call per pattern.
    """
    patterns = list(patterns)
    schema = counter.dataset.schema
    estimates = np.empty(len(patterns), dtype=np.float64)
    equality, ranged = split_by_ranges(patterns)
    if equality:
        for attrs, combos, indices in encode_groups(
            [patterns[i] for i in equality], schema
        ):
            estimates[[equality[j] for j in indices]] = estimates_for_codes(
                counter, label_attributes, attrs, combos
            )
    if ranged:
        for order, runs_rows, indices in encode_range_groups(
            [patterns[i] for i in ranged], schema
        ):
            estimates[[ranged[j] for j in indices]] = estimates_for_runs(
                counter, label_attributes, order, runs_rows
            )
    return estimates


def evaluate_label(
    counter: PatternCounter,
    label: Label | Sequence[str],
    pattern_set: PatternSet | None = None,
) -> ErrorSummary:
    """Error summary of a label (or attribute subset) over a pattern set.

    Parameters
    ----------
    counter:
        Count oracle over the labeled dataset — a
        :class:`PatternCounter` (any shard count), or a bare
        :class:`~repro.dataset.table.Dataset` (wrapped on the fly).
    label:
        Either a built :class:`Label` or just the attribute subset ``S``
        (the search only needs the subset — building the full label object
        per candidate would be wasted work).
    pattern_set:
        Defaults to ``P_A`` (:func:`~repro.core.patternsets.full_pattern_set`).
    """
    counter = make_counter(counter)
    attributes: Sequence[str]
    if isinstance(label, Label):
        attributes = label.attributes
    else:
        attributes = tuple(label)
    if pattern_set is None:
        pattern_set = full_pattern_set(counter)

    if pattern_set.is_tabular:
        estimates = vectorized_estimates(counter, attributes, pattern_set)
        return ErrorSummary.from_arrays(pattern_set.counts, estimates)

    if not counter.dataset.has_missing:
        # Heterogeneous (workload) sets: grouped vectorized path.
        patterns = [pattern_set.pattern(i) for i in range(len(pattern_set))]
        estimates = grouped_estimates(counter, attributes, patterns)
        return ErrorSummary.from_arrays(pattern_set.counts, estimates)

    # Missing-value relations (Appendix A): the label's partial-support
    # PC keys carry exact counts the joint tables cannot see — estimate
    # through the label object itself.
    built = (
        label
        if isinstance(label, Label)
        else build_label(counter, attributes)
    )
    estimator = LabelEstimator(built)
    estimates = np.array(
        [estimator.estimate(p) for p, _ in pattern_set.iter_with_counts()],
        dtype=np.float64,
    )
    return ErrorSummary.from_arrays(pattern_set.counts, estimates)


class BatchLabelEvaluator:
    """Score many candidate attribute subsets against one pattern set.

    The search algorithms error-evaluate every surviving candidate over
    the same pattern set ``P``.  Per candidate, the estimate of a pattern
    is ``c_D(p|_S)`` times independence factors of the attributes outside
    ``S`` — and only the *base* term depends on the candidate.  This
    evaluator therefore encodes ``P`` once:

    * patterns are grouped by attribute tuple into code matrices (a
      tabular set is a single group, for free); range-bearing patterns
      form their own code-run groups, scored through the same cached
      key tables via :meth:`~repro.core.counts.PatternCounter.counts_for_runs`;
    * per group and attribute, the independence-factor column
      ``fractions(A)[codes]`` is computed lazily and cached — candidates
      share these columns, which is where the batched pass wins;
    * each :meth:`evaluate` call then costs one batched base lookup per
      group (through the counting kernel's cached key tables) plus cached
      column multiplies;
    * a group's estimate vector is memoized under the attributes the
      candidate shares with it, except for a group binding every
      attribute of the relation (``P_A``'s one group): it shares the
      whole candidate, so its key never repeats across candidates.

    Relations with missing values fall back to the exact per-label path
    of :func:`evaluate_label` (their partial-support ``PC`` keys are not
    visible to joint tables).
    """

    def __init__(
        self,
        counter: PatternCounter,
        pattern_set: PatternSet | None = None,
    ) -> None:
        # Accepts a bare dataset or a counter of any shard count.
        self._counter = counter = make_counter(counter)
        if pattern_set is None:
            pattern_set = full_pattern_set(counter)
        self._pattern_set = pattern_set
        self._vectorizable = pattern_set.is_tabular or (
            not counter.dataset.has_missing
        )
        # Each group: (attribute tuple, code matrix, target indices).
        self._groups: list[tuple[tuple[str, ...], np.ndarray, np.ndarray]] = []
        # Range-bearing groups: (attribute order, runs rows, indices).
        self._range_groups: list[
            tuple[tuple[str, ...], list, np.ndarray]
        ] = []
        self._fraction_columns: dict[tuple[int, str], np.ndarray] = {}
        self._range_fraction_columns: dict[tuple[int, str], np.ndarray] = {}
        # (group index, shared attribute tuple) -> estimate vector.  The
        # estimates of a group are fully determined by which of its
        # attributes the candidate covers, and candidate subsets overlap
        # heavily, so most evaluate() calls are pure cache hits.  A group
        # binding every attribute (P_A's one group) shares the whole
        # candidate, so no two candidates share its key: it is not
        # memoized.
        self._n_attributes = len(counter.schema)
        self._group_estimates: dict[
            tuple[int, tuple[str, ...]], np.ndarray
        ] = {}
        self._range_group_estimates: dict[
            tuple[int, tuple[str, ...]], np.ndarray
        ] = {}
        if not self._vectorizable:
            return
        if pattern_set.is_tabular:
            assert (
                pattern_set.attributes is not None
                and pattern_set.combos is not None
            )
            self._groups.append(
                (
                    pattern_set.attributes,
                    np.asarray(pattern_set.combos),
                    np.arange(len(pattern_set)),
                )
            )
        else:
            patterns = [
                pattern_set.pattern(i) for i in range(len(pattern_set))
            ]
            schema = counter.dataset.schema
            equality, ranged = split_by_ranges(patterns)
            for attrs, combos, indices in encode_groups(
                [patterns[i] for i in equality], schema
            ):
                self._groups.append(
                    (
                        attrs,
                        combos,
                        np.asarray(
                            [equality[j] for j in indices], dtype=np.intp
                        ),
                    )
                )
            for order, runs_rows, indices in encode_range_groups(
                [patterns[i] for i in ranged], schema
            ):
                self._range_groups.append(
                    (
                        order,
                        runs_rows,
                        np.asarray(
                            [ranged[j] for j in indices], dtype=np.intp
                        ),
                    )
                )

    @property
    def pattern_set(self) -> PatternSet:
        """The target set ``P`` this evaluator encodes."""
        return self._pattern_set

    @property
    def vectorizable(self) -> bool:
        """True when :meth:`estimates` serves this set (a tabular set, or
        a relation without missing values)."""
        return self._vectorizable

    def _fraction_column(
        self, group_index: int, attribute: str, position: int
    ) -> np.ndarray:
        key = (group_index, attribute)
        column = self._fraction_columns.get(key)
        if column is None:
            _, combos, _ = self._groups[group_index]
            column = self._counter.fractions(attribute)[
                combos[:, position]
            ]
            self._fraction_columns[key] = column
        return column

    def _range_fraction_column(
        self, group_index: int, attribute: str, position: int
    ) -> np.ndarray:
        key = (group_index, attribute)
        column = self._range_fraction_columns.get(key)
        if column is None:
            _, runs_rows, _ = self._range_groups[group_index]
            fractions = self._counter.fractions(attribute)
            column = np.array(
                [
                    _run_fraction(fractions, row[position])
                    for row in runs_rows
                ],
                dtype=np.float64,
            )
            self._range_fraction_columns[key] = column
        return column

    def estimates(self, label_attributes: Sequence[str]) -> np.ndarray:
        """``Est(p, L_S(D))`` for every pattern of the set, batched."""
        if not self._vectorizable:
            raise ValueError(
                "batched estimation requires a tabular pattern set or a "
                "relation without missing values"
            )
        label_set = set(label_attributes)
        out = np.empty(len(self._pattern_set), dtype=np.float64)
        for group_index, (attrs, combos, indices) in enumerate(self._groups):
            shared = tuple(a for a in attrs if a in label_set)
            cached = self._group_estimates.get((group_index, shared))
            if cached is not None:
                out[indices] = cached
                continue
            if shared:
                positions = [attrs.index(a) for a in shared]
                estimates = self._counter.counts_for_codes(
                    shared, combos[:, positions]
                ).astype(np.float64)
            else:
                estimates = np.full(
                    combos.shape[0], float(self._counter.total_rows)
                )
            for position, attribute in enumerate(attrs):
                if attribute in label_set:
                    continue
                np.multiply(
                    estimates,
                    self._fraction_column(group_index, attribute, position),
                    out=estimates,
                )
            if len(attrs) < self._n_attributes:
                self._group_estimates[(group_index, shared)] = estimates
            out[indices] = estimates
        for group_index, (order, runs_rows, indices) in enumerate(
            self._range_groups
        ):
            shared = tuple(a for a in order if a in label_set)
            cached = self._range_group_estimates.get((group_index, shared))
            if cached is not None:
                out[indices] = cached
                continue
            if shared:
                positions = [order.index(a) for a in shared]
                estimates = self._counter.counts_for_runs(
                    shared,
                    [
                        tuple(row[i] for i in positions)
                        for row in runs_rows
                    ],
                ).astype(np.float64)
            else:
                estimates = np.full(
                    len(runs_rows), float(self._counter.total_rows)
                )
            for position, attribute in enumerate(order):
                if attribute in label_set:
                    continue
                np.multiply(
                    estimates,
                    self._range_fraction_column(
                        group_index, attribute, position
                    ),
                    out=estimates,
                )
            if len(order) < self._n_attributes:
                self._range_group_estimates[(group_index, shared)] = (
                    estimates
                )
            out[indices] = estimates
        return out

    def evaluate(self, label: Label | Sequence[str]) -> ErrorSummary:
        """Error summary of one candidate over the encoded pattern set."""
        attributes: Sequence[str]
        if isinstance(label, Label):
            attributes = label.attributes
        else:
            attributes = tuple(label)
        if not self._vectorizable:
            return evaluate_label(self._counter, label, self._pattern_set)
        estimates = self.estimates(attributes)
        return ErrorSummary.from_arrays(self._pattern_set.counts, estimates)


def evaluate_labels(
    counter: PatternCounter,
    candidates: Sequence[Label | Sequence[str]],
    pattern_set: PatternSet | None = None,
) -> list[ErrorSummary]:
    """Error summaries for many candidate subsets in one batched pass.

    Convenience wrapper over :class:`BatchLabelEvaluator`; equivalent to
    ``[evaluate_label(counter, c, pattern_set) for c in candidates]`` but
    encodes the pattern set and its independence-factor columns once.
    """
    evaluator = BatchLabelEvaluator(counter, pattern_set)
    return [evaluator.evaluate(candidate) for candidate in candidates]


def scan_max_abs_error(
    counter: PatternCounter,
    label_attributes: Sequence[str],
    pattern_set: PatternSet | None = None,
) -> tuple[float, int]:
    """The paper's early-terminating max-error scan (Section IV-C).

    Patterns are sorted by true count in decreasing order; the scan keeps
    a running maximum error and stops as soon as the next pattern's count
    falls below it.  Returns ``(max_error, n_patterns_evaluated)``.

    .. note::
       The stopping rule is exact for under-estimates (whose error is
       bounded by the true count) but an *over*-estimate later in the
       order could exceed the returned maximum; see DESIGN.md.  In the
       shipped datasets the scan and the exact evaluation agree, which is
       itself a reported ablation.
    """
    if pattern_set is None:
        pattern_set = full_pattern_set(counter)
    if not pattern_set.is_tabular:
        raise ValueError("the scan requires a tabular pattern set")

    counts = pattern_set.counts
    order = np.argsort(counts)[::-1]
    estimates = vectorized_estimates(counter, label_attributes, pattern_set)

    max_error = 0.0
    evaluated = 0
    for index in order:
        if float(counts[index]) < max_error:
            break
        evaluated += 1
        error = abs(float(counts[index]) - float(estimates[index]))
        if error > max_error:
            max_error = error
    return max_error, evaluated


def summarize_fraction(value: float, total: int) -> str:
    """Format an absolute error as a percentage of ``total`` (reporting aid)."""
    if total <= 0:
        return "n/a"
    return f"{100.0 * value / total:.2f}%"


def is_finite_summary(summary: ErrorSummary) -> bool:
    """Sanity guard used by tests: all summary fields are finite numbers."""
    return all(
        math.isfinite(x)
        for x in (
            summary.max_abs,
            summary.mean_abs,
            summary.std_abs,
            summary.max_q,
            summary.mean_q,
        )
    )
