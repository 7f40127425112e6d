"""The estimation function ``Est(p, l)`` (Definition 2.11).

Given a label ``l = L_S(D)`` and a pattern ``p``, the estimate is

``Est(p, l) = c_D(p|_S) * prod_{A in Attr(p) \\ S} frac(A = p.A)``

where ``c_D(p|_S)`` is recovered exactly from the label's ``PC`` (the full
joint over ``S`` marginalizes exactly) and ``frac`` is the value-count
fraction from ``VC``.  When the restriction ``p|_S`` is empty the base
falls back to ``|D|`` — the pure independence estimate of Example 2.6.

:class:`LabelEstimator` works purely from a label (no dataset access), so
it is what a *consumer* of published metadata would run.
:class:`MultiLabelEstimator` implements the paper's future-work suggestion
(Section II-C) of deriving estimates from several labels at once.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.label import Label, build_label
from repro.core.pattern import Pattern, Predicate, group_by_attributes

__all__ = ["LabelEstimator", "MultiLabelEstimator"]


class LabelEstimator:
    """Estimate pattern counts from one label.

    Parameters
    ----------
    label:
        Any :class:`~repro.core.label.Label`; the estimator needs nothing
        else (labels embed ``VC`` and ``|D|``).
    """

    def __init__(self, label: Label) -> None:
        self._label = label
        self._attr_set = set(label.attributes)

    @classmethod
    def from_data(
        cls, source, attributes: Sequence[str]
    ) -> "LabelEstimator":
        """Producer-side shortcut: build ``L_S(D)`` and wrap it.

        ``source`` is a dataset or a counter — pass
        ``make_counter(dataset, shards=8)`` for out-of-core data.
        """
        return cls(build_label(source, attributes))

    @property
    def label(self) -> Label:
        """The label backing this estimator."""
        return self._label

    def estimate(self, pattern: Pattern) -> float:
        """``Est(p, l)`` for a single pattern.

        Exact whenever ``Attr(p) <= S`` (Section III-A: "for every pattern
        p, if Attr(p) ⊆ S then the estimate of p using l is an exact
        estimation").
        """
        label = self._label
        restricted = pattern.restrict(self._attr_set)
        if restricted is None:
            base = float(label.total)
        else:
            base = float(label.restricted_count(restricted))
        estimate = base
        for attribute, value in pattern.items_sorted:
            if attribute in self._attr_set:
                continue
            if isinstance(value, Predicate):
                estimate *= label.predicate_fraction(attribute, value)
            else:
                estimate *= label.value_fraction(attribute, value)
        return estimate

    def estimate_many(self, patterns: Iterable[Pattern]) -> list[float]:
        """Batched ``Est(p, l)`` for a query list.

        Equal, bit for bit, to ``[self.estimate(p) for p in patterns]``.
        When every binding a pattern makes on ``S`` is an equality (a
        range outside ``S`` only adds an independence factor), its base
        ``c_D(p|_S)`` is an exact ``PC`` key or else one lookup in the
        label's cached marginal table
        (:meth:`~repro.core.label.Label.marginal_counts`), not an
        ``O(|PC|)`` scan.  Only a range on an attribute of ``S`` sums the
        matching ``PC`` entries, through
        :meth:`~repro.core.label.Label.restricted_count` as in
        :meth:`estimate`.  Factors multiply in ``items_sorted`` order, as
        there.
        """
        label = self._label
        attributes = label.attributes
        attr_set = self._attr_set
        pc = label.pc
        total = float(label.total)
        out: list[float] = []
        for pattern in patterns:
            bound_in_s = tuple(a for a in attributes if a in pattern)
            if not bound_in_s:
                base = total
            elif pattern.has_ranges and any(
                isinstance(pattern[a], Predicate) for a in bound_in_s
            ):
                base = float(
                    label.restricted_count(pattern.restrict(attr_set))
                )
            else:
                count = pc.get(tuple(pattern.get(a) for a in attributes))
                if count is None:
                    count = label.marginal_counts(bound_in_s).get(
                        tuple(pattern[a] for a in bound_in_s), 0
                    )
                base = float(count)
            estimate = base
            for attribute, value in pattern.items_sorted:
                if attribute in attr_set:
                    continue
                if isinstance(value, Predicate):
                    estimate *= label.predicate_fraction(attribute, value)
                else:
                    estimate *= label.value_fraction(attribute, value)
            out.append(estimate)
        return out

    def is_exact_for(self, pattern: Pattern) -> bool:
        """True when the estimate of ``pattern`` is guaranteed exact."""
        return set(pattern.attributes) <= self._attr_set


class MultiLabelEstimator:
    """Combine several labels into one estimator (future-work extension).

    Section II-C of the paper: *"More complex approaches could consider
    overlapping combinations of patterns, derive best estimates from
    multiple labels, use partial patterns, and so on."*

    Strategy implemented here: a pattern is estimated with every label and
    the results are combined.  A label whose attribute set covers more of
    ``Attr(p)`` injects fewer independence factors, so estimates are
    combined by preferring the label with maximal overlap and breaking
    ties with the ``reduce`` rule (median by default — robust to one
    badly-correlated label).

    Parameters
    ----------
    labels:
        Labels of the *same* dataset (same total and attribute order).
    reduce:
        ``"median"``, ``"min"``, ``"max"`` or ``"mean"`` — how estimates
        from equally-overlapping labels are merged.
    """

    _REDUCERS = {
        "median": np.median,
        "min": np.min,
        "max": np.max,
        "mean": np.mean,
    }

    def __init__(self, labels: Sequence[Label], *, reduce: str = "median") -> None:
        if not labels:
            raise ValueError("at least one label is required")
        totals = {label.total for label in labels}
        if len(totals) != 1:
            raise ValueError("labels describe datasets of different sizes")
        orders = {label.attribute_order for label in labels}
        if len(orders) != 1:
            raise ValueError("labels disagree on the attribute order")
        if reduce not in self._REDUCERS:
            raise ValueError(
                f"unknown reduce {reduce!r}; pick one of "
                f"{sorted(self._REDUCERS)}"
            )
        self._estimators = [LabelEstimator(label) for label in labels]
        self._reduce = self._REDUCERS[reduce]
        self._reduce_name = reduce

    @property
    def labels(self) -> list[Label]:
        """The labels being combined."""
        return [e.label for e in self._estimators]

    @property
    def reduce_name(self) -> str:
        """The configured reduce rule (needed to serialize the bundle)."""
        return self._reduce_name

    def estimate(self, pattern: Pattern) -> float:
        """Best combined estimate for ``pattern``.

        Labels are ranked by how many of the pattern's attributes they
        cover; only maximal-overlap labels vote, and their estimates are
        merged with the configured reducer.  If any maximal-overlap label
        covers *all* pattern attributes its (exact) estimate is returned
        directly.
        """
        bound = set(pattern.attributes)
        best_overlap = -1
        votes: list[float] = []
        for estimator in self._estimators:
            overlap = len(bound & set(estimator.label.attributes))
            if overlap > best_overlap:
                best_overlap = overlap
                votes = [estimator.estimate(pattern)]
            elif overlap == best_overlap:
                votes.append(estimator.estimate(pattern))
        if best_overlap == len(bound):
            # At least one label is exact for this pattern; all
            # full-overlap labels agree, so return the first.
            return votes[0]
        return float(self._reduce(votes))

    def estimate_many(self, patterns: Iterable[Pattern]) -> list[float]:
        """Batched estimates for a query list.

        The set of maximal-overlap labels depends only on a pattern's
        *attribute tuple*, so patterns are grouped by it, the voters are
        chosen once per group, and each voter answers the whole group
        through its own batched ``estimate_many``.
        """
        patterns = list(patterns)
        out = [0.0] * len(patterns)
        for attrs, indices in group_by_attributes(patterns).items():
            bound = set(attrs)
            best_overlap = -1
            voters: list[LabelEstimator] = []
            for estimator in self._estimators:
                overlap = len(bound & set(estimator.label.attributes))
                if overlap > best_overlap:
                    best_overlap = overlap
                    voters = [estimator]
                elif overlap == best_overlap:
                    voters.append(estimator)
            group_patterns = [patterns[i] for i in indices]
            if best_overlap == len(bound):
                # Exact estimates; all full-overlap voters agree.
                merged = voters[0].estimate_many(group_patterns)
            else:
                votes = np.array(
                    [v.estimate_many(group_patterns) for v in voters],
                    dtype=np.float64,
                )
                merged = self._reduce(votes, axis=0)
            for position, index in enumerate(indices):
                out[index] = float(merged[position])
        return out
