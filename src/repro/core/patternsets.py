"""Pattern sets ``P`` — the evaluation targets of the optimal-label problem.

The problem definition (Definition 2.15) is parameterized by a set of
patterns ``P`` whose counts the label must estimate well.  The paper's
experiments always use ``P_A`` — every full-width pattern present in the
data, i.e. the distinct tuples with their multiplicities (Section IV-A) —
but the definition deliberately admits narrower sets such as "patterns
over the sensitive attributes only".

:class:`PatternSet` supports both regimes:

* a *tabular* set binds the same attribute tuple in every pattern and is
  stored as a code matrix — this unlocks the vectorized error evaluation
  in :mod:`repro.core.errors`;
* an *explicit* set is a list of arbitrary :class:`~repro.core.pattern.Pattern`
  objects with their true counts, evaluated pattern by pattern.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.counts import PatternCounter
from repro.core.pattern import Pattern

__all__ = [
    "PatternSet",
    "full_pattern_set",
    "patterns_over",
    "sensitive_pattern_set",
]


class PatternSet:
    """A set of patterns with their true counts.

    Use the factory functions :func:`full_pattern_set`,
    :func:`patterns_over`, :func:`sensitive_pattern_set` or
    :meth:`from_patterns` rather than the constructor.
    """

    def __init__(
        self,
        *,
        attributes: tuple[str, ...] | None,
        combos: np.ndarray | None,
        counts: np.ndarray,
        patterns: list[Pattern] | None,
        counter: PatternCounter,
    ) -> None:
        if (attributes is None) != (combos is None):
            raise ValueError("tabular sets need both attributes and combos")
        if attributes is None and patterns is None:
            raise ValueError("explicit sets need a pattern list")
        self._attributes = attributes
        self._combos = combos
        self._counts = np.asarray(counts, dtype=np.int64)
        self._patterns = patterns
        self._counter = counter

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_patterns(
        cls,
        counter: PatternCounter,
        patterns: Sequence[Pattern],
        counts: Sequence[int] | None = None,
    ) -> "PatternSet":
        """Explicit pattern set; true counts come from the batch kernel
        unless the caller already took them (``counts``, aligned with
        ``patterns``)."""
        patterns = list(patterns)
        if counts is None:
            counts = counter.count_many(patterns)
        return cls(
            attributes=None,
            combos=None,
            counts=counts,
            patterns=patterns,
            counter=counter,
        )

    # -- protocol ----------------------------------------------------------------

    @property
    def is_tabular(self) -> bool:
        """True when all patterns bind the same attribute tuple."""
        return self._attributes is not None

    @property
    def attributes(self) -> tuple[str, ...] | None:
        """The common attribute tuple of a tabular set (else ``None``)."""
        return self._attributes

    @property
    def combos(self) -> np.ndarray | None:
        """Code matrix of a tabular set (rows align with :attr:`counts`)."""
        return self._combos

    @property
    def counts(self) -> np.ndarray:
        """True counts ``c_D(p)`` per pattern."""
        return self._counts

    @property
    def counter(self) -> PatternCounter:
        """The counter (and hence dataset) the counts were taken from."""
        return self._counter

    def __len__(self) -> int:
        return int(self._counts.size)

    def pattern(self, index: int) -> Pattern:
        """Materialize pattern ``index`` as a :class:`Pattern`."""
        if self._patterns is not None:
            return self._patterns[index]
        assert self._attributes is not None and self._combos is not None
        return self._counter.pattern_from_codes(
            self._attributes, self._combos[index]
        )

    def iter_with_counts(self) -> Iterator[tuple[Pattern, int]]:
        """Iterate ``(pattern, true_count)`` pairs (materializes patterns)."""
        for index in range(len(self)):
            yield self.pattern(index), int(self._counts[index])

    def __repr__(self) -> str:
        kind = (
            f"tabular over {list(self._attributes)}"
            if self.is_tabular
            else "explicit"
        )
        return f"PatternSet({len(self)} patterns, {kind})"


def full_pattern_set(counter: PatternCounter) -> PatternSet:
    """``P_A``: every full-width pattern in the data with its count.

    This is the pattern set of all the paper's experiments (Section IV-A):
    one entry per distinct tuple.  Rows with missing values carry no
    full-width pattern and are skipped.
    """
    combos, counts = counter.distinct_full_rows()
    return PatternSet(
        attributes=counter.dataset.attribute_names,
        combos=combos,
        counts=counts,
        patterns=None,
        counter=counter,
    )


def patterns_over(
    counter: PatternCounter, attributes: Sequence[str]
) -> PatternSet:
    """``P_S``: every positive-count pattern binding exactly ``attributes``."""
    schema = counter.dataset.schema
    ordered = tuple(sorted(dict.fromkeys(attributes), key=schema.position))
    if not ordered:
        raise ValueError("attributes must be non-empty")
    combos, counts = counter.joint_table(ordered)
    return PatternSet(
        attributes=ordered,
        combos=combos,
        counts=counts,
        patterns=None,
        counter=counter,
    )


def sensitive_pattern_set(
    counter: PatternCounter, sensitive_attributes: Sequence[str]
) -> PatternSet:
    """Patterns over a user-designated sensitive attribute set.

    The paper's problem statement explicitly allows restricting ``P`` to
    "patterns that include only sensitive attributes" (Section II-C); this
    is that construction — an alias of :func:`patterns_over` under its
    intended fairness reading.
    """
    return patterns_over(counter, sensitive_attributes)
