"""Byte-level label size accounting.

Definition 2.9 charges a label by ``|PC|`` — a proxy for "the space
required for the count information".  When the budget is an actual byte
limit (a metadata field, an HTTP header, a catalog column), the proxy is
too coarse: combinations over long category names cost more to store.
This module provides

* :func:`pc_bytes` — the serialized size of the ``PC`` component that
  :func:`~repro.core.label.build_label` stores for an attribute subset
  (UTF-8 value strings + a fixed per-count cost), computed from the
  stored patterns' codes without building the label;
* :func:`label_bytes` — the full label's serialized JSON size;
* :func:`find_optimal_label_bytes` — the optimal-label search under a
  *byte* budget, reusing Algorithm 1 with ``pc_bytes`` as its size
  measure.  From two attributes up, ``pc_bytes`` never shrinks when an
  attribute is added: each stored pattern of the smaller subset is the
  restriction of a distinct stored pattern of the larger one that binds
  the same values or more.  That is the property the top-down pruning
  needs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.counts import PatternCounter
from repro.core.errors import Objective
from repro.core.label import Label
from repro.core.patternsets import PatternSet
from repro.core.search import SearchResult, top_down_search
from repro.dataset.table import Dataset

__all__ = ["pc_bytes", "label_bytes", "find_optimal_label_bytes"]

#: Bytes charged per stored count (a 64-bit integer).
COUNT_BYTES = 8


def pc_bytes(
    source: Dataset | PatternCounter, attributes: Sequence[str]
) -> int:
    """Serialized size (bytes) of the ``PC`` over ``attributes``.

    Charges exactly what ``build_label(source, attributes).pc`` stores:
    :data:`COUNT_BYTES` per stored pattern plus the UTF-8 length of each
    value it binds.  On a relation with missing values those patterns
    are the partial projections of Appendix A (see
    :meth:`~repro.dataset.table.Dataset.pattern_projections`), and a
    value a projection leaves unbound costs nothing.  Computed from the
    patterns' codes so the search never materializes labels.
    """
    counter = (
        source if isinstance(source, PatternCounter) else PatternCounter(source)
    )
    if not attributes:
        return 0
    attributes = tuple(attributes)
    dataset = counter.dataset
    if dataset.has_missing:
        combos, _ = dataset.pattern_projections(list(attributes))
    else:
        combos, _ = counter.joint_table(attributes)
    total = COUNT_BYTES * len(combos)
    for position, attribute in enumerate(attributes):
        value_bytes = np.array(
            [
                len(str(category).encode("utf-8"))
                for category in dataset.schema[attribute].categories
            ],
            dtype=np.int64,
        )
        codes = combos[:, position]
        total += int(value_bytes[codes[codes >= 0]].sum())
    return total


def label_bytes(label: Label) -> int:
    """Exact serialized size of a label (compact JSON, UTF-8)."""
    return len(label.to_json(indent=None).encode("utf-8"))


def find_optimal_label_bytes(
    source: Dataset | PatternCounter,
    byte_budget: int,
    *,
    pattern_set: PatternSet | None = None,
    objective: Objective = Objective.MAX_ABS,
) -> SearchResult:
    """Algorithm 1 under a byte budget on the ``PC`` component.

    Parameters
    ----------
    byte_budget:
        Maximum serialized ``PC`` size in bytes (``VC`` is the same for
        every label of a dataset, so it is excluded from the budget just
        as ``Bs`` excludes it).
    """
    if byte_budget < 1:
        raise ValueError("byte_budget must be positive")
    counter = (
        source if isinstance(source, PatternCounter) else PatternCounter(source)
    )
    return top_down_search(
        counter,
        byte_budget,
        pattern_set=pattern_set,
        objective=objective,
        size_fn=lambda subset: pc_bytes(counter, subset),
    )
