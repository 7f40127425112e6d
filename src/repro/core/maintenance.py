"""Incremental label maintenance under data updates.

A published label describes a snapshot; real datasets grow.  Recomputing
the optimal label on every append is wasteful (the search is the
expensive part), so this module maintains an existing label *in place*:

* :func:`apply_inserts` / :func:`apply_deletes` — update ``PC``, ``VC``
  and ``total`` exactly for a batch of inserted/deleted tuples.  The
  updated label is exactly ``L_S(D')`` for the new data ``D'``: counts
  are additive, so no approximation is involved — only the *choice* of
  ``S`` may go stale.
* :class:`LabelMaintainer` — wraps a label with drift tracking: it
  applies updates, re-evaluates the label's error periodically, and
  reports when the error degrades past a configurable factor of the
  error measured at (re)build time, signalling that a fresh search is
  worthwhile.

This addresses the operational gap the paper leaves open between
"generate the label once" and "datasets are living artifacts".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.counts import PatternCounter
from repro.core.errors import ErrorSummary, evaluate_label
from repro.core.label import Label
from repro.core.patternsets import full_pattern_set
from repro.core.search import top_down_search
from repro.dataset.table import Dataset

__all__ = ["apply_inserts", "apply_deletes", "LabelMaintainer"]


def _require_label_attributes(label: Label, rows: Dataset) -> None:
    if set(rows.attribute_names) != set(label.attribute_order):
        raise ValueError(
            "update rows must carry exactly the labeled attributes; "
            f"got {rows.attribute_names}, expected {label.attribute_order}"
        )


def _delta_counts(
    label: Label, rows: Dataset
) -> tuple[dict[tuple[Hashable, ...], int], dict[str, dict[Hashable, int]]]:
    """Per-combination and per-value counts of an update batch."""
    _require_label_attributes(label, rows)
    counter = PatternCounter(rows)
    pc_delta: dict[tuple[Hashable, ...], int] = {}
    if label.attributes:
        combos, counts = counter.joint_table(label.attributes)
        schema = rows.schema
        for combo, count in zip(combos, counts):
            key = tuple(
                schema[a].category_of(int(code))
                for a, code in zip(label.attributes, combo)
            )
            pc_delta[key] = int(count)
    vc_delta = {
        attribute: counter.value_counts(attribute)
        for attribute in label.attribute_order
    }
    return pc_delta, vc_delta


def _merge_vc(
    label: Label,
    vc_delta: dict[str, dict[Hashable, int]],
    sign: int,
) -> dict[str, dict[Hashable, int]]:
    """Merge a batch's value-count delta into a label's ``VC``, exactly.

    Parity discipline: the result must match ``build_label`` over the
    updated data *as it would be ingested from scratch* — i.e. with
    active domains inferred from the observed values, which is what
    ``Dataset.from_columns``/``read_csv`` do.  (A caller who pins a
    wider schema domain gets 0-count ``VC`` entries from a fresh build;
    maintained labels deliberately track the observed-domain form, the
    one that round-trips: insert a batch, delete it again, and the
    label is byte-identical to where it started.)  Two rules implement
    that:

    * a *zero* delta is skipped entirely — a batch whose schema pins a
      wider domain than it uses must not invent 0-count entries;
    * an entry whose count is driven to exactly 0 by a delete is
      *dropped*, mirroring how ``apply_deletes`` pops vanished ``PC``
      combinations — keeping a ``counts[value] = 0`` husk diverged
      ``vc_size``, serialization and rendering from the fresh build.
    """
    merged: dict[str, dict[Hashable, int]] = {}
    for attribute in label.attribute_order:
        counts = dict(label.vc.get(attribute, {}))
        for value, count in vc_delta.get(attribute, {}).items():
            if count == 0:
                continue
            updated = counts.get(value, 0) + sign * count
            if updated < 0:
                raise ValueError(
                    f"delete would drive {attribute}={value!r} below zero"
                )
            if updated == 0:
                counts.pop(value, None)
            else:
                counts[value] = updated
        merged[attribute] = counts
    return merged


def apply_inserts(label: Label, rows: Dataset) -> Label:
    """Return ``L_S(D ∪ rows)`` computed from ``L_S(D)`` and the batch.

    Exact: pattern counts and value counts are additive under union (bag
    semantics).  ``rows`` must carry the same attributes as the labeled
    data (any column order).  An empty batch is a validated no-op: the
    label comes back unchanged (same object).
    """
    if rows.n_rows == 0:
        _require_label_attributes(label, rows)
        return label
    pc_delta, vc_delta = _delta_counts(label, rows)
    pc = dict(label.pc)
    for key, count in pc_delta.items():
        pc[key] = pc.get(key, 0) + count
    return Label(
        attributes=label.attributes,
        pc=pc,
        vc=_merge_vc(label, vc_delta, +1),
        total=label.total + rows.n_rows,
        attribute_order=label.attribute_order,
    )


def apply_deletes(label: Label, rows: Dataset) -> Label:
    """Return ``L_S(D \\ rows)`` computed from ``L_S(D)`` and the batch.

    The caller asserts that every deleted tuple exists in the labeled
    data; a batch that would drive any stored count negative is rejected
    (the label would no longer describe any relation).  An empty batch
    is a validated no-op: the label comes back unchanged (same object).
    """
    if rows.n_rows == 0:
        _require_label_attributes(label, rows)
        return label
    pc_delta, vc_delta = _delta_counts(label, rows)
    pc = dict(label.pc)
    for key, count in pc_delta.items():
        remaining = pc.get(key, 0) - count
        if remaining < 0:
            raise ValueError(
                f"delete would drive combination {key!r} below zero"
            )
        if remaining == 0:
            pc.pop(key, None)
        else:
            pc[key] = remaining
    if rows.n_rows > label.total:
        raise ValueError("cannot delete more tuples than the label covers")
    return Label(
        attributes=label.attributes,
        pc=pc,
        vc=_merge_vc(label, vc_delta, -1),
        total=label.total - rows.n_rows,
        attribute_order=label.attribute_order,
    )


@dataclass
class MaintenanceStatus:
    """Outcome of one maintenance step."""

    label: Label
    summary: ErrorSummary | None
    stale: bool
    rebuilt: bool


class LabelMaintainer:
    """Keep a label current as its dataset evolves.

    Parameters
    ----------
    dataset:
        The current relation.
    bound:
        Size budget used for (re)searches.
    drift_factor:
        The label is flagged stale when its max error exceeds
        ``drift_factor`` × the error measured at the last (re)build, or
        when its ``|PC|`` outgrows ``bound``.
    check_every:
        Error re-evaluation cadence, counted in update batches (error
        evaluation touches the data; updates themselves do not).
    shards:
        With ``shards > 1`` the maintainer's counter is partitioned and
        every insert batch becomes a *new shard*, so the existing
        shards' tables (key tables, joint tables, value counts) survive
        the update — the incremental path — instead of the full
        rebind-and-recount a single-shard counter needs.
    parallel:
        Build per-shard joint tables on the counter's thread pool (only
        meaningful with ``shards > 1``).
    """

    def __init__(
        self,
        dataset: Dataset,
        bound: int,
        *,
        drift_factor: float = 2.0,
        check_every: int = 4,
        shards: int = 1,
        parallel: bool = False,
    ) -> None:
        if drift_factor < 1.0:
            raise ValueError("drift_factor must be >= 1")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self._bound = bound
        self._drift_factor = drift_factor
        self._check_every = check_every
        self._batches_since_check = 0
        # One counter for the maintainer's lifetime.  Its caches
        # (fractions, label sizes, joint/key tables) describe a snapshot,
        # so every dataset change MUST go through _absorb_batch — reusing
        # the counter across snapshots without it serves stale counts
        # (the bug the rebind hook exists to prevent).  A multi-shard
        # counter absorbs a batch as a fresh shard; a single-shard one
        # rebinds to the concatenation and recounts.
        self._counter = PatternCounter.from_dataset(
            dataset, shards, parallel=parallel
        )
        self._rebuild()

    def _absorb_batch(self, batch: Dataset) -> None:
        if self._counter.n_shards > 1:
            self._counter.add_shard(batch)
        else:
            self._counter.rebind(self._counter.dataset.concat(batch))

    def _rebuild(self) -> None:
        counter = self._counter
        result = top_down_search(
            counter, self._bound, pattern_set=full_pattern_set(counter)
        )
        self._label = result.label
        self._baseline_error = max(result.summary.max_abs, 1.0)

    @property
    def label(self) -> Label:
        """The currently maintained label."""
        return self._label

    @property
    def dataset(self) -> Dataset:
        """The current relation (a read-only shard view when sharded)."""
        return self._counter.dataset

    def insert(self, rows: Dataset) -> MaintenanceStatus:
        """Apply an insert batch; periodically re-check drift.

        Returns the updated label plus staleness/rebuild flags.  A stale
        check that trips triggers an automatic re-search under the same
        budget.  An empty batch neither changes the label nor counts
        toward the drift-check cadence.
        """
        if rows.n_rows == 0:
            return MaintenanceStatus(
                label=self._label, summary=None, stale=False, rebuilt=False
            )
        self._absorb_batch(
            rows.select(list(self._counter.dataset.attribute_names))
        )
        self._label = apply_inserts(self._label, rows)
        self._batches_since_check += 1

        summary = None
        stale = self._label.size > self._bound
        if stale or self._batches_since_check >= self._check_every:
            self._batches_since_check = 0
            counter = self._counter
            summary = evaluate_label(
                counter, self._label, full_pattern_set(counter)
            )
            stale = stale or (
                summary.max_abs > self._drift_factor * self._baseline_error
            )
        rebuilt = False
        if stale:
            self._rebuild()
            rebuilt = True
        return MaintenanceStatus(
            label=self._label,
            summary=summary,
            stale=stale,
            rebuilt=rebuilt,
        )
