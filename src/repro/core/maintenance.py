"""Incremental label maintenance under data updates.

A published label describes a snapshot; real datasets grow.  Recomputing
the optimal label on every append is wasteful (the search is the
expensive part), so this module maintains an existing label
copy-on-write:

* :func:`apply_inserts` / :func:`apply_deletes` — update ``PC``, ``VC``
  and ``total`` exactly for a batch of inserted/deleted tuples.  The
  updated label is exactly ``L_S(D')`` for the new data ``D'``: counts
  are additive, so no approximation is involved — only the *choice* of
  ``S`` may go stale.
* :func:`apply_batch` — the one step every update path
  (:class:`~repro.stream.ingest.StreamIngestor`,
  :meth:`~repro.api.session.LabelingSession.update`,
  :meth:`~repro.serve.store.LabelStore.update`) applies a batch with: it
  maintains the label and, alongside it, an exact counter — a *new*
  :class:`~repro.core.counts.PatternCounter` over the old row sources
  plus the insert batch as one more source.  The counter it is given
  never changes.

Whether the choice of ``S`` went stale is the streaming drift check's
question (:class:`~repro.stream.drift.DriftMonitor`), not this module's.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.counts import PatternCounter
from repro.core.label import Label
from repro.dataset.schema import MISSING_CODE, Schema
from repro.dataset.table import Dataset

__all__ = ["apply_inserts", "apply_deletes", "apply_batch"]

#: Lookup entry of a batch category the counter's domain lacks.
_UNKNOWN_CODE = -2


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


def _align_for_counter(rows: Dataset, schema: Schema) -> Dataset | None:
    """Re-encode a batch into the counter's exact schema.

    ``add_shard`` requires schema *equality* (same attribute order, same
    domains) so per-shard code matrices stay mergeable.  A batch built
    by :meth:`Dataset.from_rows` infers its own observed domains, so it
    is re-encoded here a column at a time: each batch category maps to
    its counter code, and the batch's codes gather through that lookup
    (code ``-1`` indexes its last entry, ``-1``).  Returns ``None`` when
    a row carries a value outside the counter's frozen domains —
    :func:`apply_batch` then drops the counter.
    """
    if rows.schema == schema:
        return rows
    matrix = np.empty((rows.n_rows, len(schema)), dtype=np.int32)
    for j, column in enumerate(schema):
        codes = [
            column.code_of(value) if value in column else _UNKNOWN_CODE
            for value in rows.schema[column.name].categories
        ]
        lookup = np.array(codes + [MISSING_CODE], dtype=np.int32)
        matrix[:, j] = lookup[rows.codes(column.name)]
        if _UNKNOWN_CODE in codes and (matrix[:, j] == _UNKNOWN_CODE).any():
            return None
    return Dataset(schema, matrix, copy=False)


def apply_batch(
    label: Label,
    counter: PatternCounter | None,
    *,
    inserted: Dataset | None = None,
    deleted: Dataset | None = None,
) -> tuple[Label, PatternCounter | None, str | None]:
    """Apply one update batch to a (label, counter) pair, copy-on-write.

    Returns ``(label, counter, detach_reason)``.  The label is maintained
    exactly — inserts first, then deletes.  The counter answers for the
    updated rows: an insert batch becomes one more source of a **new**
    counter over ``counter``'s sources (same thread-pool settings), so
    ``counter`` itself never changes and whoever else holds it keeps
    counting the rows it counted.  A batch with nothing to count returns
    ``counter`` as it is.

    The counter is dropped — returned as ``None`` together with the
    reason — when it cannot follow the batch: a non-empty delete batch
    (sources only ever gain rows), or an inserted value outside the
    counter's frozen domains.  The label stays exact either way.  With
    ``counter=None`` only the label is maintained, and no reason is
    given.

    Raises ``ValueError`` for a batch the maintenance operators reject
    (wrong attributes, a delete of absent tuples); nothing has changed
    then.
    """
    if inserted is not None:
        label = apply_inserts(label, inserted)
    if deleted is not None:
        label = apply_deletes(label, deleted)
    if counter is None:
        return label, None, None
    if deleted is not None and deleted.n_rows:
        return label, None, (
            "delete batch applied; insert-shard counters cannot fold deletes"
        )
    if inserted is None or inserted.n_rows == 0:
        return label, counter, None
    aligned = _align_for_counter(inserted, counter.schema)
    if aligned is None:
        return label, None, (
            "insert batch carries values outside the counter's frozen domains"
        )
    grown = PatternCounter(
        counter.sources,
        parallel=counter._parallel,
        max_workers=counter._max_workers,
    )
    grown.add_shard(aligned)
    return label, grown, None
