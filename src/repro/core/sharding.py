"""Sharded counting: exact answers over partitioned data.

Every count the labeling machinery consumes — pattern counts, joint
count tables (the ``PC`` content), value counts (``VC``), label sizes —
is *additive* or union-stable under disjoint union of the data, so one
:class:`~repro.core.counts.PatternCounter` over K row sources answers
exactly as one over their concatenation; every consumer of a counter
(label construction, the search algorithms, error evaluation, the
maintenance layer) works unchanged on sharded data.
``ShardedPatternCounter`` names that same class.

Why shard:

* **chunked ingestion** — a dataset streamed chunk by chunk
  (:func:`repro.dataset.csvio.read_csv_chunks`) becomes one shard per
  chunk; no whole-file ``list(reader)`` of parsed strings ever exists
  (the compact ``int32`` code shards do stay resident — memory scales
  with coded rows, well below the raw text but not unbounded);
* **incremental maintenance** — an insert batch becomes a new shard
  (:func:`~repro.core.maintenance.apply_batch`, through
  :meth:`~repro.core.counts.PatternCounter.add_shard`): the existing
  shards' tables survive, only the cheap merged layer is recomputed,
  instead of a recount of the concatenated rows;
* **parallel profiling** — per-shard table builds are independent, so
  with ``parallel=True`` they run on the counter's thread pool, one task
  per shard, and are merged in the calling thread, so labels stay
  byte-identical.

This module holds the pieces around that counter: :func:`make_counter`,
the factory the upper layers call to turn a dataset (plus a ``shards=``
knob) or an iterable of chunk datasets into a counter, and
:class:`ShardedDatasetView`, the dataset facade of a multi-shard counter.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.counts import PatternCounter, merge_count_tables
from repro.dataset.schema import Schema
from repro.dataset.table import Dataset

__all__ = [
    "ShardedDatasetView",
    "ShardedPatternCounter",
    "make_counter",
    "merge_count_tables",
]

#: The multi-shard spelling of :class:`~repro.core.counts.PatternCounter`
#: — one class serves every shard count.
ShardedPatternCounter = PatternCounter


class ShardedDatasetView:
    """Read-only dataset facade over the shards of a counter.

    Implements the slice of the :class:`~repro.dataset.table.Dataset`
    interface the labeling stack reads through ``counter.dataset`` —
    schema, row counts, missing-value introspection, and the merged
    counting primitives — without ever materializing the concatenated
    code matrix.  Raw code access (``codes``/``codes_matrix``) is
    deliberately absent: anything needing it should query the counter.

    The view is *live*: it reflects shards added to its counter later.
    """

    __slots__ = ("_counter",)

    def __init__(self, counter: PatternCounter) -> None:
        self._counter = counter

    @property
    def _shards(self) -> tuple[Dataset, ...]:
        return self._counter.shards

    @property
    def schema(self) -> Schema:
        return self._counter.schema

    @property
    def n_rows(self) -> int:
        """``|D|`` summed over shards (pack-backed shards stay unmapped)."""
        return self._counter.total_rows

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.names

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"ShardedDatasetView({self.n_rows} rows over "
            f"{self._counter.n_shards} shards, {self.schema!r})"
        )

    def row(self, index: int) -> dict[str, Hashable]:
        """One logical row as ``{attribute: value}`` (shard order).

        Rows are numbered across shards in shard order — the same order
        ``non_missing_mask`` concatenates — and negative indices count
        from the end; no concatenation is materialized.
        """
        n_rows = self.n_rows
        if not -n_rows <= index < n_rows:
            raise IndexError(
                f"row index {index} out of range for {n_rows} rows"
            )
        offset = index % n_rows
        for shard in self._shards:
            if offset < shard.n_rows:
                break
            offset -= shard.n_rows
        return shard.row(offset)

    @property
    def has_missing(self) -> bool:
        return any(shard.has_missing for shard in self._shards)

    def non_missing_mask(self, attributes: Sequence[str]) -> np.ndarray:
        """Concatenated per-shard masks (shard order = row order)."""
        return np.concatenate(
            [shard.non_missing_mask(attributes) for shard in self._shards]
        )

    def value_counts(self, attribute: str) -> dict[Hashable, int]:
        return self._counter.value_counts(attribute)

    def joint_counts(
        self, attributes: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merged joint count table (delegates to the counter's cache)."""
        return self._counter.joint_table(tuple(attributes))

    def n_distinct(self, attributes: Sequence[str]) -> int:
        return self._counter.label_size(tuple(attributes))

    def pattern_projections(
        self, attributes: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merged distinct projections; multiplicities are summed."""
        if not attributes:
            raise ValueError("attributes must be non-empty")
        parts = [
            shard.pattern_projections(attributes) for shard in self._shards
        ]
        return merge_count_tables(parts, len(attributes))

    def iter_rows(self) -> Iterator[dict[str, Hashable]]:
        for shard in self._shards:
            yield from shard.iter_rows()


def _concat_all(chunks: Sequence[Dataset]) -> Dataset:
    """Concatenate many same-schema datasets with one vstack (pairwise
    ``concat`` in a loop re-copies the accumulated matrix per step)."""
    if len(chunks) == 1:
        return chunks[0]
    for chunk in chunks[1:]:
        if chunk.schema != chunks[0].schema:
            raise ValueError(
                "cannot concatenate chunks with different schemas "
                "(pin domains when chunking)"
            )
    return Dataset(
        chunks[0].schema,
        np.vstack([chunk.codes_matrix() for chunk in chunks]),
        copy=False,
    )


def _coalesce_chunks(chunks: list[Dataset], n_shards: int) -> list[Dataset]:
    """Concatenate adjacent chunks down to ``n_shards`` shard datasets."""
    boundaries = np.linspace(0, len(chunks), n_shards + 1, dtype=np.int64)
    shards: list[Dataset] = []
    for i in range(n_shards):
        group = chunks[boundaries[i] : boundaries[i + 1]]
        if group:
            shards.append(_concat_all(group))
    return shards or chunks


def make_counter(
    source: Dataset | PatternCounter | Iterable[Dataset],
    *,
    shards: int | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
) -> PatternCounter:
    """Build the counter for ``source`` — the one way data becomes one.

    The search algorithms, error evaluation, label construction, the
    strategy registry and :class:`LabelingSession` all resolve their
    data through here.

    Parameters
    ----------
    source:
        * an existing :class:`~repro.core.counts.PatternCounter`:
          returned unchanged — ``shards``/``parallel`` are ignored, the
          caller already chose its shape;
        * a :class:`~repro.dataset.table.Dataset`: one shard, or
          partitioned into ``shards`` contiguous row ranges when
          ``shards > 1``;
        * an iterable of chunk datasets (e.g. the generator of
          :func:`~repro.dataset.csvio.read_csv_chunks`): one shard per
          chunk by default; with ``shards=K`` adjacent chunks are
          coalesced down to ``K`` shards, and ``shards=1`` collapses to
          a single shard.
    shards:
        Target shard count (``None`` keeps the source's natural shape).
    parallel:
        Run per-shard table builds on the counter's thread pool (see
        :class:`~repro.core.counts.PatternCounter`).
    max_workers:
        Thread-pool size cap, clamped to the shard count; only
        meaningful with ``parallel=True``.
    """
    if isinstance(source, PatternCounter):
        return source
    options = {"parallel": parallel, "max_workers": max_workers}
    if isinstance(source, Dataset):
        n_shards = max(shards or 1, 1)
        return PatternCounter.from_dataset(source, n_shards, **options)
    try:
        chunks = [chunk for chunk in source]
    except TypeError:
        raise TypeError(
            f"cannot build a counter from {type(source).__name__}; "
            "expected a Dataset, a counter, or an iterable of Datasets"
        ) from None
    if not chunks:
        raise ValueError("cannot build a counter from zero chunks")
    for position, chunk in enumerate(chunks):
        if not isinstance(chunk, Dataset):
            raise TypeError(
                f"chunk {position} is a {type(chunk).__name__}, "
                "expected Dataset"
            )
    if shards is not None and shards >= 1 and shards != len(chunks):
        if shards < len(chunks):
            chunks = _coalesce_chunks(chunks, shards)
        else:
            # More shards requested than chunks delivered (e.g. a file
            # smaller than one chunk): concatenate and re-split by rows
            # so the caller gets the parallelism they asked for instead
            # of a silently smaller shard count.
            return PatternCounter.from_dataset(
                _concat_all(chunks), shards, **options
            )
    return PatternCounter(chunks, **options)
