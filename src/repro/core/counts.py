"""The counting kernel: ``c_D(p)``, batched counting, joint count tables.

:class:`PatternCounter` answers the count queries the labeling machinery
needs over an ordered list of K >= 1 *row sources* (:class:`RowSource`):
an in-memory :class:`~repro.dataset.table.Dataset` or a pack shard mapped
on first touch (:mod:`repro.persist.pack`).  Every answer is additive or
union-stable over a row partition —
``c_{D1 ∪ D2}(p) = c_{D1}(p) + c_{D2}(p)``, joint and key tables merge by
summing the counts of equal keys, and ``|P_S|`` is the size of the union
of the per-source distinct sets — so a counter over K sources answers
exactly as one over their concatenation, and K = 1 is the plain
single-dataset counter:

* :meth:`PatternCounter.count` — the exact count ``c_D(p)`` of one pattern
  (Definition 2.3), by ANDing per-value row bitsets and counting the
  set bits — the *scalar reference path*, kept for parity testing of
  the batch kernel, as its radix-overflow fallback, and for one-off
  samples (the streaming drift check) that should not build a key
  table per attribute set;
* :meth:`PatternCounter.count_many` / :meth:`PatternCounter.counts_for_codes`
  — exact counts for a whole batch of patterns in one pass: patterns are
  grouped by attribute tuple, each group is radix-encoded into one
  ``int64`` key per pattern, and the keys are resolved against the
  group's :class:`KeyTable` (one ``searchsorted`` instead of one
  bitset intersection per pattern) — except a single source's first
  batch over an attribute set, which reads one dense ``bincount`` of
  the rows' keys (or, past the dense rule, resolves the rows against
  the sorted query keys) and builds no table;
* :meth:`PatternCounter.joint_table` / :meth:`PatternCounter.joint_tables`
  — the joint count table over attribute set(s) ``S`` (exactly the ``PC``
  content of ``L_S(D)``), cached per attribute set;
* :meth:`PatternCounter.label_size` — ``|P_S|``, the number of distinct
  combinations over ``S`` with positive count, i.e. the size charged
  against the label budget ``Bs``;
* :meth:`PatternCounter.label_size_many` — ``|P_S|`` for a whole batch of
  attribute sets in one call: every set reuses the shared encoded-column
  cache (each attribute's ``int64`` column is materialized once per
  source, not once per subset containing it) and distinct combinations
  are counted with a dense ``bincount`` whenever the radix key space is
  small, instead of a sort per subset — the sizing kernel behind the
  level-wise phase of every search strategy.

Caching happens on two levels.  Each source caches the tables built over
its own rows (``int64`` columns, key tables, joint tables, value counts,
row bitsets), so a counter that gains a shard
(:meth:`PatternCounter.add_shard`, the incremental insert path) builds
tables for the new rows only; the counter caches the merged answers
(plus fractions, label sizes and the concatenated row bitsets).  With
``parallel=True`` the per-source builds run on a thread pool the counter
owns, one task per source, and merge in the calling thread.  Sources are
immutable, so no cached table ever goes stale: other rows mean another
counter — :func:`repro.core.maintenance.apply_batch` builds one per
insert batch over the old sources, sharing their tables.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.pattern import (
    Pattern,
    Predicate,
    encode_groups,
    encode_range_groups,
    split_by_ranges,
)
from repro.dataset.schema import MISSING_CODE, Schema
from repro.dataset.table import Dataset, combine_codes

__all__ = [
    "KeyTable",
    "PatternCounter",
    "RowSource",
    "expand_run_segments",
    "merge_count_tables",
    "radix_fits",
]

_INT64_MAX = np.iinfo(np.int64).max

#: Per-pattern cap on the Horner prefix expansion of non-terminal range
#: attributes.  A pattern whose earlier range attributes match more code
#: combinations than this falls back to the bitset path — the expansion
#: would cost more than one data pass.
_MAX_RUN_FANOUT = 4096

#: Widest domain whose per-code row bitsets a source caches: ``card``
#: bitsets of ``rows / 8`` bytes each stay within the column's ``int32``
#: codes.  A wider column packs a mask per query instead.
_BITSET_MAX_CARDINALITY = 32

#: Rows compared per step while building a column's bitsets (a multiple
#: of 8, so blocks pack into whole bytes).
_BITSET_BLOCK_ROWS = 1 << 16


def _pack_rows(mask: np.ndarray) -> np.ndarray:
    """A boolean row mask as ``uint64`` words, zero-padded to a whole word.

    The padding bits are zero, so the packed masks of consecutive row
    ranges concatenate into the packed mask of their union.
    """
    packed = np.packbits(mask)
    pad = -packed.size % 8
    if pad:
        packed = np.concatenate((packed, np.zeros(pad, dtype=np.uint8)))
    return packed.view(np.uint64)


def _or_runs(
    bitsets: np.ndarray, runs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Words of the rows whose code lies in one of ``runs``, from a
    ``(cardinality, words)`` per-code bitset matrix.  A single code is
    returned as a read-only view, never to be written through."""
    if len(runs) == 1 and runs[0][1] - runs[0][0] == 1:
        return bitsets[runs[0][0]]
    codes = [code for lo, hi in runs for code in range(lo, hi)]
    return np.bitwise_or.reduce(bitsets[codes], axis=0)


def _count_and(words: Iterable[np.ndarray]) -> int:
    """Set bits of the AND of non-empty packed masks of equal length."""
    acc: np.ndarray | None = None
    for part in words:
        acc = part if acc is None else acc & part
    assert acc is not None  # patterns are non-empty
    return int(np.bitwise_count(acc).sum())


def _pattern_runs(schema: Schema, pattern: Pattern) -> list:
    """Each binding's half-open code runs, in ``pattern.attributes``
    order (an equality is the single run ``(code, code + 1)``)."""
    runs = []
    for attribute, value in pattern.items_sorted:
        column = schema[attribute]
        if isinstance(value, Predicate):
            runs.append(column.code_runs(value))
        else:
            code = column.code_of(value)
            runs.append(((code, code + 1),))
    return runs


def expand_run_segments(
    runs_rows: Sequence[Sequence[Sequence[tuple[int, int]]]],
    cardinalities: Sequence[int],
    *,
    max_fanout: int = _MAX_RUN_FANOUT,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Expand per-attribute code runs into Horner radix key segments.

    ``runs_rows[j][i]`` holds pattern ``j``'s half-open ``(lo, hi)`` code
    runs on attribute ``i``; ``cardinalities`` are the domain sizes in
    the same attribute order.  Because the last attribute occupies the
    least-significant radix digit, each of its runs stays one contiguous
    *key* interval; every earlier attribute contributes one Horner
    prefix per matched code.  Returns ``(seg_lo, seg_hi, owner,
    overflowed)``: pattern ``owner[s]``'s count is the number of data
    keys in ``[seg_lo[s], seg_hi[s])``, summed over its segments, and
    ``overflowed`` lists patterns whose prefix expansion exceeded
    ``max_fanout`` (resolve those by row bitsets instead).
    """
    seg_lo: list[int] = []
    seg_hi: list[int] = []
    owner: list[int] = []
    overflowed: list[int] = []
    for j, runs in enumerate(runs_rows):
        prefixes = [0]
        empty = False
        for i, attr_runs in enumerate(runs[:-1]):
            card = cardinalities[i]
            codes = [c for lo, hi in attr_runs for c in range(lo, hi)]
            if not codes:
                empty = True
                break
            if len(prefixes) * len(codes) > max_fanout:
                overflowed.append(j)
                empty = True
                break
            prefixes = [p * card + c for p in prefixes for c in codes]
        if empty:
            continue
        last_card = cardinalities[-1]
        for p in prefixes:
            base = p * last_card
            for lo, hi in runs[-1]:
                seg_lo.append(base + lo)
                seg_hi.append(base + hi)
                owner.append(j)
    return (
        np.array(seg_lo, dtype=np.int64),
        np.array(seg_hi, dtype=np.int64),
        np.array(owner, dtype=np.int64),
        overflowed,
    )


def radix_fits(schema, attributes: Sequence[str]) -> bool:
    """True when the Horner radix product over ``attributes`` fits 64 bits.

    A schema-level property: every source sharing the schema agrees, so
    a counter decides mergeability without touching (or materializing)
    any source's data.  Beyond 64 bits
    :func:`~repro.dataset.table.combine_codes` re-factorizes through
    ``np.unique``, making keys data-dependent — dataset-side and
    query-side keys could then disagree.
    """
    radix = 1
    for attribute in attributes:
        card = schema[attribute].cardinality
        if card <= 0 or radix > _INT64_MAX // card:
            return False
        radix *= card
    return True


def _dense_fits(radix: int, n_keys: int) -> bool:
    """True when counting ``n_keys`` radix keys into a dense ``radix``-slot
    ``bincount`` is cheaper than sorting them.

    One ``O(n + radix)`` pass beats the ``O(n log n)`` sort while the
    key space stays near the row count; the cap bounds the scratch
    allocation (``int64`` counts, 8 B per slot).  Label sizing
    (:meth:`RowSource._distinct`) and a single source's first count
    batch (:meth:`PatternCounter.counts_for_codes`) share this rule.
    """
    return radix <= min(1 << 24, max(1 << 16, 8 * n_keys))


def _group_sums(
    keys: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stable group-by-sum over non-empty 1-D ``keys``.

    Returns ``(first, sums)``: ``first[g]`` indexes the first occurrence
    of the ``g``-th distinct key in ascending key order, and ``sums[g]``
    totals its ``counts``.  One stable argsort plus ``np.add.reduceat`` —
    the merge step of :func:`merge_count_tables` and
    :meth:`KeyTable.merge`.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.empty(sorted_keys.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    return order[starts], np.add.reduceat(counts[order], starts)


def merge_count_tables(
    parts: Sequence[tuple[np.ndarray, np.ndarray]], n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(combos, counts)`` tables into one exact table.

    Count tables are additive: equal combination rows have their counts
    summed, and the merged rows come out in lexicographic code order —
    the same order :meth:`~repro.dataset.table.Dataset.joint_counts`
    produces, so a merged table is indistinguishable from a table built
    over the concatenated data.  Rows may contain ``-1`` (the
    partial-support projections of missing-value relations).

    Each combination row is collapsed into one ``int64`` Horner key
    (codes shifted by +1 so missing markers encode too) and the merge is
    a single 1-D stable argsort + ``np.add.reduceat`` — the row-wise
    ``np.unique(axis=0)`` it replaces paid a void-dtype comparison per
    element.  Horner keys over per-column radixes are monotone in the
    row's lexicographic order (as is :func:`combine_codes`'s overflow
    re-factorization, which ranks through a *sorted* unique), so the
    output order is identical.
    """
    empty = (
        np.empty((0, n_cols), dtype=np.int32),
        np.empty(0, dtype=np.int64),
    )
    if not parts:
        return empty
    if len(parts) == 1:
        # Per-shard tables are already lexicographically sorted and
        # deduplicated (joint_counts/pattern_projections output).
        combos = np.asarray(parts[0][0])
        counts = np.asarray(parts[0][1], dtype=np.int64)
        if combos.shape[0] == 0:
            return empty
        return combos.astype(np.int32, copy=False), counts
    combos = np.vstack([np.asarray(p[0]) for p in parts])
    counts = np.concatenate(
        [np.asarray(p[1], dtype=np.int64) for p in parts]
    )
    if combos.shape[0] == 0:
        return empty
    shifted = combos.astype(np.int64) + 1  # missing (-1) becomes 0
    cards = shifted.max(axis=0) + 1
    keys = combine_codes(shifted, [int(c) for c in cards])
    first, merged = _group_sums(keys, counts)
    return combos[first].astype(np.int32, copy=False), merged


@dataclass(frozen=True, eq=False)
class KeyTable:
    """Sorted distinct radix keys over one attribute set, with row counts.

    The group-by of a source's encoded rows (see
    :meth:`RowSource.row_keys`): ``keys`` ascend without repeats and
    ``counts[i]`` rows carry key ``keys[i]``.  Keys are plain Horner codes
    over the schema's cardinalities, so the tables of sources sharing a
    schema are comparable and the table of their union is the
    :meth:`merge` of theirs.  Every batched count is a probe into one:
    :meth:`lookup` for equality codes, :meth:`range_sum` for the key
    segments of range predicates.
    """

    keys: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_keys(cls, row_keys: np.ndarray) -> "KeyTable":
        """Group encoded row keys (one ``np.unique``)."""
        keys, counts = np.unique(row_keys, return_counts=True)
        return cls(keys, counts.astype(np.int64, copy=False))

    @classmethod
    def merge(cls, parts: Sequence["KeyTable"]) -> "KeyTable":
        """Sum-merge the tables of disjoint row sets (one schema)."""
        if len(parts) == 1:
            return parts[0]
        keys = np.concatenate([part.keys for part in parts])
        counts = np.concatenate([part.counts for part in parts])
        if keys.size == 0:
            return cls(
                keys.astype(np.int64, copy=False),
                counts.astype(np.int64, copy=False),
            )
        first, sums = _group_sums(keys, counts)
        return cls(keys[first], sums)

    @cached_property
    def _cumsum(self) -> np.ndarray:
        """Exclusive prefix sums of ``counts``: ``cum[i]`` rows rank below
        key ``i``.  Built on the first range query."""
        cum = np.cumsum(self.counts, dtype=np.int64)
        return np.concatenate((np.zeros(1, dtype=np.int64), cum))

    def lookup(self, query_keys: np.ndarray) -> np.ndarray:
        """Row count of each query key (0 for keys absent from the data)."""
        if self.keys.size == 0:
            return np.zeros(query_keys.shape[0], dtype=np.int64)
        idx = np.minimum(
            np.searchsorted(self.keys, query_keys), self.keys.size - 1
        )
        found = self.keys[idx] == query_keys
        return np.where(found, self.counts[idx], 0).astype(np.int64)

    def range_sum(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Rows whose key lies in ``[lo[s], hi[s])``, per segment ``s`` —
        two binary probes into the cumulative counts."""
        cum = self._cumsum
        return (
            cum[np.searchsorted(self.keys, hi)]
            - cum[np.searchsorted(self.keys, lo)]
        )


class RowSource:
    """One shard of a counter's rows, plus the tables built over them.

    The base class holds an in-memory :class:`~repro.dataset.table.Dataset`;
    the pack reader's sources (:mod:`repro.persist.pack`) map a shard
    file on first touch and adopt its persisted key and joint tables.
    Cached arrays are treated as immutable — mapped and computed entries
    are interchangeable.
    """

    def __init__(self, dataset: Dataset | None) -> None:
        # None: a subclass that maps its rows on first access.
        self._dataset = dataset
        # Per attribute: the code column widened to int64 plus its
        # presence mask, reused by every attribute set containing it.
        self._columns64: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._key_tables: dict[tuple[str, ...], KeyTable] = {}
        self._joint_tables: dict[
            tuple[str, ...], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._value_counts: dict[str, dict[Hashable, int]] = {}
        self._full_rows: tuple[np.ndarray, np.ndarray] | None = None
        # Per attribute: its (cardinality, words) per-code row bitsets,
        # or None for a domain too wide to cache.
        self._bitsets: dict[str, np.ndarray | None] = {}

    @property
    def dataset(self) -> Dataset:
        """The source's rows."""
        return self._dataset

    @property
    def schema(self) -> Schema:
        return self.dataset.schema

    @property
    def rows(self) -> int:
        return self.dataset.n_rows

    # -- scalar bitset path -----------------------------------------------------

    def code_bitsets(self, attribute: str) -> np.ndarray | None:
        """``attribute``'s per-code row bitsets, built on first use.

        Row ``c`` of the ``(cardinality, ceil(rows / 64))`` ``uint64``
        matrix packs the mask ``codes == c``, zero-padded to a whole
        word; missing values (code ``-1``) sit in no bitset.  ``None``
        for a domain wider than the cached bound — its queries pack a
        mask each instead (see :meth:`run_words`).
        """
        if attribute not in self._bitsets:
            bitsets = None
            card = self.schema[attribute].cardinality
            if card <= _BITSET_MAX_CARDINALITY:
                codes = self.dataset.codes(attribute)
                packed = np.zeros((card, 8 * -(-codes.size // 64)), np.uint8)
                domain = np.arange(card, dtype=codes.dtype)[:, None]
                # One (cardinality, block) comparison per row block
                # bounds the boolean scratch; blocks are whole bytes.
                for start in range(0, codes.size, _BITSET_BLOCK_ROWS):
                    block = np.packbits(
                        codes[start : start + _BITSET_BLOCK_ROWS] == domain,
                        axis=1,
                    )
                    packed[:, start // 8 : start // 8 + block.shape[1]] = block
                bitsets = packed.view(np.uint64)
            self._bitsets[attribute] = bitsets
        return self._bitsets[attribute]

    def run_words(
        self, attribute: str, runs: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Packed mask of the rows whose ``attribute`` code lies in one
        of the half-open ``runs`` (read-only)."""
        bitsets = self.code_bitsets(attribute)
        if bitsets is not None:
            return _or_runs(bitsets, runs)
        codes = self.dataset.codes(attribute)
        mask = np.zeros(codes.shape, dtype=bool)
        for lo, hi in runs:
            mask |= (codes >= lo) & (codes < hi)
        return _pack_rows(mask)

    def count(self, pattern: Pattern) -> int:
        """Bitset count of ``pattern`` over this source.

        An equality contributes its code's row bitset, a range predicate
        ORs the bitsets of every code in its runs (missing values fall
        outside every run and so never satisfy a predicate); the
        bindings' bitsets are ANDed and the set bits counted.
        """
        return self.count_runs(
            pattern.attributes, _pattern_runs(self.schema, pattern)
        )

    def count_runs(
        self,
        attributes: Sequence[str],
        runs: Sequence[Sequence[tuple[int, int]]],
    ) -> int:
        """Bitset count of one code-run row (the per-source fallback of
        the batch kernel)."""
        return _count_and(
            self.run_words(attribute, attr_runs)
            for attribute, attr_runs in zip(attributes, runs)
        )

    # -- radix keys -------------------------------------------------------------

    def row_keys(self, attributes: Sequence[str]) -> np.ndarray:
        """Horner radix keys of the rows fully present over ``attributes``.

        Two rows share a key iff they agree on every listed attribute,
        and a query pattern's key (same encoding of its codes) matches
        exactly the rows that satisfy it.  Computed fresh per call — a
        search touches ``C(n, k)`` subsets per lattice level and caching
        every key array would swamp memory — over the cached per-attribute
        ``int64`` columns.  The caller must have checked
        :func:`radix_fits`.
        """
        dataset = self.dataset
        keys: np.ndarray | None = None
        borrowed = False  # keys still aliases a cached column
        present: np.ndarray | None = None
        all_present = not dataset.has_missing
        for attribute in attributes:
            cached = self._columns64.get(attribute)
            if cached is None:
                codes = dataset.codes(attribute)
                cached = (codes.astype(np.int64), codes != MISSING_CODE)
                self._columns64[attribute] = cached
            column, column_present = cached
            card = dataset.schema[attribute].cardinality
            if keys is None:
                # Borrow the first column; the accumulator materializes
                # on the *second* attribute, whose multiply then
                # produces it in one array pass instead of the
                # copy-then-multiply-in-place two.
                keys = column
                borrowed = True
            elif borrowed:
                keys = keys * card  # allocates; the cache stays intact
                np.add(keys, column, out=keys)
                borrowed = False
            else:
                np.multiply(keys, card, out=keys)
                np.add(keys, column, out=keys)
            # Missing codes (-1) may pollute a key, but those rows are
            # dropped by the presence mask below.
            if not all_present:
                present = (
                    column_present
                    if present is None
                    else (present & column_present)
                )
        assert keys is not None  # attribute sets are non-empty
        if borrowed:
            keys = keys.copy()  # never hand out the cached column itself
        if present is not None and not present.all():
            keys = keys[present]
        return keys

    def key_table(self, attributes: tuple[str, ...]) -> KeyTable:
        """The :class:`KeyTable` of this source over ``attributes``
        (cached; the caller must have checked :func:`radix_fits`)."""
        self.dataset  # first, so a pack shard adopts its persisted tables
        table = self._key_tables.get(attributes)
        if table is None:
            table = KeyTable.from_keys(self.row_keys(attributes))
            self._key_tables[attributes] = table
        return table

    def _distinct(self, attributes: tuple[str, ...], count_only: bool):
        """Distinct radix keys (or their number) over ``attributes``;
        ``None`` when missing values or a 64-bit overflow rule the radix
        encoding out.  A radix that passes :func:`_dense_fits` is
        counted with one ``bincount``, a wider one sorted."""
        dataset = self.dataset
        if (
            not attributes
            or dataset.has_missing
            or not radix_fits(dataset.schema, attributes)
        ):
            return None
        keys = self.row_keys(attributes)
        radix = math.prod(dataset.schema[a].cardinality for a in attributes)
        if _dense_fits(radix, keys.size):
            seen = np.bincount(keys, minlength=radix)
            if count_only:
                return int(np.count_nonzero(seen))
            return np.flatnonzero(seen)
        unique = np.unique(keys)
        return int(unique.size) if count_only else unique

    def distinct_keys(self, attributes: tuple[str, ...]) -> np.ndarray | None:
        """Sorted distinct radix keys over ``attributes``, or ``None``.

        The mergeable face of label sizing: ``|P_S|`` of a union of
        sources is the size of the union of their key sets.  ``None``
        when the radix encoding is unusable — missing values (partial
        projections need the ``n_distinct`` accounting) or a 64-bit
        radix overflow.
        """
        return self._distinct(attributes, count_only=False)

    def distinct_count(self, attributes: tuple[str, ...]) -> int:
        """``|P_S|`` of this source alone (the single-source sizing kernel)."""
        size = self._distinct(attributes, count_only=True)
        if size is None:
            return self.dataset.n_distinct(list(attributes))
        return size

    # -- cached tables ----------------------------------------------------------

    def joint_table(
        self, attributes: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """This source's joint count table over ``attributes`` (cached)."""
        dataset = self.dataset  # first, as in key_table
        table = self._joint_tables.get(attributes)
        if table is None:
            table = dataset.joint_counts(list(attributes))
            self._joint_tables[attributes] = table
        return table

    def value_counts(self, attribute: str) -> dict[Hashable, int]:
        counts = self._value_counts.get(attribute)
        if counts is None:
            counts = self.dataset.value_counts(attribute)
            self._value_counts[attribute] = counts
        return counts

    def full_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct fully-present rows of this source with their counts."""
        if self._full_rows is None:
            dataset = self.dataset
            self._full_rows = dataset.joint_counts(
                list(dataset.attribute_names)
            )
        return self._full_rows

    def persisted_arrays(
        self, *, include_caches: bool = True
    ) -> list[tuple[str, tuple[str, ...] | None, np.ndarray]]:
        """``(role, attributes, array)`` triples for the pack writer.

        The code matrix is the mandatory payload; with
        ``include_caches`` the warm key and joint tables ride along so a
        reopened source starts where this one left off.  The ``int64``
        columns are a cheap widening of the code matrix and stay out.
        """
        arrays: list[tuple[str, tuple[str, ...] | None, np.ndarray]] = [
            ("codes", None, self.dataset.codes_matrix())
        ]
        if include_caches:
            for attrs, table in self._key_tables.items():
                arrays.append(("key_keys", attrs, table.keys))
                arrays.append(("key_counts", attrs, table.counts))
            for attrs, (combos, counts) in self._joint_tables.items():
                arrays.append(("joint_combos", attrs, combos))
                arrays.append(("joint_counts", attrs, counts))
        return arrays


def _partition(dataset: Dataset, n_shards: int) -> list[Dataset]:
    """``n_shards`` contiguous zero-copy row ranges of ``dataset``
    (:meth:`~repro.dataset.table.Dataset.row_slice`); one shard is the
    dataset itself."""
    if n_shards == 1:
        return [dataset]
    boundaries = np.linspace(0, dataset.n_rows, n_shards + 1, dtype=np.int64)
    return [
        dataset.row_slice(boundaries[i], boundaries[i + 1])
        for i in range(n_shards)
    ]


class PatternCounter:
    """Exact count oracle over K >= 1 row sources sharing one schema.

    Parameters
    ----------
    source:
        A :class:`~repro.dataset.table.Dataset` or :class:`RowSource`
        (K = 1), or a non-empty sequence of them in row order — e.g. the
        chunks of :func:`~repro.dataset.csvio.read_csv_chunks`.  Use
        :meth:`from_dataset` to partition one dataset into K shards.
    parallel:
        Run per-source table builds on a thread pool the counter owns:
        one task per source, each running that source's calls in order
        (numpy releases the GIL inside the sorts, bincounts and hashes
        that dominate them).  The pool is created on the first parallel
        query, reused across ``count_many`` / ``joint_tables`` /
        ``label_size_many`` / fit and shut down via :meth:`close` (or
        the context manager).  The per-source tables stay in the
        counter's own sources, merging happens in the calling thread,
        and K = 1 counters ignore the flag.
    max_workers:
        Pool size cap, clamped to ``min(max_workers, n_shards)`` when
        the pool is created (default: ``min(n_shards,
        os.cpu_count())``).
    """

    def __init__(
        self,
        source: Dataset | RowSource | Sequence[Dataset | RowSource],
        *,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> None:
        single = isinstance(source, (Dataset, RowSource))
        items = [source] if single else list(source)
        if not items:
            raise ValueError("at least one shard is required")
        sources: list[RowSource] = []
        for position, item in enumerate(items):
            if isinstance(item, Dataset):
                item = RowSource(item)
            elif not isinstance(item, RowSource):
                raise TypeError(
                    f"shard {position} is a {type(item).__name__}, "
                    "expected Dataset"
                )
            if sources and item.schema != sources[0].schema:
                raise ValueError(
                    f"shard {position} has a different schema; all shards "
                    "must share one schema (pin domains when chunking)"
                )
            sources.append(item)
        self._sources = sources
        self._schema = sources[0].schema
        self._parallel = bool(parallel)
        self._max_workers = max_workers
        self._executor = None  # ThreadPoolExecutor, created lazily
        self._drop_merged_caches()

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        n_shards: int,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> "PatternCounter":
        """Partition ``dataset`` into ``n_shards`` contiguous row ranges.

        Shards are zero-copy row-range views
        (:meth:`~repro.dataset.table.Dataset.row_slice`) — partitioning
        never duplicates the code matrix.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        return cls(
            _partition(dataset, n_shards),
            parallel=parallel,
            max_workers=max_workers,
        )

    @classmethod
    def from_counters(
        cls,
        counters: Sequence["PatternCounter"],
        schema: Schema,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> "PatternCounter":
        """One counter over the sources of ``counters``, in order.

        The sources — and the per-source tables they cached — are
        shared, not copied, and a pack-backed source stays unread until a
        query needs it.  ``schema`` must be the sources' shared schema.
        """
        counter = cls(
            [source for part in counters for source in part.sources],
            parallel=parallel,
            max_workers=max_workers,
        )
        if counter.schema != schema:
            raise ValueError("the shard counters' schema differs from schema")
        return counter

    @classmethod
    def from_pack(
        cls,
        path,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        verify: str = "lazy",
    ) -> "PatternCounter":
        """Reopen a pack as a counter over its lazily-mapped shards.

        Every shard stays unread (not even checksummed) until a query
        touches it.  ``verify`` is the checksum policy of the underlying
        reader (see :func:`repro.persist.pack.open_pack`).
        """
        from repro.persist.pack import open_pack

        return open_pack(path, verify=verify).counter(
            parallel=parallel, max_workers=max_workers
        )

    def dump(
        self,
        path,
        *,
        labels: Mapping[str, object] | None = None,
        include_caches: bool = True,
    ):
        """Write this counter's fit state as a ``repro-pack/1`` directory.

        One binary file per source (see
        :func:`repro.persist.pack.write_pack`, which this wraps);
        ``labels`` optionally packs label artifacts next to the counter
        state.  Returns the pack directory path.
        """
        from repro.persist.pack import write_pack

        return write_pack(
            path, self, labels=labels, include_caches=include_caches
        )

    # -- shard lifecycle ----------------------------------------------------------

    @property
    def sources(self) -> tuple[RowSource, ...]:
        """The row sources, in row order."""
        return tuple(self._sources)

    @property
    def shards(self) -> tuple[Dataset, ...]:
        """The shard datasets, in row order (maps every pack shard)."""
        return tuple(source.dataset for source in self._sources)

    @property
    def shard_counters(self) -> tuple["PatternCounter", ...]:
        """One K = 1 counter per source, in row order, sharing the
        sources' cached tables."""
        return tuple(PatternCounter(source) for source in self._sources)

    @property
    def n_shards(self) -> int:
        return len(self._sources)

    def add_shard(self, dataset: Dataset) -> "PatternCounter":
        """Append a shard — the incremental path for evolving data.

        An insert batch becomes a new source: the existing sources (and
        their tables) are untouched; only the merged-layer caches are
        dropped and lazily re-merged from the per-source tables, most of
        which are already cached.  A 0-row batch is a no-op.  Returns
        ``self``.  This grows the counter in place; update paths go
        through :func:`~repro.core.maintenance.apply_batch`, which calls
        it on a new counter so that no holder of the old one sees its
        rows change.
        """
        if dataset.schema != self._schema:
            raise ValueError(
                "new shard's schema differs from the counter's schema"
            )
        if dataset.n_rows == 0:
            return self
        self._sources.append(RowSource(dataset))
        self._drop_merged_caches()
        return self

    def _drop_merged_caches(self) -> None:
        self._total_rows: int | None = None
        self._value_counts: dict[str, dict[Hashable, int]] = {}
        self._fractions: dict[str, np.ndarray] = {}
        self._label_sizes: dict[tuple[str, ...], int] = {}
        self._full_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._joint_tables: dict[
            tuple[str, ...], tuple[np.ndarray, np.ndarray]
        ] = {}
        # attribute set -> merged KeyTable, or None when the radix over
        # the set overflows 64 bits (the bitset path answers those).
        self._key_tables: dict[tuple[str, ...], KeyTable | None] = {}
        # attribute set -> equality batches seen (a single source answers
        # its first batch without building the key table).
        self._key_queries: dict[tuple[str, ...], int] = {}
        # attribute -> the sources' per-code row bitsets concatenated
        # along the words (K > 1; None for a domain too wide to cache).
        self._bitsets: dict[str, np.ndarray | None] = {}

    # -- thread pool ---------------------------------------------------------------

    def _get_executor(self):
        """The counter's thread pool, created on the first parallel query
        (so building a counter never imports :mod:`concurrent.futures`)."""
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            requested = (
                self._max_workers
                if self._max_workers is not None
                else os.cpu_count() or 1
            )
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, min(int(requested), len(self._sources))),
                thread_name_prefix="repro-shard",
            )
        return self._executor

    def _per_source(self, method: str, calls: Sequence[tuple]) -> list[list]:
        """``source.method(*args)`` for every source and every ``args`` in
        ``calls``: one result list per source, aligned with ``calls``.

        With ``parallel=True`` and K > 1 each source's calls run as one
        task on the counter's thread pool; otherwise they run in the
        calling thread.  An exception raised by any call reaches the
        caller once every task has finished, so no task outlives the
        query that started it.
        """
        if not calls or not self._parallel or len(self._sources) == 1:
            return [
                [getattr(source, method)(*args) for args in calls]
                for source in self._sources
            ]
        from concurrent.futures import wait

        def run(source: RowSource) -> list:
            call = getattr(source, method)
            return [call(*args) for args in calls]

        executor = self._get_executor()
        futures = [executor.submit(run, source) for source in self._sources]
        wait(futures)
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the thread pool down.

        Idempotent, and safe on a counter that never went parallel; the
        counter itself stays fully usable (a later parallel query simply
        starts a fresh pool).
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def __enter__(self) -> "PatternCounter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- dataset facade -----------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The shared schema of the sources."""
        return self._schema

    @property
    def dataset(self):
        """The profiled dataset: the source's own
        :class:`~repro.dataset.table.Dataset` when K = 1, else a live,
        read-only :class:`~repro.core.sharding.ShardedDatasetView`.

        The view is built on each access, not cached: it holds nothing
        but this counter, and a cached one would form a counter → view →
        counter cycle that only the cyclic garbage collector frees,
        together with every merged table the counter caches."""
        if len(self._sources) == 1:
            return self._sources[0].dataset
        from repro.core.sharding import ShardedDatasetView

        return ShardedDatasetView(self)

    @property
    def total_rows(self) -> int:
        """``|D|`` summed over sources (pack shards stay unmapped)."""
        if self._total_rows is None:
            self._total_rows = sum(source.rows for source in self._sources)
        return self._total_rows

    def __repr__(self) -> str:
        return (
            f"PatternCounter({self.total_rows} rows, "
            f"{len(self._sources)} shards, parallel={self._parallel})"
        )

    # -- counting -----------------------------------------------------------------

    def count(self, pattern: Pattern) -> int:
        """Exact count ``c_D(p)`` by row-bitset intersection.

        The scalar reference path of the batch kernels, for equality and
        range bindings alike (see :meth:`RowSource.count`).  Over K > 1
        sources it ANDs the concatenation of the sources' bitsets — each
        source's block is word-aligned with zero padding — so a pattern
        costs ``arity`` ANDs over ``ceil(rows / 64)`` words whatever K
        is, and builds no key table.
        """
        runs = _pattern_runs(self._schema, pattern)
        return _count_and(
            self._run_words(attribute, attr_runs)
            for attribute, attr_runs in zip(pattern.attributes, runs)
        )

    def _run_words(
        self, attribute: str, runs: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """:meth:`RowSource.run_words` over all sources, in row order."""
        if len(self._sources) == 1:
            return self._sources[0].run_words(attribute, runs)
        if attribute not in self._bitsets:
            parts = [s.code_bitsets(attribute) for s in self._sources]
            self._bitsets[attribute] = (
                None if parts[0] is None else np.concatenate(parts, axis=1)
            )
        bitsets = self._bitsets[attribute]
        if bitsets is None:
            return np.concatenate(
                [source.run_words(attribute, runs) for source in self._sources]
            )
        return _or_runs(bitsets, runs)

    def _cards(self, attributes: tuple[str, ...]) -> list[int]:
        return [self._schema[a].cardinality for a in attributes]

    def _key_table(self, attrs: tuple[str, ...]) -> KeyTable | None:
        """Merged :class:`KeyTable` over ``attrs``, built once and cached.

        The per-source tables (each cached by its source) are built in
        the calling thread or on the thread pool, then sum-merged.
        ``None`` when the radix encoding over ``attrs`` overflows 64
        bits — callers fall back to the bitset path.
        """
        if attrs not in self._key_tables:
            table = None
            if radix_fits(self._schema, attrs):
                per_source = self._per_source("key_table", [(attrs,)])
                table = KeyTable.merge([tables[0] for tables in per_source])
            self._key_tables[attrs] = table
        return self._key_tables[attrs]

    def encoded_rows(self, attributes: Sequence[str]) -> np.ndarray | None:
        """Integer row ids of the fully-present rows over ``attributes``.

        Each row of the projection onto ``attributes`` with no missing
        value collapses into one ``int64`` radix key (see
        :meth:`RowSource.row_keys`), concatenated in source order.
        Returns ``None`` when the radix product overflows 64 bits
        (callers fall back to the scalar path).  Not cached.
        """
        attrs = tuple(attributes)
        if not radix_fits(self._schema, attrs):
            return None
        keys = [source.row_keys(attrs) for source in self._sources]
        return keys[0] if len(keys) == 1 else np.concatenate(keys)

    def counts_for_codes(
        self, attributes: Sequence[str], combos: np.ndarray
    ) -> np.ndarray:
        """Exact counts ``c_D(p)`` for a homogeneous code batch.

        Every pattern binds exactly ``attributes``; row ``i`` of
        ``combos`` holds pattern ``i``'s codes.  A batch costs one binary
        search per *query* against the attribute set's merged
        :class:`KeyTable`, built on first use.  A single source answers
        its first batch over an attribute set without that group-by, in
        one data pass and caching nothing: when the radix passes
        :func:`_dense_fits` (the rule label sizing uses), one
        ``bincount`` of the rows' radix keys is read off at the query
        keys; a wider radix resolves every row against the sorted
        distinct query keys with ``searchsorted``.  Repeat batches
        promote the set to a key table.  Combinations absent from the
        data count 0.  Falls back to the scalar bitset path only when the
        attribute set's radix product overflows 64 bits.
        """
        attrs = tuple(attributes)
        combos = np.asarray(combos)
        if combos.ndim != 2 or combos.shape[1] != len(attrs):
            raise ValueError(
                f"combos must be (n, {len(attrs)}) for attributes {attrs}"
            )
        if combos.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        queries = self._key_queries.get(attrs, 0) + 1
        self._key_queries[attrs] = queries
        if (
            len(self._sources) == 1
            and queries == 1
            and attrs not in self._key_tables
            and radix_fits(self._schema, attrs)
        ):
            # One-shot batch: count the rows without sorting them.  Every
            # row key (missing rows dropped) and query key lies in
            # [0, radix), so the dense table is exact.
            cards = self._cards(attrs)
            query_keys = combine_codes(combos, cards)
            row_keys = self._sources[0].row_keys(attrs)
            radix = math.prod(cards)
            if _dense_fits(radix, row_keys.size):
                return np.bincount(row_keys, minlength=radix)[
                    query_keys
                ].astype(np.int64, copy=False)
            # Wider: group the data by *query* key — O(n log m) for m
            # distinct queries.
            unique_q, inverse = np.unique(query_keys, return_inverse=True)
            idx = np.minimum(
                np.searchsorted(unique_q, row_keys), unique_q.size - 1
            )
            matched = unique_q[idx] == row_keys
            per_query = np.bincount(idx[matched], minlength=unique_q.size)
            return per_query.astype(np.int64)[inverse]
        table = self._key_table(attrs)
        if table is None:  # the radix over attrs overflows 64 bits
            return np.array(
                [
                    self.count(self.pattern_from_codes(attrs, row))
                    for row in combos
                ],
                dtype=np.int64,
            )
        return table.lookup(combine_codes(combos, self._cards(attrs)))

    def counts_for_runs(
        self,
        attributes: Sequence[str],
        runs_rows: Sequence[Sequence[Sequence[tuple[int, int]]]],
    ) -> np.ndarray:
        """Exact counts ``c_D(p)`` for a homogeneous *code-run* batch.

        The range twin of :meth:`counts_for_codes`: every pattern binds
        exactly ``attributes``, and ``runs_rows[j][i]`` holds pattern
        ``j``'s half-open ``(lo, hi)`` code runs on ``attributes[i]``
        (an equality is the single run ``(code, code + 1)`` — see
        :func:`repro.core.pattern.encode_range_groups`).  Each pattern
        expands into Horner key segments against the same merged
        :class:`KeyTable` that serves the equality kernel: one segment
        costs two ``searchsorted`` probes — a contiguous range is as
        cheap as an equality.  Patterns whose non-terminal range
        attributes would expand past the fanout cap, and attribute sets
        whose radix product overflows 64 bits, fall back to the bitset
        path, summed over sources (on the thread pool with
        ``parallel=True``).
        """
        attrs = tuple(attributes)
        runs_rows = list(runs_rows)
        if not runs_rows:
            return np.zeros(0, dtype=np.int64)
        table = self._key_table(attrs)
        if table is None:
            return self._count_runs_per_source(attrs, runs_rows)
        seg_lo, seg_hi, owner, overflowed = expand_run_segments(
            runs_rows, self._cards(attrs)
        )
        out = np.zeros(len(runs_rows), dtype=np.int64)
        np.add.at(out, owner, table.range_sum(seg_lo, seg_hi))
        if overflowed:
            out[overflowed] = self._count_runs_per_source(
                attrs, [runs_rows[j] for j in overflowed]
            )
        return out

    def _count_runs_per_source(
        self, attrs: tuple[str, ...], runs_rows: list
    ) -> np.ndarray:
        per_source = self._per_source(
            "count_runs", [(attrs, runs) for runs in runs_rows]
        )
        return np.asarray(per_source, dtype=np.int64).sum(axis=0)

    def count_many(self, patterns: Iterable[Pattern]) -> np.ndarray:
        """Exact counts ``c_D(p)`` for an arbitrary pattern batch.

        The batch kernel behind workload evaluation: equality-only
        patterns are grouped by their attribute tuple and each group is
        integer-encoded and resolved in one vectorized lookup (see
        :meth:`counts_for_codes`); range-bearing patterns are grouped by
        range signature, normalized to code runs, and resolved as key
        segments against the same cached tables (see
        :meth:`counts_for_runs`).  Equivalent to ``[self.count(p) for p
        in patterns]`` — the scalar path stays as the parity reference —
        but binary searches instead of one bitset intersection per pattern.
        """
        patterns = list(patterns)
        out = np.zeros(len(patterns), dtype=np.int64)
        if not patterns:
            return out
        schema = self._schema
        equality, ranged = split_by_ranges(patterns)
        if not ranged:
            for attrs, combos, indices in encode_groups(patterns, schema):
                out[indices] = self.counts_for_codes(attrs, combos)
            return out
        for attrs, combos, indices in encode_groups(
            [patterns[i] for i in equality], schema
        ):
            out[[equality[j] for j in indices]] = self.counts_for_codes(
                attrs, combos
            )
        for order, runs_rows, indices in encode_range_groups(
            [patterns[i] for i in ranged], schema
        ):
            out[[ranged[j] for j in indices]] = self.counts_for_runs(
                order, runs_rows
            )
        return out

    # -- per-attribute statistics -----------------------------------------------

    def _require_attribute(self, attribute: str) -> None:
        """Raise a self-explanatory ``KeyError`` for unknown attributes."""
        if attribute not in self._schema:
            known = ", ".join(repr(name) for name in self._schema.names)
            raise KeyError(
                f"no attribute named {attribute!r}; known attributes: "
                f"{known}"
            )

    def value_counts(self, attribute: str) -> dict[Hashable, int]:
        """Counts of every domain value of ``attribute`` (cached; domains
        are shared, so per-source counts align and sum)."""
        counts = self._value_counts.get(attribute)
        if counts is None:
            self._require_attribute(attribute)
            parts = [s.value_counts(attribute) for s in self._sources]
            counts = parts[0]
            if len(parts) > 1:
                counts = {
                    value: sum(part[value] for part in parts)
                    for value in counts
                }
            self._value_counts[attribute] = counts
        return counts

    def value_count(self, attribute: str, value: Hashable) -> int:
        """Count ``c_D({A = a})`` of one attribute value."""
        counts = self.value_counts(attribute)
        try:
            return counts[value]
        except KeyError:
            raise KeyError(
                f"value {value!r} not in the active domain of attribute "
                f"{attribute!r}"
            ) from None

    def fractions(self, attribute: str) -> np.ndarray:
        """Independence factors per code of ``attribute``.

        Entry ``code`` holds ``c_D({A=a}) / sum_a' c_D({A=a'})``, the
        factor the estimation function multiplies in for an attribute
        outside the label's set (Definition 2.11).  The denominator is the
        number of non-missing entries of the attribute, which equals
        ``|D|`` for datasets without missing values.
        """
        fractions = self._fractions.get(attribute)
        if fractions is None:
            self._require_attribute(attribute)
            value_counts = self.value_counts(attribute)
            counts = np.array(
                [
                    value_counts[category]
                    for category in self._schema[attribute].categories
                ],
                dtype=np.float64,
            )
            denominator = counts.sum()
            fractions = (
                np.zeros_like(counts)
                if denominator == 0
                else counts / denominator
            )
            self._fractions[attribute] = fractions
        return fractions

    def fraction(self, attribute: str, value: Hashable) -> float:
        """Single independence factor for ``attribute = value``."""
        code = self._schema[attribute].code_of(value)
        return float(self.fractions(attribute)[code])

    def predicate_fraction(self, attribute: str, predicate) -> float:
        """Summed independence factor of a predicate on ``attribute``.

        The range generalization of :meth:`fraction`: the probability
        mass of every domain value satisfying ``predicate``, read off
        the cached per-code fraction array via the predicate's code
        runs.
        """
        fractions = self.fractions(attribute)
        runs = self._schema[attribute].code_runs(predicate)
        return float(sum(fractions[lo:hi].sum() for lo, hi in runs))

    # -- attribute-set statistics -------------------------------------------------

    def joint_table(
        self, attributes: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Joint count table (``PC`` content) over ``attributes``.

        Returns the ``(combos, counts)`` pair produced by
        :meth:`repro.dataset.table.Dataset.joint_counts` over all rows.
        Cached per attribute tuple — the search error-evaluates many
        candidates against the same pattern set, and every candidate's
        base term is a lookup in one of these tables.
        """
        key = tuple(attributes)
        table = self._joint_tables.get(key)
        if table is None:
            table = self.joint_tables([key])[key]
        return table

    def joint_tables(
        self, attribute_sets: Iterable[Sequence[str]]
    ) -> dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]]:
        """Joint count tables for several attribute sets at once.

        Batch companion of :meth:`joint_table`: deduplicates the
        requested sets, builds the uncached ones per source (optionally
        on the thread pool) and merges them additively into the shared
        cache, so interleaved callers — candidate evaluation, label
        building, workload scoring — never recompute a table another
        layer already paid for.
        """
        requested = list(dict.fromkeys(tuple(a) for a in attribute_sets))
        missing = [key for key in requested if key not in self._joint_tables]
        if missing:
            per_source = self._per_source(
                "joint_table", [(key,) for key in missing]
            )
            for key, parts in zip(missing, zip(*per_source)):
                self._joint_tables[key] = merge_count_tables(parts, len(key))
        return {key: self._joint_tables[key] for key in requested}

    def label_size(self, attributes: Sequence[str]) -> int:
        """``|P_S|``: distinct positive-count combinations over ``S``.

        Exact over several sources because "distinct" is union-stable:
        the merged distinct projections over ``S`` are exactly the
        distinct projections of the concatenated data (including the
        partial-support accounting of missing-value relations — see
        :meth:`~repro.dataset.table.Dataset.n_distinct`).  Cached per
        attribute set — the search algorithms probe the same sets
        repeatedly while walking the lattice.
        """
        key = tuple(attributes)
        size = self._label_sizes.get(key)
        if size is None:
            if len(self._sources) == 1:
                size = self._sources[0].dataset.n_distinct(list(key))
            elif key:
                size = len(self.dataset.pattern_projections(key)[0])
            else:
                size = 0
            self._label_sizes[key] = size
        return size

    def label_size_many(
        self, attribute_sets: Iterable[Sequence[str]]
    ) -> np.ndarray:
        """``|P_S|`` for a whole batch of attribute sets in one call.

        The batched sizing kernel of the search driver: equivalent to
        ``[self.label_size(S) for S in attribute_sets]`` — the scalar
        path stays as the parity reference — but each subset's keys are
        accumulated over the sources' cached ``int64`` columns (no
        per-subset ``codes_matrix`` stack or mask pass) and distinct
        combinations are counted with one dense ``bincount`` whenever the
        subset's radix key space stays within a small multiple of the
        row count (``O(n + radix)`` instead of a sort).  Over several
        sources, each subset's size is that of the union of the
        per-source distinct key sets (optionally built on the thread
        pool).  Results land in (and are served from) the same per-set
        cache as :meth:`label_size`; missing-value relations and 64-bit
        radix overflows fall back to the scalar path per subset.
        """
        requested = [tuple(attrs) for attrs in attribute_sets]
        missing = [
            attrs
            for attrs in dict.fromkeys(requested)
            if attrs not in self._label_sizes
        ]
        if len(self._sources) == 1:
            source = self._sources[0]
            for attrs in missing:
                self._label_sizes[attrs] = source.distinct_count(attrs)
        else:
            for attrs, keys in zip(missing, self._distinct_key_sets(missing)):
                if keys is None:
                    self.label_size(attrs)  # caches the scalar answer
                else:
                    self._label_sizes[attrs] = int(keys.size)
        return np.array(
            [self._label_sizes[attrs] for attrs in requested], dtype=np.int64
        )

    def distinct_keys(self, attributes: Sequence[str]) -> np.ndarray | None:
        """Sorted distinct radix keys over ``attributes``, or ``None``.

        The union of the per-source key sets (see
        :meth:`RowSource.distinct_keys`): its size is ``|P_S|``.
        ``None`` when missing values or a 64-bit radix overflow rule
        the encoding out.
        """
        return self._distinct_key_sets([tuple(attributes)])[0]

    def _distinct_key_sets(
        self, attribute_sets: Sequence[tuple[str, ...]]
    ) -> list[np.ndarray | None]:
        """:meth:`distinct_keys` for several sets; the per-source key sets
        are built on the thread pool with ``parallel=True``."""
        per_source = self._per_source(
            "distinct_keys", [(attrs,) for attrs in attribute_sets]
        )
        out: list[np.ndarray | None] = []
        for parts in zip(*per_source):
            if any(part is None for part in parts):
                out.append(None)
            elif len(parts) == 1:
                out.append(parts[0])
            else:
                out.append(np.unique(np.concatenate(parts)))
        return out

    def distinct_full_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct fully-present rows and their counts.

        This is the default pattern set ``P_A`` of the experiments: every
        full-width pattern present in the data, with its true count.
        Cached — the search evaluates every candidate against it.
        """
        if self._full_rows is None:
            self._full_rows = merge_count_tables(
                [source.full_rows() for source in self._sources],
                len(self._schema),
            )
        return self._full_rows

    # -- conversions ---------------------------------------------------------------

    def pattern_from_codes(
        self, attributes: Sequence[str], codes: Sequence[int]
    ) -> Pattern:
        """Decode a code vector over ``attributes`` into a :class:`Pattern`."""
        assignments: dict[str, Hashable] = {}
        for attribute, code in zip(attributes, codes):
            if code == MISSING_CODE:
                raise ValueError("cannot build a pattern from a missing value")
            assignments[attribute] = self._schema[attribute].category_of(
                int(code)
            )
        return Pattern(assignments)

    def codes_from_pattern(self, pattern: Pattern) -> Mapping[str, int]:
        """Encode a pattern as attribute → code."""
        return {
            attribute: self._schema[attribute].code_of(value)
            for attribute, value in pattern.items_sorted
        }
