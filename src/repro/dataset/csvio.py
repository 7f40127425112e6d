"""CSV input/output for :class:`~repro.dataset.table.Dataset`.

Real deployments attach pattern-count labels to found CSV files, so the
substrate ships a small reader/writer built on the standard library's
:mod:`csv` module.  All values are read as strings; empty cells become
missing values.  Callers bucketize numeric columns afterwards via
:mod:`repro.dataset.bucketize`.

Two reading regimes:

* :func:`read_csv` — materialize the whole file as one dataset;
* :func:`read_csv_chunks` — stream the file in bounded-memory chunks
  (each a :class:`Dataset` sharing one pinned schema), for data whose
  code matrix is too big to hold at once.  Domains are resolved either
  by a first streaming pass (:func:`scan_csv_domains`) or supplied by
  the caller; the chunks feed
  :class:`repro.core.sharding.ShardedPatternCounter` directly.

All three readers take the records in blocks of :data:`_BLOCK_ROWS`:
a block is checked for ragged records, transposed with ``zip``, and
each selected column is encoded through one value -> code dict.  No
reader loops over cells in Python or holds a string per cell of the
whole file.

Duplicate header names are rejected up front: column selection is by
name, and a duplicated name would silently bind the wrong column.
"""

from __future__ import annotations

import csv
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.dataset.schema import MISSING_CODE, Column, Schema
from repro.dataset.table import Dataset

__all__ = ["read_csv", "read_csv_chunks", "scan_csv_domains", "write_csv"]

DEFAULT_MISSING_TOKENS = ("", "NA", "N/A", "null", "NULL")

#: Records decoded per block.  A block's cells are the only Python
#: strings a reader holds at once, and a small block is transposed and
#: encoded while its strings are still in cache.
_BLOCK_ROWS = 1024


def _read_header(path: Path, reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, no header row") from None
    duplicates = sorted(
        name for name, times in Counter(header).items() if times > 1
    )
    if duplicates:
        raise ValueError(
            f"{path}: duplicate header names {duplicates}; columns are "
            "addressed by name, so duplicated names would silently read "
            "the wrong column — rename them first"
        )
    return header


def _resolve_columns(
    path: Path, header: Sequence[str], usecols: Sequence[str] | None
) -> tuple[list[str], list[int]]:
    """Selected column names and their positions in the header."""
    if usecols is not None:
        unknown = [c for c in usecols if c not in header]
        if unknown:
            raise KeyError(f"{path}: no such columns {unknown}")
        return list(usecols), [header.index(c) for c in usecols]
    return list(header), list(range(len(header)))


def _blocks(
    path: Path, records: Iterator[list[str]], width: int, first_line: int = 2
) -> Iterator[list[list[str]]]:
    """``records`` in lists of up to :data:`_BLOCK_ROWS`, each record
    checked to hold ``width`` cells.

    The check runs before a block is transposed: ``zip`` would silently
    truncate the block to its shortest record.  ``first_line`` is the
    file line of the first record, for the error message.
    """
    line = first_line
    while block := list(islice(records, _BLOCK_ROWS)):
        if set(map(len, block)) != {width}:
            for offset, record in enumerate(block):
                if len(record) != width:
                    raise ValueError(
                        f"{path}:{line + offset}: expected {width} cells, "
                        f"got {len(record)}"
                    )
        yield block
        line += len(block)


class _ColumnDecoder:
    """One CSV column, encoded block by block through one value -> code
    dict.

    The missing tokens are pre-mapped to ``-1``; every other cell gets
    the code of its value's first appearance.  :meth:`finish` sorts the
    values into the column's domain (or takes a pinned one) and remaps
    the codes with one gather.
    """

    def __init__(self, missing_tokens: Sequence[str]) -> None:
        self._codes: dict[str, int] = dict.fromkeys(
            missing_tokens, MISSING_CODE
        )
        self._n_missing = len(self._codes)
        self._blocks: list[np.ndarray] = []

    def add(self, cells: Sequence[str]) -> None:
        codes = self._codes
        if not codes.keys() >= set(cells):
            for cell in dict.fromkeys(cells):  # in order of appearance
                codes.setdefault(cell, len(codes) - self._n_missing)
        self._blocks.append(
            np.fromiter(map(codes.__getitem__, cells), np.int32, len(cells))
        )

    def finish(
        self, name: str, domain: Sequence[Hashable] | None
    ) -> tuple[Column, np.ndarray]:
        """The column and its codes.  A value outside a pinned domain
        raises :meth:`Column.code_of`'s ``KeyError`` for the first such
        cell, since the values are encoded in order of appearance."""
        values = list(self._codes)[self._n_missing :]
        if domain is None:
            domain = sorted(values, key=repr)
        column = Column(name, tuple(domain))
        # Code -1 (missing) indexes the appended last entry, -1.
        remap = np.append(column.encode(values), MISSING_CODE)
        codes = (
            np.concatenate(self._blocks)
            if self._blocks
            else np.empty(0, dtype=np.int32)
        )
        return column, remap[codes]


def _decode(
    blocks: Iterator[list[list[str]]],
    names: Sequence[str],
    positions: Sequence[int],
    missing_tokens: Sequence[str],
    domains: Mapping[str, Sequence[Hashable]] | None,
) -> Dataset:
    """One dataset from ``blocks`` of records, the ``names`` columns at
    ``positions`` selected.  Unlisted columns get the ``repr``-sorted
    set of their observed values, as in :meth:`Dataset.from_columns`."""
    decoders = [_ColumnDecoder(missing_tokens) for _ in names]
    for block in blocks:
        cells = list(zip(*block))
        for decoder, position in zip(decoders, positions):
            decoder.add(cells[position])
    if not decoders:
        raise ValueError("at least one column is required")
    columns: list[Column] = []
    codes: list[np.ndarray] = []
    for name, decoder in zip(names, decoders):
        pinned = domains is not None and name in domains
        column, column_codes = decoder.finish(
            name, domains[name] if pinned else None
        )
        columns.append(column)
        codes.append(column_codes)
    return Dataset(Schema(columns), np.column_stack(codes), copy=False)


def read_csv(
    path: str | Path,
    *,
    usecols: Sequence[str] | None = None,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    domains: Mapping[str, Sequence[Hashable]] | None = None,
) -> Dataset:
    """Load a CSV file with a header row into a :class:`Dataset`.

    The file is read in blocks of records; each block is transposed and
    every selected column encoded through one value -> code dict, so the
    reader never holds a Python string per cell of the whole file.

    Parameters
    ----------
    path:
        File to read.
    usecols:
        Optional subset (and order) of columns to keep.
    missing_tokens:
        Cell contents interpreted as missing values.
    domains:
        Optional explicit active domain per attribute; unlisted attributes
        get the sorted set of observed values.

    Raises
    ------
    ValueError
        Empty file, ragged rows, or duplicate header names (column
        selection is by name and would silently misread).
    KeyError
        A value outside a pinned domain (the first such cell of the
        first such column).
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(path, reader)
        names, positions = _resolve_columns(path, header, usecols)
        return _decode(
            _blocks(path, reader, len(header)),
            names,
            positions,
            missing_tokens,
            domains,
        )


def scan_csv_domains(
    path: str | Path,
    *,
    usecols: Sequence[str] | None = None,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
) -> dict[str, tuple[str, ...]]:
    """Stream a CSV once and collect each column's active domain.

    The first pass of the two-pass chunked reader: memory is bounded by
    the number of *distinct* values per column, never by the row count.
    The file is read in the same blocks as :func:`read_csv`, and each
    block's columns update one set per column.  Domains come back
    sorted exactly like
    :meth:`Dataset.from_columns <repro.dataset.table.Dataset.from_columns>`
    sorts inferred domains, so a chunked read over these domains and a
    monolithic :func:`read_csv` produce identical schemas.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(path, reader)
        names, positions = _resolve_columns(path, header, usecols)
        observed: dict[str, set[str]] = {name: set() for name in names}
        for block in _blocks(path, reader, len(header)):
            cells = list(zip(*block))
            for name, position in zip(names, positions):
                observed[name].update(cells[position])
    missing = set(missing_tokens)
    return {
        name: tuple(sorted(values - missing, key=repr))
        for name, values in observed.items()
    }


def read_csv_chunks(
    path: str | Path,
    *,
    chunk_rows: int = 50_000,
    usecols: Sequence[str] | None = None,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    domains: Mapping[str, Sequence[Hashable]] | None = None,
) -> Iterator[Dataset]:
    """Stream a CSV as bounded-memory :class:`Dataset` chunks.

    Every chunk holds at most ``chunk_rows`` rows and **all chunks share
    one schema**, so they can be sharded, concatenated, or fed straight
    into :func:`repro.core.sharding.make_counter` /
    ``LabelingSession.fit(..., shards=...)``.  When ``domains`` is not
    given, the file is scanned first (:func:`scan_csv_domains`) — the
    two-pass default; callers that already know the domains (a published
    schema, a previous scan) skip the extra pass by supplying them.
    Each chunk is decoded like :func:`read_csv`, block by block, and its
    columns are encoded over the pinned domains.

    A header-only file yields exactly one 0-row chunk, so the schema
    survives even for empty data.

    Raises
    ------
    ValueError
        Non-positive ``chunk_rows``, duplicate header names, ragged
        rows, or caller-supplied ``domains`` that do not cover every
        selected column (per-chunk domain inference would make chunk
        schemas diverge).
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    path = Path(path)
    if domains is None:
        domains = scan_csv_domains(
            path, usecols=usecols, missing_tokens=missing_tokens
        )

    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(path, reader)
        names, positions = _resolve_columns(path, header, usecols)
        uncovered = [name for name in names if name not in domains]
        if uncovered:
            raise ValueError(
                f"{path}: chunked reading needs a pinned domain for every "
                f"column, but {uncovered} are not covered — supply them in "
                "domains= or leave domains=None to let the reader scan"
            )
        pinned = {name: tuple(domains[name]) for name in names}

        line = 2
        while True:
            records = islice(reader, chunk_rows)
            chunk = _decode(
                _blocks(path, records, len(header), line),
                names,
                positions,
                missing_tokens,
                pinned,
            )
            if chunk.n_rows or line == 2:
                yield chunk
            if chunk.n_rows < chunk_rows:
                return
            line += chunk_rows


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV (missing values become empty cells)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataset.attribute_names)
        for row in dataset.iter_rows():
            writer.writerow(
                "" if row[name] is None else row[name]
                for name in dataset.attribute_names
            )
