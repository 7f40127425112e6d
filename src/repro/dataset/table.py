"""The :class:`Dataset` columnar table.

A dataset stores one ``numpy`` integer array per attribute.  Entry ``i`` of
the array for attribute ``A`` is the *code* of the category held by tuple
``i`` (its index in ``schema[A].categories``), or ``-1`` when the value is
missing.  Missing values never satisfy a pattern (Definition 2.3 of the
paper requires ``t.A = a`` for a concrete domain value ``a``); they exist
because the NP-hardness reduction of Appendix A constructs relations whose
tuples are defined on only a few attributes.

Counting primitives
-------------------
The labeling algorithms repeatedly need the joint count table over a subset
of attributes (that *is* the ``PC`` component of a label).  The engine
computes it via a chained integer factorization of the code columns
(:func:`combine_codes`) followed by ``np.unique`` — linear in the number of
rows and robust to domain-size products that overflow 64-bit integers.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.dataset.schema import MISSING_CODE, Column, Schema

__all__ = ["Dataset", "combine_codes"]

_INT64_MAX = np.iinfo(np.int64).max


def combine_codes(
    codes: np.ndarray, cardinalities: Sequence[int]
) -> np.ndarray:
    """Collapse a 2-D code matrix into one ``int64`` key per row.

    Two rows receive the same key iff they agree on every column.  Keys are
    built by Horner-style accumulation ``key = key * card_j + code_j``;
    whenever the running radix product would overflow 64 bits the partial
    keys are re-factorized through ``np.unique`` so the construction works
    for arbitrarily many columns.

    Parameters
    ----------
    codes:
        ``(n_rows, n_cols)`` integer matrix with non-negative entries
        (missing values must be filtered out by the caller).
    cardinalities:
        Domain size of each column; every code in column ``j`` must be
        strictly below ``cardinalities[j]``.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length ``n_rows``.
    """
    n_rows, n_cols = codes.shape
    if n_cols != len(cardinalities):
        raise ValueError("codes/cardinalities width mismatch")
    keys = np.zeros(n_rows, dtype=np.int64)
    radix = 1
    for j in range(n_cols):
        card = int(cardinalities[j])
        if card <= 0:
            raise ValueError(f"column {j} has non-positive cardinality {card}")
        if radix > _INT64_MAX // max(card, 1):
            # Compact the partial keys before they overflow.
            _, keys = np.unique(keys, return_inverse=True)
            keys = keys.astype(np.int64, copy=False)
            radix = int(keys.max(initial=0)) + 1
            if radix > _INT64_MAX // card:
                raise OverflowError(
                    "distinct row count too large to key in 64 bits"
                )
        keys = keys * card + codes[:, j].astype(np.int64, copy=False)
        radix *= card
    return keys


def _observed_domain(values: Sequence[Hashable]) -> tuple[Hashable, ...]:
    """The inferred active domain of a column: its distinct non-``None``
    values, sorted by ``repr``."""
    observed = set(values)
    observed.discard(None)
    return tuple(sorted(observed, key=repr))


class Dataset:
    """An immutable, numpy-backed categorical relation.

    Instances are cheap views over shared code arrays; all "mutating"
    operations (:meth:`take`, :meth:`select`, :meth:`concat`, ...) return
    new datasets.

    Parameters
    ----------
    schema:
        Column descriptions.
    codes:
        ``(n_rows, n_attrs)`` integer matrix of category codes
        (``-1`` = missing).  Copied defensively unless ``copy=False``.
    """

    __slots__ = ("_schema", "_codes", "_missing_known")

    def __init__(
        self, schema: Schema, codes: np.ndarray, *, copy: bool = True
    ) -> None:
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ValueError("codes must be a 2-D matrix")
        if codes.shape[1] != len(schema):
            raise ValueError(
                f"codes have {codes.shape[1]} columns but schema has "
                f"{len(schema)} attributes"
            )
        if not np.issubdtype(codes.dtype, np.integer):
            raise TypeError("codes must be an integer matrix")
        codes = codes.astype(np.int32, copy=copy)
        for j, column in enumerate(schema):
            col = codes[:, j]
            if col.size and (
                col.min() < MISSING_CODE or col.max() >= column.cardinality
            ):
                raise ValueError(
                    f"attribute {column.name!r}: code out of range "
                    f"[-1, {column.cardinality})"
                )
        self._schema = schema
        self._codes = codes
        self._codes.setflags(write=False)
        self._missing_known: bool | None = None

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[Hashable]],
        *,
        domains: Mapping[str, Sequence[Hashable]] | None = None,
    ) -> "Dataset":
        """Build a dataset from per-attribute value sequences.

        ``None`` entries become missing values.  Unless ``domains`` pins a
        domain explicitly, each attribute's active domain is the sorted set
        of non-``None`` values observed in its column.  Each column is
        encoded in one pass through its domain's value -> code map
        (:meth:`Column.encode <repro.dataset.schema.Column.encode>`);
        a value outside a pinned domain raises its ``KeyError``.
        """
        names = list(columns)
        if not names:
            raise ValueError("at least one column is required")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")

        schema_columns: list[Column] = []
        code_columns: list[np.ndarray] = []
        for name in names:
            values = columns[name]
            if domains is not None and name in domains:
                domain = tuple(domains[name])
            else:
                domain = _observed_domain(values)
            column = Column(name, domain)
            schema_columns.append(column)
            code_columns.append(column.encode(values))
        return cls(
            Schema(schema_columns), np.column_stack(code_columns), copy=False
        )

    @classmethod
    def from_rows(
        cls,
        names: Sequence[str],
        rows: Iterable[Sequence[Hashable]],
        *,
        domains: Mapping[str, Sequence[Hashable]] | None = None,
    ) -> "Dataset":
        """Build a dataset from an iterable of row tuples."""
        rows = list(rows)
        columns = {
            name: [row[j] for row in rows] for j, name in enumerate(names)
        }
        if not columns:
            raise ValueError("at least one attribute name is required")
        return cls.from_columns(columns, domains=domains)

    # -- basic properties ---------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The dataset schema."""
        return self._schema

    @property
    def n_rows(self) -> int:
        """Number of tuples, ``|D|``."""
        return self._codes.shape[0]

    @property
    def n_attributes(self) -> int:
        """Number of attributes, ``|A|``."""
        return self._codes.shape[1]

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return self._schema.names

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return f"Dataset({self.n_rows} rows, {self._schema!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._schema == other._schema and np.array_equal(
            self._codes, other._codes
        )

    # -- code access --------------------------------------------------------------

    def codes(self, attribute: str) -> np.ndarray:
        """Read-only code array of one attribute."""
        return self._codes[:, self._schema.position(attribute)]

    def codes_matrix(self, attributes: Sequence[str] | None = None) -> np.ndarray:
        """Read-only ``(n_rows, k)`` code matrix over ``attributes``.

        With ``attributes=None`` the full matrix (schema order) is returned.
        """
        if attributes is None:
            return self._codes
        positions = self._schema.positions(attributes)
        return self._codes[:, positions]

    def row(self, index: int) -> dict[str, Hashable]:
        """Materialize row ``index`` as an attribute → value dict.

        Missing values are reported as ``None``.
        """
        out: dict[str, Hashable] = {}
        for j, column in enumerate(self._schema):
            code = int(self._codes[index, j])
            out[column.name] = (
                None if code == MISSING_CODE else column.category_of(code)
            )
        return out

    def iter_rows(self) -> Iterator[dict[str, Hashable]]:
        """Iterate over rows as dicts (slow; for display and tests)."""
        for i in range(self.n_rows):
            yield self.row(i)

    # -- counting primitives ------------------------------------------------------

    def value_counts(self, attribute: str) -> dict[Hashable, int]:
        """Counts of each domain value of ``attribute`` (missing excluded).

        Every domain category appears in the result, possibly with count 0,
        because the label's ``VC`` component enumerates the active domain.
        """
        column = self._schema[attribute]
        codes = self.codes(attribute)
        present = codes[codes != MISSING_CODE]
        counts = np.bincount(present, minlength=column.cardinality)
        return {
            category: int(counts[code])
            for code, category in enumerate(column.categories)
        }

    def non_missing_mask(self, attributes: Sequence[str]) -> np.ndarray:
        """Boolean mask of rows with no missing value in ``attributes``."""
        sub = self.codes_matrix(attributes)
        return (sub != MISSING_CODE).all(axis=1)

    def joint_counts(
        self, attributes: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Joint count table over ``attributes``.

        Returns
        -------
        (combos, counts):
            ``combos`` is a ``(k, len(attributes))`` code matrix of the
            distinct value combinations appearing in the data (rows with a
            missing value in any of the attributes are skipped), and
            ``counts`` the matching ``int64`` count vector.  ``k`` is the
            label size ``|PC|`` for this attribute set.
        """
        if not attributes:
            raise ValueError("attributes must be non-empty")
        sub = self.codes_matrix(attributes)
        mask = (sub != MISSING_CODE).all(axis=1)
        sub = sub[mask]
        if sub.shape[0] == 0:
            return (
                np.empty((0, len(attributes)), dtype=np.int32),
                np.empty(0, dtype=np.int64),
            )
        cards = [self._schema[a].cardinality for a in attributes]
        keys = combine_codes(sub, cards)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.empty(sorted_keys.size, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        counts = np.diff(np.append(starts, sorted_keys.size)).astype(np.int64)
        combos = sub[order[starts]]
        return combos, counts

    def n_distinct(self, attributes: Sequence[str]) -> int:
        """Label size ``|P_S|`` over ``attributes``.

        For fully-present data this is the number of distinct value
        combinations over ``attributes``.  With missing values (the
        NP-hardness reduction relations of Appendix A), each tuple
        contributes its *projection* onto the attributes where it is
        defined, and projections binding fewer than two attributes are
        not charged — their counts already live in the label's ``VC``
        (this is exactly the accounting of the paper's Lemma A.8).
        """
        sub = self.codes_matrix(attributes)
        support = (sub != MISSING_CODE).sum(axis=1)
        min_support = 2 if len(attributes) >= 2 else 1
        sub = sub[support >= min_support]
        if sub.shape[0] == 0:
            return 0
        # Treat "missing" as one extra symbol so distinct (support mask,
        # values) projections get distinct keys.
        cards = [self._schema[a].cardinality + 1 for a in attributes]
        keys = combine_codes(sub + 1, cards)
        return int(np.unique(keys).size)

    def pattern_projections(
        self, attributes: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct tuple projections onto ``attributes`` (``PC`` content).

        Returns ``(combos, multiplicities)`` where ``combos`` rows may
        contain ``-1`` for attributes a contributing tuple was undefined
        on, and projections binding fewer than two attributes are dropped
        (see :meth:`n_distinct`).  ``multiplicities`` counts contributing
        tuples per projection — note this is *not* ``c_D`` of the
        projection pattern when supports overlap; label construction
        recounts satisfaction per pattern.
        """
        if not attributes:
            raise ValueError("attributes must be non-empty")
        sub = self.codes_matrix(attributes)
        support = (sub != MISSING_CODE).sum(axis=1)
        min_support = 2 if len(attributes) >= 2 else 1
        sub = sub[support >= min_support]
        if sub.shape[0] == 0:
            return (
                np.empty((0, len(attributes)), dtype=np.int32),
                np.empty(0, dtype=np.int64),
            )
        cards = [self._schema[a].cardinality + 1 for a in attributes]
        keys = combine_codes(sub + 1, cards)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.empty(sorted_keys.size, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        multiplicities = np.diff(
            np.append(starts, sorted_keys.size)
        ).astype(np.int64)
        combos = sub[order[starts]]
        return combos, multiplicities

    @property
    def has_missing(self) -> bool:
        """True when any cell of the relation is a missing value.

        Computed once and cached — datasets are immutable, and the hot
        counting paths consult this repeatedly (a fresh scan would cost
        ``O(n_rows * n_attrs)`` per call at production scale).
        """
        if self._missing_known is None:
            self._missing_known = bool((self._codes == MISSING_CODE).any())
        return self._missing_known

    def group_keys(self, attributes: Sequence[str]) -> np.ndarray:
        """Group-identity keys over ``attributes`` for *all* rows.

        Rows with a missing value in any attribute receive key ``-1``.
        Two fully-present rows share a key iff they agree on every listed
        attribute.  Used for vectorized estimation.
        """
        sub = self.codes_matrix(attributes)
        mask = (sub != MISSING_CODE).all(axis=1)
        keys = np.full(self.n_rows, -1, dtype=np.int64)
        if mask.any():
            cards = [self._schema[a].cardinality for a in attributes]
            keys[mask] = combine_codes(sub[mask], cards)
        return keys

    # -- relational operations ----------------------------------------------------

    def select(self, attributes: Sequence[str]) -> "Dataset":
        """Project onto ``attributes`` (keeping their given order)."""
        positions = self._schema.positions(attributes)
        return Dataset(
            self._schema.subset(attributes),
            self._codes[:, positions],
            copy=True,
        )

    def take(self, indices: np.ndarray | Sequence[int]) -> "Dataset":
        """Return the sub-relation of the given row ``indices``."""
        indices = np.asarray(indices)
        return Dataset(self._schema, self._codes[indices], copy=True)

    def row_slice(self, start: int, stop: int) -> "Dataset":
        """Zero-copy view of the contiguous row range ``[start, stop)``.

        The returned dataset shares this one's code buffer — no copy and
        no re-validation (the rows were validated when this dataset was
        built), which is what makes partitioning a large relation into
        shards free.  Out-of-range bounds clamp like ordinary slicing.
        """
        view = object.__new__(Dataset)
        view._schema = self._schema
        view._codes = self._codes[int(start) : int(stop)]
        # A slice of a fully-present relation is fully present; a slice
        # of a relation *with* missing values must re-scan on demand.
        view._missing_known = (
            False if self._missing_known is False else None
        )
        return view

    def head(self, n: int) -> "Dataset":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self.n_rows)))

    def sample(
        self, n: int, rng: np.random.Generator, *, replace: bool = False
    ) -> "Dataset":
        """Uniform random sample of ``n`` rows."""
        if not replace and n > self.n_rows:
            raise ValueError(
                f"cannot draw {n} rows without replacement from {self.n_rows}"
            )
        indices = rng.choice(self.n_rows, size=n, replace=replace)
        return self.take(indices)

    def concat(self, other: "Dataset") -> "Dataset":
        """Stack another dataset with an identical schema underneath."""
        if other.schema != self._schema:
            raise ValueError("cannot concat datasets with different schemas")
        return Dataset(
            self._schema,
            np.vstack([self._codes, other._codes]),
            copy=False,
        )

    def filter_equals(self, attribute: str, value: Hashable) -> "Dataset":
        """Rows whose ``attribute`` equals ``value`` exactly."""
        code = self._schema[attribute].code_of(value)
        mask = self.codes(attribute) == code
        return self.take(np.flatnonzero(mask))

    def column_values(self, attribute: str) -> list[Hashable]:
        """Materialize one column as labels (``None`` for missing)."""
        column = self._schema[attribute]
        return [
            None if code == MISSING_CODE else column.category_of(int(code))
            for code in self.codes(attribute)
        ]

    def with_column(
        self,
        name: str,
        values: Sequence[Hashable],
        *,
        domain: Sequence[Hashable] | None = None,
    ) -> "Dataset":
        """Return a dataset extended with one more categorical column."""
        if name in self._schema:
            raise ValueError(f"attribute {name!r} already exists")
        if len(values) != self.n_rows:
            raise ValueError("new column length must match row count")
        if domain is None:
            domain = _observed_domain(values)
        column = Column(name, tuple(domain))
        return Dataset(
            Schema(list(self._schema) + [column]),
            np.column_stack([self._codes, column.encode(values)]),
            copy=False,
        )

    def drop_columns(self, names: Sequence[str]) -> "Dataset":
        """Return a dataset without the listed attributes."""
        drop = set(names)
        keep = [n for n in self.attribute_names if n not in drop]
        missing = drop - set(self.attribute_names)
        if missing:
            raise KeyError(f"no such attributes: {sorted(missing)}")
        return self.select(keep)
