"""Schema objects for the columnar table engine.

A :class:`Column` describes one categorical attribute: its name and the
ordered list of category labels (the *active domain*, ``Dom(A)`` in the
paper's notation).  A :class:`Schema` is an ordered collection of columns
with fast name-to-position lookup.

Category labels are arbitrary hashable values (strings in all shipped
datasets).  The *code* of a category is its index in ``categories``;
``-1`` is reserved for missing values and never appears in a domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["Column", "Schema", "MISSING_CODE"]

#: Integer code reserved for missing values in a :class:`Dataset` column.
MISSING_CODE = -1


@dataclass(frozen=True)
class Column:
    """An attribute of a categorical relation.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"race"``.
    categories:
        Ordered, duplicate-free tuple of category labels.  Order defines
        the integer code of each category.
    """

    name: str
    categories: tuple[Hashable, ...]
    _index: Mapping[Hashable, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    # ``_index`` plus ``None -> MISSING_CODE``: the map :meth:`encode`
    # reads every value through.
    _lookup: Mapping[Hashable, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    _run_cache: dict = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        if not isinstance(self.categories, tuple):
            object.__setattr__(self, "categories", tuple(self.categories))
        index = {}
        for position, category in enumerate(self.categories):
            if category in index:
                raise ValueError(
                    f"column {self.name!r}: duplicate category {category!r}"
                )
            index[category] = position
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_lookup", {**index, None: MISSING_CODE})
        object.__setattr__(self, "_run_cache", {})

    @property
    def cardinality(self) -> int:
        """Size of the active domain, ``|Dom(A)|``."""
        return len(self.categories)

    def code_of(self, category: Hashable) -> int:
        """Return the integer code of ``category``.

        Raises
        ------
        KeyError
            If ``category`` is not in the active domain.
        """
        try:
            return self._index[category]
        except KeyError:
            raise KeyError(
                f"value {category!r} not in the active domain of "
                f"attribute {self.name!r}"
            ) from None

    def encode(self, values: Sequence[Hashable]) -> np.ndarray:
        """``int32`` codes of ``values``, ``None`` becoming ``-1``.

        One dict lookup per value, run in C — the column-at-a-time twin
        of :meth:`code_of`.

        Raises
        ------
        KeyError
            At the first value outside the active domain, with
            :meth:`code_of`'s message.
        """
        try:
            return np.fromiter(
                map(self._lookup.__getitem__, values),
                dtype=np.int32,
                count=len(values),
            )
        except KeyError as error:
            self.code_of(error.args[0])
            raise  # unreachable: code_of raised for the missing value

    def __contains__(self, category: Hashable) -> bool:
        return category in self._index

    def category_of(self, code: int) -> Hashable:
        """Return the category label for an integer ``code``."""
        if code == MISSING_CODE:
            raise ValueError("code -1 denotes a missing value, not a category")
        return self.categories[code]

    def with_name(self, name: str) -> "Column":
        """Return a copy of this column under a different ``name``."""
        return Column(name, self.categories)

    # -- predicates ---------------------------------------------------------------

    def matching_codes(self, predicate) -> tuple[int, ...]:
        """Codes of every category satisfying ``predicate``, ascending.

        ``predicate`` is a :class:`repro.core.pattern.Predicate` (duck
        typed: anything with ``op``, ``value`` and ``matches``).  An
        equality predicate resolves through the domain index — unknown
        values raise ``KeyError`` exactly like :meth:`code_of`.  Range
        predicates scan the domain; a bound that cannot be ordered
        against the categories raises a ``TypeError`` naming the
        attribute.  A range matching nothing returns the empty tuple
        (the pattern simply has count zero).
        """
        if predicate.op == "=":
            return (self.code_of(predicate.value),)
        matched = []
        for code, category in enumerate(self.categories):
            try:
                hit = predicate.matches(category)
            except TypeError:
                raise TypeError(
                    f"attribute {self.name!r}: cannot order category "
                    f"{category!r} against bound {predicate.value!r}"
                ) from None
            if hit:
                matched.append(code)
        return tuple(matched)

    def code_runs(self, predicate) -> tuple[tuple[int, int], ...]:
        """``predicate`` as maximal half-open ``(lo, hi)`` code runs.

        The active domain is sorted by ``repr``, not by value, so a
        value interval is a *union of contiguous code runs*, not always
        one run (codes of "10" and "9" are not adjacent in a numeric
        string domain).  Runs are merged maximally: a predicate matching
        the whole domain collapses to the single run ``(0, cardinality)``
        and an equality to ``(code, code + 1)``.  Cached per
        ``(op, bound)`` — repeat workloads normalize for free.
        """
        key = (predicate.op, predicate.value)
        cached = self._run_cache.get(key)
        if cached is None:
            runs = []
            for code in self.matching_codes(predicate):
                if runs and runs[-1][1] == code:
                    runs[-1][1] = code + 1
                else:
                    runs.append([code, code + 1])
            cached = tuple((lo, hi) for lo, hi in runs)
            self._run_cache[key] = cached
        return cached


class Schema:
    """Ordered collection of :class:`Column` objects.

    Supports lookup by attribute name and by position, iteration in
    attribute order, and subsetting.  The attribute order is significant:
    the paper's ``gen`` operator (Definition 3.5) relies on a fixed total
    order over attributes.
    """

    __slots__ = ("_columns", "_positions")

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns: tuple[Column, ...] = tuple(columns)
        self._positions: dict[str, int] = {}
        for position, column in enumerate(self._columns):
            if column.name in self._positions:
                raise ValueError(f"duplicate attribute name {column.name!r}")
            self._positions[column.name] = position

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __getitem__(self, key: int | str) -> Column:
        if isinstance(key, str):
            try:
                return self._columns[self._positions[key]]
            except KeyError:
                raise KeyError(f"no attribute named {key!r}") from None
        return self._columns[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        names = ", ".join(
            f"{c.name}({c.cardinality})" for c in self._columns
        )
        return f"Schema[{names}]"

    # -- queries ------------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(c.name for c in self._columns)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Domain sizes in schema order."""
        return tuple(c.cardinality for c in self._columns)

    def position(self, name: str) -> int:
        """Return the ordinal position of attribute ``name``."""
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"no attribute named {name!r}") from None

    def positions(self, names: Sequence[str]) -> tuple[int, ...]:
        """Return positions for several attribute names at once."""
        return tuple(self.position(n) for n in names)

    def subset(self, names: Sequence[str]) -> "Schema":
        """Return a new schema restricted to ``names``, in the given order."""
        return Schema(self[name] for name in names)

    def validate_value(self, name: str, value: Any) -> int:
        """Return the code of ``value`` in attribute ``name``'s domain."""
        return self[name].code_of(value)
