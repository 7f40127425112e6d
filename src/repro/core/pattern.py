"""Patterns: attribute predicates (Definition 2.1, extended) and grouping.

A :class:`Pattern` is an immutable mapping from attribute names to
*predicates*.  The paper's patterns are pure equalities — ``Pattern({"age
group": "under 20"})`` — and that construction is unchanged.  A binding
may also be a :class:`Predicate` (or its spec form, a one-key mapping
``{op: bound}`` with ``op`` from :data:`OPS`), turning the pattern into a
mixed equality/range filter: ``Pattern({"age": {">=": 30}, "gender":
"F"})``.  A tuple *satisfies* a pattern when every bound attribute's
value passes its predicate (Definition 2.3 for equalities, the natural
interval reading for ranges); the *count* ``c_D(p)`` is the number of
satisfying tuples.

Patterns are hashable and order-insensitive: two patterns with the same
attribute-predicate pairs are equal regardless of construction order.
Equality bindings are stored as the raw domain value — exactly as before
this module knew about ranges — so pure-equality patterns hash, compare,
and iterate identically to their historical selves.

:func:`encode_groups` is the shared front half of every equality batch
path: a workload is grouped by attribute tuple and each group is encoded
into one integer code matrix, ready for the vectorized kernels.
:func:`encode_range_groups` is its interval twin: range-bearing patterns
are grouped by (attributes, range signature) and every binding is
normalized to half-open code runs over the attribute's sorted domain.
"""

from __future__ import annotations

import operator
from collections import abc
from typing import Any, Hashable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "OPS",
    "Predicate",
    "Pattern",
    "group_by_attributes",
    "encode_groups",
    "encode_range_groups",
    "split_by_ranges",
]

#: Supported predicate operators, in spec syntax.
OPS = ("=", "<", "<=", ">", ">=")

_OP_FUNCS = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Predicate:
    """A single-attribute predicate: ``tuple value <op> bound``.

    ``op`` is one of :data:`OPS`.  Equality predicates exist for
    uniformity (``Pattern.predicate`` always returns one) but are
    *canonicalized away* inside :class:`Pattern`: an ``{"=": v}`` or
    ``Predicate("=", v)`` binding is stored as the bare value ``v``, so
    it is indistinguishable from historical equality construction.

    Range predicates order values under Python's comparison operators —
    for string domains (all shipped datasets) that is lexicographic
    order, matching the ``repr``-sorted active domains.
    """

    __slots__ = ("op", "value")

    def __init__(self, op: str, value: Hashable) -> None:
        if op not in _OP_FUNCS:
            raise ValueError(
                f"unknown predicate operator {op!r}; expected one of: "
                + ", ".join(OPS)
            )
        if value is None:
            raise ValueError(
                "None is not a predicate bound (missing values never "
                "satisfy a pattern)"
            )
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Predicate is immutable")

    @property
    def is_equality(self) -> bool:
        return self.op == "="

    def matches(self, value: Any) -> bool:
        """Does ``value`` satisfy this predicate?  ``None`` never does.

        Range comparison against an unorderable value (e.g. a string
        category vs. an integer bound) raises ``TypeError`` — callers
        holding the attribute name wrap it with context.
        """
        if value is None:
            return False
        return bool(_OP_FUNCS[self.op](value, self.value))

    @staticmethod
    def normalize(spec: Any) -> "Hashable | Predicate":
        """Canonical stored form of a binding spec.

        Accepts a raw domain value (equality), a :class:`Predicate`, or
        a one-key mapping ``{op: bound}``.  Equality specs collapse to
        the raw value; range specs collapse to a :class:`Predicate`.
        """
        if isinstance(spec, Predicate):
            return spec.value if spec.op == "=" else spec
        # The abc (not typing) Mapping: its isinstance check runs in C.
        if isinstance(spec, abc.Mapping):
            if len(spec) != 1:
                raise ValueError(
                    f"a predicate spec must have exactly one operator "
                    f"key from {OPS}, got {dict(spec)!r}"
                )
            ((op, bound),) = spec.items()
            if op not in _OP_FUNCS:
                raise ValueError(
                    f"unknown predicate operator {op!r}; expected one "
                    "of: " + ", ".join(OPS)
                )
            if op == "=":
                return bound
            return Predicate(op, bound)
        return spec

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Predicate):
            return self.op == other.op and self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Predicate, self.op, self.value))

    def __repr__(self) -> str:
        return f"Predicate({self.op!r}, {self.value!r})"


class Pattern(Mapping[str, Hashable]):
    """An immutable attribute → predicate mapping.

    Parameters
    ----------
    assignments:
        Mapping (or iterable of pairs) from attribute name to a binding
        spec: a raw domain value (equality), a :class:`Predicate`, or a
        one-key ``{op: bound}`` mapping with ``op`` from :data:`OPS`.
        Must be non-empty; an empty pattern would be satisfied by every
        tuple and is not a pattern under Definition 2.1.
    """

    __slots__ = ("_items", "_lookup", "_hash", "_has_ranges")

    def __init__(
        self, assignments: Mapping[str, Hashable] | Iterator[tuple[str, Hashable]]
    ) -> None:
        raw = dict(assignments)
        items = []
        has_ranges = False
        for attribute in sorted(raw):
            value = raw[attribute]
            if type(value) is not str:  # a plain str is its own canonical form
                value = Predicate.normalize(value)
                has_ranges = has_ranges or isinstance(value, Predicate)
            items.append((attribute, value))
        if not items:
            raise ValueError("a pattern must bind at least one attribute")
        for attribute, value in items:
            if not isinstance(attribute, str) or not attribute:
                raise TypeError(
                    f"attribute names must be non-empty strings, got "
                    f"{attribute!r}"
                )
            if value is None:
                raise ValueError(
                    f"attribute {attribute!r}: None is not a domain value "
                    "(missing values never satisfy a pattern)"
                )
        self._items = items = tuple(items)
        self._lookup = dict(items)
        self._hash = hash(items)
        self._has_ranges = has_ranges

    # -- mapping protocol ---------------------------------------------------------

    def __getitem__(self, attribute: str) -> Hashable:
        return self._lookup[attribute]

    # Direct over ``_lookup``: the ``Mapping`` defaults go through
    # ``__getitem__`` and raise and catch a ``KeyError`` per absent key.
    def __contains__(self, attribute: object) -> bool:
        return attribute in self._lookup

    def get(self, attribute: str, default: Any = None) -> Any:
        return self._lookup.get(attribute, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._lookup)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Pattern):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(
            f"{a}{v.op}{v.value!r}"
            if isinstance(v, Predicate)
            else f"{a}={v!r}"
            for a, v in self._items
        )
        return f"Pattern({body})"

    # -- paper notation -----------------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        """``Attr(p)``: the attributes bound by this pattern (sorted)."""
        return tuple(a for a, _ in self._items)

    @property
    def items_sorted(self) -> tuple[tuple[str, Hashable], ...]:
        """Canonical (attribute-sorted) item tuple.

        Equality bindings appear as raw domain values (the historical
        shape); range bindings appear as :class:`Predicate` objects.
        """
        return self._items

    # -- predicates ---------------------------------------------------------------

    @property
    def has_ranges(self) -> bool:
        """True when at least one binding is a range predicate."""
        return self._has_ranges

    @property
    def range_attributes(self) -> tuple[str, ...]:
        """The attributes bound by range predicates (sorted)."""
        return tuple(
            a for a, v in self._items if isinstance(v, Predicate)
        )

    def predicate(self, attribute: str) -> Predicate:
        """The binding of ``attribute`` as a uniform :class:`Predicate`."""
        value = self._lookup[attribute]
        if isinstance(value, Predicate):
            return value
        return Predicate("=", value)

    def to_spec(self) -> dict[str, Any]:
        """JSON-ready spec: raw values for equalities, ``{op: bound}``
        one-key dicts for ranges.  ``Pattern(p.to_spec()) == p``."""
        return {
            a: {v.op: v.value} if isinstance(v, Predicate) else v
            for a, v in self._items
        }

    def restrict(self, attributes) -> "Pattern | None":
        """``p|_S``: the pattern restricted to the given attribute set.

        Returns ``None`` when the restriction is empty (the paper's
        formulas then fall back to the full data size ``|D|``).
        """
        keep = set(attributes)
        items = {a: v for a, v in self._items if a in keep}
        if not items:
            return None
        return Pattern(items)

    def extend(self, attribute: str, value: Hashable) -> "Pattern":
        """Return a new pattern additionally binding ``attribute=value``."""
        if attribute in self._lookup:
            raise ValueError(f"attribute {attribute!r} is already bound")
        items = dict(self._items)
        items[attribute] = value
        return Pattern(items)

    def drop(self, attribute: str) -> "Pattern | None":
        """Return the pattern without ``attribute`` (``None`` if emptied)."""
        if attribute not in self._lookup:
            raise KeyError(f"attribute {attribute!r} is not bound")
        items = {a: v for a, v in self._items if a != attribute}
        return Pattern(items) if items else None

    def is_subpattern_of(self, other: "Pattern") -> bool:
        """True when every binding of ``self`` also appears in ``other``."""
        return all(
            other.get(attribute) == value
            for attribute, value in self._items
        )

    def matches_row(self, row: Mapping[str, Hashable]) -> bool:
        """Tuple satisfaction (Definition 2.3) against a row dict."""
        for attribute, value in self._items:
            actual = row.get(attribute)
            if isinstance(value, Predicate):
                if not value.matches(actual):
                    return False
            elif actual != value:
                return False
        return True


def group_by_attributes(
    patterns: Sequence["Pattern"],
) -> dict[tuple[str, ...], list[int]]:
    """Workload indices grouped by (canonical, sorted) attribute tuple.

    The single definition of batch grouping — every batch path groups
    through here so grouping semantics cannot diverge between kernels.
    """
    groups: dict[tuple[str, ...], list[int]] = {}
    for index, pattern in enumerate(patterns):
        groups.setdefault(pattern.attributes, []).append(index)
    return groups


def encode_groups(
    patterns: Sequence["Pattern"], schema
) -> list[tuple[tuple[str, ...], np.ndarray, list[int]]]:
    """Group a workload by attribute tuple and encode each group.

    The shared front half of every batch path (``count_many``,
    ``BatchLabelEvaluator``, the baselines' ``estimate_many``): returns
    one ``(attributes, code_matrix, pattern_indices)`` triple per
    distinct attribute tuple, where row ``j`` of ``code_matrix`` holds
    the schema codes of ``patterns[pattern_indices[j]]``.

    ``schema`` is any mapping-style schema whose ``schema[name].code_of``
    resolves a domain value (unknown values raise, exactly like the
    scalar paths).
    """
    for pattern in patterns:
        if pattern.has_ranges:
            raise ValueError(
                f"encode_groups is equality-only; {pattern!r} binds a "
                "range predicate — route it through encode_range_groups"
            )
    encoded = []
    for attrs, indices in group_by_attributes(patterns).items():
        combos = np.array(
            [
                [schema[a].code_of(patterns[i][a]) for a in attrs]
                for i in indices
            ],
            dtype=np.int32,
        )
        encoded.append((attrs, combos, indices))
    return encoded


def split_by_ranges(
    patterns: Sequence["Pattern"],
) -> tuple[list[int], list[int]]:
    """Partition workload indices into (equality-only, range-bearing).

    The shared dispatch seam of every batch path: equality indices flow
    to :func:`encode_groups` and the historical code-matrix kernels
    (byte-for-byte unchanged), range indices to
    :func:`encode_range_groups` and the code-run kernels.
    """
    equality: list[int] = []
    ranged: list[int] = []
    for index, pattern in enumerate(patterns):
        (ranged if pattern.has_ranges else equality).append(index)
    return equality, ranged


def encode_range_groups(
    patterns: Sequence["Pattern"], schema
) -> list[tuple[tuple[str, ...], list[tuple], list[int]]]:
    """Group range-bearing patterns and normalize bindings to code runs.

    Returns one ``(order, runs_rows, indices)`` triple per distinct
    ``(attributes, range-attributes)`` signature:

    * ``order`` — the group's attributes in kernel order: equality-bound
      attributes first (sorted), then range attributes by ascending
      domain cardinality.  The widest range thus lands in the
      least-significant radix position, where a run of ``w`` adjacent
      codes costs one ``searchsorted`` segment instead of ``w`` prefix
      expansions.
    * ``runs_rows[j][i]`` — the half-open ``(lo, hi)`` code runs of
      pattern ``patterns[indices[j]]`` on attribute ``order[i]``
      (equality bindings contribute the single run ``(code, code+1)``).

    ``schema`` is any mapping-style schema whose columns expose
    ``code_runs`` (see :meth:`repro.dataset.schema.Column.code_runs`).
    The payload is plain Python ints and tuples on purpose: it crosses
    the worker-pool process boundary as-is.
    """
    groups: dict[tuple[tuple[str, ...], tuple[str, ...]], list[int]] = {}
    for index, pattern in enumerate(patterns):
        key = (pattern.attributes, pattern.range_attributes)
        groups.setdefault(key, []).append(index)
    encoded = []
    for (attrs, range_attrs), indices in groups.items():
        range_set = set(range_attrs)
        ranged = sorted(
            range_attrs, key=lambda a: (schema[a].cardinality, a)
        )
        order = tuple(
            a for a in attrs if a not in range_set
        ) + tuple(ranged)
        runs_rows = [
            tuple(
                schema[a].code_runs(patterns[i].predicate(a))
                for a in order
            )
            for i in indices
        ]
        encoded.append((order, runs_rows, indices))
    return encoded
