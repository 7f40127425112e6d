"""Labels: the paper's metadata object (Definition 2.9).

A label ``L_S(D)`` consists of

* ``PC`` — the exact count of every value combination over the chosen
  attribute subset ``S`` that appears in the data (count > 0), and
* ``VC`` — the count of every individual attribute value of *all*
  attributes of ``D`` (the same for every label of ``D``).

The label *size*, charged against the budget ``Bs`` of the optimal-label
problem, is ``|PC|`` — the number of stored pattern/count pairs.

Labels are self-contained (they embed the value counts, the attribute
order, and the total row count), so they can be detached from the dataset,
serialized as JSON, published next to a data file, and later used for
estimation without touching the data — the intended "nutrition label"
deployment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator, Mapping, Sequence

from repro.core.counts import PatternCounter
from repro.core.pattern import Pattern, Predicate
from repro.core.sharding import make_counter
from repro.dataset.table import Dataset

__all__ = ["Label", "build_label", "label_size"]


def _scalar_to_json(value: Hashable) -> Any:
    """A value as a JSON scalar, keeping its type whenever JSON can.

    Numpy scalars unwrap to their Python equivalents via ``.item()``;
    anything JSON has no scalar for falls back to ``str``, matching the
    historical all-strings convention.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        unwrapped = item()
        if unwrapped is None or isinstance(unwrapped, (str, int, float)):
            return unwrapped
    return str(value)


def _vc_items(counts: Any) -> Iterator[tuple[Hashable, Any]]:
    """Iterate a serialized ``VC`` entry in either wire shape.

    ``repro-label/4`` writes ``[[value, count], ...]`` pairs (value
    types preserved); earlier versions wrote ``{str(value): count}``.
    """
    if isinstance(counts, Mapping):
        return iter(counts.items())
    return ((value, count) for value, count in counts)


@dataclass(frozen=True)
class Label:
    """A pattern count-based label ``L_S(D)``.

    Parameters
    ----------
    attributes:
        The subset ``S``, in the dataset's schema order.  May be empty, in
        which case the label degenerates to value counts only and the
        estimation function falls back to a pure independence estimate.
    pc:
        ``PC``: mapping from value tuples (aligned with ``attributes``) to
        their exact count.  Only positive counts are stored.  For
        relations with missing values (Appendix A reduction instances),
        keys may contain ``None`` at positions the pattern leaves
        unconstrained — each stored pattern is a tuple's projection onto
        the attributes of ``S`` where it is defined, and projections
        binding fewer than two attributes are omitted (their counts are
        already in ``VC``; this matches Lemma A.8's accounting).
    vc:
        ``VC``: per attribute, the count of every domain value.
    total:
        ``|D|``, the number of tuples in the labeled data.
    attribute_order:
        All attributes of ``D`` in schema order (needed to present the
        label and to keep ``gen``-style attribute indexing stable).
    """

    attributes: tuple[str, ...]
    pc: Mapping[tuple[Hashable, ...], int]
    vc: Mapping[str, Mapping[Hashable, int]]
    total: int
    attribute_order: tuple[str, ...]
    _fractions: dict[str, dict[Hashable, float]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _marginals: dict[
        tuple[str, ...], dict[tuple[Hashable, ...], int]
    ] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        unknown = set(self.attributes) - set(self.attribute_order)
        if unknown:
            raise ValueError(
                f"label attributes {sorted(unknown)} missing from the "
                "attribute order"
            )
        for combo, count in self.pc.items():
            if len(combo) != len(self.attributes):
                raise ValueError(
                    f"PC key {combo!r} has arity {len(combo)}, expected "
                    f"{len(self.attributes)}"
                )
            if all(value is None for value in combo):
                raise ValueError("PC keys must bind at least one attribute")
            if count <= 0:
                raise ValueError(
                    f"PC stores only positive counts, got {count} for "
                    f"{combo!r}"
                )
        fractions: dict[str, dict[Hashable, float]] = {}
        for attribute, counts in self.vc.items():
            denominator = float(sum(counts.values()))
            fractions[attribute] = {
                value: (count / denominator if denominator else 0.0)
                for value, count in counts.items()
            }
        object.__setattr__(self, "_fractions", fractions)
        object.__setattr__(self, "_marginals", {})

    # -- paper notation -------------------------------------------------------

    @property
    def size(self) -> int:
        """``|PC|`` — the size charged against the budget ``Bs``."""
        return len(self.pc)

    @property
    def vc_size(self) -> int:
        """``|VC|`` — total number of stored value/count pairs."""
        return sum(len(counts) for counts in self.vc.values())

    def pattern_count(self, pattern: Pattern) -> int | None:
        """Exact stored count when ``Attr(p) == S``; ``None`` otherwise.

        Range-bearing patterns over exactly ``S`` resolve through the
        predicate sum over the fully-bound ``PC`` entries (exact on
        relations without missing values, where ``PC`` is the complete
        joint over ``S``).
        """
        if pattern.attributes != tuple(sorted(self.attributes)):
            return None
        if pattern.has_ranges:
            return self._predicate_sum(pattern)
        combo = tuple(pattern[a] for a in self.attributes)
        return self.pc.get(combo, 0)

    def _predicate_sum(self, pattern: Pattern) -> int:
        """Sum of fully-bound ``PC`` entries satisfying every predicate."""
        positions = [
            (i, pattern.predicate(a))
            for i, a in enumerate(self.attributes)
            if a in pattern
        ]
        total = 0
        for combo, count in self.pc.items():
            if None in combo:
                continue  # partial-support keys are served exactly, not summed
            if all(
                predicate.matches(combo[i]) for i, predicate in positions
            ):
                total += count
        return total

    def restricted_count(self, pattern: Pattern) -> int:
        """Count ``c_D(p)`` of a pattern binding a *subset* of ``S``.

        Resolution order:

        1. an exact stored ``PC`` key (including partial-support keys
           from missing-value relations) — exact by construction;
        2. otherwise, the marginal sum of the *fully-bound* ``PC``
           entries compatible with the pattern — exact whenever the
           labeled relation has no missing values, because ``PC`` is
           then the complete joint over ``S``.

        Range-bearing patterns always resolve through path 2, with each
        stored combination filtered by the pattern's predicates (ranges
        are never stored keys).  For missing-value relations the
        fallback can undercount (tuples undefined on part of ``S`` are
        invisible to fully-bound entries); the Appendix A reduction only
        ever queries restrictions that are stored keys, so its estimates
        stay exact.
        """
        if not set(pattern.attributes) <= set(self.attributes):
            raise ValueError(
                f"pattern binds {pattern.attributes}, not all within the "
                f"label's attribute set {self.attributes}"
            )
        if pattern.has_ranges:
            return self._predicate_sum(pattern)
        exact_key = tuple(
            pattern.get(attribute) for attribute in self.attributes
        )
        if exact_key in self.pc:
            return self.pc[exact_key]
        positions = [
            (i, pattern[a])
            for i, a in enumerate(self.attributes)
            if a in pattern
        ]
        return sum(
            count
            for combo, count in self.pc.items()
            if None not in combo
            and all(combo[i] == value for i, value in positions)
        )

    def marginal_counts(
        self, attributes: Sequence[str]
    ) -> dict[tuple[Hashable, ...], int]:
        """Marginal of the fully-bound ``PC`` entries over ``attributes``.

        ``attributes`` must be a subsequence of :attr:`attributes` (label
        order); keys of the result align with it.  This is the fallback
        table of :meth:`restricted_count`, materialized once and cached —
        the batch estimation path answers every restricted count with one
        dictionary lookup instead of an ``O(|PC|)`` scan per pattern.
        """
        key = tuple(attributes)
        cached = self._marginals.get(key)
        if cached is not None:
            return cached
        positions = []
        for attribute in key:
            try:
                positions.append(self.attributes.index(attribute))
            except ValueError:
                raise ValueError(
                    f"attribute {attribute!r} is not in the label's set "
                    f"{self.attributes}"
                ) from None
        marginal: dict[tuple[Hashable, ...], int] = {}
        for combo, count in self.pc.items():
            if None in combo:
                continue  # partial-support keys are served exactly, not summed
            projected = tuple(combo[i] for i in positions)
            marginal[projected] = marginal.get(projected, 0) + count
        self._marginals[key] = marginal
        return marginal

    def value_fraction(self, attribute: str, value: Hashable) -> float:
        """Independence factor ``c_D({A=a}) / sum_a' c_D({A=a'})``."""
        try:
            return self._fractions[attribute][value]
        except KeyError:
            raise KeyError(
                f"value {value!r} not recorded for attribute {attribute!r}"
            ) from None

    def predicate_fraction(
        self, attribute: str, predicate: Predicate
    ) -> float:
        """Summed independence factor of a predicate on ``attribute``.

        The range generalization of :meth:`value_fraction`: the fraction
        mass of every recorded value satisfying ``predicate``, read from
        the label's own ``VC`` — labels stay self-contained for range
        workloads too.
        """
        try:
            fractions = self._fractions[attribute]
        except KeyError:
            raise KeyError(
                f"attribute {attribute!r} not recorded in VC"
            ) from None
        return sum(
            fraction
            for value, fraction in fractions.items()
            if predicate.matches(value)
        )

    def iter_pc_patterns(self) -> Iterator[tuple[Pattern, int]]:
        """Iterate ``PC`` entries as :class:`Pattern` objects."""
        for combo, count in self.pc.items():
            yield (
                Pattern(dict(zip(self.attributes, combo))),
                count,
            )

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation.

        JSON-representable scalar values (strings, ints, floats, bools,
        ``None``) are emitted natively; anything else falls back to
        ``str``.  ``VC`` entries are ``[value, count]`` pairs rather
        than an object so value types survive the trip — JSON object
        keys are always strings, and a label whose domain is ``{0, 1}``
        must not come back as ``{'0', '1'}``: maintenance applied after
        a load (the streaming pack-checkpoint recovery path) would then
        silently diverge from the live label.
        """
        return {
            "attributes": list(self.attributes),
            "attribute_order": list(self.attribute_order),
            "total": self.total,
            "pc": [
                {
                    "values": [_scalar_to_json(v) for v in combo],
                    "count": count,
                }
                for combo, count in self.pc.items()
            ],
            "vc": {
                attribute: [
                    [_scalar_to_json(value), count]
                    for value, count in counts.items()
                ]
                for attribute, counts in self.vc.items()
            },
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize the label to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Label":
        """Inverse of :meth:`to_dict`.

        Values keep the JSON scalar types they were written with.  The
        pre-``repro-label/4`` ``VC`` shape — an object keyed by
        stringified values — is still accepted, so labels published by
        earlier versions keep loading (with their historical
        all-strings convention).
        """
        return cls(
            attributes=tuple(payload["attributes"]),
            pc={
                tuple(entry["values"]): int(entry["count"])
                for entry in payload["pc"]
            },
            vc={
                attribute: {
                    value: int(count) for value, count in _vc_items(counts)
                }
                for attribute, counts in payload["vc"].items()
            },
            total=int(payload["total"]),
            attribute_order=tuple(payload["attribute_order"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "Label":
        """Parse a label previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"Label(S={list(self.attributes)}, |PC|={self.size}, "
            f"|VC|={self.vc_size}, total={self.total})"
        )


def build_label(
    source: Dataset | PatternCounter, attributes: Sequence[str]
) -> Label:
    """Construct ``L_S(D)`` for the attribute subset ``attributes``.

    Parameters
    ----------
    source:
        The dataset, or a :class:`PatternCounter` over it (of any shard
        count), whose caches are reused.
    attributes:
        The subset ``S``; order is normalized to schema order.  May be
        empty for the degenerate value-counts-only label.
    """
    counter = make_counter(source)
    dataset = counter.dataset
    schema = dataset.schema
    requested = list(attributes)
    ordered = tuple(sorted(dict.fromkeys(requested), key=schema.position))
    if len(ordered) != len(requested):
        raise ValueError("duplicate attributes in label subset")

    pc: dict[tuple[Hashable, ...], int] = {}
    if ordered:
        has_missing = not dataset.non_missing_mask(list(ordered)).all()
        if has_missing:
            # Missing-value relation (Appendix A): PC holds the distinct
            # tuple projections onto S (support >= 2), each with its
            # exact satisfaction count c_D — recounted per pattern since
            # projections with different supports can overlap.
            combos, _ = dataset.pattern_projections(list(ordered))
            for row in combos:
                assignments = {
                    a: schema[a].category_of(int(code))
                    for a, code in zip(ordered, row)
                    if code >= 0
                }
                pattern = Pattern(assignments)
                key = tuple(assignments.get(a) for a in ordered)
                pc[key] = counter.count(pattern)
        else:
            combos, counts = counter.joint_table(ordered)
            for row, count in zip(combos, counts):
                combo = tuple(
                    schema[a].category_of(int(code))
                    for a, code in zip(ordered, row)
                )
                pc[combo] = int(count)

    vc = {
        column.name: counter.value_counts(column.name)
        for column in schema
    }
    return Label(
        attributes=ordered,
        pc=pc,
        vc=vc,
        total=dataset.n_rows,
        attribute_order=dataset.attribute_names,
    )


def label_size(
    source: Dataset | PatternCounter, attributes: Sequence[str]
) -> int:
    """``|P_S|`` without materializing the label (used by the search)."""
    counter = make_counter(source)
    if not attributes:
        return 0
    return counter.label_size(tuple(attributes))
