"""Named, versioned label snapshots behind a thread-safe store.

The paper's producer/consumer split, made concrete: a *maintainer*
publishes labels into a :class:`LabelStore`; any number of concurrent
*readers* resolve a :class:`LabelSnapshot` and estimate from it.  Two
invariants carry the whole concurrency story:

* **Snapshots are immutable.**  A snapshot freezes the (artifact,
  estimator) pair together, so a reader holding one can never observe a
  half-applied update — maintenance builds a *new* label (the
  :mod:`repro.core.maintenance` functions are already copy-on-write) and
  a *new* estimator, and only then publishes.
* **Publish is an atomic swap.**  ``store.publish()`` replaces the
  name's dict entry in one assignment; readers resolve snapshots with a
  plain dict read and therefore never block on a writer (they see either
  the old version or the new one, both internally consistent).  Writers
  are serialized per store, so interleaved ``update()`` calls cannot
  lose deltas.

Estimator resolution is registry-driven: each published artifact gets
its backend through :func:`repro.api.registry.make_estimator`, keyed by
an explicit ``estimator=`` name or the kind's default, so a deployment
that registers its own backend can serve it with no store changes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.api.artifacts import MultiLabelBundle
from repro.api.errors import ApiError
from repro.api.registry import estimate_many as _estimate_many
from repro.api.registry import make_estimator
from repro.core.flexlabel import FlexibleLabel
from repro.core.label import Label
from repro.core.maintenance import apply_batch
from repro.core.pattern import Pattern
from repro.dataset.table import Dataset
from repro.serve.protocol import (
    BadRequestError,
    UnknownLabelError,
    UnsupportedOperationError,
)

__all__ = ["LabelSnapshot", "LabelStore", "DEFAULT_BACKENDS"]

#: Registry backend used per artifact kind when ``publish`` gets no
#: explicit ``estimator=`` name.
DEFAULT_BACKENDS = {
    "label": "label",
    "flexible": "flexible",
    "multi": "multi_label",
}


def artifact_kind(artifact: Any) -> str:
    """Artifact kind string — matches the serialization envelope."""
    if isinstance(artifact, Label):
        return "label"
    if isinstance(artifact, FlexibleLabel):
        return "flexible"
    if isinstance(artifact, MultiLabelBundle):
        return "multi"
    raise BadRequestError(
        f"unsupported artifact type {type(artifact).__name__!r}"
    )


@dataclass(frozen=True)
class LabelSnapshot:
    """One immutable published version of a named label.

    The frozen (artifact, estimator) pair is the unit of consistency:
    everything a reader computes from one snapshot describes exactly one
    version of the data.  ``estimate`` is the scalar reference path;
    ``estimate_many`` is the batched path the micro-batcher drives, and
    the two are byte-identical (the batch kernel's parity discipline).
    """

    name: str
    version: int
    artifact: Label | FlexibleLabel | MultiLabelBundle
    estimator: Any
    estimator_name: str
    #: Backend-specific options the estimator was built with; kept so a
    #: maintenance republish rebuilds the backend identically.
    estimator_params: dict[str, Any] = field(default_factory=dict)
    published_at: float = field(default_factory=time.time)
    #: The :class:`~repro.persist.pack.PackReader` this snapshot was
    #: published from, when it came from a packed deployment
    #: (``publish_pack``); lets consumers resolve the exact counting
    #: backend lazily.  ``None`` for artifact-only publishes.
    pack: Any = None

    @property
    def kind(self) -> str:
        """Artifact kind: ``label``, ``flexible``, or ``multi``."""
        return artifact_kind(self.artifact)

    @property
    def size(self) -> int:
        """``|PC|`` of the artifact (summed over a multi-label bundle)."""
        if isinstance(self.artifact, MultiLabelBundle):
            return sum(label.size for label in self.artifact.labels)
        return self.artifact.size

    @property
    def total(self) -> int:
        """``|D|`` the snapshot describes."""
        if isinstance(self.artifact, MultiLabelBundle):
            return self.artifact.labels[0].total
        return self.artifact.total

    def estimate(self, pattern: Pattern) -> float:
        """Scalar ``Est(p, l)`` against this snapshot."""
        return float(self.estimator.estimate(pattern))

    def estimate_many(self, patterns: Sequence[Pattern]) -> list[float]:
        """Batched estimates against this snapshot (the serving path)."""
        return _estimate_many(self.estimator, list(patterns))

    def counter(self):
        """The exact counting backend behind this snapshot.

        Only snapshots published from a pack carry one; the counters
        are lazily mapped, so calling this does not read shard payloads
        — the first exact *query* does.
        """
        if self.pack is None:
            raise UnsupportedOperationError(
                f"label {self.name!r} was not published from a pack; no "
                "counter state is attached"
            )
        return self.pack.counter()

    def describe(self) -> dict[str, Any]:
        """Catalog entry for ``GET /labels``."""
        return {
            "name": self.name,
            "version": self.version,
            "kind": self.kind,
            "size": self.size,
            "total": self.total,
            "estimator": self.estimator_name,
        }


class LabelStore:
    """Thread-safe mapping from label names to published snapshots.

    Readers (:meth:`get`, :meth:`snapshots`, ``in``) never take the
    writer lock: CPython dict reads are atomic and publish replaces a
    value in one assignment, so a reader sees either the previous or the
    next snapshot, never a torn state.  All mutation
    (:meth:`publish`, :meth:`update`, :meth:`drop`) is serialized under
    one lock — maintenance is read-modify-publish, and two unserialized
    updates would silently drop one batch.
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, LabelSnapshot] = {}
        self._write_lock = threading.RLock()
        self._generation = 0

    @property
    def generation(self) -> int:
        """Total publishes across every name since the store was built.

        The store-wide publish counter: a result cache keyed by
        per-label snapshot versions needs no invalidation hook, but
        operators watching ``/stats`` want one number that moves on
        *any* publish — this is it.
        """
        return self._generation

    # -- reader side (lock-free) ------------------------------------------------

    def get(self, name: str) -> LabelSnapshot:
        """The current snapshot for ``name``.

        Raises
        ------
        UnknownLabelError
            When no snapshot is published under ``name``.
        """
        snapshot = self._snapshots.get(name)
        if snapshot is None:
            raise UnknownLabelError(
                f"no label {name!r} is published; available: "
                f"{sorted(self._snapshots) or 'none'}"
            )
        return snapshot

    def names(self) -> list[str]:
        """Published label names, sorted."""
        return sorted(self._snapshots)

    def snapshots(self) -> list[LabelSnapshot]:
        """The current snapshot of every published label, name-sorted."""
        # One atomic read of the live dict; sorting the materialized
        # list cannot race with a concurrent publish/drop.
        snapshots = list(self._snapshots.values())
        return sorted(snapshots, key=lambda snapshot: snapshot.name)

    def catalog(self) -> list[dict[str, Any]]:
        """``describe()`` of every published label (``GET /labels``)."""
        return [snapshot.describe() for snapshot in self.snapshots()]

    def __contains__(self, name: object) -> bool:
        return name in self._snapshots

    def __len__(self) -> int:
        return len(self._snapshots)

    # -- writer side (serialized) -----------------------------------------------

    def publish(
        self,
        name: str,
        artifact: Label | FlexibleLabel | MultiLabelBundle,
        *,
        estimator: str | None = None,
        pack: Any = None,
        **estimator_params: Any,
    ) -> LabelSnapshot:
        """Publish ``artifact`` under ``name``; returns the new snapshot.

        The version starts at 1 and increments on every publish of the
        same name.  The estimator is resolved through the registry —
        ``estimator`` names any registered backend that can be built
        from the artifact; unset picks the kind's default
        (:data:`DEFAULT_BACKENDS`).  ``pack`` optionally attaches the
        :class:`~repro.persist.pack.PackReader` the artifact came from
        (see :meth:`publish_pack`).  The swap itself is a single dict
        assignment: in-flight readers keep their old snapshot, new
        readers see the new one.
        """
        kind = artifact_kind(artifact)
        backend = estimator if estimator is not None else DEFAULT_BACKENDS[kind]
        try:
            resolved = make_estimator(backend, artifact, **estimator_params)
        except ApiError as exc:
            raise BadRequestError(
                f"cannot build estimator {backend!r} for label {name!r}: "
                f"{exc}"
            ) from exc
        with self._write_lock:
            previous = self._snapshots.get(name)
            snapshot = LabelSnapshot(
                name=name,
                version=(previous.version + 1) if previous else 1,
                artifact=artifact,
                estimator=resolved,
                estimator_name=backend,
                estimator_params=dict(estimator_params),
                pack=pack,
            )
            self._snapshots[name] = snapshot
            self._generation += 1
        return snapshot

    def publish_pack(
        self,
        path: Any,
        *,
        estimator: str | None = None,
        **estimator_params: Any,
    ) -> list[LabelSnapshot]:
        """Publish every label of a ``repro-pack/1`` directory.

        The warm-start deployment path (``repro serve
        --artifact-dir``): label envelopes are read straight from the
        pack — no CSV refit, and the counter payloads stay unmapped
        until a consumer asks a snapshot's :meth:`~LabelSnapshot.counter`
        an exact query.  Returns the published snapshots, name-sorted.

        Raises
        ------
        BadRequestError
            When the pack is unreadable, corrupt, or holds no labels
            (wrapping the underlying
            :class:`~repro.api.errors.ArtifactError`).
        """
        from repro.api.errors import ArtifactError
        from repro.persist.pack import PackReader, open_pack

        try:
            reader = path if isinstance(path, PackReader) else open_pack(path)
            labels = reader.load_labels()
        except ArtifactError as exc:
            raise BadRequestError(
                f"cannot publish pack {path}: {exc}"
            ) from exc
        if not labels:
            raise BadRequestError(
                f"pack {reader.path} holds no labels to publish; re-pack "
                "with labels= (or 'repro pack', which always includes one)"
            )
        return [
            self.publish(
                name,
                artifact,
                estimator=estimator,
                pack=reader,
                **estimator_params,
            )
            for name, artifact in sorted(labels.items())
        ]

    def update(
        self,
        name: str,
        *,
        inserted: Dataset | None = None,
        deleted: Dataset | None = None,
    ) -> LabelSnapshot:
        """Apply an insert/delete batch to ``name`` and publish the result.

        Copy-on-write maintenance: :func:`apply_batch` builds a *new*
        label, so every reader holding the previous snapshot keeps
        answering from it unchanged.  Only subset labels support exact
        maintenance.
        """
        if inserted is None and deleted is None:
            raise BadRequestError(
                "update() needs at least one of inserted= or deleted="
            )
        with self._write_lock:
            snapshot = self.get(name)
            if not isinstance(snapshot.artifact, Label):
                raise UnsupportedOperationError(
                    f"label {name!r} is of kind {snapshot.kind!r}; exact "
                    "maintenance is only supported for subset labels"
                )
            try:
                label, _, _ = apply_batch(
                    snapshot.artifact,
                    None,
                    inserted=inserted,
                    deleted=deleted,
                )
            except ValueError as exc:
                raise BadRequestError(
                    f"update batch rejected for label {name!r}: {exc}"
                ) from exc
            # pack deliberately not forwarded: a pack profiles the
            # pre-update data, and a stale counter must not survive the
            # republish.
            return self.publish(
                name,
                label,
                estimator=snapshot.estimator_name,
                **snapshot.estimator_params,
            )

    def drop(self, name: str) -> None:
        """Unpublish ``name`` (readers holding its snapshot are unaffected)."""
        with self._write_lock:
            if name not in self._snapshots:
                raise UnknownLabelError(f"no label {name!r} is published")
            del self._snapshots[name]

    def publish_all(
        self,
        artifacts: Iterable[tuple[str, Label | FlexibleLabel | MultiLabelBundle]],
    ) -> list[LabelSnapshot]:
        """Publish several ``(name, artifact)`` pairs; returns the snapshots."""
        return [self.publish(name, artifact) for name, artifact in artifacts]
