"""The :class:`LabelingSession` facade: fit → estimate → maintain → ship.

One object for the whole label lifecycle the paper describes and the
modules below implement piecemeal:

>>> session = LabelingSession.fit(dataset, bound=50)        # search
>>> session.estimate(Pattern({"gender": "F"}))              # query
>>> session.evaluate(workload)                              # score
>>> session.update(inserted=new_rows)                       # maintain
>>> session.save("label.json")                              # publish
>>> LabelingSession.load("label.json").estimate_many(ws)    # consume

``fit`` resolves its ``strategy`` by name through the strategy registry
(``top_down``, ``naive``, ``beam``, ``anytime``, ``greedy_flexible``,
or anything registered later), so the session works identically for
subset labels and flexible labels; ``save``/``load`` go through the
versioned artifact envelope, so a consumer session never needs the
data.

Concurrency contract: the session keeps its (artifact, estimator) pair
in **one** attribute that :meth:`update` swaps atomically, and every
read path resolves that pair exactly once.  An ``estimate_many`` running
concurrently with an ``update`` therefore answers entirely from the
snapshot it started on — before this, ``update`` replaced the artifact
and the estimator in two steps and a concurrent reader could observe
the torn pair.  :meth:`snapshot` exposes the frozen pair as a
:class:`~repro.serve.store.LabelSnapshot`, and :meth:`serve` puts it
behind the :mod:`repro.serve` HTTP surface.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.serve.service import LabelService
    from repro.serve.store import LabelSnapshot, LabelStore
    from repro.stream.ingest import StreamIngestor

from repro.api.artifacts import (
    MultiLabelBundle,
    dump_artifact,
    estimator_from_artifact,
    load_artifact,
    to_artifact,
)
from repro.persist.atomic import atomic_write_json
from repro.api.errors import ArtifactError, SessionError
from repro.api.registry import StreamConfig
from repro.api.registry import estimate_many as _estimate_many
from repro.api.registry import make_strategy
from repro.core.counts import PatternCounter
from repro.core.errors import ErrorSummary, Objective
from repro.core.sharding import make_counter
from repro.core.flexlabel import FlexibleLabel
from repro.core.label import Label
from repro.core.maintenance import apply_batch
from repro.core.pattern import Pattern
from repro.core.patternsets import PatternSet
from repro.core.search import SearchResult
from repro.dataset.table import Dataset

__all__ = ["LabelingSession"]


class LabelingSession:
    """A fitted (or loaded) label plus everything you do with one.

    Construct with :meth:`fit` (producer side: search the data for a
    label) or :meth:`load` (consumer side: deserialize a published
    artifact); the constructor itself accepts any supported artifact for
    advanced wiring.
    """

    def __init__(
        self,
        artifact: Label | FlexibleLabel | MultiLabelBundle,
        *,
        result: SearchResult | None = None,
        strategy: str | None = None,
    ) -> None:
        if not isinstance(artifact, (Label, FlexibleLabel, MultiLabelBundle)):
            raise SessionError(
                f"unsupported artifact type {type(artifact).__name__!r}"
            )
        # The (artifact, estimator, version) triple lives in ONE
        # attribute and is swapped whole: readers resolve it once per
        # call, so a concurrent update() can never hand them a torn
        # pair — or an artifact labeled with another state's version.
        self._state = (artifact, estimator_from_artifact(artifact), 1)
        self._result = result
        self._strategy = strategy
        # Counter state: populated by fit() (the fitted counting
        # backend) or resolved lazily from a referenced pack directory
        # (load()/from_pack()).  None for pure consumer sessions.
        self._counter = None
        self._pack = None
        self._pack_path: Path | None = None
        # Options for resolving a pack-backed counter (from_pack only).
        self._counter_options: dict[str, Any] = {}
        # Why update() dropped the counter, once it has.
        self._detached: str | None = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def fit(
        cls,
        dataset: Dataset | PatternCounter | Iterable[Dataset],
        bound: int,
        *,
        strategy: str = "top_down",
        pattern_set: PatternSet | None = None,
        objective: Objective = Objective.MAX_ABS,
        shards: int | None = None,
        parallel: bool = False,
        max_workers: int | None = None,
        **strategy_options: Any,
    ) -> "LabelingSession":
        """Search ``dataset`` for a label under the size budget ``bound``.

        Parameters
        ----------
        dataset:
            A :class:`~repro.dataset.table.Dataset`, an existing counter
            (plain or sharded), or an **iterable of chunk datasets** —
            e.g. the generator of
            :func:`~repro.dataset.csvio.read_csv_chunks`, which fits a
            label without ever materializing the parsed file whole
            (each chunk becomes a shard of a
            :class:`~repro.core.sharding.ShardedPatternCounter`; the
            coded shards stay resident).
        strategy:
            A registered strategy name; extra keyword arguments are
            validated against that strategy's config dataclass (e.g.
            ``prune_parents=False`` for ``top_down``, ``beam_width=4``
            for ``beam``, ``time_limit_seconds=2`` for ``anytime`` —
            which returns the best label found within the budget, with
            ``session.result.is_exact`` flagging completeness — or
            ``max_arity=2`` for ``greedy_flexible``).
        shards:
            Partition an in-memory dataset into this many shards (or
            coalesce a chunk stream down to it); ``None`` keeps the
            source's natural shape — a plain counter for a dataset, one
            shard per chunk for a stream.
        parallel:
            Run per-shard table builds on the counter's thread pool, one
            task per shard (see :class:`~repro.core.counts.PatternCounter`);
            ignored for single-shard counters.  The label and a pack
            written afterwards are byte-identical to a serial fit's.
        max_workers:
            Thread-pool size cap, clamped to the shard count.
        """
        resolved = make_strategy(strategy, **strategy_options)
        source = make_counter(
            dataset, shards=shards, parallel=parallel, max_workers=max_workers
        )
        fitted = resolved.fit(
            source, bound, pattern_set=pattern_set, objective=objective
        )
        session = cls(
            fitted.artifact, result=fitted.search, strategy=resolved.name
        )
        # Keep the fitted backend: it is what save(pack=...)/to_pack()
        # persist, and what exact evaluation / re-search reuse.
        session._counter = source
        return session

    @classmethod
    def load(cls, path: str | Path) -> "LabelingSession":
        """Deserialize a published artifact (envelope or legacy JSON).

        An envelope carrying a ``"pack"`` reference (written by
        ``save(path, pack=...)``) reconnects the session to its pack
        directory: :attr:`counter` then resolves the packed counting
        backend lazily — nothing beyond the envelope is read here.
        """
        path = Path(path)
        artifact = load_artifact(path)
        session = cls(artifact)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):  # pragma: no cover
            payload = None  # load_artifact already vetted the file
        if isinstance(payload, dict) and payload.get("pack"):
            reference = Path(payload["pack"])
            session._pack_path = (
                reference
                if reference.is_absolute()
                else path.parent / reference
            )
        return session

    @classmethod
    def from_pack(
        cls,
        path: str | Path,
        name: str | None = None,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        verify: str = "lazy",
    ) -> "LabelingSession":
        """Open a session straight from a ``repro-pack/1`` directory.

        Loads the packed label envelope named ``name`` (or the pack's
        only label) — touching no shard payloads — and wires
        :attr:`counter` to resolve the packed backend on demand.
        ``parallel``/``max_workers`` configure the resolved backend's
        thread pool (multi-shard packs only); ``verify`` is the reader's
        checksum policy (see :func:`repro.persist.pack.open_pack`).
        """
        from repro.persist.pack import open_pack

        reader = open_pack(path, verify=verify)
        try:
            artifact = reader.load_label(name)
        except ArtifactError as exc:
            raise SessionError(
                f"cannot open a session from pack {path}: {exc}"
            ) from exc
        session = cls(artifact)
        session._pack = reader
        session._pack_path = Path(path)
        session._counter_options = {
            "parallel": parallel,
            "max_workers": max_workers,
        }
        return session

    # -- introspection ----------------------------------------------------------

    @property
    def artifact(self) -> Label | FlexibleLabel | MultiLabelBundle:
        """The label object backing this session."""
        return self._state[0]

    @property
    def estimator(self):
        """The backend estimator (satisfies ``CardinalityEstimator``)."""
        return self._state[1]

    @property
    def version(self) -> int:
        """Monotonic state version; each :meth:`update` increments it."""
        return self._state[2]

    @property
    def kind(self) -> str:
        """Artifact kind: ``label``, ``flexible``, or ``multi``."""
        artifact = self._state[0]
        if isinstance(artifact, Label):
            return "label"
        if isinstance(artifact, FlexibleLabel):
            return "flexible"
        return "multi"

    @property
    def result(self) -> SearchResult | None:
        """The search result, when :meth:`fit` ran a search strategy."""
        return self._result

    @property
    def pack(self):
        """The :class:`~repro.persist.pack.PackReader` backing this
        session, opening it on first access; ``None`` when the session
        neither came from a pack nor references one."""
        if self._pack is None and self._pack_path is not None:
            from repro.persist.pack import open_pack

            self._pack = open_pack(self._pack_path)
        return self._pack

    @property
    def counter(self):
        """The counting backend behind this label, if any.

        ``fit`` sessions keep their fitted counter; pack-connected
        sessions (``from_pack``, or ``load`` of an envelope with a
        ``"pack"`` reference) resolve a lazily-mapped one from the pack
        on first access.  Pure consumer sessions return ``None`` — a
        label alone cannot answer exact counts.
        """
        if self._counter is None:
            pack = self.pack
            if pack is not None:
                self._counter = pack.counter(**self._counter_options)
        return self._counter

    @property
    def strategy(self) -> str | None:
        """The strategy name :meth:`fit` used (``None`` after ``load``)."""
        return self._strategy

    @property
    def size(self) -> int:
        """``|PC|`` of the artifact (summed over a multi-label bundle)."""
        artifact = self._state[0]
        if isinstance(artifact, MultiLabelBundle):
            return sum(label.size for label in artifact.labels)
        return artifact.size

    def __repr__(self) -> str:
        return (
            f"LabelingSession(kind={self.kind!r}, size={self.size}, "
            f"strategy={self._strategy!r})"
        )

    # -- estimation -------------------------------------------------------------

    def estimate(self, pattern: Pattern) -> float:
        """Estimated count of tuples satisfying ``pattern``."""
        estimator = self._state[1]
        return float(estimator.estimate(pattern))

    def estimate_many(
        self, workload: PatternSet | Iterable[Pattern]
    ) -> list[float]:
        """Batched estimates for a workload.

        Uses the backend's vectorized ``estimate_codes`` path when the
        backend is a ``TabularEstimator`` and the workload is a tabular
        :class:`~repro.core.patternsets.PatternSet`; heterogeneous
        workloads go through the backend's batched ``estimate_many``
        (grouped by attribute tuple, resolved against cached marginal /
        key tables — see DESIGN.md, "The batch counting kernel"); only
        backends without either path fall back to the per-pattern loop.
        """
        if not isinstance(workload, PatternSet):
            workload = list(workload)
        estimator = self._state[1]  # one read: a consistent snapshot
        return _estimate_many(estimator, workload)

    def evaluate(self, workload: PatternSet) -> ErrorSummary:
        """Error summary of this label over a workload with true counts."""
        estimates = np.asarray(self.estimate_many(workload), dtype=np.float64)
        return ErrorSummary.from_arrays(workload.counts, estimates)

    # -- maintenance ------------------------------------------------------------

    def update(
        self,
        *,
        inserted: Dataset | None = None,
        deleted: Dataset | None = None,
    ) -> "LabelingSession":
        """Apply insert/delete batches to the label, exactly.

        Wired to :func:`repro.core.maintenance.apply_batch`: pattern and
        value counts are additive, so the updated label is exactly
        ``L_S(D')`` for the new data.  Only subset labels support exact
        maintenance — the flexible label's overlapping counts cannot be
        updated from batch deltas alone.

        The session's :attr:`counter` follows an insert batch exactly: it
        becomes a new counter with the batch as one more shard (a
        pack-backed counter stays mapped lazily; a counter obtained
        earlier keeps counting the pre-update rows).  A delete batch, or
        an inserted value outside the counter's domains, drops the
        counter, and :meth:`to_pack` then names that reason.  The pack
        the session came from describes the pre-update rows, so
        :attr:`pack` is dropped either way.

        Safe to interleave with reads: the new label *and* its estimator
        are built off to the side and swapped in as one assignment, so a
        concurrent ``estimate``/``estimate_many``/``save`` answers
        entirely from either the old state or the new one — never a
        mixture.  (Concurrent ``update`` calls themselves are not
        serialized here; route multi-writer maintenance through
        :meth:`repro.serve.store.LabelStore.update`.)

        Returns ``self`` (the session is updated in place).
        """
        if inserted is None and deleted is None:
            raise SessionError(
                "update() needs at least one of inserted= or deleted="
            )
        artifact, _, version = self._state
        if not isinstance(artifact, Label):
            raise SessionError(
                f"maintenance is only supported for subset labels, not "
                f"{self.kind!r} artifacts"
            )
        label, counter, detached = apply_batch(
            artifact, self.counter, inserted=inserted, deleted=deleted
        )
        # Atomic swap: every piece of the state changes together.
        self._state = (label, estimator_from_artifact(label), version + 1)
        self._result = None  # search stats no longer describe this label
        self._counter = counter
        self._detached = detached or self._detached
        self._pack = None
        self._pack_path = None
        return self

    # -- serving ----------------------------------------------------------------

    def snapshot(self, name: str = "label") -> "LabelSnapshot":
        """Freeze the current state as an immutable serving snapshot.

        The returned :class:`~repro.serve.store.LabelSnapshot` pairs the
        artifact with its estimator and never changes — later
        :meth:`update` calls swap the *session's* state but leave every
        handed-out snapshot answering its own version.  The snapshot
        ``version`` mirrors :attr:`version` at freeze time.
        """
        from repro.serve.store import DEFAULT_BACKENDS, LabelSnapshot

        artifact, estimator, version = self._state
        return LabelSnapshot(
            name=name,
            version=version,
            artifact=artifact,
            estimator=estimator,
            estimator_name=DEFAULT_BACKENDS[self.kind],
        )

    def serve(
        self,
        *,
        name: str = "label",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        cache_entries: int = 0,
        window: float = 0.001,
        max_batch: int = 1024,
        start: bool = True,
    ) -> "LabelService":
        """Publish this session's label behind an HTTP serving surface.

        Builds a :class:`~repro.serve.service.LabelService`, publishes
        the current artifact under ``name``, and (by default) starts
        serving on a background thread — ``service.url`` is ready to
        query.  ``workers`` runs that many micro-batcher flush loops
        side by side, and ``cache_entries`` bounds the version-keyed
        result cache consulted before any request is enqueued (0, the
        default, disables it).  Further labels can be published into
        ``service.store``; maintenance through ``POST
        /labels/<name>/update`` (or ``service.store.update``) versions
        the *served* label without touching this session.  Call
        ``service.stop()`` when done.
        """
        from repro.serve.service import LabelService

        service = LabelService(
            host=host,
            port=port,
            workers=workers,
            cache_entries=cache_entries,
            window=window,
            max_batch=max_batch,
        )
        service.store.publish(name, self._state[0])
        if start:
            service.start()
        return service

    def stream(
        self,
        wal_dir: str | Path,
        *,
        name: str = "label",
        store: "LabelStore | None" = None,
        config: "StreamConfig | None" = None,
        replay: bool = False,
        estimator: str | None = None,
        **estimator_params: Any,
    ) -> "StreamIngestor":
        """Hand this session's label to the streaming ingestion pipeline.

        Builds a :class:`~repro.stream.ingest.StreamIngestor` over the
        current label and (when the session has one) its counting
        backend: every subsequent batch is applied off to the side
        (label plus a new counter with the batch as one more shard),
        WAL-logged to ``wal_dir``, and only then made live and published
        in one atomic snapshot swap — with background compaction and
        drift-triggered re-search per ``config`` (a
        :class:`~repro.api.registry.StreamConfig`).

        Pass the store of a running
        :class:`~repro.serve.service.LabelService` as ``store`` to make
        every published version immediately reader-visible; with
        ``replay=True`` the WAL's existing records for ``name`` are
        re-applied first (crash recovery).

        The ingestor owns the streamed state from here on — the session
        itself is left untouched: its label stays at the pre-stream
        version, like a handed-out :meth:`snapshot`, and its counter
        keeps counting the pre-stream rows, so :meth:`to_pack` still
        writes a consistent pack.
        """
        from repro.stream.ingest import StreamIngestor
        from repro.stream.wal import WriteAheadLog

        artifact = self._state[0]
        if not isinstance(artifact, Label):
            raise SessionError(
                f"streaming maintenance is only supported for subset "
                f"labels, not {self.kind!r} artifacts"
            )
        if config is None:
            config = StreamConfig()
        wal = WriteAheadLog(wal_dir, fsync=config.fsync)
        return StreamIngestor(
            artifact,
            wal=wal,
            counter=self.counter,
            store=store,
            name=name,
            config=config,
            replay=replay,
            estimator=estimator,
            **estimator_params,
        )

    # -- persistence ------------------------------------------------------------

    def save(
        self, path: str | Path, *, pack: str | Path | None = None
    ) -> Path:
        """Write the artifact envelope to ``path``; returns the path.

        With ``pack=`` a directory, the session's counter state is
        additionally written there as a ``repro-pack/1`` (see
        :meth:`to_pack`) and the envelope carries a ``"pack"`` key
        referencing it — by *relative* path when possible, so the
        envelope-plus-pack pair can travel as a unit.  A later
        :meth:`load` of the envelope reconnects to the pack lazily.
        """
        path = Path(path)
        if pack is None:
            dump_artifact(self._state[0], path)
            return path
        artifact = self._state[0]
        pack_dir = self.to_pack(pack)
        payload = to_artifact(artifact)
        try:
            reference = os.path.relpath(pack_dir, path.parent)
        except ValueError:  # pragma: no cover — e.g. cross-drive on NT
            reference = str(pack_dir.resolve())
        payload["pack"] = reference
        atomic_write_json(path, payload)
        self._pack_path = pack_dir
        return path

    def to_pack(
        self,
        path: str | Path,
        *,
        name: str = "label",
        include_caches: bool = True,
    ) -> Path:
        """Write counter state plus the current label as a pack directory.

        The warm-start artifact: ``repro serve --artifact-dir`` (or
        :meth:`from_pack`) redeploys from it in milliseconds, with the
        counter payloads mapped lazily.  Requires counter state — fit
        the session from data, or load it from a pack, first.
        """
        from repro.persist.pack import write_pack

        counter = self.counter
        if counter is None and self._detached is not None:
            raise SessionError(
                "this session has no counter state to pack — update() "
                f"dropped it ({self._detached}); fit from the updated "
                "data before packing"
            )
        if counter is None:
            raise SessionError(
                "this session has no counter state to pack — it was "
                "loaded from a bare artifact; fit from data (or load "
                "from a pack) before packing"
            )
        return write_pack(
            Path(path),
            counter,
            labels={name: self._state[0]},
            include_caches=include_caches,
        )

    def to_artifact(self) -> dict[str, Any]:
        """The versioned envelope as a dict (see :mod:`repro.api.artifacts`)."""
        from repro.api.artifacts import to_artifact

        return to_artifact(self._state[0])
