"""WAL-first streaming ingestion with background compaction.

:class:`StreamIngestor` is the write path of the streaming subsystem.
Every update batch goes through the same three steps, in order:

1. **Apply** — :func:`~repro.core.maintenance.apply_batch` builds the
   whole new state off to the side: the label, maintained with the exact
   incremental operators, and for an insert batch a *new*
   :class:`~repro.core.counts.PatternCounter` with the batch as one more
   shard (the existing shards and their tables are shared, not
   changed).  A malformed batch is rejected before anything durable
   happens.
2. **Log** — the batch is appended to the
   :class:`~repro.stream.wal.WriteAheadLog` and fsynced.  From here on a
   crash replays it; only now do the new label and counter become the
   live state, together.
3. **Publish** — the maintained label replaces the served snapshot in
   one atomic swap through :class:`~repro.stream.publish.LabelPublisher`.

Readers never wait on any of it: the only reader-visible transition is
the snapshot swap in step 3.  Recovery replays each WAL record through
the same ``apply_batch``.

**Compaction** runs off the reader *and* writer path.  Insert batches
accumulate as many small shards, which slowly degrades merged-layer
query constants; once the tail exceeds the configured policy
(``compact_every`` shards and at least ``compact_min_rows`` rows), a
background thread folds the tail shards into one counted base shard and
swaps the rebuilt counter in under the ingest lock — queries keep
running against the old counter object until the swap, and the served
label never changes at all.  With a ``pack_dir`` configured, each
compaction also checkpoints the counter and label to a
:mod:`repro.persist` pack and truncates the WAL through the last
checkpointed batch.

**Drift** is checked every ``drift_check_every`` batches by scoring the
label on a fixed panel of patterns recounted on the live counter (see
:class:`~repro.stream.drift.DriftMonitor`); a stale label triggers a
budgeted background re-search whose winner is rebuilt from the *live*
counter and hot-swapped through the same publish path.

Batches that the counter's frozen schema cannot encode (a value outside
the active domain) and delete batches **detach the counter**:
``apply_batch`` returns no counter, and names the reason.  The label
stays exact — the maintenance operators are value-level — but
compaction, drift checks and re-search stop, since no counter profiles
the live relation any more.  The ingestor reports the detach reason
rather than failing the stream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.api.registry import StreamConfig
from repro.core.counts import PatternCounter
from repro.core.label import Label, build_label
from repro.core.maintenance import apply_batch
from repro.core.sharding import _concat_all
from repro.dataset.table import Dataset
from repro.persist.pack import write_pack
from repro.stream.drift import DriftMonitor, DriftStatus
from repro.stream.publish import LabelPublisher
from repro.stream.wal import StreamError, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.search import SearchResult
    from repro.serve.store import LabelStore

__all__ = ["IngestStatus", "StreamIngestor"]

@dataclass(frozen=True)
class IngestStatus:
    """What one :meth:`StreamIngestor.submit` call did."""

    #: WAL sequence number of the logged batch.
    seq: int
    #: Store version of the published snapshot.
    version: int
    #: The maintained label after this batch.
    label: Label
    #: Wall time of the snapshot swap (estimator build + publish).
    publish_latency_s: float
    #: Shard count of the live counter (0 when detached).
    shards: int
    #: This batch tripped the compaction policy (runs in background).
    compacting: bool
    #: Drift check performed on this batch, if any.
    drift: DriftStatus | None
    #: Why the counter is detached (``None`` while attached).
    detached: str | None


class StreamIngestor:
    """One label's WAL-first ingestion pipeline.

    Parameters
    ----------
    label:
        The label to maintain (the checkpointed base state — on
        recovery, pass the label as of the last checkpoint and
        ``replay=True``).
    wal:
        The write-ahead log.  Several ingestors may share one log;
        records are tagged with ``name``.
    counter:
        The exact counting backend over the labeled relation (enables
        compaction + drift); ``None`` runs label-only (the serve
        ``--stream`` mode over loose artifacts).  It is never changed:
        every insert batch yields a new counter over its sources plus
        the batch.
    store / name / estimator / estimator_params:
        Forwarded to :class:`~repro.stream.publish.LabelPublisher`.
    config:
        A :class:`~repro.api.registry.StreamConfig`; defaults apply
        when omitted.
    replay:
        Re-apply this ingestor's WAL records on top of ``label`` (and
        ``counter``) before the first publish — crash recovery.
    """

    def __init__(
        self,
        label: Label,
        *,
        wal: WriteAheadLog,
        counter: PatternCounter | None = None,
        store: "LabelStore | None" = None,
        name: str = "label",
        config: StreamConfig | None = None,
        estimator: str | None = None,
        replay: bool = False,
        **estimator_params: Any,
    ) -> None:
        self._config = config if config is not None else StreamConfig()
        self._wal = wal
        self._name = name
        self._lock = threading.RLock()
        self._compact_lock = threading.Lock()
        self._compact_thread: threading.Thread | None = None
        self._label = label
        self._counter = counter
        self._base_shards = counter.n_shards if counter is not None else 0
        self._detached: str | None = None
        self._last_seq = 0
        self._applied = 0
        self._since_drift_check = 0
        #: Completed background compactions.
        self.compactions = 0
        #: Exception a background compaction died with, if any.
        self.compact_error: BaseException | None = None
        self._publisher = LabelPublisher(
            store, name, estimator=estimator, **estimator_params
        )
        self._drift = self._make_drift_monitor()
        if replay:
            self._replay()
        self._publisher.publish(self._label)

    def _make_drift_monitor(self) -> DriftMonitor | None:
        config = self._config
        if config.drift_threshold is None or self._counter is None:
            return None
        bound = config.research_bound
        return DriftMonitor(
            lambda: self._counter,
            threshold=config.drift_threshold,
            sample=config.drift_sample,
            budget_seconds=config.research_budget_seconds,
            bound=self._default_research_bound if bound is None else bound,
            seed=config.seed,
            swap=self._swap_research,
        )

    def _default_research_bound(self) -> int:
        """Size budget for a drift re-search when none is configured.

        The current label's ``|PC|`` — hold the line on label size — but
        raised to the smallest two-attribute ``|P_S|`` when that is
        larger, because :func:`~repro.core.search.anytime_search` seeds
        at the pair level and a bound no pair fits is infeasible by
        construction.
        """
        bound = self._label.size
        counter = self._counter
        if counter is None:
            return bound
        names = counter.dataset.attribute_names
        pairs = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1:]
        ]
        if pairs:
            sizes = counter.label_size_many(pairs)
            bound = max(bound, int(sizes.min()))
        return bound

    # -- introspection ----------------------------------------------------------

    @property
    def label(self) -> Label:
        """The maintained label (always the published one)."""
        return self._label

    @property
    def name(self) -> str:
        return self._name

    @property
    def publisher(self) -> LabelPublisher:
        return self._publisher

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def store(self) -> "LabelStore":
        return self._publisher.store

    @property
    def counter(self) -> PatternCounter | None:
        """The live counter (``None`` when detached or never attached)."""
        return self._counter

    @property
    def drift_monitor(self) -> DriftMonitor | None:
        return self._drift

    @property
    def detached(self) -> str | None:
        """Why the counter was detached (``None`` while attached)."""
        return self._detached

    @property
    def last_seq(self) -> int:
        """WAL sequence of the last applied batch (0 before any)."""
        return self._last_seq

    def describe(self) -> dict[str, Any]:
        """This stream's entry in ``GET /stats``.

        Plain attribute reads, no lock: a read racing a batch may mix
        values from either side of it.
        """
        counter, error = self._counter, self.compact_error
        return {
            "seq": self._last_seq,
            "batches": self._applied,
            "shards": counter.n_shards if counter is not None else 0,
            "compactions": self.compactions,
            "detached": self._detached,
            "compact_error": None if error is None else repr(error),
            "drift": None if self._drift is None else self._drift.describe(),
        }

    # -- recovery ---------------------------------------------------------------

    def _replay(self) -> None:
        """Re-apply this label's WAL records without re-logging them."""
        with self._lock:
            for record in self._wal.records(self._name):
                state = apply_batch(
                    self._label,
                    self._counter,
                    inserted=record.inserted_dataset(),
                    deleted=record.deleted_dataset(),
                )
                self._commit(state, record.seq)

    # -- the write path ---------------------------------------------------------

    def _commit(
        self,
        state: tuple[Label, PatternCounter | None, str | None],
        seq: int,
    ) -> None:
        """Make an applied batch's (label, counter, detach reason) the
        live state; called under the ingest lock."""
        self._label, self._counter, detached = state
        self._detached = detached or self._detached
        self._last_seq = seq
        self._applied += 1

    def submit(
        self,
        inserted: Dataset | None = None,
        deleted: Dataset | None = None,
    ) -> IngestStatus:
        """Apply one update batch: apply, log, publish.

        Raises :class:`StreamError` for a batch the maintenance
        operators reject (wrong attributes, delete of absent tuples) —
        nothing is logged or changed in that case.
        """
        if inserted is None and deleted is None:
            raise StreamError(
                "submit() needs at least one of inserted= or deleted="
            )
        with self._lock:
            try:
                state = apply_batch(
                    self._label,
                    self._counter,
                    inserted=inserted,
                    deleted=deleted,
                )
            except (KeyError, ValueError) as exc:
                raise StreamError(f"batch rejected: {exc}") from exc
            record = self._wal.append(
                label=self._name,
                attributes=self._label.attribute_order,
                inserted=inserted,
                deleted=deleted,
            )
            self._commit(state, record.seq)
            label = self._label
            snapshot = self._publisher.publish(label)
            compacting = self._should_compact() and self._start_compaction()
            drift = self._maybe_check_drift()
            status = IngestStatus(
                seq=record.seq,
                version=snapshot.version,
                label=label,
                publish_latency_s=self._publisher.latencies[-1],
                shards=(
                    self._counter.n_shards if self._counter is not None else 0
                ),
                compacting=compacting,
                drift=drift,
                detached=self._detached,
            )
        if drift is not None and self._drift is not None:
            self._drift.maybe_research(drift)
        return status

    # -- drift ------------------------------------------------------------------

    def _maybe_check_drift(self) -> DriftStatus | None:
        if self._drift is None or self._counter is None:
            return None
        self._since_drift_check += 1
        if self._since_drift_check < self._config.drift_check_every:
            return None
        self._since_drift_check = 0
        return self._drift.check(self._label)

    def _swap_research(self, result: "SearchResult") -> None:
        """Publish a re-search winner, rebuilt from the *live* counter.

        Runs on the research thread.  The label is rebuilt under the
        ingest lock so batches applied while the search ran are
        included; readers only see the final snapshot swap.  The drift
        monitor drops its panel in the same critical section (checks
        run under this lock too), so the next check draws a new panel
        and rebases on the new label.
        """
        with self._lock:
            counter = self._counter
            if counter is None:  # detached mid-search; keep current label
                return
            label = build_label(counter, result.label.attributes)
            self._label = label
            self._publisher.publish(label)
            self._drift.reset()

    # -- compaction -------------------------------------------------------------

    def _should_compact(self) -> bool:
        config = self._config
        counter = self._counter
        if config.compact_every is None or counter is None:
            return False
        tail = counter.sources[self._base_shards:]
        if len(tail) < config.compact_every:
            return False
        if config.compact_min_rows is not None:
            tail_rows = sum(source.rows for source in tail)
            if tail_rows < config.compact_min_rows:
                return False
        return True

    def _start_compaction(self) -> bool:
        if self._compact_thread is not None and self._compact_thread.is_alive():
            return False
        self._compact_thread = threading.Thread(
            target=self._compact,
            name="repro-stream-compact",
            daemon=True,
        )
        self._compact_thread.start()
        return True

    def _compact(self) -> None:
        try:
            with self._compact_lock:
                self._compact_once()
        except BaseException as exc:  # noqa: BLE001 — thread boundary
            self.compact_error = exc

    def _compact_once(self) -> None:
        """Fold tail insert-shards into one counted base shard.

        The expensive part — concatenating the tail rows and counting
        them once — happens outside the ingest lock; only the final
        counter swap (and the optional pack checkpoint) holds it.
        """
        with self._lock:
            counter = self._counter
            if counter is None:
                return
            base = list(counter.sources[: self._base_shards])
            tail = list(counter.sources[self._base_shards:])
        if len(tail) < 2:
            return
        merged_rows = _concat_all([shard.dataset for shard in tail])
        with self._lock:
            counter = self._counter
            if counter is None:
                return
            # Batches that landed while we were counting stay as extra
            # tail shards; the next compaction folds them.
            extras = list(counter.sources[len(base) + len(tail):])
            rebuilt = PatternCounter(base + [merged_rows] + extras)
            self._counter = rebuilt
            self._base_shards = len(base) + 1
            self.compactions += 1
            if self._config.pack_dir is not None:
                self._checkpoint()

    def _checkpoint(self) -> None:
        """Pack the live counter + label, then drop replayed WAL records.

        Called under the ingest lock (a checkpoint must capture a
        counter/label/seq triple no concurrent batch can split).  The
        pack write is crash-safe by itself, and the WAL truncate only
        runs after it succeeds.  A crash between the two is *not*
        idempotent: the pack already holds batches the WAL still holds,
        the pack does not record which WAL seq it covers, and recovering
        from the pack plus a replay applies those batches twice (a
        reproduction acknowledged 360 rows and recovered 420).  The fix
        is open: ROADMAP.md, "Checkpoints that recover exactly once".
        """
        assert self._config.pack_dir is not None
        write_pack(
            self._config.pack_dir,
            self._counter,
            labels={self._name: self._label},
        )
        self._wal.truncate(self._last_seq)

    def join(self, timeout: float | None = None) -> bool:
        """Wait for background work; True when none remains in flight."""
        done = True
        thread = self._compact_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
            done = done and not thread.is_alive()
        if self._drift is not None:
            done = self._drift.join(timeout) and done
        return done

    def __repr__(self) -> str:
        return (
            f"StreamIngestor(name={self._name!r}, seq={self._last_seq}, "
            f"version={self._publisher.version}, "
            f"batches={self._applied}, compactions={self.compactions})"
        )
