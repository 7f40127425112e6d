"""The ``repro-pack/1`` artifact directory: mmap-able counter state.

A *pack* is the on-disk twin of a fitted counting backend — the piece
of the labeling pipeline that is expensive to rebuild (CSV parsing,
search, cache warming) and cheap to store.  The directory layout:

.. code-block:: text

    mypack/
      manifest.json      # schema, domains, shard list, array metadata,
                         # per-file checksums — always written LAST
      shard-0000.bin     # one flat binary file per shard: the numpy
      shard-0001.bin     # payloads of one row source of the counter
      label-<name>.json  # optional label envelopes (repro-label/4)

Each ``shard-NNNN.bin`` is a concatenation of standard ``.npy`` blocks
(``np.lib.format.write_array`` version 1.0, never pickled), one per
persisted array: the encoded code matrix, sorted key tables, and joint
count tables.  The manifest records every block's role, dtype, shape,
and byte offset, so reopening maps each array straight off the file
with :class:`numpy.memmap` — no deserialization pass, and the OS only
pages in what queries touch.

Laziness and trust are reconciled per *shard*: opening a pack reads
only the manifest (plus one ``os.stat`` per referenced file, which
catches truncation immediately), and a shard file's SHA-256 checksum is
verified exactly once, at the moment a query first touches that shard —
before any byte of it is interpreted as an array.  Label envelopes are
self-contained, so estimating from a packed label touches *zero* shard
files; the shard payloads exist for consumers that need the counters
back (re-search under a new bound, exact evaluation, maintenance).

That once-per-touch policy is the default (``verify="lazy"``) of a
two-way knob on :func:`open_pack`; ``"eager"`` checksums every file at
open (fail-fast deployments).  A parallel counter loads its shards on
several threads at once; the reader still hashes each file exactly
once, and its bookkeeping (:class:`PackStats`) is guarded by a lock.

Every write goes through :mod:`repro.persist.atomic` — temp file plus
``os.replace`` per file, manifest last — so a crash mid-pack leaves
either the complete previous pack or an unreferenced temp file, never a
manifest pointing at torn payloads.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.api.artifacts import from_artifact, to_artifact
from repro.api.errors import ArtifactError
from repro.core.counts import KeyTable, PatternCounter, RowSource
from repro.dataset.schema import Column, Schema
from repro.dataset.table import Dataset
from repro.persist.atomic import atomic_open, atomic_write

__all__ = [
    "PACK_FORMAT",
    "MANIFEST_NAME",
    "PackReader",
    "PackStats",
    "open_pack",
    "write_pack",
    "verify_pack",
]

PACK_FORMAT = "repro-pack/1"
MANIFEST_NAME = "manifest.json"

#: Array roles a shard file may carry.  ``codes`` is the dataset itself
#: (mandatory); the rest are the warm tables of a
#: :class:`~repro.core.counts.RowSource`, keyed by attribute tuple.
#: ``row_keys`` (per-row radix keys, written by earlier versions) is
#: accepted and ignored: the keys are recomputed on demand.
_ROLES = (
    "codes",
    "row_keys",
    "key_keys",
    "key_counts",
    "joint_combos",
    "joint_counts",
)

_CHUNK = 1 << 20


def _file_checksum(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_CHUNK)
            if not block:
                break
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


def _schema_to_manifest(schema: Schema) -> list[dict[str, Any]]:
    return [
        {"name": column.name, "categories": list(column.categories)}
        for column in schema
    ]


def _schema_from_manifest(
    entries: Any, manifest_path: Path
) -> Schema:
    try:
        return Schema(
            Column(entry["name"], tuple(entry["categories"]))
            for entry in entries
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"pack manifest {manifest_path} has a malformed schema: {exc}"
        ) from exc


def _slug(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-.")
    return cleaned or "label"


# -- writing ------------------------------------------------------------------


def _write_shard_file(
    file_path: Path,
    arrays: Sequence[tuple[str, tuple[str, ...] | None, np.ndarray]],
) -> dict[str, Any]:
    """One flat file of concatenated ``.npy`` blocks; returns its manifest
    entry (array metadata, size, checksum)."""
    entries: list[dict[str, Any]] = []
    with atomic_open(file_path, "wb") as handle:
        for role, attributes, array in arrays:
            array = np.ascontiguousarray(array)
            block_start = handle.tell()
            np.lib.format.write_array(
                handle, array, version=(1, 0), allow_pickle=False
            )
            entries.append(
                {
                    "role": role,
                    "attributes": (
                        list(attributes) if attributes is not None else None
                    ),
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    # Offset of the raw data (the npy header precedes it);
                    # this is what np.memmap maps at read time.
                    "offset": handle.tell() - array.nbytes,
                    "npy_offset": block_start,
                }
            )
    return {
        "file": file_path.name,
        "bytes": file_path.stat().st_size,
        "checksum": _file_checksum(file_path),
        "arrays": entries,
    }


def write_pack(
    path: str | Path,
    counter: PatternCounter,
    *,
    labels: Mapping[str, Any] | None = None,
    include_caches: bool = True,
) -> Path:
    """Write a ``repro-pack/1`` directory for ``counter``.

    Parameters
    ----------
    path:
        Pack directory (created if missing; existing shard/label files
        of the same names are replaced atomically).
    counter:
        A fitted :class:`~repro.core.counts.PatternCounter`; each of its
        row sources becomes one binary file.
    labels:
        Optional ``name -> artifact`` mapping (labels, flexible labels,
        bundles, or their estimators); each is serialized through the
        ``repro-label/4`` envelope into the pack, making the pack a
        self-contained deployment ``repro serve --artifact-dir`` can
        publish without touching shard payloads.
    include_caches:
        Persist the sources' warm tables (sorted key tables, joint
        tables) alongside the code matrices.  ``False`` packs the
        datasets alone — smaller files, cold caches.
    """
    if not isinstance(counter, PatternCounter):
        raise ArtifactError(
            f"cannot pack a {type(counter).__name__!r}; expected a "
            "PatternCounter"
        )

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    shard_entries: list[dict[str, Any]] = []
    for index, source in enumerate(counter.sources):
        arrays = source.persisted_arrays(include_caches=include_caches)
        entry = _write_shard_file(path / f"shard-{index:04d}.bin", arrays)
        entry["rows"] = int(source.rows)
        shard_entries.append(entry)

    label_entries: list[dict[str, Any]] = []
    used_files: set[str] = set()
    for name, artifact in (labels or {}).items():
        base = _slug(str(name))
        file_name = f"label-{base}.json"
        suffix = 1
        while file_name in used_files:
            file_name = f"label-{base}-{suffix}.json"
            suffix += 1
        used_files.add(file_name)
        payload = json.dumps(to_artifact(artifact), indent=2)
        atomic_write(path / file_name, payload)
        label_entries.append(
            {
                "name": str(name),
                "file": file_name,
                "bytes": (path / file_name).stat().st_size,
                "checksum": _file_checksum(path / file_name),
            }
        )

    manifest = {
        "format": PACK_FORMAT,
        "schema": _schema_to_manifest(counter.schema),
        "total_rows": sum(entry["rows"] for entry in shard_entries),
        "shard_count": len(shard_entries),
        "shards": shard_entries,
        "labels": label_entries,
    }
    try:
        serialized = json.dumps(manifest, indent=2)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(
            "pack manifest is not JSON-serializable — attribute domains "
            f"must hold JSON values: {exc}"
        ) from exc
    # The manifest lands last: until this replace, the directory is not
    # a (new) pack, so a crash anywhere above leaves the previous
    # manifest — if any — pointing at its own, still-intact files or a
    # directory open_pack() cleanly rejects.
    atomic_write(path / MANIFEST_NAME, serialized)
    return path


# -- reading ------------------------------------------------------------------


@dataclass
class PackStats:
    """File-access instrumentation of one :class:`PackReader`.

    ``shard_loads`` lists shard files in the order they were verified
    and mapped; ``label_loads`` the label files read.  The laziness
    contract of the format is assertable from these counters: loading a
    label and estimating from it leaves ``shard_loads`` empty.
    """

    shard_loads: list[str] = field(default_factory=list)
    label_loads: list[str] = field(default_factory=list)
    bytes_verified: int = 0


class _PackSource(RowSource):
    """One pack shard as a row source: metadata now, bytes on demand.

    Construction is free: no byte of the shard file is read (beyond the
    reader's open-time existence/size screen) until a query first needs
    the rows, at which point the file's checksum is verified once and
    every persisted array is mapped read-only in place — the code matrix
    becomes the dataset, the key and joint tables seed this source's
    caches.  The mapped tables are never written through; tables the
    pack lacks are computed in memory beside them.
    """

    def __init__(self, reader: "PackReader", entry: dict) -> None:
        super().__init__(None)
        self._reader = reader
        self._entry = entry
        self._lock = threading.Lock()

    @property
    def dataset(self) -> Dataset:
        """The shard's rows, verified and mapped on first access."""
        if self._dataset is None:
            with self._lock:
                if self._dataset is None:
                    self._load()
        return self._dataset

    @property
    def schema(self) -> Schema:
        return self._reader.schema

    @property
    def rows(self) -> int:
        """``|D|`` of the shard — served from the manifest while unmapped."""
        return int(self._entry["rows"])

    @property
    def loaded(self) -> bool:
        """True once the shard file has been verified and mapped."""
        return self._dataset is not None

    def _load(self) -> None:
        reader = self._reader
        entry = self._entry
        file_path = reader.path / entry["file"]
        reader._verify_file(entry, kind="shard")
        with reader._lock:
            reader.stats.shard_loads.append(entry["file"])

        codes: np.ndarray | None = None
        parts: dict[str, dict[tuple[str, ...], np.ndarray]] = {
            "key_keys": {},
            "key_counts": {},
            "joint_combos": {},
            "joint_counts": {},
        }
        try:
            for meta in entry["arrays"]:
                role = meta["role"]
                if role not in _ROLES:
                    raise ArtifactError(
                        f"pack shard file {file_path} carries an unknown "
                        f"array role {role!r}"
                    )
                if role == "row_keys":
                    continue
                array = self._map_array(file_path, meta)
                if role == "codes":
                    codes = array
                else:
                    parts[role][tuple(meta["attributes"])] = array
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise ArtifactError(
                f"pack shard file {file_path} has malformed array "
                f"metadata: {exc}"
            ) from exc

        if codes is None:
            raise ArtifactError(
                f"pack shard file {file_path} carries no 'codes' array"
            )
        try:
            dataset = Dataset(reader.schema, codes, copy=False)
        except (TypeError, ValueError) as exc:
            raise ArtifactError(
                f"pack shard file {file_path} holds a code matrix that "
                f"does not fit the manifest schema: {exc}"
            ) from exc
        if dataset.n_rows != self.rows:
            raise ArtifactError(
                f"pack shard file {file_path} holds {dataset.n_rows} rows; "
                f"the manifest records {self.rows}"
            )

        key_tables = self._pair_tables(
            parts["key_keys"], parts["key_counts"], "key", file_path
        )
        self._key_tables.update(
            (attrs, KeyTable(keys, counts))
            for attrs, (keys, counts) in key_tables.items()
        )
        self._joint_tables.update(
            self._pair_tables(
                parts["joint_combos"],
                parts["joint_counts"],
                "joint",
                file_path,
            )
        )
        self._dataset = dataset

    def _map_array(self, file_path: Path, meta: dict) -> np.ndarray:
        dtype = np.dtype(meta["dtype"])
        shape = tuple(int(extent) for extent in meta["shape"])
        n_items = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if n_items == 0:
            # mmap cannot map zero bytes; an empty array carries none.
            return np.empty(shape, dtype=dtype)
        offset = int(meta["offset"])
        end = offset + n_items * dtype.itemsize
        if offset < 0 or end > int(self._entry["bytes"]):
            raise ArtifactError(
                f"pack shard file {file_path} records an array at bytes "
                f"[{offset}, {end}) outside the file's {self._entry['bytes']}"
                " bytes"
            )
        return np.memmap(
            file_path, dtype=dtype, mode="r", offset=offset, shape=shape
        )

    @staticmethod
    def _pair_tables(
        lefts: dict, rights: dict, what: str, file_path: Path
    ) -> dict:
        if set(lefts) != set(rights):
            raise ArtifactError(
                f"pack shard file {file_path} has unpaired {what}-table "
                "arrays (keys and counts must come in pairs)"
            )
        return {attrs: (lefts[attrs], rights[attrs]) for attrs in lefts}


class PackReader:
    """Lazily-mapped view of a ``repro-pack/1`` directory.

    Opening validates the manifest and ``os.stat``-checks every
    referenced file (existence and exact size — the cheap screens that
    catch deletion and truncation immediately), but reads no payload
    bytes.  Payloads are pulled on demand:

    * :meth:`load_label` reads one label envelope (checksum-verified),
      touching zero shard files;
    * :meth:`counter` / :meth:`shard_counter` return counters over
      lazy row sources whose shard files are verified and mapped only
      when a query first needs them.

    ``verify`` sets the checksum policy: ``"lazy"`` (default) hashes a
    file once when first touched, ``"eager"`` hashes every file right
    here at open.  The stat screens (existence, exact size) run in both
    modes.

    :attr:`stats` counts the files actually materialized.  Shards of a
    ``parallel=True`` counter load on the counter's threads; each shard
    file is still hashed once (its source loads under its own lock),
    and a reader lock guards the shared bookkeeping.
    """

    _VERIFY_MODES = ("eager", "lazy")

    def __init__(self, path: str | Path, *, verify: str = "lazy") -> None:
        if verify not in self._VERIFY_MODES:
            raise ValueError(
                f"verify must be one of {self._VERIFY_MODES}, got {verify!r}"
            )
        self._verify_mode = verify
        self._path = Path(path)
        manifest_path = self._path / MANIFEST_NAME
        if not self._path.is_dir():
            raise ArtifactError(f"no such pack directory: {self._path}")
        if not manifest_path.is_file():
            raise ArtifactError(
                f"{self._path} is not a pack: it has no {MANIFEST_NAME}"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ArtifactError(
                f"pack manifest {manifest_path} is unreadable: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ArtifactError(
                f"pack manifest {manifest_path} must be a JSON object"
            )
        fmt = manifest.get("format")
        if fmt != PACK_FORMAT:
            raise ArtifactError(
                f"pack manifest {manifest_path} has format {fmt!r}; this "
                f"version reads {PACK_FORMAT!r}"
            )
        try:
            shards = manifest["shards"]
            declared = int(manifest["shard_count"])
            labels = manifest.get("labels", [])
            schema_entries = manifest["schema"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"pack manifest {manifest_path} is malformed: {exc}"
            ) from exc
        if not isinstance(shards, list) or not shards:
            raise ArtifactError(
                f"pack manifest {manifest_path} lists no shards"
            )
        if declared != len(shards):
            raise ArtifactError(
                f"pack manifest {manifest_path} declares shard_count="
                f"{declared} but lists {len(shards)} shard files"
            )
        self._manifest = manifest
        self._schema = _schema_from_manifest(schema_entries, manifest_path)
        self._label_entries = {
            entry["name"]: entry for entry in labels
        }
        self.stats = PackStats()
        self._verified: set[str] = set()
        # Guards _verified and stats: shard sources of a parallel
        # counter load concurrently.
        self._lock = threading.Lock()
        self._labels_cache: dict[str, Any] = {}
        self._merged: PatternCounter | None = None
        # Cheap eager screens: every referenced file must exist with
        # exactly the byte size the manifest recorded.  Checksums wait
        # for first touch (hashing multi-GB shards would defeat lazy
        # opening); a stat is O(1) and catches truncation on the spot.
        for entry, kind in self._iter_file_entries():
            file_path = self._path / entry["file"]
            if not file_path.is_file():
                raise ArtifactError(
                    f"pack {kind} file {file_path} is missing"
                )
            actual = file_path.stat().st_size
            if actual != int(entry["bytes"]):
                raise ArtifactError(
                    f"pack {kind} file {file_path} is truncated or "
                    f"overgrown: {actual} bytes on disk, manifest records "
                    f"{entry['bytes']}"
                )
        self._sources = [_PackSource(self, entry) for entry in shards]
        if verify == "eager":
            for entry, kind in self._iter_file_entries():
                self._verify_file(entry, kind=kind)

    def _iter_file_entries(self) -> Iterator[tuple[dict, str]]:
        for entry in self._manifest["shards"]:
            yield entry, "shard"
        for entry in self._label_entries.values():
            yield entry, "label"

    # -- introspection -----------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def manifest(self) -> dict[str, Any]:
        return self._manifest

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_shards(self) -> int:
        return len(self._sources)

    @property
    def total_rows(self) -> int:
        return int(self._manifest["total_rows"])

    @property
    def label_names(self) -> list[str]:
        return sorted(self._label_entries)

    def __repr__(self) -> str:
        return (
            f"PackReader({str(self._path)!r}, {self.n_shards} shard(s), "
            f"{self.total_rows} rows, labels={self.label_names})"
        )

    # -- verification ------------------------------------------------------------

    @property
    def verify_mode(self) -> str:
        """The checksum policy this reader was opened with."""
        return self._verify_mode

    def _verify_file(self, entry: dict, *, kind: str) -> None:
        """Checksum ``entry``'s file once, before its bytes are trusted.

        The hash runs outside the reader lock, so a parallel counter's
        shards verify concurrently; a shard file is only ever verified
        under its source's load lock, which keeps it from being hashed
        twice.
        """
        name = entry["file"]
        if name in self._verified:
            return
        file_path = self._path / name
        try:
            digest = _file_checksum(file_path)
        except OSError as exc:
            raise ArtifactError(
                f"pack {kind} file {file_path} is unreadable: {exc}"
            ) from exc
        if digest != entry["checksum"]:
            raise ArtifactError(
                f"pack {kind} file {file_path} fails its checksum "
                f"({digest} != recorded {entry['checksum']}); the pack is "
                "corrupt — re-run 'repro pack'"
            )
        with self._lock:
            if name not in self._verified:
                self._verified.add(name)
                self.stats.bytes_verified += int(entry["bytes"])

    # -- labels ------------------------------------------------------------------

    def load_label(self, name: str | None = None):
        """Read one label envelope from the pack (no shard file touched).

        ``name=None`` resolves the pack's only label; with several
        packed labels the name must be given.
        """
        if name is None:
            if len(self._label_entries) != 1:
                raise ArtifactError(
                    f"pack {self._path} holds labels {self.label_names}; "
                    "pick one by name"
                )
            name = next(iter(self._label_entries))
        if name in self._labels_cache:
            return self._labels_cache[name]
        entry = self._label_entries.get(name)
        if entry is None:
            raise ArtifactError(
                f"pack {self._path} holds no label {name!r}; available: "
                f"{self.label_names or 'none'}"
            )
        file_path = self._path / entry["file"]
        self._verify_file(entry, kind="label")
        self.stats.label_loads.append(entry["file"])
        try:
            artifact = from_artifact(file_path.read_text())
        except ArtifactError as exc:
            raise ArtifactError(
                f"pack label file {file_path} is malformed: {exc}"
            ) from exc
        self._labels_cache[name] = artifact
        return artifact

    def load_labels(self) -> dict[str, Any]:
        """Every packed label, by name (shard files untouched)."""
        return {name: self.load_label(name) for name in self.label_names}

    # -- counters ----------------------------------------------------------------

    def shard_source(self, index: int) -> RowSource:
        """The lazy row source of shard ``index`` (one per reader)."""
        if not 0 <= index < len(self._sources):
            raise ArtifactError(
                f"pack {self._path} has {len(self._sources)} shard(s); "
                f"no shard {index}"
            )
        return self._sources[index]

    def shard_counter(self, index: int) -> PatternCounter:
        """A counter over shard ``index`` alone (nothing read until
        queried; the shard's tables are shared with :meth:`counter`)."""
        return PatternCounter(self.shard_source(index))

    def counter(
        self,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> PatternCounter:
        """The pack's counting backend, in its natural shape.

        One counter over every shard's lazy row source; nothing is read
        until queried.  With ``parallel=True`` a multi-shard counter runs
        its per-shard work — first touches included, so shards are
        verified and mapped concurrently — on its thread pool
        (``max_workers`` caps the pool).  The backend is cached per
        reader; the first call's options win.
        """
        if self._merged is None:
            self._merged = PatternCounter(
                self._sources, parallel=parallel, max_workers=max_workers
            )
        return self._merged


def open_pack(path: str | Path, *, verify: str = "lazy") -> PackReader:
    """Open a ``repro-pack/1`` directory for lazy reading.

    ``verify`` picks the checksum policy: ``"lazy"`` (default) hashes
    each file once on first touch, ``"eager"`` hashes everything at
    open; any other value raises ``ValueError``.
    """
    return PackReader(path, verify=verify)


def verify_pack(path: str | Path) -> dict[str, Any]:
    """Eagerly checksum every file of a pack; returns a summary.

    The offline integrity sweep (packs in transit, periodic audits):
    every shard and label file is hashed against the manifest, raising
    :class:`~repro.api.errors.ArtifactError` on the first mismatch.
    """
    reader = PackReader(path)
    for entry, kind in reader._iter_file_entries():
        reader._verify_file(entry, kind=kind)
    return {
        "path": str(reader.path),
        "format": PACK_FORMAT,
        "shards": reader.n_shards,
        "labels": len(reader.label_names),
        "total_rows": reader.total_rows,
        "bytes_verified": reader.stats.bytes_verified,
    }
