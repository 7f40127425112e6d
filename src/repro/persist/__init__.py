"""``repro.persist``: crash-safe, memory-mappable artifact persistence.

Two layers:

* :mod:`repro.persist.atomic` — the temp-file-plus-``os.replace`` write
  discipline every persisted file goes through (imported eagerly; it is
  pure stdlib and the artifact envelope writer depends on it);
* :mod:`repro.persist.pack` — the ``repro-pack/1`` directory format:
  fitted counter state as flat numpy payloads plus a checksummed JSON
  manifest, reopened with lazy read-only memmaps (imported on first
  use — it depends on the core and api layers, which themselves import
  :mod:`repro.persist.atomic`, and a lazy import keeps that edge
  acyclic).
"""

from __future__ import annotations

from repro.persist.atomic import atomic_open, atomic_write, atomic_write_json

__all__ = [
    "atomic_open",
    "atomic_write",
    "atomic_write_json",
    "PACK_FORMAT",
    "MANIFEST_NAME",
    "PackReader",
    "PackStats",
    "open_pack",
    "write_pack",
    "verify_pack",
]

_PACK_SYMBOLS = frozenset(
    [
        "PACK_FORMAT",
        "MANIFEST_NAME",
        "PackReader",
        "PackStats",
        "open_pack",
        "write_pack",
        "verify_pack",
    ]
)


def __getattr__(name: str):
    if name in _PACK_SYMBOLS:
        from repro.persist import pack

        return getattr(pack, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
