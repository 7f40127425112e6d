"""Version-keyed result cache with TinyLFU-style admission control.

A production estimate endpoint is overwhelmingly read-dominated and
version-stable: the same hot patterns arrive over and over between
publishes.  Answering a repeat from a cache skips the whole serving
machinery — no ticket, no flush, no kernel call — and because every
:class:`~repro.serve.store.LabelSnapshot` carries a monotonically
increasing ``version``, keying entries by ``(label name, version,
pattern)`` makes invalidation *free*: a publish bumps the version, so
every stale entry simply becomes unreachable (and ages out under
eviction pressure) without any explicit flush or cross-thread
coordination.

Boundedness is the other half of the contract.  A plain LRU under a
flood of one-off patterns (a crawler, a workload sweep) evicts the hot
set to make room for keys that will never be asked again.  The
:class:`ResultCache` therefore pairs a bounded LRU table with a tiny
frequency sketch (the TinyLFU admission idea): every **miss** bumps the
key's approximate frequency (a hit refreshes recency only — a resident
needs no admission evidence, which keeps the hit path to a few dict
operations), and when the table is full a new entry is admitted only if
it is a *proven repeat* that is more frequent than the entry it would
evict.  One-off keys fail the repeat test outright, so the flood
bounces off while the hot set stays put; recurring keys accumulate
sketch weight across their misses and displace colder residents.

The cache stores one ``float`` per entry, so ``max_entries`` is a real
memory bound (keys dominate: a few hundred bytes per entry including
the pattern tuple), and every operation is a few dict probes under one
lock — cheap enough to sit in front of the micro-batcher on every
request.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Hashable

__all__ = ["ResultCache", "CacheStats"]

# ``bytearray.translate`` table mapping every counter byte to its half.
_HALVE = bytes(i >> 1 for i in range(256))


@dataclass
class CacheStats:
    """Counters the cache maintains (read them for ``/stats`` and benches)."""

    hits: int = 0
    misses: int = 0
    #: Entries inserted (initial fill plus admissions that evicted).
    admitted: int = 0
    #: Insertions refused by the admission filter (candidate no more
    #: frequent than the eviction victim) — the one-off flood bouncing.
    rejected: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_payload(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "admitted": self.admitted,
            "rejected_admissions": self.rejected,
            "evictions": self.evictions,
        }


class _FrequencySketch:
    """Doorkeeper + count-min sketch with 4-bit counters and aging.

    Approximate frequencies are all admission needs: the comparison is
    "is this candidate warmer than that victim", not an exact count.
    The *doorkeeper* (TinyLFU's front filter) absorbs the first sighting
    of every key, so never-repeated keys contribute nothing to the
    count-min rows — a one-off flood cannot inflate collision noise past
    a warm resident's count.  Four hash rows bound over-estimation for
    the keys that do repeat; halving every ``sample`` recorded misses
    (and clearing the doorkeeper) keeps the sketch a sliding window, so
    keys that *were* hot decay instead of squatting on their history.
    """

    __slots__ = ("_rows", "_mask", "_ops", "_sample", "_doorkeeper", "_repeats")

    _N_ROWS = 4
    _MAX_COUNT = 15
    _MAX_WIDTH = 1 << 20

    def __init__(self, entries: int) -> None:
        width = 256
        while width < entries * 4 and width < self._MAX_WIDTH:
            width *= 2
        self._mask = width - 1
        self._rows = [bytearray(width) for _ in range(self._N_ROWS)]
        # Exact (not probabilistic) doorkeeper: keys seen this window,
        # and the subset seen more than once.  Both are bounded by the
        # window length and cleared at every reset.
        self._doorkeeper: set[Hashable] = set()
        self._repeats: set[Hashable] = set()
        self._ops = 0
        # TinyLFU's reset period: ~8 accesses per table slot.
        self._sample = entries * 8

    def _slots(self, key: Hashable) -> list[int]:
        # One hash, four slot indices: tuple hashing is well mixed, so
        # 16-bit strides of the 64-bit value act as independent rows —
        # much cheaper than hashing (seed, key) per row.
        h = hash(key) & 0xFFFFFFFFFFFFFFFF
        mask = self._mask
        return [
            h & mask,
            (h >> 16) & mask,
            (h >> 32) & mask,
            (h >> 48) & mask,
        ]

    def increment(self, key: Hashable) -> None:
        if key in self._doorkeeper:
            self._repeats.add(key)
            for row, slot in zip(self._rows, self._slots(key)):
                if row[slot] < self._MAX_COUNT:
                    row[slot] += 1
        else:
            self._doorkeeper.add(key)
        self._ops += 1
        if self._ops >= self._sample:
            self._ops = 0
            self._doorkeeper.clear()
            self._repeats.clear()
            for row in self._rows:
                row[:] = row.translate(_HALVE)

    def estimate(self, key: Hashable) -> int:
        count = min(
            row[slot] for row, slot in zip(self._rows, self._slots(key))
        )
        return count + 1 if key in self._doorkeeper else count

    def admits(self, candidate: Hashable, victim: Hashable) -> bool:
        """Should ``candidate`` displace ``victim``?

        A key seen at most once this window is *never* admitted over a
        resident — the doorkeeper membership test is exact, so a flood
        of one-off keys cannot ride count-min collision noise past a
        warm victim.  Proven repeats win only with a strictly higher
        frequency estimate (ties keep the incumbent).
        """
        return candidate in self._repeats and self.estimate(
            candidate
        ) > self.estimate(victim)


class ResultCache:
    """Bounded, admission-controlled mapping from request keys to floats.

    Thread-safe; intended key shape is ``(label name, snapshot version,
    pattern)`` but any hashable key works.  ``get`` records **misses**
    in the frequency sketch — a miss is exactly the evidence the
    admission filter needs about a non-resident key's warmth, while a
    hit only refreshes recency (the resident already won admission, and
    the hit path is the serving fast path: it must stay a few dict
    probes under one lock).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries} (omit the "
                "cache entirely to disable caching)"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        # Plain dict: insertion-ordered, first key is the LRU victim
        # because get() re-inserts on hit.
        self._entries: dict[Hashable, float] = {}
        self._sketch = _FrequencySketch(max_entries)
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> float | None:
        """The cached value, or ``None``; a miss counts toward warmth."""
        with self._lock:
            entries = self._entries
            value = entries.get(key)
            if value is None:
                self._sketch.increment(key)
                self.stats.misses += 1
                return None
            # Refresh recency: move to the insertion-order tail.
            del entries[key]
            entries[key] = value
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: float) -> bool:
        """Offer an entry; returns whether it is resident afterwards.

        When the table is full the least-recently-used resident is the
        candidate victim, and the offer is **rejected** unless the
        sketch says the new key is strictly more frequent — ties keep
        the incumbent, so a flood of never-repeated keys cannot evict a
        warm hot set.
        """
        with self._lock:
            entries = self._entries
            if key in entries:
                del entries[key]
                entries[key] = value
                return True
            if len(entries) >= self.max_entries:
                victim = next(iter(entries))
                if not self._sketch.admits(key, victim):
                    self.stats.rejected += 1
                    return False
                del entries[victim]
                self.stats.evictions += 1
            entries[key] = value
            self.stats.admitted += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def describe(self) -> dict[str, Any]:
        """The ``/stats`` payload: occupancy, bound, and hit accounting."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            **self.stats.to_payload(),
        }
