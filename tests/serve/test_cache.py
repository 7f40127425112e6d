"""ResultCache: hit/miss/eviction accounting, admission, version keying."""

from __future__ import annotations

import threading

import pytest

from repro import Pattern
from repro.serve import ResultCache


class TestAccounting:
    def test_hit_miss_counters(self):
        cache = ResultCache(8)
        key = ("label", 1, Pattern({"gender": "F"}))
        assert cache.get(key) is None
        assert cache.put(key, 3.0)
        assert cache.get(key) == 3.0
        assert cache.get(key) == 3.0
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert cache.stats.admitted == 1

    def test_eviction_counted_and_size_bounded(self):
        cache = ResultCache(4)
        # Make each key warm enough to win admission over the previous
        # residents: two get-misses per key before its put.
        for i in range(10):
            for _ in range(2 + i):
                cache.get(i)
            cache.put(i, float(i))
        assert len(cache) == 4
        assert cache.stats.evictions == cache.stats.admitted - 4

    def test_describe_payload_shape(self):
        cache = ResultCache(4)
        cache.get("k")
        cache.put("k", 1.0)
        payload = cache.describe()
        assert payload["entries"] == 1
        assert payload["max_entries"] == 4
        assert set(payload) >= {
            "hits",
            "misses",
            "hit_rate",
            "admitted",
            "rejected_admissions",
            "evictions",
        }

    def test_zero_value_is_a_hit(self):
        """A cached estimate of 0.0 (falsy!) must not read as a miss."""
        cache = ResultCache(4)
        cache.put("zero", 0.0)
        assert cache.get("zero") == 0.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(0)


class TestAdmission:
    def test_one_off_flood_does_not_evict_the_hot_set(self):
        """The bounded-memory acceptance bar: a flood of distinct
        never-repeated keys bounces off the admission filter while the
        warm hot set stays resident, and the entry count never exceeds
        the bound."""
        cache = ResultCache(32)
        hot = [("hot", 1, i) for i in range(32)]
        for key in hot:  # fill
            cache.get(key)
            cache.put(key, 1.0)
        for _ in range(5):  # warm: sketch frequencies well above 1
            for key in hot:
                assert cache.get(key) == 1.0
        flood_rejected_before = cache.stats.rejected
        for i in range(10_000):
            key = ("oneoff", 1, i)
            if cache.get(key) is None:
                cache.put(key, 0.0)
            # Hot traffic continues alongside the flood (that's what
            # makes it hot) — and every one of these asserts residency:
            # an evicted hot key would come back None here.
            assert cache.get(hot[i % len(hot)]) == 1.0
        assert len(cache) <= 32
        for key in hot:  # every hot entry survived the flood
            assert key in cache
        assert cache.stats.rejected > flood_rejected_before

    def test_recurring_key_displaces_a_cold_resident(self):
        cache = ResultCache(2)
        cache.get("a"), cache.put("a", 1.0)
        cache.get("b"), cache.put("b", 2.0)
        # "c" becomes strictly warmer than the LRU resident "a".
        for _ in range(4):
            cache.get("c")
        assert cache.put("c", 3.0)
        assert "c" in cache and len(cache) == 2
        assert cache.stats.evictions == 1


class TestVersionKeying:
    def test_old_version_entries_are_unreachable_after_publish(self):
        """Invalidation-for-free: a version bump changes every key, so
        a stale entry can never be served again."""
        cache = ResultCache(8)
        pattern = Pattern({"gender": "F"})
        cache.put(("demo", 1, pattern), 10.0)
        assert cache.get(("demo", 1, pattern)) == 10.0
        # After a publish the reader resolves version 2 — the v1 entry
        # is simply never looked up again.
        assert cache.get(("demo", 2, pattern)) is None
        cache.put(("demo", 2, pattern), 12.0)
        assert cache.get(("demo", 2, pattern)) == 12.0


class TestConcurrency:
    def test_concurrent_get_put_is_consistent(self):
        cache = ResultCache(64)
        keys = [("k", 1, i % 16) for i in range(256)]
        errors: list[Exception] = []

        def worker() -> None:
            try:
                for key in keys:
                    value = cache.get(key)
                    if value is None:
                        cache.put(key, float(key[2]))
                    else:
                        assert value == float(key[2])
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(cache) <= 64


class TestSketchReset:
    def test_reset_halves_every_counter_like_the_loop(self):
        """The window reset halves each 4-bit counter with one
        ``translate`` per row; the counters equal a per-byte ``>>= 1``
        loop over the same rows, and the rows stay the same objects."""
        import random

        from repro.serve.cache import _FrequencySketch

        sketch = _FrequencySketch(64)
        rng = random.Random(7)
        for row in sketch._rows:
            for i in range(len(row)):
                row[i] = rng.randint(0, sketch._MAX_COUNT)
        expected = [bytearray(row) for row in sketch._rows]
        for row in expected:
            for i in range(len(row)):
                row[i] >>= 1
        rows = list(sketch._rows)
        sketch._ops = sketch._sample - 1
        sketch.increment("first sighting")  # doorkeeper only, then reset
        assert sketch._ops == 0
        assert sketch._rows == expected
        assert all(a is b for a, b in zip(sketch._rows, rows))
        assert not sketch._doorkeeper and not sketch._repeats
