"""Per-layer metrics from the spans the tracing launcher writes.

A span is ``[name, start ns, end ns, id, parent id, request id, thread,
extra]``.  Ids are unique within one process, so spans are analysed per
span file and the results pooled.  "Outermost" spans of a name exclude
calls nested in another call of the same name (a sharded counter sizing
through its shard counters); "self time" is a span's duration minus the
union of its direct children's intervals.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


class Trace:
    def __init__(self, files):
        self.procs = []
        self.import_s = []
        for path in files:
            if not Path(path).exists():
                continue
            data = json.loads(Path(path).read_text())
            start, end = data["import_ns"]
            self.import_s.append((end - start) / 1e9)
            self.procs.append(data["spans"])

    def spans(self, name, *, parent=None, outermost=False):
        """Spans called ``name`` (optionally under a parent name prefix)."""
        found = []
        for spans in self.procs:
            by_id = {s[3]: s for s in spans}
            for s in spans:
                if s[0] != name:
                    continue
                up = by_id.get(s[4])
                if parent is not None and not (
                        up is not None and up[0].startswith(parent)):
                    continue
                if outermost:
                    nested = False
                    while up is not None:
                        if up[0] == name:
                            nested = True
                            break
                        up = by_id.get(up[4])
                    if nested:
                        continue
                found.append(s)
        return found

    @staticmethod
    def durations(spans, scale=1e-9):
        return [(s[2] - s[1]) * scale for s in spans]

    def total_s(self, name, **kw):
        return sum(self.durations(self.spans(name, outermost=True, **kw)))

    def median(self, name, unit, **kw):
        scale = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}[unit]
        return _median(self.durations(self.spans(name, **kw), scale))

    def self_time_s(self, name):
        total = 0.0
        for spans in self.procs:
            children = defaultdict(list)
            for s in spans:
                children[s[4]].append((s[1], s[2]))
            for s in spans:
                if s[0] != name:
                    continue
                covered, reach = 0, s[1]
                for lo, hi in sorted(children[s[3]]):
                    lo, hi = max(lo, reach), min(hi, s[2])
                    if hi > lo:
                        covered += hi - lo
                        reach = hi
                total += (s[2] - s[1] - covered) / 1e9
        return total

    def by_request(self, name):
        """``{request id: span duration ms}`` for spans carrying an id."""
        return {s[5]: (s[2] - s[1]) / 1e6
                for s in self.spans(name) if s[5] is not None}

    def layer_metrics(self, client_ms):
        """Span-derived per-layer metrics; ``client_ms`` maps request ids
        of estimate requests to client-observed latency."""
        handler = self.by_request("do_POST:estimate")
        joined = [rid for rid in client_ms if str(rid) in handler]
        flushes = self.spans("flush")
        waits = [w[0] / 1e6 for f in flushes for w in (f[7] or [])]
        kernel = self.spans("estimate_many", parent="flush")
        kernel_patterns = sum(s[7] or 0 for s in kernel)
        sizing = self.spans("label_size_many", outermost=True)
        submits = self.spans("submit")
        # Totals are per fit (one `repro pack` run) and per stream cycle
        # (one server that took updates), so they do not scale with how
        # many fit in a run.
        fits = max(1, len(self.spans("fit")))
        cycles = max(1, sum(any(s[0] == "submit" for s in spans)
                            for spans in self.procs))
        return {
            "dataset.read_csv_s": self.total_s("read_csv") / fits,
            "counts.label_size_many_s":
                self.total_s("label_size_many") / fits,
            "counts.label_size_many_calls": len(sizing) / fits,
            "counts.subsets_sized": sum(s[7] or 0 for s in sizing) / fits,
            "errors.estimates_s": self.total_s("estimates") / fits,
            "search.labels_evaluated": len(self.spans("estimates")) / fits,
            "label.build_label_s": self.total_s("build_label") / fits,
            "api.fit_self_s": self.self_time_s("fit") / fits,
            "persist.write_pack_s": self.total_s("write_pack") / fits,
            "cli.import_s": _median(self.import_s),
            "persist.open_pack_ms": self.median("open_pack", "ms"),
            "serve.publish_pack_ms": self.median("publish_pack", "ms"),
            "persist.pack_counter_ms": self.median("pack_counter", "ms"),
            "serve.requests_traced": len(joined),
            "serve.transport_ms": _median(
                [client_ms[r] - handler[str(r)] for r in joined]),
            "serve.handler_ms": _median([handler[str(r)] for r in joined]),
            "serve.parse_us": self.median(
                "from_payload", "us", parent="do_POST:estimate"),
            "serve.cache_get_us": self.median("cache_get", "us"),
            "serve.queue_wait_ms": _median(waits),
            "serve.kernel_us_per_pattern": (
                sum(self.durations(kernel, 1e-3)) / kernel_patterns
                if kernel_patterns else 0.0),
            "stream.wal_append_ms": self.median("wal_append", "ms"),
            "stream.fsync_ms": self.median("fsync", "ms",
                                           parent="wal_append"),
            "stream.rows_decode_ms": self.median(
                "from_rows", "ms", parent="do_POST:update"),
            "stream.maintain_ms": self.median("apply_inserts", "ms",
                                              parent="submit"),
            "stream.add_shard_ms": self.median("add_shard", "ms"),
            "stream.publish_ms": self.median("publish", "ms",
                                             parent="submit"),
            "stream.drift_check_ms": self.median("drift_check", "ms"),
            "stream.drift_checks": len(self.spans("drift_check")) / cycles,
            "stream.compactions": len(self.spans("compact")) / cycles,
            "stream.compact_busy_s": self.total_s("compact") / cycles,
            "stream.researches": len(self.spans("research")) / cycles,
            "stream.shards_end": max((s[7] or 0 for s in submits),
                                     default=0),
        }
