"""Tracing launcher: ``python launch.py <span file> <repro CLI args...>``.

Runs ``repro.cli.main`` with the given arguments after wrapping the
public functions at the program's layer boundaries.  Each call of a
wrapped function is one span ``(name, start ns, end ns, span id, parent
id, request id, thread id, extra)`` kept in memory.  Parents come from a
per-thread stack; an HTTP request's spans share the id its
``X-Bench-Req`` header carries; a batcher flush lists the request ids of
the tickets it answers.

Spans are written as JSON to the span file when the process exits, on
SIGTERM (which stops ``repro serve`` the way Ctrl-C does), and on
SIGUSR1 (a snapshot, taken before the benchmark SIGKILLs a server).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_clock = time.perf_counter_ns
_ids = itertools.count(1)
_local = threading.local()
SPANS: list = []
IMPORT_NS = [0, 0]


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _span(name, call, extra=None):
    """Run ``call()`` inside a span; ``extra(result)`` annotates it."""
    stack = _stack()
    span_id = next(_ids)
    parent = stack[-1] if stack else 0
    stack.append(span_id)
    start = _clock()

    def record(note):
        stack.pop()
        SPANS.append([name, start, _clock(), span_id, parent,
                      getattr(_local, "request", None),
                      threading.get_ident(), note])

    try:
        result = call()
    except BaseException:
        record(None)
        raise
    record(None if extra is None else extra(result))
    return result


def _replace_everywhere(original, wrapper):
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _traced(original, name, extra):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _span(name, lambda: original(*args, **kwargs), extra)
    return wrapper


def wrap_function(module, attr, name, extra=None):
    """Trace a module function, also where other modules imported it."""
    original = getattr(module, attr)
    wrapper = _traced(original, name, extra)
    setattr(module, attr, wrapper)
    _replace_everywhere(original, wrapper)


def wrap_method(cls, attr, name, extra=None):
    raw = cls.__dict__[attr]
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    wrapper = _traced(raw.__func__ if kind else raw, name, extra)
    setattr(cls, attr, kind(wrapper) if kind else wrapper)


def dump(path):
    tmp = Path(f"{path}.tmp")
    tmp.write_text(json.dumps({"import_ns": IMPORT_NS, "spans": SPANS}))
    os.replace(tmp, path)


def instrument():
    import repro.core.counts as counts
    import repro.core.errors as errors
    import repro.core.label as label
    import repro.core.maintenance as maintenance
    import repro.core.sharding as sharding
    import repro.dataset.csvio as csvio
    import repro.dataset.table as table
    import repro.persist.pack as pack
    import repro.serve.batching as batching
    import repro.serve.cache as cache
    import repro.serve.protocol as protocol
    import repro.serve.service as service
    import repro.serve.store as store
    import repro.stream.drift as drift
    import repro.stream.ingest as ingest
    import repro.stream.publish as publish
    import repro.stream.wal as wal
    from repro.api.session import LabelingSession

    wrap_function(csvio, "read_csv", "read_csv")
    wrap_method(counts.PatternCounter, "label_size_many",
                "label_size_many", len)
    wrap_method(sharding.ShardedPatternCounter, "label_size_many",
                "label_size_many", len)
    wrap_method(errors.BatchLabelEvaluator, "estimates", "estimates")
    wrap_function(label, "build_label", "build_label")
    wrap_method(LabelingSession, "fit", "fit")
    wrap_function(pack, "write_pack", "write_pack")
    wrap_function(pack, "open_pack", "open_pack")
    wrap_method(pack.PackReader, "counter", "pack_counter")
    wrap_method(store.LabelStore, "publish_pack", "publish_pack")

    def do_post(original):
        @functools.wraps(original)
        def wrapper(handler):
            _local.request = handler.headers.get("X-Bench-Req")
            try:
                return _span("do_POST:" + handler.path.rsplit("/", 1)[-1],
                             lambda: original(handler))
            finally:
                _local.request = None
        return wrapper

    service._Handler.do_POST = do_post(service._Handler.do_POST)
    wrap_method(protocol.EstimateRequest, "from_payload", "from_payload")
    wrap_method(cache.ResultCache, "get", "cache_get")
    submitted = {}
    submit = batching.MicroBatcher.submit

    def traced_submit(self, snapshot, patterns):
        ticket = submit(self, snapshot, patterns)
        submitted[id(ticket)] = (_clock(), getattr(_local, "request", None))
        return ticket

    batching.MicroBatcher.submit = traced_submit
    flush = batching.MicroBatcher._flush

    def traced_flush(self, batch, event):
        now = _clock()
        waits = [(submitted.pop(id(t), (now, None)), len(t.patterns))
                 for t in batch]
        return _span("flush", lambda: flush(self, batch, event),
                     lambda _: [[now - t, rid, n] for (t, rid), n in waits])

    batching.MicroBatcher._flush = traced_flush
    wrap_method(store.LabelSnapshot, "estimate_many", "estimate_many", len)
    wrap_method(wal.WriteAheadLog, "append", "wal_append")
    wrap_function(os, "fsync", "fsync")
    wrap_method(table.Dataset, "from_rows", "from_rows")
    wrap_function(maintenance, "apply_inserts", "apply_inserts")
    wrap_method(sharding.ShardedPatternCounter, "add_shard", "add_shard")
    wrap_method(publish.LabelPublisher, "publish", "publish")
    wrap_method(drift.DriftMonitor, "check", "drift_check")
    wrap_method(drift.DriftMonitor, "_research", "research")
    wrap_method(ingest.StreamIngestor, "_compact_once", "compact")
    wrap_method(ingest.StreamIngestor, "submit", "submit",
                lambda status: status.shards)


def main(argv):
    span_file, args = argv[0], argv[1:]
    IMPORT_NS[0] = _clock()
    import repro.cli

    IMPORT_NS[1] = _clock()
    instrument()

    def on_term(*_):
        raise KeyboardInterrupt

    def on_usr1(*_):
        dump(span_file)
        Path(f"{span_file}.dumped").touch()

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGUSR1, on_usr1)
    try:
        code = repro.cli.main(args)
    finally:
        dump(span_file)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
