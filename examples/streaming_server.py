#!/usr/bin/env python3
"""Streaming ingestion end to end: WAL, publish, crash recovery, drift.

The write surface of the deployment story — ``repro.stream`` behind a
live ``repro.serve`` endpoint, in two acts:

* **serve + recover** — fit a label, serve it, attach a streamed
  ingestor, and push insert batches through ``POST /labels/<name>/
  update``: each batch is WAL-logged *before* it is applied, counted,
  and published in one atomic snapshot swap (responses carry
  ``streamed``/``seq``/``version``).  Then the "crash": the server is
  stopped and a cold ingestor replays the WAL on top of the original
  artifact — the recovered label is byte-identical to the live one.
* **drift + re-search** — a second label fit on independent data is
  fed batches where one attribute is a function of another; the drift
  monitor recounts its fixed pattern panel at every check, the label's
  max error per row on it climbs past the baseline and flags the label
  stale, a budgeted ``anytime`` re-search runs on a background thread,
  and the winning label hot-swaps through the same publish path the
  batches use (the next check draws a new panel and rebases on it).

Run:  python examples/streaming_server.py
"""

import json
import tempfile
import urllib.request
from pathlib import Path

from repro import LabelingSession, StreamConfig
from repro.core.counts import PatternCounter
from repro.core.label import build_label
from repro.dataset.table import Dataset
from repro.datasets import load_dataset
from repro.stream import StreamIngestor, WriteAheadLog

N_BATCHES = 6
ROWS_PER_BATCH = 25


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode())


def serve_and_recover(workdir: Path) -> None:
    dataset = load_dataset("bluenile", n_rows=5_000, seed=0)
    session = LabelingSession.fit(dataset, bound=40)
    service = session.serve(name="bluenile")
    wal_dir = workdir / "wal"
    ingestor = session.stream(
        wal_dir,
        name="bluenile",
        store=service.store,
        config=StreamConfig(compact_every=4, drift_threshold=None),
    )
    service.attach_stream(ingestor)
    print(f"serving {service.url} with a streamed ingestor (WAL: {wal_dir})")

    update_url = f"{service.url}/labels/bluenile/update"
    rows = [
        {k: str(v) for k, v in dataset.row(i).items()}
        for i in range(ROWS_PER_BATCH)
    ]
    for _ in range(N_BATCHES):
        resp = post_json(update_url, {"inserted": rows})
        print(
            f"  batch seq={resp['seq']}: streamed={resp['streamed']}, "
            f"published v{resp['version']}"
        )
    assert ingestor.join(timeout=60), "background compaction still running"
    print(
        f"{N_BATCHES} batches WAL-logged and published "
        f"({ingestor.compactions} background compaction(s); "
        f"publish p99 {1e3 * ingestor.publisher.latency_quantile(0.99):.2f}ms)"
    )

    # -- the "crash": stop the server, replay the WAL cold ---------------------
    live = ingestor.label.to_json()
    service.stop()
    recovered = StreamIngestor(
        session.artifact,  # the pre-stream label, as a restart would load it
        wal=WriteAheadLog(wal_dir),
        name="bluenile",
        replay=True,
    )
    assert recovered.label.to_json() == live
    assert recovered.last_seq == ingestor.last_seq
    print(
        f"cold WAL replay of {recovered.last_seq} batch(es): recovered "
        f"label byte-identical to the live one (total={recovered.label.total})"
    )


def drift_and_research(workdir: Path) -> None:
    # Fit on independent columns, then stream batches where c is a
    # function of a — the label's independence fallback for patterns
    # touching c degrades until the drift monitor notices.
    import numpy as np

    rng = np.random.default_rng(7)
    counter = PatternCounter(
        Dataset.from_columns(
            {
                "a": [int(v) for v in rng.integers(0, 4, 300)],
                "b": [int(v) for v in rng.integers(0, 3, 300)],
                "c": [int(v) for v in rng.integers(0, 2, 300)],
            }
        )
    )
    ingestor = StreamIngestor(
        build_label(counter, ("a", "b")),
        wal=WriteAheadLog(workdir / "drift-wal"),
        counter=counter,
        config=StreamConfig(
            drift_check_every=1,
            drift_threshold=1.0,
            drift_sample=64,
            research_budget_seconds=2.0,
        ),
    )
    correlated = Dataset.from_rows(
        ["a", "b", "c"], [[i % 4, i % 3, (i % 4) % 2] for i in range(200)]
    )
    for _ in range(10):
        status = ingestor.submit(inserted=correlated)
        if status.drift is not None:
            flag = "STALE" if status.drift.stale else "ok"
            print(
                f"  seq={status.seq}: drift error per row "
                f"{status.drift.error:.4f} (baseline "
                f"{status.drift.baseline:.4f}) -> {flag}"
            )
    assert ingestor.join(timeout=60), "background re-search still running"
    monitor = ingestor.drift_monitor
    assert monitor is not None and monitor.last_error is None
    print(
        f"drift monitor triggered {monitor.researches} budgeted "
        f"re-search(es); hot swaps pushed the publisher to "
        f"v{ingestor.publisher.version} (label now "
        f"{ingestor.label.attribute_order})"
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
        workdir = Path(tmp)
        print("== act 1: streamed serving + crash recovery ==")
        serve_and_recover(workdir)
        print("\n== act 2: drift detection + re-search hot swap ==")
        drift_and_research(workdir)


if __name__ == "__main__":
    main()
