"""Property: WAL-replayed streaming state equals synchronous maintenance.

For any random relation, subset, and batch sequence, a
:class:`~repro.stream.ingest.StreamIngestor` that replays the WAL of a
"crashed" ingestor must reconstruct byte-identical labels to applying
the same batches synchronously with
:func:`~repro.core.maintenance.apply_inserts` — the durability contract
of the streaming subsystem.  Under it, the one write step every update
path shares, :func:`~repro.core.maintenance.apply_batch`, must leave a
label and a counter that answer exactly like a counter over the
concatenated rows, and must never change the counter it was given.
Every drift check on the way scores the label on its panel exactly.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    LabelEstimator,
    PatternCounter,
    StreamConfig,
    build_label,
)
from repro.core.maintenance import apply_batch, apply_inserts
from repro.stream import StreamIngestor, WriteAheadLog

from tests.property.test_batch_parity import workloads
from tests.property.test_properties import dataset_and_subset

pytestmark = pytest.mark.stream

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def stream_case(draw, allow_missing=False):
    """A relation, a label subset, and 1–4 in-domain insert batches
    (missing values may occur in all of them when ``allow_missing``)."""
    data, subset = draw(dataset_and_subset(allow_missing=allow_missing))
    names = list(data.attribute_names)
    domains = {
        name: list(data.schema[name].categories)
        + ([None] if allow_missing else [])
        for name in names
    }
    n_batches = draw(st.integers(1, 4))
    batches = []
    for _ in range(n_batches):
        n_rows = draw(st.integers(1, 6))
        rows = [
            [draw(st.sampled_from(domains[name])) for name in names]
            for _ in range(n_rows)
        ]
        batches.append(Dataset.from_rows(names, rows))
    return data, subset, batches


@SETTINGS
@given(stream_case())
def test_wal_replay_equals_synchronous_maintenance(case):
    data, subset, batches = case
    workdir = Path(tempfile.mkdtemp())
    try:
        config = StreamConfig(drift_threshold=None, fsync=False)
        ingestor = StreamIngestor(
            build_label(PatternCounter(data), subset),
            wal=WriteAheadLog(workdir / "wal", fsync=False),
            counter=PatternCounter(data),
            config=config,
        )
        reference = ingestor.label
        for batch in batches:
            ingestor.submit(inserted=batch)
            reference = apply_inserts(reference, batch)

        # The live path already matches the synchronous maintainer...
        assert ingestor.label.to_json() == reference.to_json()

        # ...and so does a cold replay of the WAL alone ("the crash").
        recovered = StreamIngestor(
            build_label(PatternCounter(data), subset),
            wal=WriteAheadLog(workdir / "wal", fsync=False),
            counter=PatternCounter(data),
            config=config,
            replay=True,
        )
        assert recovered.label.to_json() == reference.to_json()
        assert recovered.last_seq == len(batches)
        assert recovered.counter.total_rows == ingestor.counter.total_rows
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _concatenated(data: Dataset, batches) -> Dataset:
    """``data`` with every batch appended, in ``data``'s schema."""
    names = list(data.attribute_names)
    return Dataset.from_rows(
        names,
        [
            [row[name] for name in names]
            for part in (data, *batches)
            for row in part.iter_rows()
        ],
        domains={name: data.schema[name].categories for name in names},
    )


@pytest.mark.parametrize("allow_missing", [False, True])
@pytest.mark.parametrize("n_shards", [1, 3])
@SETTINGS
@given(draw=st.data())
def test_apply_batch_equals_counting_the_concatenation(
    n_shards, allow_missing, draw
):
    data, subset, batches = draw.draw(stream_case(allow_missing))
    counter = PatternCounter.from_dataset(data, n_shards)
    label = synchronous = build_label(counter, subset)
    for batch in batches:
        given_shape = (counter.n_shards, counter.total_rows)
        label, grown, reason = apply_batch(label, counter, inserted=batch)
        synchronous = apply_inserts(synchronous, batch)
        assert reason is None
        # The counter it was given still counts the rows it counted.
        assert (counter.n_shards, counter.total_rows) == given_shape
        assert grown.n_shards == counter.n_shards + 1
        counter = grown

    # Byte-identical to synchronous maintenance; equal (up to the order
    # of PC/VC entries, which maintenance appends) to a fresh build.
    # Over rows with a value missing in S a fresh build projects partial
    # rows (the paper's Appendix A), which the insert deltas of
    # apply_inserts do not maintain; there only the counter is compared.
    assert label.to_json() == synchronous.to_json()
    reference = PatternCounter(_concatenated(data, batches))
    if reference.dataset.non_missing_mask(list(subset)).all():
        assert label == build_label(reference, subset)
    patterns = draw.draw(workloads(data))
    assert list(counter.count_many(patterns)) == list(
        reference.count_many(patterns)
    )
    combos, counts = counter.joint_table(subset)
    ref_combos, ref_counts = reference.joint_table(subset)
    assert np.array_equal(combos, ref_combos)
    assert np.array_equal(counts, ref_counts)
    subsets = [subset] + [(name,) for name in data.attribute_names]
    assert list(counter.label_size_many(subsets)) == list(
        reference.label_size_many(subsets)
    )

    # A batch the counter cannot follow drops it, with the reason.
    _, dropped, reason = apply_batch(label, counter, deleted=batches[0])
    assert dropped is None and "delete" in reason
    novel = Dataset.from_rows(
        list(data.attribute_names),
        [["novel"] + [None] * (len(data.attribute_names) - 1)],
    )
    _, dropped, reason = apply_batch(label, counter, inserted=novel)
    assert dropped is None and "domains" in reason
    assert counter.total_rows == reference.total_rows


def _recount(rows: np.ndarray, names: list[str], pattern) -> int:
    """``c_D(pattern)`` by comparing the raw values of every row."""
    mask = np.ones(len(rows), dtype=bool)
    for attribute, value in pattern.items_sorted:
        mask &= rows[:, names.index(attribute)] == value
    return int(mask.sum())


@pytest.mark.parametrize("allow_missing", [False, True])
@pytest.mark.parametrize("n_shards", [1, 3])
@SETTINGS
@given(draw=st.data())
def test_drift_checks_score_the_panel_exactly(n_shards, allow_missing, draw):
    """After every batch, the drift check's error is max |c_D(p) -
    Est(p, l)| over the monitor's panel per live row, with ``c_D``
    recounted here over the raw rows; the panel is one object while no
    re-search rebases it (the threshold keeps every check fresh)."""
    data, subset, batches = draw.draw(stream_case(allow_missing))
    names = list(data.attribute_names)
    workdir = Path(tempfile.mkdtemp())
    try:
        ingestor = StreamIngestor(
            build_label(PatternCounter(data), subset),
            wal=WriteAheadLog(workdir / "wal", fsync=False),
            counter=PatternCounter.from_dataset(data, n_shards),
            config=StreamConfig(
                drift_check_every=1,
                drift_threshold=1e9,
                drift_sample=32,
                fsync=False,
            ),
        )
        monitor = ingestor.drift_monitor
        rows = [[row[a] for a in names] for row in data.iter_rows()]
        panel = None
        for batch in batches:
            status = ingestor.submit(inserted=batch).drift
            rows += [[row[a] for a in names] for row in batch.iter_rows()]
            if panel:
                assert monitor.panel is panel
            panel = monitor.panel
            live = np.array(rows, dtype=object)
            truths = np.array(
                [_recount(live, names, p) for p in panel], dtype=np.float64
            )
            estimates = np.asarray(
                LabelEstimator(ingestor.label).estimate_many(panel)
            )
            expected = np.abs(estimates - truths).max(initial=0.0) / len(rows)
            assert status.error == expected
            assert not status.stale
        assert monitor.checks == len(batches) and monitor.researches == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
