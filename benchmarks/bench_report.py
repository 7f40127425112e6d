#!/usr/bin/env python3
"""Headless perf-regression runner: scalar vs batch, written to JSON.

Executes the repository's hot-path scenarios (the same primitives the
``benchmarks/test_*`` figure benches exercise) without pytest, timing
each one through both the **scalar reference path** (per-pattern Python
loops: ``PatternCounter.count``, ``LabelEstimator.estimate``, ...) and
the **batch kernel** (``count_many``, ``BatchLabelEvaluator``,
``estimate_many``), and emits ``BENCH_core.json`` at the repository
root.  That file is the perf trajectory: every future PR regenerates it
and a shrinking speedup column is a regression.

The sharded scenarios time the **sharded counting backend**
(``ShardedPatternCounter``, the out-of-core/incremental engine) against
the monolithic counter on identical workloads — parity is asserted, and
the recorded ratio is the steady-state cost of answering through merged
per-shard tables.

The ``serve_throughput`` scenario times the **serving layer**
(``repro.serve``): concurrent client threads submitting single-pattern
requests through the ``MicroBatcher`` vs the naive per-request scalar
loop, byte-identical answers asserted.  Its speedup column is the
acceptance bar for micro-batched serving (must stay >= 5x).

Methodology: each path runs ``--rounds`` times on a *persistent*
counter/estimator (caches warm up across rounds, exactly as they do in
a long-lived serving process) and the **median** wall time is reported
— the same statistic pytest-benchmark leads with.  The batch and scalar
paths are always checked for agreement before timing counts.

Run::

    PYTHONPATH=src python benchmarks/bench_report.py            # full
    PYTHONPATH=src python benchmarks/bench_report.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (  # noqa: E402
    LabelingSession,
    PatternCounter,
    ShardedPatternCounter,
    build_label,
)
from repro.core.errors import evaluate_labels  # noqa: E402
from repro.core.errors import ErrorSummary
from repro.core.estimator import LabelEstimator  # noqa: E402
from repro.core.search import top_down_search  # noqa: E402
from repro.core.workload import (  # noqa: E402
    random_mixed_workload,
    random_pattern_workload,
)
from repro.baselines.dephist import DependencyTreeEstimator  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"
SCALE_OUTPUT = REPO_ROOT / "BENCH_scale.json"


def _median_seconds(fn: Callable[[], object], rounds: int) -> float:
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _scenario(
    name: str,
    scalar: Callable[[], object],
    batch: Callable[[], object],
    rounds: int,
    detail: dict,
    *,
    a_key: str = "scalar_median_s",
    b_key: str = "batch_median_s",
    exact: bool = False,
) -> dict:
    """Time two equivalent paths; ``a_key``/``b_key`` name the record
    columns (scalar-vs-batch by default, single-vs-sharded for the
    sharded backend scenarios).  ``speedup`` is always a/b.  Parity is
    ``allclose`` unless ``exact``, which demands equal lists."""
    scalar_result = scalar()
    batch_result = batch()
    if exact:
        parity = list(scalar_result) == list(batch_result)
    else:
        parity = np.allclose(
            np.asarray(scalar_result, dtype=np.float64),
            np.asarray(batch_result, dtype=np.float64),
            rtol=1e-9,
            atol=1e-9,
        )
    if not parity:
        raise AssertionError(f"scenario {name}: scalar/batch mismatch")
    scalar_s = _median_seconds(scalar, rounds)
    batch_s = _median_seconds(batch, rounds)
    speedup = round(scalar_s / batch_s, 2) if batch_s > 0 else None
    record = {
        a_key: round(scalar_s, 6),
        b_key: round(batch_s, 6),
        "speedup": speedup,
        "parity_checked": True,
        **detail,
    }
    shown = f"{speedup:6.1f}x" if speedup is not None else "   n/a"
    print(
        f"  {name:<42} scalar {scalar_s * 1e3:9.2f} ms   "
        f"batch {batch_s * 1e3:9.2f} ms   {shown}"
    )
    return record


def run(rows: int, queries: int, rounds: int, bound: int) -> dict:
    """Run every scenario at the given scale; returns the report dict."""
    print(
        f"bench_report: rows={rows} queries={queries} rounds={rounds} "
        f"bound={bound}"
    )
    dataset = load_dataset("bluenile", n_rows=rows, seed=0)
    rng = np.random.default_rng(0)
    workload_counter = PatternCounter(dataset)
    workload = random_pattern_workload(
        workload_counter, queries, rng, min_arity=1, max_arity=4
    )
    patterns = [workload.pattern(i) for i in range(len(workload))]

    scenarios: dict[str, dict] = {}

    # 1. The counting kernel itself: c_D(p) for a whole workload.
    scalar_counter = PatternCounter(dataset)
    batch_counter = PatternCounter(dataset)
    scenarios["count_many/synthetic_workload"] = _scenario(
        "count_many/synthetic_workload",
        lambda: [scalar_counter.count(p) for p in patterns],
        lambda: batch_counter.count_many(patterns),
        rounds,
        {"rows": rows, "queries": queries, "dataset": "bluenile"},
    )

    # 2. Range predicates through the same kernel: a 50/50 mixed
    #    equality/range workload.  The scalar path resolves each range
    #    binding as boolean masks over the code columns (the reference
    #    semantics); the batch path normalizes ranges to contiguous code
    #    runs and answers them with two searchsorted probes against the
    #    same cached sorted key tables equality batches use.  The
    #    speedup column is the range-kernel acceptance bar (>= 5x).
    mixed = random_mixed_workload(
        workload_counter, queries, rng, min_arity=1, max_arity=4,
        range_share=0.5,
    )
    mixed_patterns = [mixed.pattern(i) for i in range(len(mixed))]
    scalar_range_counter = PatternCounter(dataset)
    batch_range_counter = PatternCounter(dataset)
    scenarios["range_count_many/mixed_workload"] = _scenario(
        "range_count_many/mixed_workload",
        lambda: [scalar_range_counter.count(p) for p in mixed_patterns],
        lambda: batch_range_counter.count_many(mixed_patterns),
        rounds,
        {
            "rows": rows,
            "queries": queries,
            "range_share": 0.5,
            "ranged_patterns": sum(
                p.has_ranges for p in mixed_patterns
            ),
            "dataset": "bluenile",
        },
    )

    # 3. Workload error evaluation of every surviving search candidate
    #    (the evaluation phase of Algorithm 1), batched vs per-pattern.
    search_counter = PatternCounter(dataset)
    result = top_down_search(search_counter, bound, pattern_set=workload)
    candidates = result.candidates
    labels = [build_label(search_counter, c) for c in candidates]
    truths = workload.counts

    def scalar_candidate_eval() -> list[float]:
        values = []
        for label in labels:
            estimator = LabelEstimator(label)
            estimates = np.array(
                [estimator.estimate(p) for p in patterns]
            )
            values.append(
                ErrorSummary.from_arrays(truths, estimates).max_abs
            )
        return values

    eval_counter = PatternCounter(dataset)

    def batch_candidate_eval() -> list[float]:
        summaries = evaluate_labels(eval_counter, candidates, workload)
        return [s.max_abs for s in summaries]

    scenarios["evaluate_candidates/workload"] = _scenario(
        "evaluate_candidates/workload",
        scalar_candidate_eval,
        batch_candidate_eval,
        rounds,
        {
            "rows": rows,
            "queries": queries,
            "candidates": len(candidates),
            "bound": bound,
        },
    )

    # 4 & 5 model the serving side — a published synopsis under query
    # traffic — so they run on a 10x workload (batch dispatch amortizes
    # its per-template overhead across the queries sharing a template).
    serving_queries = queries * 10
    serving = random_pattern_workload(
        workload_counter, serving_queries, rng, min_arity=1, max_arity=4
    )
    serving_patterns = [serving.pattern(i) for i in range(len(serving))]

    # 4. Consumer-side serving: a published label answering a workload.
    session = LabelingSession(result.label)

    def scalar_session() -> list[float]:
        return [session.estimate(p) for p in serving_patterns]

    def batch_session() -> list[float]:
        return session.estimate_many(serving_patterns)

    scenarios["session_estimate_many/label"] = _scenario(
        "session_estimate_many/label",
        scalar_session,
        batch_session,
        rounds,
        {
            "rows": rows,
            "queries": serving_queries,
            "label_size": result.label.size,
        },
    )

    # 4b. The same label under a 50%-range workload: ranges outside S
    #     take the batch path's marginal lookups, ranges inside S its
    #     predicate sum.  Served answers must not move by one bit, so
    #     parity here is exact equality.  Its own generator keeps the
    #     later scenarios' draws unchanged.
    ranged = random_mixed_workload(
        workload_counter, serving_queries, np.random.default_rng(4),
        min_arity=1, max_arity=4, range_share=0.5,
    )
    ranged_patterns = [ranged.pattern(i) for i in range(len(ranged))]
    in_s = set(result.label.attributes)
    scenarios["session_estimate_many/label_ranges"] = _scenario(
        "session_estimate_many/label_ranges",
        lambda: [session.estimate(p) for p in ranged_patterns],
        lambda: session.estimate_many(ranged_patterns),
        rounds,
        {
            "rows": rows,
            "queries": serving_queries,
            "label_size": result.label.size,
            "range_share": 0.5,
            "ranges_in_s": sum(
                bool(in_s & set(p.range_attributes)) for p in ranged_patterns
            ),
            "ranges_outside_s": sum(
                bool(set(p.range_attributes) - in_s) for p in ranged_patterns
            ),
        },
        exact=True,
    )

    # 5. Baseline batch dispatch (GroupedEstimateMany over estimate_codes),
    #    on the baseline with the most expensive scalar path.
    dephist = DependencyTreeEstimator(dataset)
    scenarios["baseline_estimate_many/dephist"] = _scenario(
        "baseline_estimate_many/dephist",
        lambda: [dephist.estimate(p) for p in serving_patterns],
        lambda: dephist.estimate_many(serving_patterns),
        rounds,
        {"rows": rows, "queries": serving_queries},
    )

    # 6. Sharded counting backend: K merged shards must answer the same
    #    workload as one monolithic counter; this records the cost (or
    #    win) of the merge, i.e. sharded-vs-single throughput.  The
    #    sharded backend buys out-of-core ingestion and incremental
    #    maintenance, so the interesting number is how close to 1.0x the
    #    steady-state query path stays.
    n_shards = 4
    single_counter = PatternCounter(dataset)
    sharded_counter = ShardedPatternCounter.from_dataset(dataset, n_shards)
    scenarios[f"sharded_count_many/{n_shards}shards"] = _scenario(
        f"sharded_count_many/{n_shards}shards",
        lambda: single_counter.count_many(serving_patterns),
        lambda: sharded_counter.count_many(serving_patterns),
        rounds,
        {"rows": rows, "queries": serving_queries, "shards": n_shards},
        a_key="single_median_s",
        b_key="sharded_median_s",
    )

    # 7. Sharded label pipeline end-to-end: search + build through the
    #    merged tables (the out-of-core fit path of LabelingSession).
    def single_fit() -> list[float]:
        counter = PatternCounter(dataset)
        fit = top_down_search(counter, bound, pattern_set=workload)
        return [fit.summary.max_abs]

    def sharded_fit() -> list[float]:
        counter = ShardedPatternCounter.from_dataset(dataset, n_shards)
        fit = top_down_search(counter, bound, pattern_set=workload)
        return [fit.summary.max_abs]

    scenarios[f"sharded_fit/{n_shards}shards"] = _scenario(
        f"sharded_fit/{n_shards}shards",
        single_fit,
        sharded_fit,
        rounds,
        {"rows": rows, "queries": queries, "bound": bound,
         "shards": n_shards},
        a_key="single_median_s",
        b_key="sharded_median_s",
    )

    # 8. The search engine's sizing kernel: level-wise label sizing, the
    #    hot loop of every frontier strategy (Section IV-C: search
    #    dominates end-to-end cost).  Scalar path = one label_size call
    #    per subset, exactly what the pre-driver search did; batch path =
    #    one label_size_many call per level.  Counters are constructed
    #    fresh inside each timed call: sizing happens once per fit, so
    #    the steady-state cost *is* the cold cost — timing warm per-set
    #    caches would compare two dict lookups.
    import itertools as _itertools

    from repro import beam_search, naive_search  # noqa: E402

    attr_names = dataset.attribute_names
    sizing_subsets = [
        combo
        for level in (2, 3)
        for combo in _itertools.combinations(attr_names, level)
    ]

    def scalar_sizing() -> list[int]:
        counter = PatternCounter(dataset)
        return [counter.label_size(s) for s in sizing_subsets]

    def batch_sizing() -> list[int]:
        counter = PatternCounter(dataset)
        return [int(v) for v in counter.label_size_many(sizing_subsets)]

    # Acceptance gate: the exact strategies (naive, top-down, exhaustive
    # beam) must land on byte-identical winning labels — the refactor
    # changed the sizing kernel, never the answers.
    exact_runs = [
        naive_search(PatternCounter(dataset), bound, pattern_set=workload),
        top_down_search(
            PatternCounter(dataset), bound, pattern_set=workload
        ),
        beam_search(PatternCounter(dataset), bound, pattern_set=workload),
    ]
    winning = {run.label.to_json() for run in exact_runs}
    if len(winning) != 1 or not all(run.is_exact for run in exact_runs):
        raise AssertionError(
            "search_scaling: exact strategies disagree on the winning label"
        )
    scenarios["search_scaling/level_sizing"] = _scenario(
        "search_scaling/level_sizing",
        scalar_sizing,
        batch_sizing,
        rounds,
        {
            "rows": rows,
            "subsets": len(sizing_subsets),
            "levels": [2, 3],
            "exact_strategies_byte_identical": True,
        },
    )

    #    And one top-down fit over P_A end to end, sizing and evaluation
    #    (fresh counter per round, as above).  Of the subsets the search
    #    examines (Figure 9's count), only the ones the previous lattice
    #    level leaves undecided are sized against the data.
    def top_down_fit():
        return top_down_search(PatternCounter(dataset), bound)

    fit_stats = top_down_fit().stats
    fit_s = _median_seconds(top_down_fit, rounds)
    scenarios["search_scaling/top_down_fit"] = {
        "median_s": round(fit_s, 6),
        "rows": rows,
        "bound": bound,
        "subsets_examined": fit_stats.subsets_examined,
        "subsets_sized": fit_stats.subsets_sized,
        "labels_evaluated": fit_stats.labels_evaluated,
    }
    print(
        f"  {'search_scaling/top_down_fit':<42} fit    "
        f"{fit_s * 1e3:9.2f} ms   examined {fit_stats.subsets_examined}   "
        f"sized {fit_stats.subsets_sized}"
    )

    # 9. The serving layer: N client threads hammering the micro-batcher
    #    vs the naive per-request loop (one scalar Est(p, l) call per
    #    request — what a server without the batcher would do).  Traffic
    #    is duplicate-heavy (requests drawn from a distinct-pattern
    #    pool, the shape of real query traffic), the label is a
    #    serving-scale synopsis (a larger |PC| than the fit scenarios:
    #    the scalar path scans PC per request, the batch kernel resolves
    #    against cached marginal tables), and the batcher additionally
    #    collapses duplicates within each coalesced batch.  Parity is
    #    byte-identical — asserted with == below, not just allclose.
    from repro.serve.batching import MicroBatcher  # noqa: E402

    serve_bound = 300
    serve_session = LabelingSession.fit(dataset, serve_bound)
    serve_snapshot = serve_session.snapshot("bench")
    n_clients = 8
    n_requests = serving_queries * 4
    request_pool = [
        serving.pattern(i) for i in range(len(serving))
    ]
    request_patterns = [
        request_pool[i]
        for i in rng.integers(0, len(request_pool), size=n_requests)
    ]

    def naive_serve() -> list[float]:
        return [serve_snapshot.estimate(p) for p in request_patterns]

    batcher = MicroBatcher(window=0.001, max_batch=4096)

    def batched_serve() -> list[float]:
        results: list[float] = [0.0] * len(request_patterns)
        chunk = (len(request_patterns) + n_clients - 1) // n_clients

        def client(lo: int, hi: int) -> None:
            tickets = [
                (i, batcher.submit(serve_snapshot, (request_patterns[i],)))
                for i in range(lo, hi)
            ]
            for i, ticket in tickets:
                results[i] = ticket.result(timeout=60.0)[0]

        clients = [
            threading.Thread(
                target=client,
                args=(lo, min(lo + chunk, len(request_patterns))),
            )
            for lo in range(0, len(request_patterns), chunk)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        return results

    if naive_serve() != batched_serve():
        raise AssertionError(
            "serve_throughput: batched serving is not byte-identical to "
            "the per-request loop"
        )
    scenarios["serve_throughput/microbatch"] = _scenario(
        "serve_throughput/microbatch",
        naive_serve,
        batched_serve,
        rounds,
        {
            "rows": rows,
            "requests": n_requests,
            "distinct_patterns": len(request_pool),
            "client_threads": n_clients,
            "label_size": serve_session.size,
            "bound": serve_bound,
            "byte_identical": True,
        },
        a_key="naive_median_s",
        b_key="batched_median_s",
    )
    batcher.close()

    # 9b. Horizontal scale-out under skew: the same serving layer behind
    #    the PR's worker group + version-keyed result cache, driven by
    #    zipfian traffic (the shape of real dashboards: a small hot set
    #    asked over and over, a long cold tail).  Baseline is the
    #    single-worker uncached micro-batcher path (scenario 9's serving
    #    configuration); candidate is 4 batch workers behind a
    #    256-entry admission-controlled cache.  On a 1-CPU host every
    #    gain comes from the cache short-circuit — repeats skip the
    #    ticket/flush/kernel machinery entirely — which is exactly the
    #    production claim.  Byte-identical parity is asserted with ==
    #    before any timing; p50/p99 are per-request client latencies.
    from repro.serve import ResultCache, WorkerGroup  # noqa: E402

    zipf_weights = 1.0 / np.arange(1, len(request_pool) + 1) ** 1.5
    zipf_weights /= zipf_weights.sum()
    zipf_requests = [
        request_pool[i]
        for i in rng.choice(
            len(request_pool), size=n_requests, p=zipf_weights
        )
    ]
    zipf_latencies = [0.0] * len(zipf_requests)

    single_worker = MicroBatcher(window=0.0, max_batch=4096)
    worker_group = WorkerGroup(
        workers=4, window=0.0, max_batch=4096, cache=ResultCache(256)
    )

    def _drive(handle_request: Callable[[int], float]) -> list[float]:
        results: list[float] = [0.0] * len(zipf_requests)
        chunk = (len(zipf_requests) + n_clients - 1) // n_clients

        def client(lo: int, hi: int) -> None:
            for i in range(lo, hi):
                results[i] = handle_request(i)

        clients = [
            threading.Thread(
                target=client,
                args=(lo, min(lo + chunk, len(zipf_requests))),
            )
            for lo in range(0, len(zipf_requests), chunk)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        return results

    def uncached_single_worker() -> list[float]:
        def handle(i: int) -> float:
            return single_worker.estimate(
                serve_snapshot, (zipf_requests[i],)
            )[0]

        return _drive(handle)

    def cached_worker_group() -> list[float]:
        def handle(i: int) -> float:
            start = time.perf_counter()
            value = worker_group.estimate(
                serve_snapshot, (zipf_requests[i],)
            ).values[0]
            zipf_latencies[i] = time.perf_counter() - start
            return value

        return _drive(handle)

    if uncached_single_worker() != cached_worker_group():
        raise AssertionError(
            "serve_throughput/zipfian: cached multi-worker serving is "
            "not byte-identical to the uncached single-worker path"
        )
    record = _scenario(
        "serve_throughput/zipfian",
        uncached_single_worker,
        cached_worker_group,
        rounds,
        {
            "rows": rows,
            "requests": n_requests,
            "distinct_patterns": len(request_pool),
            "zipf_exponent": 1.5,
            "client_threads": n_clients,
            "workers": 4,
            "cache_entries": 256,
            "label_size": serve_session.size,
            "bound": serve_bound,
            "byte_identical": True,
        },
        a_key="uncached_single_worker_median_s",
        b_key="cached_workers_median_s",
    )
    record["uncached_requests_per_s"] = round(
        n_requests / record["uncached_single_worker_median_s"], 1
    )
    record["cached_requests_per_s"] = round(
        n_requests / record["cached_workers_median_s"], 1
    )
    latencies_ms = sorted(s * 1e3 for s in zipf_latencies)
    record["cached_p50_ms"] = round(
        latencies_ms[len(latencies_ms) // 2], 4
    )
    record["cached_p99_ms"] = round(
        latencies_ms[int(len(latencies_ms) * 0.99)], 4
    )
    cache_stats = worker_group.cache.stats
    record["cache_hit_rate"] = round(cache_stats.hit_rate, 4)
    record["cache_entries_resident"] = len(worker_group.cache)
    scenarios["serve_throughput/zipfian"] = record
    single_worker.close()
    worker_group.close()

    # 10. Cold start: time-to-first-estimate for a fresh process.  The
    #    refit path is what a deployment without persistence pays on
    #    every restart (parse the CSV, re-run the label search); the
    #    pack path reopens a ``repro-pack/1`` written once at fit time
    #    (``repro pack``) — the label envelope alone is read, the
    #    counter payloads stay memory-mapped and untouched.  Both the
    #    label artifact and the estimates are asserted byte-identical
    #    before timing; the speedup column is the warm-start acceptance
    #    bar (must stay >= 10x at full scale).
    from repro import read_csv, write_csv  # noqa: E402

    with tempfile.TemporaryDirectory(prefix="repro-bench-cold-") as cold_dir:
        cold_csv = Path(cold_dir) / "data.csv"
        write_csv(dataset, cold_csv)
        cold_pack = Path(cold_dir) / "pack"
        LabelingSession.fit(read_csv(cold_csv), bound).to_pack(
            cold_pack, name="bench"
        )
        cold_patterns = patterns[: min(20, len(patterns))]

        def refit_first_estimates() -> list[float]:
            session = LabelingSession.fit(read_csv(cold_csv), bound)
            return session.estimate_many(cold_patterns)

        def pack_first_estimates() -> list[float]:
            session = LabelingSession.from_pack(cold_pack)
            return session.estimate_many(cold_patterns)

        refit_envelope = json.dumps(
            LabelingSession.fit(read_csv(cold_csv), bound).to_artifact(),
            sort_keys=True,
        )
        pack_envelope = json.dumps(
            LabelingSession.from_pack(cold_pack).to_artifact(),
            sort_keys=True,
        )
        if refit_envelope != pack_envelope:
            raise AssertionError(
                "cold_start: packed label is not byte-identical to a refit"
            )
        if refit_first_estimates() != pack_first_estimates():
            raise AssertionError(
                "cold_start: packed estimates differ from refit estimates"
            )
        scenarios["cold_start/pack_vs_refit"] = _scenario(
            "cold_start/pack_vs_refit",
            refit_first_estimates,
            pack_first_estimates,
            rounds,
            {
                "rows": rows,
                "bound": bound,
                "patterns": len(cold_patterns),
                "pack_bytes": sum(
                    f.stat().st_size for f in cold_pack.iterdir()
                ),
                "byte_identical": True,
            },
            a_key="refit_median_s",
            b_key="pack_median_s",
        )

    # 11. Streaming ingestion: the write path of ``repro serve --stream``.
    #    The synchronous path applies every batch with ``apply_inserts``
    #    (label arithmetic only, no durability, no serving); the streamed
    #    path pushes the same batches through a ``StreamIngestor`` with
    #    the default ``StreamConfig`` that ``repro serve --stream`` runs —
    #    WAL-logged with fsync, counted as insert shards, drift-checked
    #    every 8th batch, and published as a versioned snapshot swap per
    #    batch.  Before timing, a cold WAL replay is asserted
    #    byte-identical to the synchronous maintainer (the durability
    #    contract), the last drift check's error is asserted equal to an
    #    independent recount of the monitor's panel, and the per-publish
    #    swap latency — the reader-visible pause bound — must stay under
    #    10 ms at p99.
    from repro import StreamConfig  # noqa: E402
    from repro.core.maintenance import apply_inserts  # noqa: E402
    from repro.stream import StreamIngestor, WriteAheadLog  # noqa: E402

    stream_attrs = tuple(
        LabelingSession.fit(dataset, bound).artifact.attributes
    )
    n_batches = 32
    batch_rows = max(1, rows // (n_batches * 4))
    stream_rng = np.random.default_rng(7)
    stream_batches = [
        dataset.take(
            stream_rng.integers(0, dataset.n_rows, size=batch_rows)
        )
        for _ in range(n_batches)
    ]

    def sync_maintained() -> list[int]:
        label = build_label(PatternCounter(dataset), stream_attrs)
        for batch in stream_batches:
            label = apply_inserts(label, batch)
        return sorted(label.pc.values())

    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as sdir:
        wal_seq = iter(range(1_000_000))

        def _fresh_ingestor(replay_of: Path | None = None) -> StreamIngestor:
            wal_dir = (
                replay_of
                if replay_of is not None
                else Path(sdir) / f"wal-{next(wal_seq)}"
            )
            return StreamIngestor(
                build_label(PatternCounter(dataset), stream_attrs),
                wal=WriteAheadLog(wal_dir),
                counter=PatternCounter(dataset),
                config=stream_config,
                replay=replay_of is not None,
            )

        stream_config = StreamConfig()
        last_ingestor: list[StreamIngestor] = []
        last_checks: list = []  # the latest run's drift statuses
        check_ms: list[float] = []  # every drift check, every run

        def streamed() -> list[int]:
            ingestor = _fresh_ingestor()
            monitor = ingestor.drift_monitor
            check = monitor.check

            def timed_check(label):
                start = time.perf_counter()
                status = check(label)
                check_ms.append((time.perf_counter() - start) * 1e3)
                return status

            monitor.check = timed_check
            checks = []
            for batch in stream_batches:
                drift = ingestor.submit(inserted=batch).drift
                if drift is not None:
                    checks.append((drift, ingestor.label))
            last_ingestor[:] = [ingestor]
            last_checks[:] = checks
            return sorted(ingestor.label.pc.values())

        # Durability contract: a cold replay of the WAL the streamed
        # run wrote reconstructs the synchronous label byte-identically.
        streamed()
        # Drift contract: the last check's error equals an independent
        # recount of the monitor's panel — counts from the batch kernel
        # instead of the check's row bitsets — per live row.  That check
        # ran on the last batch, and compaction keeps the rows, so the
        # final counter holds the rows it counted.
        last_ingestor[0].join()
        drift, drift_label = last_checks[-1]
        monitor = last_ingestor[0].drift_monitor
        drift_counter = last_ingestor[0].counter
        if monitor.researches or not monitor.panel:
            raise AssertionError(
                "streaming_ingest: a re-search replaced the drift panel"
            )
        estimates = LabelEstimator(drift_label).estimate_many(monitor.panel)
        recount = np.abs(
            np.asarray(estimates) - drift_counter.count_many(monitor.panel)
        ).max() / drift_counter.total_rows
        if recount != drift.error:
            raise AssertionError(
                f"streaming_ingest: drift check error {drift.error} != "
                f"count_many recount {recount} of its panel"
            )
        replayed = _fresh_ingestor(replay_of=last_ingestor[0].wal.directory)
        sync_label = build_label(PatternCounter(dataset), stream_attrs)
        for batch in stream_batches:
            sync_label = apply_inserts(sync_label, batch)
        if replayed.label.to_json() != sync_label.to_json():
            raise AssertionError(
                "streaming_ingest: WAL replay is not byte-identical to "
                "synchronous maintenance"
            )

        record = _scenario(
            "streaming_ingest/wal_publish",
            sync_maintained,
            streamed,
            rounds,
            {
                "rows": rows,
                "batches": n_batches,
                "batch_rows": batch_rows,
                "label_size": len(sync_label.pc),
                "byte_identical_replay": True,
            },
            a_key="sync_median_s",
            b_key="streamed_median_s",
        )
        publisher = last_ingestor[0].publisher
        publish_p99_ms = publisher.latency_quantile(0.99) * 1e3
        if publish_p99_ms >= 10.0:
            raise AssertionError(
                f"streaming_ingest: p99 publish swap {publish_p99_ms:.2f} "
                "ms breaches the 10 ms reader-pause bound"
            )
        record["publish_p50_ms"] = round(
            publisher.latency_quantile(0.5) * 1e3, 3
        )
        record["publish_p99_ms"] = round(publish_p99_ms, 3)
        record["batches_per_s"] = round(
            n_batches / record["streamed_median_s"], 1
        )
        record["drift_checks_per_run"] = len(last_checks)
        record["drift_check_p50_ms"] = round(
            statistics.median(check_ms), 3
        )
        scenarios["streaming_ingest/wal_publish"] = record

    return {
        "version": 1,
        "generated_by": "benchmarks/bench_report.py",
        "methodology": (
            "median wall time over N rounds per path; caches stay warm "
            "across rounds (steady-state serving); parity asserted "
            "before timing"
        ),
        "config": {
            "rows": rows,
            "queries": queries,
            "rounds": rounds,
            "bound": bound,
        },
        # Reading serving/sharding speedups without knowing the host's
        # core count is meaningless — record it beside the numbers.
        "cpu_count": os.cpu_count(),
        "single_cpu": (os.cpu_count() or 1) == 1,
        "scenarios": scenarios,
    }


def _fmt_rows(rows: int) -> str:
    if rows >= 1_000_000 and rows % 1_000_000 == 0:
        return f"{rows // 1_000_000}M"
    if rows >= 1_000 and rows % 1_000 == 0:
        return f"{rows // 1_000}k"
    return str(rows)


def _parallel_scale_scenarios(
    label: str,
    dataset,
    workload,
    n_shards: int,
    rounds: int,
    bound: int,
) -> dict[str, dict]:
    """Sharded serial vs sharded ``parallel=True``, both from cold.

    Every round builds a fresh counter — warm merged tables would answer
    without touching the thread pool — and closes it afterwards.
    ``count_many`` answers the workload once; the fit runs
    ``top_down_search``.  Parity (counts; the fit's max error and
    winning subset) is asserted before timing.
    """
    patterns = [workload.pattern(i) for i in range(len(workload))]
    names = list(dataset.attribute_names)
    workers = max(1, min(os.cpu_count() or 1, n_shards))
    detail = {
        "rows": dataset.n_rows,
        "queries": len(patterns),
        "shards": n_shards,
        "max_workers": workers,
    }

    def counter(parallel: bool):
        return ShardedPatternCounter.from_dataset(
            dataset, n_shards, parallel=parallel
        )

    def count_many(parallel: bool) -> Callable[[], np.ndarray]:
        def run() -> np.ndarray:
            with counter(parallel) as fresh:
                return fresh.count_many(patterns)

        return run

    def fit(parallel: bool) -> Callable[[], list[float]]:
        def run() -> list[float]:
            with counter(parallel) as fresh:
                result = top_down_search(fresh, bound, pattern_set=workload)
            return [result.summary.max_abs] + [
                names.index(a) for a in result.attributes
            ]

        return run

    return {
        f"scale_count_many_parallel/{label}": _scenario(
            f"scale_count_many_parallel/{label}",
            count_many(False),
            count_many(True),
            rounds,
            detail,
            a_key="serial_median_s",
            b_key="parallel_median_s",
        ),
        f"scale_fit_parallel/{label}": _scenario(
            f"scale_fit_parallel/{label}",
            fit(False),
            fit(True),
            rounds,
            {**detail, "bound": bound},
            a_key="serial_median_s",
            b_key="parallel_median_s",
        ),
    }


def run_scale(
    tiers: list[int], queries: int, rounds: int, bound: int
) -> dict:
    """The production-scale tier: single-vs-sharded crossover, measured.

    For each row tier the same workload is answered by one monolithic
    counter and by the sharded backend (K contiguous shards), recording
    the steady-state query crossover instead of guessing it.  At the top
    tier an **incremental-refresh** scenario times the maintenance story
    sharding exists for: an insert batch arrives and the same query set
    must be re-answered against the grown relation — the monolithic
    path rebuilds its counter and recounts the full relation, the
    sharded path appends the batch as one new shard (warm per-shard
    caches survive; only the merged layer and the new shard are paid
    for).  Parity is asserted on every scenario before timing; the
    ``cpu_count`` recorded in the config keys the parallel-path numbers
    (a thread pool cannot beat serial on a single core — the pool's win
    is core-bound, the refresh win is algorithmic).  Every tier also
    times the 8-shard counter serially against ``parallel=True`` (see
    :func:`_parallel_scale_scenarios`).
    """
    print(
        f"bench_report --scale: tiers={tiers} queries={queries} "
        f"rounds={rounds} bound={bound} cpu_count={os.cpu_count()}"
    )
    n_shards = 8
    scenarios: dict[str, dict] = {}
    tier_speedups: dict[str, float | None] = {}

    for rows in tiers:
        label = _fmt_rows(rows)
        dataset = load_dataset("bluenile", n_rows=rows, seed=0)
        rng = np.random.default_rng(0)
        workload_counter = PatternCounter(dataset)
        workload = random_pattern_workload(
            workload_counter, queries, rng, min_arity=1, max_arity=3
        )
        patterns = [workload.pattern(i) for i in range(len(workload))]

        single = PatternCounter(dataset)
        sharded = ShardedPatternCounter.from_dataset(dataset, n_shards)
        record = _scenario(
            f"scale_count_many/{label}",
            lambda: single.count_many(patterns),
            lambda: sharded.count_many(patterns),
            rounds,
            {"rows": rows, "queries": queries, "shards": n_shards},
            a_key="single_median_s",
            b_key="sharded_median_s",
        )
        scenarios[f"scale_count_many/{label}"] = record
        tier_speedups[label] = record["speedup"]

        def single_fit() -> list[float]:
            counter = PatternCounter(dataset)
            fit = top_down_search(counter, bound, pattern_set=workload)
            return [fit.summary.max_abs]

        def sharded_fit() -> list[float]:
            counter = ShardedPatternCounter.from_dataset(dataset, n_shards)
            fit = top_down_search(counter, bound, pattern_set=workload)
            return [fit.summary.max_abs]

        scenarios[f"scale_fit/{label}"] = _scenario(
            f"scale_fit/{label}",
            single_fit,
            sharded_fit,
            rounds,
            {"rows": rows, "queries": queries, "bound": bound,
             "shards": n_shards},
            a_key="single_median_s",
            b_key="sharded_median_s",
        )
        scenarios.update(
            _parallel_scale_scenarios(
                label, dataset, workload, n_shards, rounds, bound
            )
        )

    # Incremental refresh at the top tier: the update path is where the
    # sharded backend must win big (ROADMAP item 1's >= 3x bar).  The
    # base shards are fitted once (their caches are the surviving state
    # of a long-lived deployment); each refresh then sees one new insert
    # batch and re-answers the standing query set.
    top = max(tiers)
    label = _fmt_rows(top)
    batch_rows = max(top // 50, 1_000)
    grown = load_dataset("bluenile", n_rows=top + batch_rows, seed=0)
    base = grown.row_slice(0, top)
    batch = grown.row_slice(top, top + batch_rows)
    rng = np.random.default_rng(0)
    workload_counter = PatternCounter(base)
    workload = random_pattern_workload(
        workload_counter, queries, rng, min_arity=1, max_arity=3
    )
    patterns = [workload.pattern(i) for i in range(len(workload))]
    attr_names = base.attribute_names
    import itertools as _itertools

    attr_sets = list(_itertools.combinations(attr_names, 2))

    warm = ShardedPatternCounter.from_dataset(base, n_shards)
    warm.joint_tables(attr_sets)
    warm.count_many(patterns)
    warm_shards = list(warm.shard_counters)
    schema = base.schema
    batch_counter = PatternCounter(batch)
    full = base.concat(batch)  # built outside the timed region: the
    # monolithic path is charged for recounting, not for the row copy

    def single_refresh() -> np.ndarray:
        counter = PatternCounter(full)
        counter.joint_tables(attr_sets)
        return counter.count_many(patterns)

    def sharded_refresh() -> np.ndarray:
        counter = ShardedPatternCounter.from_counters(
            warm_shards + [batch_counter], schema
        )
        counter.joint_tables(attr_sets)
        return counter.count_many(patterns)

    # Joint-table parity of the refreshed state, checked before timing
    # (count_many parity is asserted by the scenario helper).
    single_tables = PatternCounter(full).joint_tables(attr_sets)
    sharded_tables = ShardedPatternCounter.from_counters(
        warm_shards + [batch_counter], schema
    ).joint_tables(attr_sets)
    for attrs in attr_sets:
        for left, right in zip(single_tables[attrs], sharded_tables[attrs]):
            if not np.array_equal(np.asarray(left), np.asarray(right)):
                raise AssertionError(
                    f"scale_update_refresh: joint table mismatch on {attrs}"
                )

    scenarios[f"scale_update_refresh/{label}"] = _scenario(
        f"scale_update_refresh/{label}",
        single_refresh,
        sharded_refresh,
        rounds,
        {
            "rows": top,
            "batch_rows": batch_rows,
            "queries": queries,
            "attr_sets": len(attr_sets),
            "shards": n_shards,
            "joint_tables_identical": True,
        },
        a_key="single_median_s",
        b_key="sharded_median_s",
    )

    crossover = next(
        (
            tier
            for tier, speedup in tier_speedups.items()
            if speedup is not None and speedup >= 1.0
        ),
        None,
    )
    cpu_count = os.cpu_count() or 1
    warnings: list[str] = []
    if cpu_count == 1:
        warnings.append(
            "single-CPU host (cpu_count == 1): the parallel=True thread "
            "pool cannot beat the serial path on one core — the "
            "*_parallel speedup columns in this report are not "
            "representative"
        )
    for message in warnings:
        print(f"WARNING: {message}")
    return {
        "version": 1,
        "generated_by": "benchmarks/bench_report.py --scale",
        # Top-level so report consumers can gate on host shape without
        # digging into config: parallel speedups measured on one core
        # are not representative.
        "cpu_count": cpu_count,
        "single_cpu": cpu_count == 1,
        "warnings": warnings,
        "methodology": (
            "median wall time over N rounds per path; parity asserted "
            "before timing; scale_update_refresh models an insert batch "
            "against a warm sharded deployment vs a monolithic recount; "
            "the *_parallel scenarios build a fresh 8-shard counter per "
            "round, serial vs parallel=True"
        ),
        "config": {
            "tiers": tiers,
            "queries": queries,
            "rounds": rounds,
            "bound": bound,
            "shards": n_shards,
            "cpu_count": os.cpu_count(),
        },
        "crossover": {
            "query_path_speedup_by_tier": tier_speedups,
            "first_tier_at_or_above_1x": crossover,
        },
        "scenarios": scenarios,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Scalar-vs-batch perf regression report."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale for CI: proves the runner and the JSON shape "
        "without paying full-scale timings",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="run the production-scale single-vs-sharded and "
        "serial-vs-parallel tier instead of the core scenarios (writes "
        f"{SCALE_OUTPUT.name})",
    )
    parser.add_argument(
        "--tiers",
        default=None,
        help="comma-separated row tiers for --scale "
        "(default 50000,500000,5000000; smoke 5000,20000)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=None,
        help="dataset rows (default 50000; smoke 2000)",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="workload size (default 100; smoke 50)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="timing rounds per path (default 7; smoke 3)",
    )
    parser.add_argument(
        "--bound", type=int, default=30, help="label size budget"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help=f"report path (default {DEFAULT_OUTPUT}; smoke runs do not "
        "write unless -o is given)",
    )
    args = parser.parse_args(argv)

    if args.scale:
        if args.tiers:
            tiers = [int(t) for t in args.tiers.split(",") if t.strip()]
        else:
            tiers = (
                [5_000, 20_000]
                if args.smoke
                else [50_000, 500_000, 5_000_000]
            )
        queries = args.queries or (20 if args.smoke else 100)
        rounds = args.rounds or (2 if args.smoke else 3)
        report = run_scale(tiers, queries, rounds, args.bound)
        default_output = SCALE_OUTPUT
    else:
        rows = args.rows or (2_000 if args.smoke else 50_000)
        queries = args.queries or (50 if args.smoke else 100)
        rounds = args.rounds or (3 if args.smoke else 7)
        report = run(rows, queries, rounds, args.bound)
        default_output = DEFAULT_OUTPUT

    if args.output:
        output = Path(args.output)
    elif args.smoke:
        output = None  # smoke proves the pipeline; it must not clobber
        # the committed full-scale trajectory numbers
    else:
        output = default_output
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    else:
        print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
