#!/usr/bin/env python3
"""End-to-end benchmark of the repro CLI, its HTTP server and its WAL.

    python3 perfbench/run.py --workload fit_compas|serve_zipf|stream_rw \\
        --seed N --seconds S --trace 0|1

Workloads (all inputs derive from ``--seed``):

* ``fit_compas`` — generate a COMPAS-shaped CSV (60,843 rows x 17
  attributes), then run ``repro pack <csv> --bound 50`` on it as a child
  process; repeat with a fresh dataset until the packs took
  ``--seconds``.
* ``serve_zipf`` — ``repro serve --artifact-dir <pack> --workers 2
  --cache-entries 1024``; two closed-loop keep-alive connections send
  single-pattern estimates drawn Zipf(1.3) from 2,000 patterns, after an
  untimed warm-up of the cache with the stream's prefix.
* ``stream_rw`` — the same server with ``--stream --wal-dir``; one
  connection posts a fixed sequence of 256-row insert batches while the
  other posts 64-pattern estimates from a pool far larger than the
  cache.  Each cycle (fresh server and WAL, the same batches) ends with
  a SIGKILL and a restart on the WAL; cycles repeat until the writers
  took ``--seconds``.

Every end-to-end metric is printed by every workload, each measured on
that workload's own phase (``perfbench/layers.json`` defines each one
per workload).  ``--trace 1`` runs the workload once untraced and once
through ``perfbench/launch.py`` and prints the per-layer metrics.

Every answer is checked outside the timed phases; a wrong answer is a
failed operation and makes the run exit 1 after printing its result.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compas  # noqa: E402
import loadgen  # noqa: E402
import procs  # noqa: E402
from procs import ROOT, BenchError  # noqa: E402
from spans import Trace  # noqa: E402

BOUND = 50
LABEL = "compas"
BATCH_ROWS = 256
SERVE_FLAGS = ["--workers", "2", "--cache-entries", "1024"]
CHECK_PATTERNS = 2000
PROBE_PATTERNS = 256
SETUP_SAMPLES = 7

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Run:
    """State of one invocation: temp dir, children, checks, counters."""

    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.traced = False
        self.tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}"
        self.children = []
        self.trace_files = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.interference = procs.Interference()
        self.loadgen = [0.0, 0.0, 0]  # cpu s, wall s, requests
        self.layer = {}
        self.client_ms = {}  # estimate request id -> client latency
        self.inject = args.inject_wrong

    def spawn(self, args, traced=True):
        trace_file = None
        if traced and self.traced:
            trace_file = self.tmp / f"trace-{len(self.trace_files)}.json"
            self.trace_files.append(trace_file)
        child = procs.Child(args, trace_file)
        self.children.append(child)
        return child

    def check(self, ok, message):
        """One attempted operation; ``ok`` false counts it failed."""
        self.attempted += 1
        if self.inject and ok:
            ok, self.inject = False, False
            message = "injected wrong answer"
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    def close(self):
        for child in self.children:
            child.stop(signal.SIGKILL)
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


# -- shared steps ----------------------------------------------------------------


def _ms(records):
    return [(r[3] - r[2]) / 1e6 for r in records]


def _answer(status, body):
    """The decoded JSON of a 200 response, else ``{}``."""
    try:
        return json.loads(body) if status == 200 else {}
    except ValueError:
        return {}


def _p90(values):
    return float(np.percentile(values, 90))


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _write_csv(path, data):
    text = compas.csv_text(*data)
    path.write_text(text)
    return len(text.encode())


def pack(run, csv, out, traced=True):
    """Run ``repro pack``; returns ``(wall s, peak RSS MB)``."""
    child = run.spawn(["pack", csv, "--bound", BOUND, "-o", out,
                       "--name", LABEL], traced)
    code = child.wait_exit(170)
    wall = time.perf_counter() - child.started
    if code != 0:
        raise BenchError(f"repro pack exited with {code}")
    return wall, child.rusage.ru_maxrss / 1024.0


def prepare(run, rows):
    """Seeded data, its CSV and an untraced pack (inputs, before timing)."""
    run.tmp.mkdir(parents=True, exist_ok=True)
    data = compas.generate(rows, run.seed)
    csv = run.tmp / "compas.csv"
    csv_bytes = _write_csv(csv, data)
    pack_dir = run.tmp / "pack"
    if not pack_dir.exists():
        pack(run, csv, pack_dir, traced=False)
    return data, csv_bytes, pack_dir


def check_workload(run, data):
    rng = np.random.default_rng([run.seed, 3])
    return compas.sample_patterns(rng, *data, CHECK_PATTERNS, max_arity=4,
                                  range_share=0.25)


def session_of(pack_dir):
    from repro import LabelingSession

    return LabelingSession.from_pack(pack_dir)


def estimates(session, patterns):
    from repro import Pattern

    return session.estimate_many([Pattern(p) for p in patterns])


def probe(run, child, port, request, expected, timeout=120.0):
    """Seconds from spawn to the first correct answer (1 ms retries)."""
    deadline = time.monotonic() + timeout
    while True:
        if not child.alive():
            raise BenchError("server exited during start-up")
        try:
            conn = loadgen.Connection(port, timeout)
        except ConnectionRefusedError:
            if time.monotonic() > deadline:
                raise BenchError("server did not start listening") from None
            time.sleep(0.001)
            continue
        try:
            _, status, body = conn.send(request)
        finally:
            conn.close()
        ready = time.perf_counter() - child.started
        run.check(_answer(status, body).get("estimates") == expected,
                  f"start-up probe answered {status}: {body[:200]!r}")
        return ready


def serve(run, args, probe_request, expected):
    """Spawn a server, wait for its first correct answer."""
    port = procs.free_port()
    child = run.spawn([*args, "--port", port])
    return child, port, probe(run, child, port, probe_request, expected)


def get_json(port, path):
    conn = loadgen.Connection(port)
    try:
        return conn.get_json(path)
    finally:
        conn.close()


def closed_loop(run, loops, *, seconds=None, until=None):
    """Run client loops for ``seconds`` or until ``until`` finishes."""
    run.interference.begin(run.children)
    cpu, wall = time.process_time(), time.perf_counter()
    for loop in loops:
        loop.start()
    if until is not None:
        until.join()
    else:
        time.sleep(seconds)
    for loop in loops:
        loop.stop()
    for loop in loops:
        loop.join()
    run.loadgen[0] += time.process_time() - cpu
    run.loadgen[1] += time.perf_counter() - wall
    run.loadgen[2] += sum(len(loop.records) for loop in loops)
    run.interference.end(run.children)
    for loop in loops:
        if loop.error is not None:
            raise BenchError(f"load generator failed: {loop.error!r}")


def cache_stats(before, after):
    """Cache and batcher ratios over a phase, from ``GET /stats``."""
    c0, c1 = before["cache"], after["cache"]
    w0, w1 = before["workers"]["totals"], after["workers"]["totals"]
    hits = c1["hits"] - c0["hits"]
    lookups = hits + c1["misses"] - c0["misses"]
    admitted = c1["admitted"] - c0["admitted"]
    offered = admitted + (c1["rejected_admissions"]
                          - c0["rejected_admissions"])
    patterns = w1["patterns"] - w0["patterns"]
    calls = w1["kernel_calls"] - w0["kernel_calls"]
    collapsed = w1["collapsed_duplicates"] - w0["collapsed_duplicates"]
    return {
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.cache_admit_ratio": admitted / offered if offered else 0.0,
        "serve.patterns_per_kernel_call": patterns / calls if calls else 0.0,
        "serve.collapsed_ratio": collapsed / patterns if patterns else 0.0,
    }


# -- workloads -------------------------------------------------------------------


def fit_compas(run):
    """Each pack fits its own dataset, drawn under the i-th seed derived
    from the workload seed: the pack child's peak RSS jumps by ~40 MB
    between datasets of the same shape, so a run averages it over the
    datasets it packs.  Quality and size come from the first dataset."""
    rows = run.args.rows
    run.tmp.mkdir(parents=True, exist_ok=True)
    seeds = np.random.default_rng([run.seed, 5]).integers(1 << 31, size=64)
    setup, walls, rss, packs = [], [], [], []

    def generate(i):
        start = time.perf_counter()
        data = compas.generate(rows, int(seeds[i]))
        csv = run.tmp / f"compas{i}.csv"
        csv_bytes = _write_csv(csv, data)
        setup.append(time.perf_counter() - start)
        return data, csv, csv_bytes

    while sum(walls) < run.args.seconds:
        data, csv, csv_bytes = generate(len(packs))
        out = run.tmp / f"pack{len(packs)}"
        run.interference.begin(run.children)
        wall, mb = pack(run, csv, out)
        run.interference.end(run.children)
        walls.append(wall)
        rss.append(mb)
        packs.append((out, data, csv_bytes))
    while len(setup) < SETUP_SAMPLES:
        generate(len(packs))

    from repro.persist.pack import open_pack, verify_pack

    for out, data, _ in packs:
        try:
            verify_pack(out)
            label = open_pack(out).load_label(LABEL)
        except Exception as exc:  # noqa: BLE001 — a broken pack fails
            run.check(False, f"{out.name}: {exc!r}")
            continue
        pcs = [dict(zip(label.attributes, combo)) for combo in label.pc]
        run.check(list(label.pc.values()) == compas.count(pcs, *data),
                  f"{out.name}: stored counts differ from brute force")
    out, data, csv_bytes = packs[0]
    pack_bytes = _dir_bytes(out)
    workload = check_workload(run, data)
    est = estimates(session_of(out), workload)
    max_abs, mean_q = compas.error_summary(est, compas.count(workload, *data))
    for out, _, _ in packs:
        shutil.rmtree(out)
    run.layer["persist.pack_bytes"] = pack_bytes
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_p90_ms": _p90(walls) * 1e3,
        "items_per_s": rows * len(walls) / sum(walls),
        "peak_rss_mb": statistics.fmean(rss),
        "label_max_abs_error": max_abs,
        "label_mean_q_error": mean_q,
        "disk_bytes_ratio": pack_bytes / csv_bytes,
    }


def serve_zipf(run):
    data, csv_bytes, pack_dir = prepare(run, run.args.rows)
    rng = np.random.default_rng([run.seed, 1])
    pool = compas.sample_patterns(rng, *data, 2000, max_arity=3,
                                  range_share=0.25)
    expected = estimates(session_of(pack_dir), pool)
    requests = [loadgen.estimate_request(LABEL, [p]) for p in pool]
    weights = np.arange(1, len(pool) + 1, dtype=float) ** -1.3
    ranked = rng.permutation(len(pool))
    stream = ranked[rng.choice(len(pool), 2 * 20_000 + 2000,
                               p=weights / weights.sum())]
    warm, streams = stream[:2000], [stream[2000::2], stream[2001::2]]

    args = ["serve", "--artifact-dir", pack_dir, *SERVE_FLAGS]
    setup = []
    for _ in range(SETUP_SAMPLES):
        child, port, ready = serve(run, args, requests[0], [expected[0]])
        setup.append(ready)
        if len(setup) < SETUP_SAMPLES:
            child.stop()

    conn = loadgen.Connection(port)
    distinct = list(dict.fromkeys(warm.tolist()))
    for at in range(0, len(distinct), 64):
        chunk = distinct[at:at + 64]
        _, status, body = conn.send(
            loadgen.estimate_request(LABEL, [pool[i] for i in chunk]))
        run.check(_answer(status, body).get("estimates")
                  == [expected[i] for i in chunk], "warm-up answer wrong")
    conn.close()

    before = get_json(port, "/stats")
    loops = [loadgen.Loop(port, [requests[i] for i in s]) for s in streams]
    closed_loop(run, loops, seconds=run.args.seconds)
    after = get_json(port, "/stats")
    rss = child.peak_rss_mb()
    child.stop()

    records = []
    for loop, sequence in zip(loops, streams):
        for record in loop.records:
            want = expected[sequence[record[0]]]
            status, body = record[4], record[5]
            answer = _answer(status, body)
            run.check(answer.get("estimates") == [want]
                      and answer.get("version") == 1,
                      f"estimate answered {status}: {body[:200]!r}")
            records.append(record)
    run.layer.update(cache_stats(before, after))
    run.client_ms = {r[1]: (r[3] - r[2]) / 1e6 for r in records}
    latency = _ms(records)
    span = (max(r[3] for r in records) - min(r[2] for r in records)) / 1e9
    max_abs, mean_q = compas.error_summary(expected,
                                           compas.count(pool, *data))
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(latency),
        "latency_p90_ms": _p90(latency),
        "items_per_s": len(records) / span,
        "peak_rss_mb": rss,
        "label_max_abs_error": max_abs,
        "label_mean_q_error": mean_q,
        "disk_bytes_ratio": _dir_bytes(pack_dir) / csv_bytes,
    }


def _insert_stream(run, data, n_rows):
    """Insert rows from the generator under a derived seed, restricted to
    values the packed domains already hold."""
    names, domains, codes = data
    present = [np.isin(np.arange(len(d)), codes[:, j])
               for j, d in enumerate(domains)]
    seed = int(np.random.default_rng([run.seed, 2]).integers(1 << 31))
    _, _, fresh = compas.generate(2 * n_rows, seed)
    keep = np.all([present[j][fresh[:, j]] for j in range(len(names))],
                  axis=0)
    fresh = fresh[keep][:n_rows]
    if len(fresh) < n_rows:
        raise BenchError("insert stream too short after domain filter")
    return fresh


def _versions(session, attributes, batches):
    """In-process labels after 0..n batches (served versions 2..n+2)."""
    from repro import LabelingSession
    from repro.dataset.table import Dataset

    labels = [session.artifact]
    for rows in batches:
        session.update(inserted=Dataset.from_rows(
            list(attributes), [tuple(r[a] for a in attributes)
                               for r in rows]))
        labels.append(session.artifact)
    return [LabelingSession(label) for label in labels]


def _ask(conn, patterns):
    """Estimates for ``patterns`` in 64-pattern requests."""
    answers = []
    for at in range(0, len(patterns), 64):
        _, status, body = conn.send(
            loadgen.estimate_request(LABEL, patterns[at:at + 64]))
        answers += _answer(status, body).get("estimates", [None])
    return answers


def stream_rw(run):
    data, csv_bytes, pack_dir = prepare(run, run.args.rows)
    names, domains, codes = data
    n_batches = run.args.batches
    fresh = _insert_stream(run, data, n_batches * BATCH_ROWS)
    batches = [compas.rows_as_dicts(names, domains, fresh[at:at + BATCH_ROWS])
               for at in range(0, len(fresh), BATCH_ROWS)]
    updates = [loadgen.post(f"/labels/{LABEL}/update",
                            json.dumps({"inserted": rows}).encode())
               for rows in batches]
    rng = np.random.default_rng([run.seed, 4])
    pool = compas.sample_patterns(rng, *data, 16_384, max_arity=3,
                                  range_share=0.5)
    picks = rng.integers(len(pool), size=(512, 64))
    reads = [loadgen.estimate_request(LABEL, [pool[i] for i in row])
             for row in picks]
    workload = check_workload(run, data)
    base = session_of(pack_dir)
    versions = _versions(base, base.artifact.attribute_order, batches)
    final = estimates(versions[-1], workload)
    first = estimates(versions[0], workload[:1])
    probe_request = loadgen.estimate_request(LABEL, workload[:1])
    inserted_csv = len(compas.csv_text(names, domains, fresh).encode()) - len(
        compas.csv_text(names, domains, fresh[:0]).encode())

    args = ["serve", "--artifact-dir", pack_dir, *SERVE_FLAGS, "--stream"]
    setup, recovery, rss, wal_bytes, writes, readings = [], [], [], [], [], []
    writer_s = 0.0
    for _ in range(SETUP_SAMPLES - 2):
        wal = run.tmp / f"wal-{len(run.children)}"
        child, _, ready = serve(run, [*args, "--wal-dir", wal],
                                probe_request, first)
        setup.append(ready)
        child.stop()
        shutil.rmtree(wal)
    while writer_s < run.args.seconds:
        wal = run.tmp / f"wal-{len(run.children)}"
        child, port, ready = serve(run, [*args, "--wal-dir", wal],
                                   probe_request, first)
        setup.append(ready)
        writer = loadgen.Loop(port, updates, limit=n_batches)
        reader = loadgen.Loop(port, reads)
        before = get_json(port, "/stats")
        closed_loop(run, [writer, reader], until=writer)
        after = get_json(port, "/stats")
        rss.append(child.peak_rss_mb())
        wal_bytes.append(_dir_bytes(wal))
        writes += writer.records
        readings += reader.records
        writer_s += (writer.records[-1][3] - writer.records[0][2]) / 1e9
        for at, record in enumerate(writer.records):
            payload = _answer(record[4], record[5])
            run.check(payload.get("seq") == at + 1
                      and payload.get("streamed") is True,
                      f"update answered {record[4]}: {record[5][:200]!r}")
        served = get_json(port, f"/labels/{LABEL}")
        conn = loadgen.Connection(port)
        answers = _ask(conn, workload[:PROBE_PATTERNS])
        conn.close()
        run.check(answers == final[:PROBE_PATTERNS],
                  "answers after the stream are wrong")
        run.check(served["version"] == n_batches + 2,
                  f"label version {served['version']} != 2 + batches "
                  "(a re-search published)")

        child.dump_trace()
        child.stop(signal.SIGKILL)
        child, port, ready = serve(run, [*args, "--wal-dir", wal],
                                   probe_request, [final[0]])
        recovery.append(ready)
        conn = loadgen.Connection(port)
        replayed = _ask(conn, workload[:PROBE_PATTERNS])
        conn.close()
        total = get_json(port, f"/labels/{LABEL}")["total"]
        run.check(replayed == answers
                  and total == len(codes) + n_batches * BATCH_ROWS,
                  "state after SIGKILL and WAL replay differs")
        child.stop()
        shutil.rmtree(wal)
        run.layer.update(cache_stats(before, after))

    expect = {}
    for index, _, _, _, status, body in readings:
        payload = _answer(status, body)
        version = payload.get("version", -1)
        if 2 <= version < len(versions) + 2:
            key = (version, index)
            if key not in expect:
                expect[key] = estimates(versions[version - 2],
                                        [pool[i] for i in picks[index]])
            ok = payload.get("estimates") == expect[key]
        else:
            ok = False
        run.check(ok, f"read answered {status} at version {version}")
    run.client_ms = {r[1]: (r[3] - r[2]) / 1e6 for r in readings}
    acked = len(writes) * BATCH_ROWS
    updated = _ms(writes)
    run.layer.update({
        "loadgen.update_p50_ms": statistics.median(updated),
        "loadgen.update_p90_ms": _p90(updated),
        "stream.wal_bytes_per_row": wal_bytes[-1] / (n_batches * BATCH_ROWS),
        "stream.recovery_s": statistics.median(recovery),
    })
    latency = _ms(readings)
    truth = compas.count(workload, names, domains,
                         np.concatenate([codes, fresh]))
    max_abs, mean_q = compas.error_summary(final, truth)
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(latency),
        "latency_p90_ms": _p90(latency),
        "items_per_s": acked / writer_s,
        "peak_rss_mb": statistics.median(rss),
        "label_max_abs_error": max_abs,
        "label_mean_q_error": mean_q,
        "disk_bytes_ratio": (_dir_bytes(pack_dir) + wal_bytes[-1])
        / (csv_bytes + inserted_csv),
    }


WORKLOADS = {"fit_compas": fit_compas, "serve_zipf": serve_zipf,
             "stream_rw": stream_rw}


# -- entry point -----------------------------------------------------------------


def per_layer(run, e2e_plain, e2e_traced):
    trace = Trace(run.trace_files)
    metrics = trace.layer_metrics(run.client_ms)
    metrics.update(run.layer)
    cpu, wall, requests = run.loadgen
    metrics.update({
        "loadgen.cpu_share": cpu / wall if wall else 0.0,
        "loadgen.cpu_us_per_req": cpu / requests * 1e6 if requests else 0.0,
        "host.steal_s": run.interference.steal_s,
        "host.foreign_cpu_s": run.interference.foreign_cpu_s,
        "trace.latency_p50_ms": e2e_traced["latency_p50_ms"],
        "trace.overhead_ratio": e2e_traced["latency_p50_ms"]
        / e2e_plain["latency_p50_ms"] - 1.0,
    })
    return {name: metrics.get(name, 0.0) for name in LAYER_UNITS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=compas.ROWS,
                        help="rows of the generated relation")
    parser.add_argument("--batches", type=int, default=112,
                        help="insert batches per stream_rw cycle")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="count one correct answer as wrong (tests "
                        "the checker)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print("perfbench: no repro sources under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the in-process answer checks
    run = Run(args)
    workload = WORKLOADS[args.workload]
    try:
        procs.refuse_leftovers()
        shutil.rmtree(run.tmp, ignore_errors=True)
        waited = procs.wait_quiet()
        values = workload(run)
        units = E2E_UNITS
        if args.trace:
            plain, run.traced = values, True
            run.layer, run.loadgen = {}, [0.0, 0.0, 0]
            run.interference = procs.Interference()
            values = per_layer(run, plain, workload(run))
            units = LAYER_UNITS
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 2
    finally:
        run.close()
    print(f"interference: waited {waited:.2f} s for a quiet host; during "
          f"the measured phases steal {run.interference.steal_s:.3f} s, "
          f"foreign cpu {run.interference.foreign_cpu_s:.3f} s",
          file=sys.stderr)
    for problem in run.problems:
        print(f"wrong: {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
