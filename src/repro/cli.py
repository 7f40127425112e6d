"""Command-line interface: label CSV files from the shell.

The deployment story of the paper is "metadata that travels with a found
CSV file"; this module is that workflow as a tool, built on the
:mod:`repro.api` facade:

* ``python -m repro label data.csv --bound 50 -o label.json`` — fit a
  label (any registered strategy) and write it as JSON;
* ``python -m repro label wide.csv --algorithm beam --beam-width 4`` /
  ``--algorithm anytime --time-limit 5`` — the frontier strategies of
  the unified search engine: a width-limited beam, or a budgeted
  best-first search that returns the best label found within the
  wall-clock limit (``--time-limit`` makes the exact strategies raise a
  clean timeout instead);
* ``python -m repro label big.csv --chunk-rows 100000 --shards 8`` —
  chunked fit: the CSV is streamed chunk by chunk (two-pass domain
  resolution, no whole-file ``list(reader)`` of parsed strings) and
  counted through the sharded backend.  The compact ``int32`` code
  shards do stay resident, so memory scales with coded rows, not with
  the raw CSV text;
* ``python -m repro estimate --fit-csv data.csv --bound 50 gender=F`` —
  one-shot producer mode: fit and estimate in one go, no saved label
  (``--shards``/``--chunk-rows`` work here too);
* ``python -m repro card label.json`` — render a stored label as a
  text/markdown/html nutrition card;
* ``python -m repro estimate label.json gender=Female race=Hispanic`` —
  estimate a pattern count from a stored artifact, no data needed;
* ``python -m repro estimate label.json --workload queries.json`` —
  batch-estimate a whole workload file (a JSON array of
  ``{"attr": "value", ...}`` objects) through the backend's batched
  ``estimate_many`` path, one estimate per output line (``--json`` for a
  machine-readable object instead);
* ``python -m repro pack data.csv -o mypack/`` — fit a label and write
  a ``repro-pack/1`` artifact directory: the label envelope plus the
  fitted counter state as memory-mappable numpy payloads (checksummed,
  crash-safe), the warm-start artifact of :mod:`repro.persist`;
* ``python -m repro serve label.json [more.json ...] --port 8321`` —
  publish stored labels behind the :mod:`repro.serve` HTTP endpoint
  (concurrent readers, micro-batched estimation, live ``update``);
* ``python -m repro serve --artifact-dir mypack/`` — redeploy a packed
  label in milliseconds: the envelope is read from the pack and the
  counter payloads stay unmapped until something needs exact counts;
* ``python -m repro query http://host:port gender=F`` — estimate against
  a running server (``--list`` to see what it serves, ``--workload`` for
  a batch, ``--json`` for the raw response);
* ``python -m repro profile data.csv --sensitive gender,race`` — run the
  fitness-for-use warnings against a CSV.

Label artifacts are read through the versioned envelope parser, so every
command accepts both the v2 polymorphic format and legacy bare-label
JSON.  A plain subset label is still written in the legacy bare format
by default (so published labels keep their long-lived shape); pass
``--envelope`` to write the v2 envelope, which is the only format that
can carry flexible labels.

Failures exit with a *distinct* code per failure class (and one line on
stderr), so scripts can tell a missing file from a malformed one without
parsing messages: 2 usage (argparse's own convention), 3 missing input
file, 4 malformed input file, 5 pattern/workload does not match the
label, 6 server unreachable, 7 server answered with an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from repro.api import (
    ApiError,
    LabelingSession,
    estimate_many,
    estimator_from_artifact,
    load_artifact,
    registered_strategies,
    to_artifact,
)
from repro.core.errors import evaluate_label
from repro.core.estimator import LabelEstimator
from repro.core.search import SearchTimeout
from repro.core.label import Label
from repro.core.pattern import Pattern
from repro.core.counts import PatternCounter
from repro.dataset.csvio import read_csv, read_csv_chunks
from repro.labeling.render import (
    render_label_html,
    render_label_markdown,
    render_label_text,
)
from repro.labeling.report import generate_report
from repro.labeling.warnings import profile_dataset

__all__ = [
    "main",
    "build_parser",
    "EXIT_USAGE",
    "EXIT_MISSING_FILE",
    "EXIT_MALFORMED",
    "EXIT_MISMATCH",
    "EXIT_UNAVAILABLE",
    "EXIT_REMOTE",
    "EXIT_TIMEOUT",
]

# Distinct exit code per failure class (2 is argparse's own usage code).
EXIT_USAGE = 2  # bad flag combination / malformed bindings
EXIT_MISSING_FILE = 3  # an input file does not exist
EXIT_MALFORMED = 4  # an input file exists but cannot be parsed
EXIT_MISMATCH = 5  # pattern/workload does not match the label
EXIT_UNAVAILABLE = 6  # query: the server cannot be reached
EXIT_REMOTE = 7  # query: the server answered with an error response
EXIT_TIMEOUT = 8  # an exact search strategy hit --time-limit


class CliError(SystemExit):
    """A CLI failure carrying both a message and its distinct exit code.

    ``str(exc)`` is the message (what tests match on); ``exc.code`` is
    the integer the process exits with.  The message is printed to
    stderr at raise time because the interpreter only auto-prints
    ``SystemExit`` payloads that *are* the exit status.
    """

    def __init__(self, message: str, exit_code: int) -> None:
        super().__init__(message)
        self.code = exit_code


def _fail(message: str, exit_code: int) -> NoReturn:
    print(f"repro: {message}", file=sys.stderr)
    raise CliError(message, exit_code)


#: Binding operators in scan order: two-character operators first so
#: ``age>=30`` never parses as attribute ``age>`` with operator ``=``.
_BINDING_OPS = (">=", "<=", ">", "<", "=")


def _parse_assignments(tokens: Sequence[str]) -> Pattern:
    assignments = {}
    for token in tokens:
        attribute = separator = value = ""
        for op in _BINDING_OPS:
            attribute, separator, value = token.partition(op)
            if separator:
                break
        if not separator or not attribute:
            _fail(
                "pattern bindings look like attr=value or attr>=value "
                f"(operators: {', '.join(_BINDING_OPS)}), got {token!r}",
                EXIT_USAGE,
            )
        assignments[attribute] = (
            value if separator == "=" else {separator: value}
        )
    if not assignments:
        _fail("at least one attr=value binding is required", EXIT_USAGE)
    return Pattern(assignments)


def _load_artifact_or_exit(path: str):
    try:
        return load_artifact(path)
    except FileNotFoundError:
        _fail(f"no such label file: {path}", EXIT_MISSING_FILE)
    except ApiError as exc:
        _fail(
            f"cannot read label artifact {path!r}: {exc}", EXIT_MALFORMED
        )


def _read_csv_or_exit(path: str):
    try:
        return read_csv(path)
    except FileNotFoundError:
        _fail(f"no such CSV file: {path}", EXIT_MISSING_FILE)
    except (ValueError, OSError) as exc:
        _fail(f"cannot read CSV file {path!r}: {exc}", EXIT_MALFORMED)


def _csv_source(args: argparse.Namespace, path: str):
    """The dataset source for a fit: whole-file or streamed chunks."""
    if not Path(path).exists():
        _fail(f"no such CSV file: {path}", EXIT_MISSING_FILE)
    if args.chunk_rows:
        # Chunk stream: each chunk becomes a shard of the counter.
        return read_csv_chunks(path, chunk_rows=args.chunk_rows)
    return _read_csv_or_exit(path)


def _validate_fit_flags(args: argparse.Namespace) -> None:
    if args.shards is not None and args.shards < 1:
        _fail(f"--shards must be >= 1, got {args.shards}", EXIT_USAGE)
    if args.chunk_rows is not None and args.chunk_rows < 1:
        _fail(
            f"--chunk-rows must be >= 1, got {args.chunk_rows}", EXIT_USAGE
        )
    if args.max_workers is not None and args.max_workers < 1:
        _fail(
            f"--max-workers must be >= 1, got {args.max_workers}", EXIT_USAGE
        )
    if getattr(args, "beam_width", None) is not None and args.beam_width < 1:
        _fail(
            f"--beam-width must be >= 1, got {args.beam_width}", EXIT_USAGE
        )
    if getattr(args, "time_limit", None) is not None and args.time_limit <= 0:
        _fail(
            f"--time-limit must be > 0 seconds, got {args.time_limit}",
            EXIT_USAGE,
        )


def _strategy_options(args: argparse.Namespace) -> dict:
    """Strategy config options a fit invocation asked for on the line.

    Only flags the user actually set are forwarded, so strategies whose
    configs lack them (e.g. ``naive`` has no ``beam_width``) keep
    working without the flag — and fail with the registry's
    listing-the-valid-fields error when the flag genuinely does not
    apply.
    """
    options: dict = {}
    if getattr(args, "beam_width", None) is not None:
        options["beam_width"] = args.beam_width
    if getattr(args, "time_limit", None) is not None:
        options["time_limit_seconds"] = args.time_limit
    return options


def _fit_session(args: argparse.Namespace, path: str) -> LabelingSession:
    _validate_fit_flags(args)
    # --shards unset keeps the source's natural shape (monolithic for a
    # whole-file read, one shard per chunk with --chunk-rows); an
    # explicit value — including 1, the collapse-to-monolithic spelling
    # — is forwarded as-is.
    try:
        return LabelingSession.fit(
            _csv_source(args, path),
            args.bound,
            strategy=getattr(args, "algorithm", "top_down"),
            shards=args.shards,
            parallel=args.parallel,
            max_workers=args.max_workers,
            **_strategy_options(args),
        )
    except ApiError:
        raise  # registry/strategy misuse, not a file problem
    except SearchTimeout as exc:
        # Exact strategies raise when --time-limit elapses (the anytime
        # strategy degrades instead); distinct exit code so scripts can
        # retry with a looser budget or switch to --algorithm anytime.
        _fail(
            f"label search timed out during {exc.phase} after examining "
            f"{exc.stats.subsets_examined} subsets "
            f"({exc.stats.subsets_sized} sized against the data); raise "
            "--time-limit or use --algorithm anytime",
            EXIT_TIMEOUT,
        )
    except (ValueError, OSError) as exc:
        # The chunked reader parses lazily, so a malformed CSV can
        # surface here rather than in _read_csv_or_exit; same failure
        # class, same exit code.
        _fail(f"cannot read CSV file {path!r}: {exc}", EXIT_MALFORMED)


def _cmd_label(args: argparse.Namespace) -> int:
    session = _fit_session(args, args.csv)
    if isinstance(session.artifact, Label) and not args.envelope:
        # Long-lived published shape: bare Label JSON (legacy v1).
        payload = session.artifact.to_json()
    else:
        payload = json.dumps(to_artifact(session.artifact), indent=2)
    if args.output:
        Path(args.output).write_text(payload)
    else:
        print(payload)
    result = session.result
    if result is not None:
        total = result.label.total
        exactness = (
            "" if result.is_exact else "  [budget hit: best label so far]"
        )
        print(
            f"S = {list(result.attributes)}  |PC| = {result.label.size}  "
            f"max error = {result.objective_value:g} "
            f"({100 * result.objective_value / max(total, 1):.2f}% of "
            f"{total} rows){exactness}",
            file=sys.stderr,
        )
    else:
        print(
            f"kind = {session.kind}  |PC| = {session.size}  "
            f"strategy = {session.strategy}",
            file=sys.stderr,
        )
    return 0


def _cmd_card(args: argparse.Namespace) -> int:
    artifact = _load_artifact_or_exit(args.label)
    if not isinstance(artifact, Label):
        _fail(
            "the nutrition card renders subset labels only; this artifact "
            f"is of kind {type(artifact).__name__!r} — use "
            "'repro estimate' to query it",
            EXIT_MISMATCH,
        )
    renderer = {
        "text": render_label_text,
        "markdown": render_label_markdown,
        "html": render_label_html,
    }[args.format]
    summary = None
    if args.csv:
        counter = PatternCounter(_read_csv_or_exit(args.csv))
        summary = evaluate_label(counter, artifact)
    print(renderer(artifact, summary))
    return 0


def _load_workload_or_exit(path: str) -> list[Pattern]:
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        _fail(f"no such workload file: {path}", EXIT_MISSING_FILE)
    except OSError as exc:
        _fail(f"cannot read workload file {path!r}: {exc}", EXIT_MALFORMED)
    except json.JSONDecodeError as exc:
        _fail(
            f"workload file {path!r} is not valid JSON: {exc}",
            EXIT_MALFORMED,
        )
    if not isinstance(payload, list) or not payload:
        _fail(
            f"workload file {path!r} must be a non-empty JSON array of "
            '{"attribute": "value", ...} objects',
            EXIT_MALFORMED,
        )
    patterns = []
    for position, entry in enumerate(payload):
        if not isinstance(entry, dict) or not entry:
            _fail(
                f"workload file {path!r}: entry {position} must be a "
                "non-empty JSON object of attribute/value bindings, got "
                f"{entry!r}",
                EXIT_MALFORMED,
            )
        try:
            patterns.append(Pattern(entry))
        except (TypeError, ValueError) as exc:
            _fail(
                f"workload file {path!r}: entry {position} is not a valid "
                f"pattern: {exc}",
                EXIT_MALFORMED,
            )
    return patterns


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.workload and args.bindings:
        _fail(
            "give either inline attr=value bindings or --workload, not both",
            EXIT_USAGE,
        )
    if not args.fit_csv and (
        args.shards is not None or args.chunk_rows is not None
    ):
        _fail(
            "--shards/--chunk-rows only apply to --fit-csv fits; a saved "
            "label artifact needs no counting",
            EXIT_USAGE,
        )
    if args.fit_csv:
        # One-shot producer path: fit a label straight from a CSV
        # (optionally sharded / chunk-ingested) and estimate from it —
        # the positional arguments are all pattern bindings here.
        bindings = ([args.label] if args.label else []) + list(args.bindings)
        bad = [token for token in bindings if "=" not in token]
        if bad:
            _fail(
                f"with --fit-csv the positional arguments are pattern "
                f"bindings (attr=value), got {bad[0]!r}",
                EXIT_USAGE,
            )
        if args.workload and bindings:
            _fail(
                "give either inline attr=value bindings or --workload, "
                "not both",
                EXIT_USAGE,
            )
        session = _fit_session(args, args.fit_csv)
        estimator = session.estimator
        args = argparse.Namespace(**{**vars(args), "bindings": bindings})
    else:
        if not args.label:
            _fail(
                "estimate needs a label file (or --fit-csv data.csv)",
                EXIT_USAGE,
            )
        artifact = _load_artifact_or_exit(args.label)
        try:
            estimator = estimator_from_artifact(artifact)
        except ApiError as exc:
            _fail(
                f"cannot estimate from this artifact: {exc}", EXIT_MALFORMED
            )

    if args.workload:
        patterns = _load_workload_or_exit(args.workload)
        try:
            estimates = estimate_many(estimator, patterns)
        except KeyError as exc:
            _fail(
                f"workload does not match the label: {exc}", EXIT_MISMATCH
            )
        if args.json:
            print(json.dumps({"estimates": estimates}))
        else:
            for estimate in estimates:
                print(f"{estimate:.1f}")
        return 0

    pattern = _parse_assignments(args.bindings)
    try:
        estimate = estimator.estimate(pattern)
    except KeyError as exc:
        _fail(f"pattern does not match the label: {exc}", EXIT_MISMATCH)
    is_exact = isinstance(
        estimator, LabelEstimator
    ) and estimator.is_exact_for(pattern)
    if args.json:
        print(
            json.dumps(
                {"estimates": [float(estimate)], "exact": is_exact}
            )
        )
    else:
        print(f"{estimate:.1f}{' (exact)' if is_exact else ''}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    dataset = _read_csv_or_exit(args.csv)
    sensitive = [name.strip() for name in args.sensitive.split(",")]
    warnings = profile_dataset(
        dataset,
        sensitive,
        min_share=args.min_share,
        max_share=args.max_share,
    )
    if not warnings:
        print("no findings")
        return 0
    for warning in warnings:
        print(warning)
    return 1 if args.strict else 0


def _cmd_report(args: argparse.Namespace) -> int:
    dataset = _read_csv_or_exit(args.csv)
    sensitive = (
        [name.strip() for name in args.sensitive.split(",")]
        if args.sensitive
        else None
    )
    report = generate_report(
        dataset,
        dataset_name=Path(args.csv).name,
        bound=args.bound,
        sensitive_attributes=sensitive,
    )
    document = report.to_markdown()
    if args.output:
        Path(args.output).write_text(document)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(document)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.persist import open_pack

    session = _fit_session(args, args.csv)
    name = args.name or Path(args.csv).stem
    try:
        pack_dir = session.to_pack(
            args.output, name=name, include_caches=not args.no_caches
        )
    except ApiError as exc:
        _fail(f"cannot write pack {args.output!r}: {exc}", EXIT_MALFORMED)
    except OSError as exc:
        _fail(f"cannot write pack {args.output!r}: {exc}", EXIT_MALFORMED)
    reader = open_pack(pack_dir)
    total_bytes = sum(
        entry["bytes"] for entry in reader.manifest["shards"]
    )
    print(
        f"packed {reader.total_rows} rows into {reader.n_shards} shard "
        f"file(s) ({total_bytes} bytes) + label {name!r} at {pack_dir}",
        file=sys.stderr,
    )
    print(
        f"serve it with: repro serve --artifact-dir {pack_dir}",
        file=sys.stderr,
    )
    return 0


def _open_pack_or_exit(path: str):
    from repro.persist import open_pack

    if not Path(path).exists():
        _fail(f"no such pack directory: {path}", EXIT_MISSING_FILE)
    try:
        reader = open_pack(path)
    except ApiError as exc:
        _fail(f"cannot read pack {path!r}: {exc}", EXIT_MALFORMED)
    if not reader.label_names:
        _fail(
            f"pack {path!r} holds no labels to serve; re-pack with "
            "'repro pack' (which always includes the fitted label)",
            EXIT_MALFORMED,
        )
    return reader


def _service_from_args(args: argparse.Namespace):
    """Build (not start) the LabelService a ``serve`` invocation asks for.

    Split out of :func:`_cmd_serve` so tests can assemble the exact
    service without blocking on ``serve_forever``.
    """
    from repro.serve.protocol import BadRequestError
    from repro.serve.service import LabelService

    if args.window_ms < 0:
        _fail(f"--window-ms must be >= 0, got {args.window_ms}", EXIT_USAGE)
    if args.max_batch < 1:
        _fail(f"--max-batch must be >= 1, got {args.max_batch}", EXIT_USAGE)
    if args.workers < 1:
        _fail(f"--workers must be >= 1, got {args.workers}", EXIT_USAGE)
    if args.cache_entries < 0:
        _fail(
            f"--cache-entries must be >= 0 (0 disables the cache), got "
            f"{args.cache_entries}",
            EXIT_USAGE,
        )
    if args.stream and not args.wal_dir:
        _fail("--stream requires --wal-dir DIR", EXIT_USAGE)
    if args.wal_dir and not args.stream:
        _fail("--wal-dir only makes sense with --stream", EXIT_USAGE)
    if args.artifact_dir and args.labels:
        _fail(
            "give either label artifact files or --artifact-dir, not both",
            EXIT_USAGE,
        )
    if not args.artifact_dir and not args.labels:
        _fail(
            "serve needs label artifact files (or --artifact-dir PACK)",
            EXIT_USAGE,
        )
    pack_reader = None
    names = []
    artifacts = []
    if args.artifact_dir:
        # Validated before the socket binds, like the artifact loop.
        pack_reader = _open_pack_or_exit(args.artifact_dir)
    for path in args.labels:
        artifact = _load_artifact_or_exit(path)
        name = Path(path).stem
        if name in names:
            _fail(
                f"two label files share the served name {name!r}; rename "
                "one of the files",
                EXIT_USAGE,
            )
        names.append(name)
        artifacts.append(artifact)
    try:
        service = LabelService(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_entries=args.cache_entries,
            window=args.window_ms / 1000.0,
            max_batch=args.max_batch,
            verbose=args.verbose,
        )
    except OSError as exc:
        _fail(
            f"cannot bind {args.host}:{args.port}: {exc}", EXIT_UNAVAILABLE
        )
    if pack_reader is not None:
        try:
            service.store.publish_pack(pack_reader)
        except BadRequestError as exc:
            _fail(
                f"cannot serve pack {args.artifact_dir!r}: {exc}",
                EXIT_MALFORMED,
            )
    for name, artifact in zip(names, artifacts):
        service.store.publish(name, artifact)
    if args.stream:
        _attach_streams(service, args, pack_reader)
    return service


def _attach_streams(service, args: argparse.Namespace, pack_reader) -> None:
    """Wire ``serve --stream``: replay the WAL, attach ingestors.

    Every served subset label gets a
    :class:`~repro.stream.ingest.StreamIngestor` over one shared
    write-ahead log (records carry the label name); existing log records
    are replayed on top of the loaded artifacts before the socket starts
    answering, so a crashed server restarts into exactly the state its
    last acknowledged update left.  A pack deployment serving a single
    label also re-attaches the pack's counting backend, which re-enables
    background compaction and drift-triggered re-search.
    """
    from repro.api.registry import StreamConfig
    from repro.core.label import Label
    from repro.stream.ingest import StreamIngestor
    from repro.stream.wal import WalError, WriteAheadLog

    wal = WriteAheadLog(args.wal_dir)
    try:
        replay = wal.replay()
    except WalError as exc:
        _fail(f"cannot replay WAL {args.wal_dir!r}: {exc}", EXIT_MALFORMED)
    if replay.dropped_tail:
        print(
            f"WAL: dropped torn tail ({replay.reason}); "
            f"{len(replay.records)} earlier batch(es) replay cleanly",
            file=sys.stderr,
        )
    streamable = [
        name
        for name in service.store.names()
        if isinstance(service.store.get(name).artifact, Label)
    ]
    if not streamable:
        _fail(
            "--stream needs at least one subset-label artifact (flexible "
            "and multi-label artifacts cannot be maintained exactly)",
            EXIT_USAGE,
        )
    counter = None
    if pack_reader is not None and len(streamable) == 1:
        counter = pack_reader.counter()
    for name in streamable:
        ingestor = StreamIngestor(
            service.store.get(name).artifact,
            wal=wal,
            counter=counter,
            store=service.store,
            name=name,
            config=StreamConfig(),
            replay=True,
        )
        service.attach_stream(ingestor)
    replayed = len(replay.records)
    if replayed:
        print(
            f"WAL: replayed {replayed} batch(es) from {args.wal_dir}",
            file=sys.stderr,
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    service = _service_from_args(args)
    print(
        f"serving {len(service.store)} label(s) "
        f"[{', '.join(service.store.names())}] at {service.url} — Ctrl-C "
        "to stop",
        file=sys.stderr,
    )
    if args.workers > 1 or args.cache_entries:
        cache_note = (
            f"result cache {args.cache_entries} entries"
            if args.cache_entries
            else "cache disabled"
        )
        print(
            f"scale-out: {args.workers} batch worker(s), {cache_note} "
            f"(GET {service.url}/stats)",
            file=sys.stderr,
        )
    if service.streams:
        print(
            f"streaming updates (WAL: {args.wal_dir}) for "
            f"[{', '.join(sorted(service.streams))}]",
            file=sys.stderr,
        )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("stopping", file=sys.stderr)
    finally:
        service.stop()
    return 0


def _http_json(request, timeout: float):
    """POST/GET a urllib request; map failures to distinct exit codes."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            message = payload["error"]["message"]
            code = payload["error"]["code"]
        except Exception:  # noqa: BLE001 — non-JSON error body
            message, code = exc.reason, str(exc.code)
        _fail(f"server rejected the request ({code}): {message}", EXIT_REMOTE)
    except (urllib.error.URLError, TimeoutError, ConnectionError) as exc:
        reason = getattr(exc, "reason", exc)
        _fail(f"cannot reach the server: {reason}", EXIT_UNAVAILABLE)
    except json.JSONDecodeError as exc:
        _fail(f"server sent invalid JSON: {exc}", EXIT_REMOTE)


def _cmd_query(args: argparse.Namespace) -> int:
    import urllib.parse
    import urllib.request

    from repro.serve.protocol import EstimateRequest

    base = args.url.rstrip("/")
    if "://" not in base:
        base = f"http://{base}"

    if args.list:
        catalog = _http_json(base + "/labels", args.timeout)
        if args.json:
            print(json.dumps(catalog))
        else:
            for entry in catalog.get("labels", []):
                print(
                    f"{entry['name']}  v{entry['version']}  "
                    f"kind={entry['kind']}  |PC|={entry['size']}  "
                    f"|D|={entry['total']}"
                )
        return 0

    if args.workload and args.bindings:
        _fail(
            "give either inline attr=value bindings or --workload, not both",
            EXIT_USAGE,
        )

    name = args.label
    if name is None:
        served = _http_json(base + "/labels", args.timeout).get("labels", [])
        if len(served) != 1:
            _fail(
                "the server publishes "
                f"{[entry['name'] for entry in served]}; pick one with "
                "--label",
                EXIT_USAGE,
            )
        name = served[0]["name"]

    if args.workload:
        patterns = _load_workload_or_exit(args.workload)
    else:
        patterns = [_parse_assignments(args.bindings)]
    body = EstimateRequest(label=name, patterns=tuple(patterns)).to_payload()
    quoted = urllib.parse.quote(name, safe="")
    request = urllib.request.Request(
        f"{base}/labels/{quoted}/estimate",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    payload = _http_json(request, args.timeout)
    if args.json:
        print(json.dumps(payload))
    else:
        for estimate in payload["estimates"]:
            print(f"{estimate:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pattern count-based labels for CSV datasets.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Flags shared by every command that fits a label (for estimate:
    # with --fit-csv), declared once as argparse parent parsers.
    fit_flags = argparse.ArgumentParser(add_help=False)
    fit_flags.add_argument(
        "--bound", type=int, default=50, help="size budget Bs (default 50)"
    )
    fit_flags.add_argument(
        "--shards",
        type=int,
        default=None,
        help="count through the sharded backend with N shards (one "
        "binary file per shard in a pack); unset keeps the natural "
        "shape (monolithic, or one shard per chunk with --chunk-rows); "
        "an explicit 1 forces monolithic counting",
    )
    fit_flags.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="stream the CSV in chunks of N rows (each chunk becomes a "
        "shard) instead of parsing it whole",
    )
    fit_flags.add_argument(
        "--parallel",
        action="store_true",
        help="build per-shard tables on a thread pool, one task per "
        "shard (needs 2+ shards; the output is identical to a serial fit)",
    )
    fit_flags.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="thread-pool size cap for --parallel (clamped to the "
        "shard count; default: one thread per CPU core)",
    )
    search_flags = argparse.ArgumentParser(add_help=False)
    strategies = sorted(
        set(registered_strategies()) | {"top-down"}  # legacy spelling
    )
    search_flags.add_argument(
        "--algorithm",
        "--strategy",
        dest="algorithm",
        choices=strategies,
        default="top_down",
        help="label-construction strategy (default: top_down, Algorithm 1)",
    )
    search_flags.add_argument(
        "--beam-width",
        type=int,
        default=None,
        help="frontier width for --algorithm beam (unset = unlimited, "
        "i.e. exhaustive)",
    )
    search_flags.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the search; exact strategies abort "
        "with a clean timeout, --algorithm anytime returns the best "
        "label found so far",
    )

    label = commands.add_parser(
        "label",
        parents=[fit_flags, search_flags],
        help="find the optimal label for a CSV file",
    )
    label.add_argument("csv", help="input CSV file (header row required)")
    label.add_argument(
        "--envelope",
        action="store_true",
        help="write the versioned repro-label/4 envelope instead of the "
        "legacy bare-label JSON (flexible labels always use the envelope)",
    )
    label.add_argument(
        "-o", "--output", help="write the label JSON here (default stdout)"
    )
    label.set_defaults(func=_cmd_label)

    card = commands.add_parser(
        "card", help="render a stored label as a nutrition card"
    )
    card.add_argument("label", help="label JSON file")
    card.add_argument(
        "--format",
        choices=("text", "markdown", "html"),
        default="text",
        help="output format (default text)",
    )
    card.add_argument(
        "--csv",
        help="original CSV; when given, the card includes error statistics",
    )
    card.set_defaults(func=_cmd_card)

    estimate = commands.add_parser(
        "estimate",
        parents=[fit_flags],
        help="estimate a pattern count from a label",
    )
    estimate.add_argument(
        "label",
        nargs="?",
        help="label JSON file (omit when fitting on the fly via "
        "--fit-csv, in which case every positional is a binding)",
    )
    estimate.add_argument(
        "bindings", nargs="*", help="pattern bindings, e.g. gender=Female"
    )
    estimate.add_argument(
        "--workload",
        help="JSON file with an array of {attribute: value} objects; all "
        "patterns are estimated in one batched pass, one per output line",
    )
    estimate.add_argument(
        "--fit-csv",
        help="fit a label from this CSV first and estimate from it "
        "(one-shot producer mode, no saved label needed)",
    )
    estimate.add_argument(
        "--json",
        action="store_true",
        help='machine-readable output: {"estimates": [...]} (single '
        'patterns additionally carry "exact")',
    )
    estimate.set_defaults(func=_cmd_estimate)

    pack = commands.add_parser(
        "pack",
        parents=[fit_flags, search_flags],
        help="fit a label and write a memory-mappable warm-start pack "
        "directory (repro-pack/1)",
    )
    pack.add_argument("csv", help="input CSV file (header row required)")
    pack.add_argument(
        "-o",
        "--output",
        required=True,
        help="pack directory to write (created if missing)",
    )
    pack.add_argument(
        "--name",
        default=None,
        help="served label name inside the pack (default: the CSV stem)",
    )
    pack.add_argument(
        "--no-caches",
        action="store_true",
        help="pack the code matrices only, without the warm query caches "
        "(smaller files, colder start)",
    )
    pack.set_defaults(func=_cmd_pack)

    serve = commands.add_parser(
        "serve",
        help="publish stored labels behind the HTTP serving endpoint",
    )
    serve.add_argument(
        "labels",
        nargs="*",
        help="label artifact files; each serves under its file stem "
        "(label.json -> /labels/label)",
    )
    serve.add_argument(
        "--artifact-dir",
        default=None,
        metavar="PACK",
        help="serve every label of a repro-pack/1 directory (written by "
        "'repro pack') instead of loose artifact files — the "
        "warm-start path: counter payloads stay memory-mapped and "
        "unread until needed",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port (default 8321; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="micro-batcher worker count: N independent flush loops "
        "over the lock-free label store (default 1)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=0,
        help="bound of the version-keyed result cache consulted before "
        "a request is enqueued; stale entries become unreachable on "
        "every publish (default 0 = cache disabled)",
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=1.0,
        help="micro-batch coalescing window in milliseconds (default 1.0; "
        "0 flushes immediately)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=1024,
        help="pattern count that cuts the window short (default 1024)",
    )
    serve.add_argument(
        "--stream",
        action="store_true",
        help="accept updates durably: every POST /labels/<name>/update "
        "is logged to a write-ahead log before it is applied, and a "
        "restart replays the log — requires --wal-dir",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="write-ahead-log directory for --stream (created if "
        "missing; a non-empty log is replayed before serving starts)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log one line per HTTP request to stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    query = commands.add_parser(
        "query", help="estimate against a running 'repro serve' endpoint"
    )
    query.add_argument(
        "url", help="server base URL, e.g. http://127.0.0.1:8321"
    )
    query.add_argument(
        "bindings", nargs="*", help="pattern bindings, e.g. gender=Female"
    )
    query.add_argument(
        "--label",
        help="served label name (default: the only published label)",
    )
    query.add_argument(
        "--workload",
        help="JSON workload file (array of {attribute: value} objects), "
        "sent as one batched request",
    )
    query.add_argument(
        "--list",
        action="store_true",
        help="list the served labels instead of estimating",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="print the server's raw JSON response",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="HTTP timeout in seconds (default 10)",
    )
    query.set_defaults(func=_cmd_query)

    profile = commands.add_parser(
        "profile", help="fitness-for-use warnings for a CSV file"
    )
    profile.add_argument("csv", help="input CSV file")
    profile.add_argument(
        "--sensitive",
        required=True,
        help="comma-separated sensitive attributes",
    )
    profile.add_argument(
        "--min-share",
        type=float,
        default=0.01,
        help="under-representation threshold (default 0.01)",
    )
    profile.add_argument(
        "--max-share",
        type=float,
        default=0.5,
        help="skew threshold (default 0.5)",
    )
    profile.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 1 when any warning fires",
    )
    profile.set_defaults(func=_cmd_profile)

    report = commands.add_parser(
        "report",
        help="full Markdown report: profile + label + warnings",
    )
    report.add_argument("csv", help="input CSV file")
    report.add_argument(
        "--bound", type=int, default=50, help="label size budget (default 50)"
    )
    report.add_argument(
        "--sensitive",
        help="comma-separated sensitive attributes "
        "(default: the optimal label's subset)",
    )
    report.add_argument(
        "-o", "--output", help="write the Markdown here (default stdout)"
    )
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (``python -m repro ...``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
