"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro import write_csv
from repro.cli import main


@pytest.fixture
def csv_path(tmp_path, figure2):
    path = tmp_path / "data.csv"
    write_csv(figure2, path)
    return path


@pytest.fixture
def label_path(tmp_path, csv_path):
    out = tmp_path / "label.json"
    main(["label", str(csv_path), "--bound", "5", "-o", str(out)])
    return out


class TestLabelCommand:
    def test_writes_valid_label_json(self, label_path):
        payload = json.loads(label_path.read_text())
        assert payload["attributes"] == ["age group", "marital status"]
        assert payload["total"] == 18
        assert len(payload["pc"]) <= 5

    def test_stdout_mode(self, csv_path, capsys):
        assert main(["label", str(csv_path), "--bound", "5"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["total"] == 18

    def test_naive_algorithm_flag(self, csv_path, tmp_path):
        out = tmp_path / "naive.json"
        code = main(
            [
                "label",
                str(csv_path),
                "--bound",
                "5",
                "--algorithm",
                "naive",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["attributes"] == [
            "age group",
            "marital status",
        ]

    def test_sharded_and_chunked_label_matches_monolithic(
        self, csv_path, tmp_path, label_path
    ):
        out = tmp_path / "sharded.json"
        code = main(
            [
                "label",
                str(csv_path),
                "--bound",
                "5",
                "--shards",
                "3",
                "--chunk-rows",
                "5",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == label_path.read_text()

    def test_parallel_label_matches_serial(self, csv_path, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        fit = ["label", str(csv_path), "--bound", "5", "--shards", "3"]
        assert main([*fit, "-o", str(serial)]) == 0
        assert (
            main([*fit, "--parallel", "--max-workers", "2",
                  "-o", str(parallel)])
            == 0
        )
        assert parallel.read_text() == serial.read_text()

    def test_max_workers_below_one_is_a_usage_error(self, csv_path):
        from repro.cli import EXIT_USAGE

        with pytest.raises(SystemExit) as info:
            main(["label", str(csv_path), "--shards", "3", "--parallel",
                  "--max-workers", "0"])
        assert info.value.code == EXIT_USAGE

    def test_envelope_flag_writes_current_format(self, csv_path, tmp_path):
        out = tmp_path / "envelope.json"
        code = main(
            ["label", str(csv_path), "--bound", "5", "--envelope", "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-label/4"
        assert payload["kind"] == "label"

    def test_greedy_flexible_strategy_writes_envelope(
        self, csv_path, tmp_path
    ):
        out = tmp_path / "flex.json"
        code = main(
            [
                "label",
                str(csv_path),
                "--bound",
                "5",
                "--algorithm",
                "greedy_flexible",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "flexible"


class TestCardCommand:
    def test_text_card(self, label_path, capsys):
        assert main(["card", str(label_path)]) == 0
        out = capsys.readouterr().out
        assert "Total size: 18" in out

    def test_markdown_card(self, label_path, capsys):
        main(["card", str(label_path), "--format", "markdown"])
        assert "| Attribute |" in capsys.readouterr().out

    def test_html_card(self, label_path, capsys):
        main(["card", str(label_path), "--format", "html"])
        assert "<table>" in capsys.readouterr().out

    def test_card_with_csv_includes_errors(
        self, label_path, csv_path, capsys
    ):
        main(["card", str(label_path), "--csv", str(csv_path)])
        assert "Maximal error" in capsys.readouterr().out

    def test_card_rejects_flexible_artifact(self, csv_path, tmp_path):
        out = tmp_path / "flex.json"
        main(
            [
                "label",
                str(csv_path),
                "--bound",
                "5",
                "--algorithm",
                "greedy_flexible",
                "-o",
                str(out),
            ]
        )
        with pytest.raises(SystemExit, match="subset labels only"):
            main(["card", str(out)])


class TestEstimateCommand:
    def test_exact_estimate(self, label_path, capsys):
        code = main(
            [
                "estimate",
                str(label_path),
                "age group=20-39",
                "marital status=married",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "6.0 (exact)"

    def test_estimate_outside_s(self, label_path, capsys):
        main(["estimate", str(label_path), "gender=Female"])
        out = capsys.readouterr().out.strip()
        assert out.startswith("9.0")

    def test_bad_binding_rejected(self, label_path):
        with pytest.raises(SystemExit, match="attr=value"):
            main(["estimate", str(label_path), "not-a-binding"])

    def test_flexible_artifact_estimates(self, csv_path, tmp_path, capsys):
        out = tmp_path / "flex.json"
        main(
            [
                "label",
                str(csv_path),
                "--bound",
                "5",
                "--algorithm",
                "greedy_flexible",
                "-o",
                str(out),
            ]
        )
        code = main(["estimate", str(out), "gender=Female"])
        assert code == 0
        assert capsys.readouterr().out.strip().startswith("9.0")

    def test_fit_csv_one_shot_estimate(self, csv_path, capsys):
        code = main(
            [
                "estimate",
                "--fit-csv",
                str(csv_path),
                "--bound",
                "5",
                "gender=Female",
            ]
        )
        assert code == 0
        assert float(capsys.readouterr().out.split()[0]) > 0

    def test_fit_csv_sharded_matches_plain(self, csv_path, capsys):
        main(["estimate", "--fit-csv", str(csv_path), "--bound", "5",
              "gender=Female"])
        plain = capsys.readouterr().out
        main(["estimate", "--fit-csv", str(csv_path), "--bound", "5",
              "--shards", "3", "--chunk-rows", "6", "gender=Female"])
        assert capsys.readouterr().out == plain

    def test_fit_csv_rejects_non_binding_positional(self, csv_path):
        with pytest.raises(SystemExit, match="bindings"):
            main(["estimate", "--fit-csv", str(csv_path), "notabinding"])

    def test_estimate_without_label_or_fit_csv(self):
        with pytest.raises(SystemExit, match="label file"):
            main(["estimate"])

    def test_shard_flags_without_fit_csv_rejected(self, label_path):
        with pytest.raises(SystemExit, match="only apply to --fit-csv"):
            main(["estimate", "--shards", "4", str(label_path),
                  "gender=Female"])
        with pytest.raises(SystemExit, match="only apply to --fit-csv"):
            main(["estimate", "--chunk-rows", "10", str(label_path),
                  "gender=Female"])

    def test_invalid_shard_values_rejected(self, csv_path):
        with pytest.raises(SystemExit, match="--shards must be"):
            main(["label", str(csv_path), "--shards", "0"])
        with pytest.raises(SystemExit, match="--chunk-rows must be"):
            main(["label", str(csv_path), "--chunk-rows", "0"])
        with pytest.raises(SystemExit, match="--shards must be"):
            main(["estimate", "--fit-csv", str(csv_path), "--shards", "-2",
                  "gender=Female"])

    def test_unknown_kind_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"format": "repro-label/2", "kind": "sketch"})
        )
        with pytest.raises(SystemExit, match="unknown artifact kind"):
            main(["estimate", str(bad), "gender=Female"])

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such label file"):
            main(["estimate", str(tmp_path / "nope.json"), "g=F"])


class TestReportCommand:
    def test_report_to_stdout(self, csv_path, capsys):
        code = main(["report", str(csv_path), "--bound", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# Dataset report: data.csv")
        assert "## Attribute profile" in out
        assert "## Pattern count-based label" in out

    def test_report_to_file(self, csv_path, tmp_path):
        out = tmp_path / "report.md"
        code = main(
            [
                "report",
                str(csv_path),
                "--bound",
                "5",
                "--sensitive",
                "gender,race",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert "Fitness-for-use warnings" in out.read_text()


class TestProfileCommand:
    def test_reports_warnings(self, csv_path, capsys):
        code = main(
            [
                "profile",
                str(csv_path),
                "--sensitive",
                "gender,race",
                "--min-share",
                "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "underrepresented" in out

    def test_strict_mode_nonzero_exit(self, csv_path):
        code = main(
            [
                "profile",
                str(csv_path),
                "--sensitive",
                "gender,race",
                "--min-share",
                "0.2",
                "--strict",
            ]
        )
        assert code == 1

    def test_no_findings(self, csv_path, capsys):
        code = main(
            [
                "profile",
                str(csv_path),
                "--sensitive",
                "gender",
                "--min-share",
                "0.0",
                "--max-share",
                "0.99",
            ]
        )
        assert code == 0
        assert "no findings" in capsys.readouterr().out


class TestEstimateWorkloadBatch:
    """The --workload batch path: estimate_many over a query file."""

    @pytest.fixture
    def workload_path(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                [
                    {"age group": "20-39", "marital status": "married"},
                    {"gender": "Female"},
                    {"gender": "Male", "race": "Caucasian"},
                ]
            )
        )
        return path

    def test_batch_matches_inline_estimates(
        self, label_path, workload_path, capsys
    ):
        assert main(
            ["estimate", str(label_path), "--workload", str(workload_path)]
        ) == 0
        batch_lines = capsys.readouterr().out.strip().splitlines()
        assert len(batch_lines) == 3

        inline = []
        for bindings in (
            ["age group=20-39", "marital status=married"],
            ["gender=Female"],
            ["gender=Male", "race=Caucasian"],
        ):
            main(["estimate", str(label_path)] + bindings)
            inline.append(
                capsys.readouterr().out.strip().split(" ")[0]
            )
        assert batch_lines == inline

    def test_workload_through_any_registered_algorithm(
        self, csv_path, workload_path, tmp_path, capsys
    ):
        """--algorithm dispatch ends in the same batch estimate path."""
        for algorithm in ("naive", "top-down", "greedy_flexible"):
            out = tmp_path / f"{algorithm}.json"
            assert main(
                [
                    "label",
                    str(csv_path),
                    "--bound",
                    "5",
                    "--algorithm",
                    algorithm,
                    "-o",
                    str(out),
                ]
            ) == 0
            capsys.readouterr()  # drop the label summary
            assert main(
                ["estimate", str(out), "--workload", str(workload_path)]
            ) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 3, algorithm
            assert all(float(line) >= 0 for line in lines), algorithm

    def test_range_operator_inline_matches_workload_file(
        self, label_path, tmp_path, capsys
    ):
        """`attr>=value` inline == `{attr: {">=": value}}` in a file."""
        assert main(
            [
                "estimate",
                str(label_path),
                "age group>=under 20",
                "gender=Female",
            ]
        ) == 0
        inline = capsys.readouterr().out.strip().split(" ")[0]

        workload = tmp_path / "ranged.json"
        workload.write_text(
            json.dumps(
                [{"age group": {">=": "under 20"}, "gender": "Female"}]
            )
        )
        assert main(
            ["estimate", str(label_path), "--workload", str(workload)]
        ) == 0
        assert capsys.readouterr().out.strip() == inline

    def test_unknown_operator_token_is_usage_error(self, label_path):
        with pytest.raises(SystemExit, match="attr>=value"):
            main(["estimate", str(label_path), "gender~Female"])

    def test_invalid_json_is_a_clean_error(self, label_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["estimate", str(label_path), "--workload", str(bad)])

    def test_non_array_payload_rejected(self, label_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gender": "Female"}))
        with pytest.raises(SystemExit, match="non-empty JSON array"):
            main(["estimate", str(label_path), "--workload", str(bad)])

    def test_non_object_entry_rejected(self, label_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"gender": "Female"}, ["race", "x"]]))
        with pytest.raises(SystemExit, match="entry 1"):
            main(["estimate", str(label_path), "--workload", str(bad)])

    def test_empty_pattern_entry_rejected(self, label_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{}]))
        with pytest.raises(SystemExit, match="entry 0"):
            main(["estimate", str(label_path), "--workload", str(bad)])

    def test_missing_workload_file(self, label_path, tmp_path):
        with pytest.raises(SystemExit, match="no such workload file"):
            main(
                [
                    "estimate",
                    str(label_path),
                    "--workload",
                    str(tmp_path / "nope.json"),
                ]
            )

    def test_bindings_and_workload_conflict(
        self, label_path, workload_path
    ):
        with pytest.raises(SystemExit, match="not both"):
            main(
                [
                    "estimate",
                    str(label_path),
                    "gender=Female",
                    "--workload",
                    str(workload_path),
                ]
            )


class TestExitCodes:
    """Every failure class exits with its own distinct non-zero code."""

    def _code(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        return info.value.code

    def test_missing_label_file(self, tmp_path):
        from repro.cli import EXIT_MISSING_FILE

        code = self._code(["estimate", str(tmp_path / "nope.json"), "g=F"])
        assert code == EXIT_MISSING_FILE

    def test_missing_csv_file(self, tmp_path):
        from repro.cli import EXIT_MISSING_FILE

        assert (
            self._code(["label", str(tmp_path / "nope.csv")])
            == EXIT_MISSING_FILE
        )
        assert (
            self._code(
                ["profile", str(tmp_path / "nope.csv"), "--sensitive", "g"]
            )
            == EXIT_MISSING_FILE
        )

    def test_malformed_label_file(self, tmp_path):
        from repro.cli import EXIT_MALFORMED

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert self._code(["estimate", str(bad), "g=F"]) == EXIT_MALFORMED

    def test_malformed_workload_file(self, label_path, tmp_path):
        from repro.cli import EXIT_MALFORMED

        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code = self._code(
            ["estimate", str(label_path), "--workload", str(bad)]
        )
        assert code == EXIT_MALFORMED

    def test_pattern_mismatch(self, label_path):
        from repro.cli import EXIT_MISMATCH

        assert (
            self._code(["estimate", str(label_path), "nope=zzz"])
            == EXIT_MISMATCH
        )

    def test_usage_errors(self, label_path, csv_path):
        from repro.cli import EXIT_USAGE

        assert (
            self._code(["estimate", str(label_path), "notabinding"])
            == EXIT_USAGE
        )
        assert (
            self._code(["label", str(csv_path), "--shards", "0"])
            == EXIT_USAGE
        )

    def test_unreachable_server(self):
        from repro.cli import EXIT_UNAVAILABLE

        code = self._code(
            ["query", "http://127.0.0.1:1", "g=F", "--timeout", "2"]
        )
        assert code == EXIT_UNAVAILABLE

    def test_hung_server_times_out_as_unavailable(self):
        """A socket that accepts the connection but never answers must
        map --timeout onto the same exit code as connection-refused —
        the caller's remedy (retry / check the server) is identical."""
        import socket

        from repro.cli import EXIT_UNAVAILABLE

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)  # connections complete; nothing answers
            host, port = listener.getsockname()
            code = self._code(
                [
                    "query",
                    f"http://{host}:{port}",
                    "g=F",
                    "--timeout",
                    "0.5",
                ]
            )
            assert code == EXIT_UNAVAILABLE
        finally:
            listener.close()

    def test_serve_scale_out_flags_validated(self, label_path):
        from repro.cli import EXIT_USAGE

        assert (
            self._code(["serve", str(label_path), "--workers", "0"])
            == EXIT_USAGE
        )
        assert (
            self._code(
                ["serve", str(label_path), "--cache-entries", "-1"]
            )
            == EXIT_USAGE
        )

    def test_codes_are_distinct(self):
        from repro import cli

        codes = [
            cli.EXIT_USAGE,
            cli.EXIT_MISSING_FILE,
            cli.EXIT_MALFORMED,
            cli.EXIT_MISMATCH,
            cli.EXIT_UNAVAILABLE,
            cli.EXIT_REMOTE,
        ]
        assert len(set(codes)) == len(codes)
        assert all(code not in (0, 1) for code in codes)


class TestEstimateJsonFlag:
    def test_single_pattern_json(self, label_path, capsys):
        assert (
            main(["estimate", str(label_path), "gender=Female", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"estimates", "exact"}
        assert len(payload["estimates"]) == 1
        assert isinstance(payload["exact"], bool)

    def test_workload_json(self, label_path, tmp_path, capsys):
        workload = tmp_path / "wl.json"
        workload.write_text(
            json.dumps([{"gender": "Female"}, {"gender": "Male"}])
        )
        assert (
            main(
                [
                    "estimate",
                    str(label_path),
                    "--workload",
                    str(workload),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"estimates"}
        assert len(payload["estimates"]) == 2

    def test_json_output_matches_plain(self, label_path, capsys):
        main(["estimate", str(label_path), "gender=Female", "--json"])
        as_json = json.loads(capsys.readouterr().out)["estimates"][0]
        main(["estimate", str(label_path), "gender=Female"])
        plain = float(capsys.readouterr().out.split()[0])
        assert as_json == pytest.approx(plain, abs=0.05)


class TestServeAndQuery:
    @pytest.fixture
    def service(self, label_path):
        """A live served label, built exactly as `repro serve` builds it."""
        from repro.cli import _service_from_args, build_parser

        args = build_parser().parse_args(
            ["serve", str(label_path), "--port", "0"]
        )
        service = _service_from_args(args)
        service.start()
        yield service
        service.stop()

    def test_serve_publishes_under_file_stem(self, service):
        assert service.store.names() == ["label"]
        assert service.store.get("label").version == 1

    def test_serve_scale_out_flags_build_workers_and_cache(
        self, label_path, capsys
    ):
        from repro.cli import _service_from_args, build_parser

        args = build_parser().parse_args(
            [
                "serve",
                str(label_path),
                "--port",
                "0",
                "--workers",
                "4",
                "--cache-entries",
                "64",
            ]
        )
        service = _service_from_args(args)
        try:
            assert service.workers.n_workers == 4
            assert service.cache is not None
            assert service.cache.max_entries == 64
        finally:
            service.stop()

    def test_serve_rejects_duplicate_stems(self, label_path):
        from repro.cli import _service_from_args, build_parser

        args = build_parser().parse_args(
            ["serve", str(label_path), str(label_path)]
        )
        with pytest.raises(SystemExit, match="share the served name"):
            _service_from_args(args)

    def test_query_list(self, service, capsys):
        assert main(["query", service.url, "--list"]) == 0
        out = capsys.readouterr().out
        assert "label" in out and "v1" in out

    def test_query_single_pattern_defaults_to_only_label(
        self, service, label_path, capsys
    ):
        assert main(["query", service.url, "gender=Female"]) == 0
        served = capsys.readouterr().out.strip()
        main(["estimate", str(label_path), "gender=Female"])
        local = capsys.readouterr().out.strip().split(" ")[0]
        assert served == local

    def test_query_json_carries_version(self, service, capsys):
        assert (
            main(["query", service.url, "gender=Female", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "label"
        assert payload["version"] == 1
        assert len(payload["estimates"]) == 1

    def test_query_workload_batches(self, service, tmp_path, capsys):
        workload = tmp_path / "wl.json"
        workload.write_text(
            json.dumps([{"gender": "Female"}, {"gender": "Male"}])
        )
        assert (
            main(["query", service.url, "--workload", str(workload)]) == 0
        )
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_query_server_error_exit_code(self, service):
        from repro.cli import EXIT_REMOTE

        with pytest.raises(SystemExit) as info:
            main(["query", service.url, "g=F", "--label", "nope"])
        assert info.value.code == EXIT_REMOTE

    def test_query_explicit_label_flag(self, service, capsys):
        assert (
            main(["query", service.url, "gender=Male", "--label", "label"])
            == 0
        )
        assert capsys.readouterr().out.strip()


class TestChunkedMalformedCsvExitCode:
    def test_chunked_fit_on_malformed_csv_exits_malformed(self, tmp_path):
        from repro.cli import EXIT_MALFORMED

        bad = tmp_path / "bad.csv"
        bad.write_text("a,a\n1,2\n")  # duplicate header
        with pytest.raises(SystemExit) as info:
            main(["label", str(bad), "--chunk-rows", "1"])
        assert info.value.code == EXIT_MALFORMED


class TestSearchStrategyFlags:
    """CLI smoke for the unified search engine's new strategies."""

    def test_beam_algorithm_smoke(self, csv_path, tmp_path):
        out = tmp_path / "beam.json"
        code = main(
            ["label", str(csv_path), "--bound", "5", "--algorithm",
             "beam", "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["attributes"] == ["age group", "marital status"]

    def test_beam_width_flag(self, csv_path, capsys):
        code = main(
            ["label", str(csv_path), "--bound", "5", "--algorithm",
             "beam", "--beam-width", "2"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total"] == 18

    def test_anytime_with_time_limit_smoke(self, csv_path, capsys):
        code = main(
            ["label", str(csv_path), "--bound", "5", "--algorithm",
             "anytime", "--time-limit", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["attributes"] == [
            "age group",
            "marital status",
        ]

    def test_anytime_tiny_budget_still_emits_a_label(self, csv_path, capsys):
        code = main(
            ["label", str(csv_path), "--bound", "5", "--algorithm",
             "anytime", "--time-limit", "1e-9"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "pc" in json.loads(captured.out)
        assert "budget hit" in captured.err

    def test_exact_strategy_timeout_exit_code(self, csv_path):
        from repro.cli import EXIT_TIMEOUT

        with pytest.raises(SystemExit) as info:
            main(
                ["label", str(csv_path), "--bound", "5", "--algorithm",
                 "naive", "--time-limit", "1e-9"]
            )
        assert info.value.code == EXIT_TIMEOUT

    def test_timeout_reports_examined_and_sized_subsets(
        self, csv_path, capsys
    ):
        """Under a loose bound the top-down search certifies every pair
        from domain sizes alone, so none of them was sized."""
        from repro.cli import EXIT_TIMEOUT

        with pytest.raises(SystemExit) as info:
            main(
                ["label", str(csv_path), "--bound", "1000", "--time-limit",
                 "1e-9"]
            )
        assert info.value.code == EXIT_TIMEOUT
        assert (
            "after examining 6 subsets (0 sized against the data)"
            in capsys.readouterr().err
        )

    def test_invalid_beam_width_rejected(self, csv_path):
        from repro.cli import EXIT_USAGE

        with pytest.raises(SystemExit) as info:
            main(
                ["label", str(csv_path), "--algorithm", "beam",
                 "--beam-width", "0"]
            )
        assert info.value.code == EXIT_USAGE

    def test_invalid_time_limit_rejected(self, csv_path):
        from repro.cli import EXIT_USAGE

        with pytest.raises(SystemExit) as info:
            main(["label", str(csv_path), "--time-limit", "0"])
        assert info.value.code == EXIT_USAGE

    def test_beam_width_on_wrong_strategy_is_registry_error(self, csv_path):
        from repro import RegistryError

        with pytest.raises(RegistryError, match="does not accept"):
            main(
                ["label", str(csv_path), "--algorithm", "naive",
                 "--beam-width", "3"]
            )


class TestPackCommand:
    def test_pack_writes_deployable_directory(self, csv_path, tmp_path, capsys):
        out = tmp_path / "pack"
        code = main(
            ["pack", str(csv_path), "--bound", "5", "-o", str(out)]
        )
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["label-data.json", "manifest.json", "shard-0000.bin"]
        err = capsys.readouterr().err
        assert "repro serve --artifact-dir" in err

    def test_pack_sharded(self, csv_path, tmp_path):
        out = tmp_path / "pack"
        code = main(
            [
                "pack",
                str(csv_path),
                "--bound",
                "5",
                "--shards",
                "3",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        from repro import verify_pack

        assert verify_pack(out)["shards"] == 3

    def test_pack_custom_label_name(self, csv_path, tmp_path):
        out = tmp_path / "pack"
        main(
            [
                "pack",
                str(csv_path),
                "--bound",
                "5",
                "--name",
                "compas",
                "-o",
                str(out),
            ]
        )
        from repro import open_pack

        assert open_pack(out).label_names == ["compas"]

    def test_pack_missing_csv_exit_code(self, tmp_path):
        from repro.cli import EXIT_MISSING_FILE

        with pytest.raises(SystemExit) as info:
            main(
                ["pack", str(tmp_path / "nope.csv"), "--bound", "5",
                 "-o", str(tmp_path / "pack")]
            )
        assert info.value.code == EXIT_MISSING_FILE


class TestServeFromPack:
    @pytest.fixture
    def pack_dir(self, csv_path, tmp_path):
        out = tmp_path / "pack"
        assert (
            main(["pack", str(csv_path), "--bound", "5", "-o", str(out)])
            == 0
        )
        return out

    @pytest.fixture
    def service(self, pack_dir):
        """A live warm-started service, as `serve --artifact-dir` builds it."""
        from repro.cli import _service_from_args, build_parser

        args = build_parser().parse_args(
            ["serve", "--artifact-dir", str(pack_dir), "--port", "0"]
        )
        service = _service_from_args(args)
        service.start()
        yield service
        service.stop()

    def test_serve_publishes_packed_label(self, service):
        assert service.store.names() == ["data"]
        snap = service.store.get("data")
        assert snap.pack is not None
        # Warm start is label-only: no shard payload was read to serve.
        assert snap.pack.stats.shard_loads == []

    def test_query_round_trip(self, service, capsys):
        assert main(["query", service.url, "gender=Female"]) == 0
        assert float(capsys.readouterr().out.strip()) > 0

    def test_artifact_dir_and_labels_conflict(self, pack_dir, tmp_path):
        from repro.cli import EXIT_USAGE, _service_from_args, build_parser

        label = tmp_path / "label.json"
        label.write_text("{}")
        args = build_parser().parse_args(
            ["serve", str(label), "--artifact-dir", str(pack_dir)]
        )
        with pytest.raises(SystemExit) as info:
            _service_from_args(args)
        assert info.value.code == EXIT_USAGE

    def test_serve_needs_some_source(self):
        from repro.cli import EXIT_USAGE, _service_from_args, build_parser

        args = build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit) as info:
            _service_from_args(args)
        assert info.value.code == EXIT_USAGE

    def test_missing_pack_dir_exit_code(self, tmp_path):
        from repro.cli import (
            EXIT_MISSING_FILE,
            _service_from_args,
            build_parser,
        )

        args = build_parser().parse_args(
            ["serve", "--artifact-dir", str(tmp_path / "nope")]
        )
        with pytest.raises(SystemExit) as info:
            _service_from_args(args)
        assert info.value.code == EXIT_MISSING_FILE

    def test_corrupt_pack_exit_code(self, pack_dir):
        from repro.cli import EXIT_MALFORMED, _service_from_args, build_parser

        (pack_dir / "manifest.json").write_text("{broken")
        args = build_parser().parse_args(
            ["serve", "--artifact-dir", str(pack_dir)]
        )
        with pytest.raises(SystemExit) as info:
            _service_from_args(args)
        assert info.value.code == EXIT_MALFORMED
