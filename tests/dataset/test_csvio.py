"""Unit tests for :mod:`repro.dataset.csvio`."""

import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.dataset import csvio
from repro.dataset.csvio import (
    DEFAULT_MISSING_TOKENS,
    read_csv,
    read_csv_chunks,
    scan_csv_domains,
    write_csv,
)
from repro.dataset.schema import MISSING_CODE, Column, Schema
from repro.dataset.table import Dataset


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "gender,race\n"
        "F,Hispanic\n"
        "M,Caucasian\n"
        "F,\n"
        "M,Hispanic\n"
    )
    return path


class TestReadCsv:
    def test_basic_read(self, csv_file):
        data = read_csv(csv_file)
        assert data.attribute_names == ("gender", "race")
        assert data.n_rows == 4

    def test_empty_cell_is_missing(self, csv_file):
        data = read_csv(csv_file)
        assert data.row(2)["race"] is None

    def test_custom_missing_tokens(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("a\nx\nNA\n?\n")
        data = read_csv(path, missing_tokens=("?",))
        assert data.column_values("a") == ["x", "NA", None]

    def test_usecols_selects_and_orders(self, csv_file):
        data = read_csv(csv_file, usecols=["race", "gender"])
        assert data.attribute_names == ("race", "gender")

    def test_usecols_unknown_rejected(self, csv_file):
        with pytest.raises(KeyError, match="no such columns"):
            read_csv(csv_file, usecols=["age"])

    def test_explicit_domains(self, csv_file):
        data = read_csv(
            csv_file, domains={"gender": ("M", "F", "X")}
        )
        assert data.schema["gender"].categories == ("M", "F", "X")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nx\n")
        with pytest.raises(ValueError, match="expected 2 cells"):
            read_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_csv(path)

    def test_duplicate_headers_rejected(self, tmp_path):
        """Regression: ``usecols`` resolved names via ``header.index``,
        silently reading the first of two same-named columns."""
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(ValueError, match="duplicate header"):
            read_csv(path)
        with pytest.raises(ValueError, match="duplicate header"):
            read_csv(path, usecols=["a"])
        with pytest.raises(ValueError, match="duplicate header"):
            scan_csv_domains(path)
        with pytest.raises(ValueError, match="duplicate header"):
            list(read_csv_chunks(path, chunk_rows=1))


class TestReadCsvChunks:
    @pytest.fixture
    def big_csv(self, tmp_path):
        path = tmp_path / "big.csv"
        rows = "".join(
            f"v{i % 5},w{i % 3}\n" for i in range(25)
        )
        path.write_text("a,b\n" + rows)
        return path

    def test_chunk_sizes_and_row_total(self, big_csv):
        chunks = list(read_csv_chunks(big_csv, chunk_rows=10))
        assert [c.n_rows for c in chunks] == [10, 10, 5]

    def test_chunks_share_one_schema(self, big_csv):
        chunks = list(read_csv_chunks(big_csv, chunk_rows=7))
        assert len({c.schema for c in chunks}) == 1

    def test_concat_of_chunks_equals_monolithic_read(self, big_csv):
        whole = read_csv(big_csv)
        chunks = list(read_csv_chunks(big_csv, chunk_rows=4))
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert merged == whole

    def test_caller_supplied_domains_skip_the_scan(self, big_csv):
        domains = scan_csv_domains(big_csv)
        chunks = list(
            read_csv_chunks(big_csv, chunk_rows=10, domains=domains)
        )
        assert chunks[0].schema == read_csv(big_csv).schema

    def test_uncovered_domains_rejected(self, big_csv):
        with pytest.raises(ValueError, match="pinned domain"):
            list(
                read_csv_chunks(
                    big_csv, chunk_rows=10, domains={"a": ("v0",)}
                )
            )

    def test_header_only_file_yields_one_empty_chunk(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x,y\n")
        chunks = list(read_csv_chunks(path, chunk_rows=10))
        assert len(chunks) == 1
        assert chunks[0].n_rows == 0
        assert chunks[0].attribute_names == ("x", "y")

    def test_usecols_and_missing_tokens(self, tmp_path):
        path = tmp_path / "mt.csv"
        path.write_text("g,r\nF,NA\nM,x\n")
        (chunk,) = read_csv_chunks(path, chunk_rows=10, usecols=["r"])
        assert chunk.column_values("r") == [None, "x"]

    def test_bad_chunk_rows_rejected(self, big_csv):
        with pytest.raises(ValueError, match="chunk_rows"):
            list(read_csv_chunks(big_csv, chunk_rows=0))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\nx,y\nz\n")
        with pytest.raises(ValueError, match="expected 2 cells"):
            list(read_csv_chunks(path, chunk_rows=10))


class TestScanCsvDomains:
    def test_matches_from_columns_inference(self, csv_file):
        domains = scan_csv_domains(csv_file)
        inferred = read_csv(csv_file)
        assert domains == {
            name: inferred.schema[name].categories
            for name in inferred.attribute_names
        }

    def test_missing_tokens_excluded(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("a\nx\nNA\n")
        assert scan_csv_domains(path) == {"a": ("x",)}


class TestRoundTrip:
    def test_write_then_read_preserves_values(self, tmp_path):
        original = Dataset.from_columns(
            {"a": ["x", "y", None], "b": ["1", "2", "3"]}
        )
        path = tmp_path / "roundtrip.csv"
        write_csv(original, path)
        loaded = read_csv(path)
        assert loaded.column_values("a") == ["x", "y", None]
        assert loaded.column_values("b") == ["1", "2", "3"]


# -- block decode == the row-by-row reference -----------------------------------


def _reference_dataset(path, header, rows, names, missing, domains, line=2):
    """The row-by-row decode the block reader replaced: a width check
    per record, then one ``code_of`` per cell, column by column."""
    positions = [header.index(name) for name in names]
    columns = {name: [] for name in names}
    for line_number, row in enumerate(rows, start=line):
        if len(row) != len(header):
            raise ValueError(
                f"{path}:{line_number}: expected {len(header)} cells, "
                f"got {len(row)}"
            )
        for name, position in zip(names, positions):
            cell = row[position]
            columns[name].append(None if cell in missing else cell)
    schema_columns, code_columns = [], []
    for name in names:
        values = columns[name]
        if domains is not None and name in domains:
            domain = tuple(domains[name])
        else:
            domain = tuple(
                sorted({v for v in values if v is not None}, key=repr)
            )
        column = Column(name, domain)
        schema_columns.append(column)
        code_columns.append(
            np.array(
                [
                    MISSING_CODE if v is None else column.code_of(v)
                    for v in values
                ],
                dtype=np.int32,
            )
        )
    return Dataset(Schema(schema_columns), np.column_stack(code_columns))


def _reference_read(path, usecols, missing_tokens, domains):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    names = list(header) if usecols is None else list(usecols)
    return _reference_dataset(
        path, header, rows, names, set(missing_tokens), domains
    )


def _reference_chunks(path, chunk_rows, usecols, missing_tokens):
    # The scan pass: the whole file's inferred domains.
    scanned = _reference_read(path, usecols, missing_tokens, None).schema
    pinned = {column.name: column.categories for column in scanned}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    starts = range(0, len(rows), chunk_rows) if rows else [0]
    return [
        _reference_dataset(
            path,
            header,
            rows[start : start + chunk_rows],
            list(pinned),
            set(missing_tokens),
            pinned,
            line=2 + start,
        )
        for start in starts
    ]


def _outcome(call):
    """``("ok", result)`` or the raised error's type and text."""
    try:
        result = call()
    except (KeyError, ValueError) as error:
        event(f"{type(error).__name__}")
        return type(error).__name__, str(error)
    event("ok")
    return "ok", result


#: Cells with commas, quotes and newlines (written quoted), the default
#: missing tokens, and a custom one.  ``repr`` sorts "it's" (double-quoted)
#: first, its value sorts it among the i's.
CELLS = ("a", "b", "c", "10", "9", "x,y", 'say "hi"', "two\nlines",
         "it's", "", "NA", "null", "?")
HEADER = ("g", "r", "s t", "u,v")


@st.composite
def csv_cases(draw):
    """A CSV text, a block size and the reader's keyword arguments."""
    width = draw(st.integers(1, len(HEADER)))
    header = list(HEADER[:width])
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        row = draw(st.lists(st.sampled_from(CELLS), min_size=width,
                            max_size=width))
        ragged = draw(st.sampled_from((0,) * 40 + (-1, 1)))
        rows.append(row[:-1] if ragged < 0 else row + ["z"] * ragged)
    usecols = draw(
        st.none()
        | st.permutations(header).flatmap(
            lambda order: st.integers(1, len(order)).map(
                lambda k: order[:k]
            )
        )
    )
    missing_tokens = draw(
        st.sampled_from([DEFAULT_MISSING_TOKENS, ("?",), ("?", "a", "")])
    )
    selected = header if usecols is None else usecols
    domains = {}
    for name in selected:
        if draw(st.booleans()):
            # The observed values plus extras, in any order; sometimes
            # one observed value is left out.
            j = header.index(name)
            observed = {row[j] for row in rows if len(row) > j}
            extras = draw(st.lists(st.sampled_from(CELLS), unique=True))
            domain = draw(st.permutations(sorted(observed | set(extras))))
            if domain and draw(st.integers(0, 3)) == 0:
                domain.remove(draw(st.sampled_from(domain)))
            domains[name] = tuple(domain)
    return {
        "header": header,
        "rows": rows,
        "block": draw(st.integers(1, 4)),
        "chunk_rows": draw(st.integers(1, 6)),
        "usecols": usecols,
        "missing_tokens": missing_tokens,
        "domains": domains or None,
    }


def _write(directory, case):
    path = Path(directory) / "case.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(case["header"])
        writer.writerows(case["rows"])
    return path


DECODE_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBlockDecode:
    @DECODE_SETTINGS
    @given(csv_cases())
    def test_readers_match_row_by_row_reference(self, case):
        """Datasets (schema and codes), chunks, scanned domains and every
        error text equal the row-by-row decode, with blocks of 1-4
        records so that files cross block boundaries."""
        kwargs = {
            "usecols": case["usecols"],
            "missing_tokens": case["missing_tokens"],
        }
        with tempfile.TemporaryDirectory() as directory, mock.patch.object(
            csvio, "_BLOCK_ROWS", case["block"]
        ):
            path = _write(directory, case)
            assert _outcome(
                lambda: read_csv(path, domains=case["domains"], **kwargs)
            ) == _outcome(
                lambda: _reference_read(
                    path,
                    case["usecols"],
                    case["missing_tokens"],
                    case["domains"],
                )
            )
            assert _outcome(
                lambda: list(
                    read_csv_chunks(
                        path, chunk_rows=case["chunk_rows"], **kwargs
                    )
                )
            ) == _outcome(
                lambda: _reference_chunks(
                    path,
                    case["chunk_rows"],
                    case["usecols"],
                    case["missing_tokens"],
                )
            )
            assert _outcome(
                lambda: scan_csv_domains(path, **kwargs)
            ) == _outcome(
                lambda: {
                    column.name: column.categories
                    for column in _reference_read(
                        path,
                        case["usecols"],
                        case["missing_tokens"],
                        None,
                    ).schema
                }
            )

    def test_ragged_row_in_a_later_block_names_its_line(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(csvio, "_BLOCK_ROWS", 2)
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n" + "x,y\n" * 5 + "z\n" + "x,y\n")
        message = f"{path}:7: expected 2 cells, got 1"
        with pytest.raises(ValueError) as read:
            read_csv(path)
        assert str(read.value) == message
        with pytest.raises(ValueError) as scanned:
            scan_csv_domains(path)
        assert str(scanned.value) == message
        with pytest.raises(ValueError) as chunked:
            list(read_csv_chunks(path, chunk_rows=3, domains={
                "a": ("x",), "b": ("y",)}))
        assert str(chunked.value) == message

    def test_out_of_domain_value_raises_code_of_error(
        self, tmp_path, monkeypatch
    ):
        """A value outside a pinned domain raises ``code_of``'s
        ``KeyError`` for the first such column, at its first such cell,
        though the cells sit in a later block."""
        monkeypatch.setattr(csvio, "_BLOCK_ROWS", 2)
        path = tmp_path / "ood.csv"
        path.write_text("a,b\nx,y\nx,y\nx,q\nw,z\n")
        with pytest.raises(KeyError) as first_column:
            read_csv(path, domains={"a": ("x",), "b": ("y",)})
        assert first_column.value.args == (
            "value 'w' not in the active domain of attribute 'a'",
        )
        with pytest.raises(KeyError) as first_cell:
            read_csv(path, domains={"a": ("x", "w"), "b": ("y",)})
        assert first_cell.value.args == (
            "value 'q' not in the active domain of attribute 'b'",
        )

    def test_header_only_file_reads_as_zero_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x,y\n")
        data = read_csv(path)
        assert data.n_rows == 0
        assert data.attribute_names == ("x", "y")
        assert data.schema["x"].categories == ()
        assert scan_csv_domains(path) == {"x": (), "y": ()}

    def test_blank_header_has_no_columns(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="at least one column"):
            read_csv(path)
