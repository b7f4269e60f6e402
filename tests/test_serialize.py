"""Shared I/O layer tests: the CSV reader and writer, the JSON reader,
and the rule that no other module reads or writes those formats itself."""

import csv
import io
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from credit_stack import features, pipeline, synth
from credit_stack.cv_stack import FoldPlan, save_oof
from credit_stack.errors import ConfigError, DataError
from credit_stack.ingest import ColumnSchema, StatementTable, read_clean, write_clean
from credit_stack.serialize import (
    dumps,
    read_csv_rows,
    read_json_doc,
    read_keyed_column,
    write_csv_columns,
)

from oracles import read_csv_by_reader, write_csv_by_writer

SRC = Path(__file__).resolve().parents[1] / "src" / "credit_stack"
BOM = b"\xef\xbb\xbf"
OVERSIZED = "C" * 200_000  # past the csv module's default field size limit


def test_only_serialize_reads_and_writes_csv_and_json():
    # features.py's binary matrix container reads its own files, but writes
    # through serialize.open_output like every other output; a write mode is
    # a quoted mode string holding w, a or x; splitting or joining on a
    # comma is CSV encoding done by hand
    pattern = re.compile(
        r"csv\.reader\(|csv\.writer\(|json\.loads\(|utf-8-sig"
        r"""|\.split\(","\)|",".join\("""
        r"""|open\(.*["'][rbt+]*[wax][rwabxt+]*["']|\.write_text\(|\.write_bytes\("""
        r"|\.mkdir\(|makedirs\("
    )
    offenders = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "serialize.py"
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert len(list(SRC.glob("*.py"))) > 10
    assert offenders == []


@pytest.mark.parametrize("load, doc, what", [
    (features.spec_from_json, {"continuous_stats": ["mean", "max", "mean"]},
     "aggregation spec key 'continuous_stats' names 'mean'"),
    (features.spec_from_json, {"categorical_stats": ["last", "last"]},
     "aggregation spec key 'categorical_stats' names 'last'"),
    (features.spec_from_json, {"columns": ["cont_00", "cat_0", "cont_00"]},
     "aggregation spec key 'columns' names 'cont_00'"),
    (pipeline.config_from_json,
     {"data": "d.csv", "labels": "l.csv", "schema": "s.json", "out_dir": "out",
      "members": [{"name": "a"}, {"name": "b", "meta_from": ["a", "a"]}]},
     "member 1 key 'meta_from' names 'a'"),
    (synth.config_from_json, {"n_customers": 40, "signal_features": ["cont_01", "cont_01"]},
     "synth config key 'signal_features' names 'cont_01'"),
], ids=["continuous_stats", "categorical_stats", "columns", "meta_from", "signal_features"])
def test_config_list_names_each_entry_once(load, doc, what):
    with pytest.raises(ConfigError, match=f"^{what} more than once$") as raised:
        load(doc)
    assert raised.value.exit_code == 2


def test_read_csv_rows_rejects_garbage(tmp_path):
    with pytest.raises(DataError, match="cannot read .*missing.csv"):
        read_csv_rows(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    with pytest.raises(DataError, match="no header row"):
        read_csv_rows(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("row_index,fold\n", encoding="utf-8")
    assert read_csv_rows(header_only) == (["row_index", "fold"], [])


def test_read_keyed_column_finds_its_columns_by_header_name(tmp_path):
    path = tmp_path / "oof.csv"
    path.write_text("fold,probability,customer_id\n2,0.25,C1\n0,0.75,\"C,2\"\n",
                    encoding="utf-8")
    assert read_keyed_column(path, "probability", float, "score") == (
        ["C1", "C,2"], [0.25, 0.75]
    )
    assert read_keyed_column(path, "fold", int, "score") == (["C1", "C,2"], [2, 0])


@pytest.mark.parametrize(
    "body, message",
    [
        ("customer_id,fold\nC1,1\n",
         r"no 'probability' column in header \['customer_id', 'fold'\]"),
        ("id,probability\nC1,0.5\n", "no 'customer_id' column"),
        ("customer_id,probability\n", "no score rows"),
        ("probability,customer_id\n0.5,C1\n0.5\n", "row 3 is incomplete"),
        ("customer_id,probability\nC1,0.5\nC1,0.5\n", "rows 2 and 3 both score customer 'C1'"),
        ("customer_id,probability\nC1,0.5\nC2,half\n",
         "row 3: could not convert string to float: 'half'"),
    ],
)
def test_read_keyed_column_names_the_path_and_row(tmp_path, body, message):
    path = tmp_path / "scores.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=message) as raised:
        read_keyed_column(path, "probability", float, "score")
    assert str(raised.value).startswith(str(path))


@pytest.mark.parametrize("error", [ConfigError, DataError])
def test_read_json_doc_rejects_garbage(tmp_path, error):
    with pytest.raises(error, match="cannot read ensemble spec .*missing.json"):
        read_json_doc(tmp_path / "missing.json", "ensemble spec", error)
    for i, body in enumerate((b"", b'{"weights": [1.0', b'{"members": "\xe9"}')):
        bad = tmp_path / f"bad_{i}.json"
        bad.write_bytes(body)
        with pytest.raises(error, match=f"cannot read model .*bad_{i}.json"):
            read_json_doc(bad, "model", error)


ROWS = [["C1", "0.5"], ["C,2", "é"]]
COLUMNS = [["C1", "C,2"], ["0.5", "é"]]
DOC = {"members": ["a", "b"], "weights": [0.25, 0.75]}


@pytest.mark.parametrize(
    "case", ["missing file", "non-UTF-8", "BOM", "CRLF", "oversized cell", "empty file"]
)
def test_io_helpers_on_awkward_files(tmp_path, case):
    csv_path, json_path = tmp_path / "a.csv", tmp_path / "a.json"
    plain_csv = "customer_id,value\nC1,0.5\n\"C,2\",é\n".encode("utf-8")
    plain_json = json.dumps(DOC, indent=1).encode("utf-8")

    if case == "missing file":
        for read in (read_csv_rows, lambda p: read_json_doc(p, "doc", DataError)):
            with pytest.raises(DataError, match="No such file"):
                read(tmp_path / "nope")
        # the writer creates missing parent directories
        deep = tmp_path / "x" / "y" / "a.csv"
        write_csv_columns(deep, ["customer_id", "value"], COLUMNS)
        assert deep.read_bytes() == plain_csv
    elif case == "non-UTF-8":
        csv_path.write_bytes(plain_csv.replace("é".encode("utf-8"), b"\xe9"))
        json_path.write_bytes(plain_json.replace(b'"a"', b'"\xe9"'))
        with pytest.raises(DataError, match="codec can't decode"):
            read_csv_rows(csv_path)
        with pytest.raises(ConfigError, match="codec can't decode"):
            read_json_doc(json_path, "doc", ConfigError)
        # the writer encodes every cell as UTF-8
        write_csv_columns(csv_path, ["customer_id", "value"], COLUMNS)
        assert csv_path.read_bytes() == plain_csv
    elif case == "BOM":
        csv_path.write_bytes(BOM + plain_csv)
        json_path.write_bytes(BOM + plain_json)
        assert read_csv_rows(csv_path) == (["customer_id", "value"], ROWS)
        assert read_json_doc(json_path, "doc", DataError) == DOC
        # the writer never emits one
        write_csv_columns(csv_path, ["customer_id", "value"], COLUMNS)
        assert not csv_path.read_bytes().startswith(BOM)
    elif case == "CRLF":
        csv_path.write_bytes(plain_csv.replace(b"\n", b"\r\n"))
        json_path.write_bytes(plain_json.replace(b"\n", b"\r\n"))
        assert read_csv_rows(csv_path) == (["customer_id", "value"], ROWS)
        assert read_json_doc(json_path, "doc", DataError) == DOC
        # the writer ends rows in a bare \n and quotes a cell holding \r\n
        write_csv_columns(csv_path, ["customer_id", "value"], [["C1"], ["x\r\ny"]])
        assert csv_path.read_bytes() == b'customer_id,value\nC1,"x\r\ny"\n'
        assert read_csv_rows(csv_path) == (["customer_id", "value"], [["C1", "x\r\ny"]])
    elif case == "oversized cell":
        write_csv_columns(csv_path, ["customer_id", "value"], [[OVERSIZED], ["1"]])
        assert csv_path.stat().st_size > len(OVERSIZED)
        with pytest.raises(DataError, match="field larger than field limit"):
            read_csv_rows(csv_path)
        json_path.write_text(json.dumps({"id": OVERSIZED}), encoding="utf-8")
        assert read_json_doc(json_path, "doc", DataError) == {"id": OVERSIZED}
    else:  # empty file
        csv_path.write_bytes(b"")
        json_path.write_bytes(b"")
        with pytest.raises(DataError, match="no header row"):
            read_csv_rows(csv_path)
        with pytest.raises(DataError, match="Expecting value"):
            read_json_doc(json_path, "doc", DataError)
        # no rows still writes the header line
        write_csv_columns(csv_path, ["customer_id", "value"], [[], []])
        assert csv_path.read_bytes() == b"customer_id,value\n"
        assert read_csv_rows(csv_path) == (["customer_id", "value"], [])


def test_dumps_escapes_quotes_backslashes_and_control_characters():
    controls = "".join(chr(i) for i in range(0x20))
    text = f'a"b\\c{controls} é€😀\x7f'
    want = 'a\\"b\\\\c' + "".join(f"\\u{i:04x}" for i in range(0x20)) + ' é€😀\x7f'
    assert dumps(text) == f'"{want}"\n'
    assert dumps({text: [text]}) == f'{{\n  "{want}": [\n    "{want}"\n  ]\n}}\n'
    assert dumps("\n\t\x1f\"\\") == '"\\u000a\\u0009\\u001f\\"\\\\"\n'
    assert json.loads(dumps(text)) == text


# Cells of a random CSV: plain ones, and ones that hold a quote, a line
# end inside quotes or an unclosed quote.  \x0c, \x85 and \u2028 end a
# line for str.splitlines but never for CSV.
PLAIN_CELLS = ["", "a", "1.5", " x ", "é", "\x0c", "\x85", "\u2028", "\ufeff", "\t"]
QUOTED_CELLS = ['"a,b"', '"say ""hi"""', '"two\nlines"', '"cr\rin"', 'a"b', '""', '"open']
FIELD_LIMIT = 64  # the test's csv.field_size_limit, so a long line stays short


def _random_csv(rng: random.Random) -> bytes:
    """The bytes of a random CSV."""
    quote, crlf, lone_cr, nul, long_line = (rng.random() < p for p in (0.15, 0.1, 0.1, 0.1, 0.15))
    lines = []
    for _ in range(rng.choice([0, 1, 2, 3, 6])):
        cells = [rng.choice(PLAIN_CELLS) for _ in range(rng.choice([0, 0, 1, 2, 3, 4]))]
        if cells and quote and rng.random() < 0.5:
            cells[rng.randrange(len(cells))] = rng.choice(QUOTED_CELLS)
        if cells and nul and rng.random() < 0.5:
            cells[rng.randrange(len(cells))] = "a\x00b"
        lines.append(",".join(cells))
    if quote:
        lines.append(rng.choice(QUOTED_CELLS))
    if nul:
        lines.append("\x00")
    if long_line:  # one field past the limit, or only the line past it
        wide = rng.choice([1, FIELD_LIMIT // 2])
        lines.insert(rng.randrange(len(lines) + 1),
                     ",".join(["L" * (FIELD_LIMIT + 4 - wide)] * wide))
    ends = ["\r\n" if crlf else "\n" for _ in lines]
    if ends and rng.random() < 0.3:
        ends[-1] = ""  # no final line end
    if ends and lone_cr:
        ends[rng.randrange(len(ends))] = "\r"
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = b"\xef\xbb\xbf" if rng.random() < 0.2 else b""
    return bom + text.encode("utf-8")


def test_read_csv_rows_matches_csv_reader(tmp_path):
    rng = random.Random(2024)
    old_limit = csv.field_size_limit(FIELD_LIMIT)
    outcomes = {"rows": 0, "error": 0}
    try:
        for case in range(400):
            body = _random_csv(rng)
            path = tmp_path / f"case_{case}.csv"
            path.write_bytes(body)
            results = []
            for read in (read_csv_rows, read_csv_by_reader):
                try:
                    results.append(read(path))
                except DataError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], (case, body)
            outcomes["error" if isinstance(results[0], str) else "rows"] += 1
    finally:
        csv.field_size_limit(old_limit)
    assert min(outcomes.values()) >= 50, outcomes


WRITER_CELLS = ["", "a", "1.5", ",", '"', "\n", "\r", "\r\n", " lead", "é", "x,y",
                'say "hi"', "\x00", "\x0c"]


def test_write_csv_columns_matches_csv_writer(tmp_path):
    rng = random.Random(7)
    for case in range(300):
        n_cols = rng.choice([0, 1, 1, 2, 3, 4])
        n_rows = rng.choice([0, 0, 1, 2, 5]) if n_cols else 0  # 0 rows: header only
        header = [rng.choice(WRITER_CELLS) for _ in range(n_cols)]
        columns = [[rng.choice(WRITER_CELLS) for _ in range(n_rows)] for _ in range(n_cols)]
        rows = [list(row) for row in zip(*columns)]
        got, want = tmp_path / f"got_{case}.csv", tmp_path / f"want_{case}.csv"
        write_csv_columns(got, header, columns)
        write_csv_by_writer(want, header, rows)
        assert got.read_bytes() == want.read_bytes(), (header, rows)
        if not any("\r" in cell for cell in header + sum(columns, [])):
            # the oracle's quoting is csv.writer's own with a bare \n ending
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
            assert got.read_bytes() == buffer.getvalue().encode("utf-8"), (header, rows)
        assert read_csv_rows(got) == (header, rows)


AWKWARD_IDS = ["C\r1", "C\n2", "C\r\n3", "C,4", 'C"5', "C6"]


def test_ids_holding_line_ends_commas_and_quotes_round_trip(tmp_path):
    # a lone \r in a cell is quoted too, so it is not read as a line end
    schema = [ColumnSchema("customer_id", "identifier"),
              ColumnSchema("balance", "continuous", "float32")]
    balance = np.arange(len(AWKWARD_IDS), dtype=np.float32) / 4
    table = StatementTable(schema, np.array(AWKWARD_IDS, dtype=object), {"balance": balance})
    path, _ = write_clean(table, tmp_path / "clean.csv")
    back = read_clean(path)
    assert back.customer_ids.tolist() == AWKWARD_IDS
    assert back.columns["balance"].tolist() == balance.tolist()

    plan = FoldPlan(2, np.array([0, 1] * 3))
    save_oof(AWKWARD_IDS, plan, balance.astype(np.float64), tmp_path / "oof.csv")
    assert read_keyed_column(tmp_path / "oof.csv", "probability", float, "score") == (
        AWKWARD_IDS, balance.tolist()
    )
    assert read_keyed_column(tmp_path / "oof.csv", "fold", int, "score") == (
        AWKWARD_IDS, [0, 1] * 3
    )
