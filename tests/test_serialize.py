"""Shared I/O layer tests: the CSV reader and writer, the JSON reader,
and the rule that no other module reads or writes those formats itself."""

import json
import re
from pathlib import Path

import pytest

from credit_stack.errors import ConfigError, DataError
from credit_stack.serialize import (
    dumps,
    read_csv_rows,
    read_json_doc,
    read_keyed_column,
    write_csv_rows,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "credit_stack"
BOM = b"\xef\xbb\xbf"
OVERSIZED = "C" * 200_000  # past the csv module's default field size limit


def test_only_serialize_reads_and_writes_csv_and_json():
    # features.py's binary matrix container reads its own files, but writes
    # through serialize.open_output like every other output; a write mode is
    # a quoted mode string holding w, a or x
    pattern = re.compile(
        r"csv\.reader\(|csv\.writer\(|json\.loads\(|utf-8-sig"
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
        write_csv_rows(deep, ["customer_id", "value"], ROWS)
        assert deep.read_bytes() == plain_csv
    elif case == "non-UTF-8":
        csv_path.write_bytes(plain_csv.replace("é".encode("utf-8"), b"\xe9"))
        json_path.write_bytes(plain_json.replace(b'"a"', b'"\xe9"'))
        with pytest.raises(DataError, match="codec can't decode"):
            read_csv_rows(csv_path)
        with pytest.raises(ConfigError, match="codec can't decode"):
            read_json_doc(json_path, "doc", ConfigError)
        # the writer encodes every cell as UTF-8
        write_csv_rows(csv_path, ["customer_id", "value"], ROWS)
        assert csv_path.read_bytes() == plain_csv
    elif case == "BOM":
        csv_path.write_bytes(BOM + plain_csv)
        json_path.write_bytes(BOM + plain_json)
        assert read_csv_rows(csv_path) == (["customer_id", "value"], ROWS)
        assert read_json_doc(json_path, "doc", DataError) == DOC
        # the writer never emits one
        write_csv_rows(csv_path, ["customer_id", "value"], ROWS)
        assert not csv_path.read_bytes().startswith(BOM)
    elif case == "CRLF":
        csv_path.write_bytes(plain_csv.replace(b"\n", b"\r\n"))
        json_path.write_bytes(plain_json.replace(b"\n", b"\r\n"))
        assert read_csv_rows(csv_path) == (["customer_id", "value"], ROWS)
        assert read_json_doc(json_path, "doc", DataError) == DOC
        # the writer ends rows in a bare \n and quotes a cell holding \r\n
        write_csv_rows(csv_path, ["customer_id", "value"], [["C1", "x\r\ny"]])
        assert csv_path.read_bytes() == b'customer_id,value\nC1,"x\r\ny"\n'
        assert read_csv_rows(csv_path) == (["customer_id", "value"], [["C1", "x\r\ny"]])
    elif case == "oversized cell":
        write_csv_rows(csv_path, ["customer_id", "value"], [[OVERSIZED, "1"]])
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
        write_csv_rows(csv_path, ["customer_id", "value"], [])
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
