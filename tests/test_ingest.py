"""CSV ingestion and cleaning tests: parsing, rounding, masking, labels."""

import csv
import math
import re
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from credit_stack import ingest
from credit_stack.errors import (
    ConfigError,
    DataError,
)
from credit_stack.ingest import (
    MISSING_CODE,
    ColumnSchema,
    StatementTable,
    _parse_code,
    _parse_float,
    align_labels,
    align_values,
    clean,
    compact_types,
    denoise_round,
    join_labels,
    load_schema,
    mask_outliers,
    parse_csv,
    read_clean,
    read_labels,
    schema_to_json,
    write_clean,
    write_csv,
    write_labels,
)
from oracles import write_csv_by_cell

SRC = Path(__file__).resolve().parents[1] / "src" / "credit_stack"

SCHEMA = [
    ColumnSchema("customer_id", "identifier"),
    ColumnSchema("statement_date", "date"),
    ColumnSchema("balance", "continuous", "float32", (-5.0, 5.0)),
    ColumnSchema("spend", "continuous", "float32"),
    ColumnSchema("region", "categorical", "int8"),
]

HEADER = "customer_id,statement_date,balance,spend,region"


def make_csv(tmp_path, body, name="data.csv", header=HEADER):
    path = tmp_path / name
    path.write_text(header + "\n" + body, encoding="utf-8")
    return path


def test_parse_three_rows_orders_by_date(tmp_path):
    path = make_csv(
        tmp_path,
        "A,2017-05-01,1.5,0.2,3\n"
        "A,2017-03-01,0.5,0.1,2\n"
        "A,2017-04-01,1.0,0.3,1\n",
    )
    table = parse_csv(path, SCHEMA)
    assert table.n_rows == 3
    assert table.statement_index.tolist() == [1, 2, 3]
    # rows reordered to March, April, May
    assert table.columns["balance"].tolist() == [0.5, 1.0, 1.5]
    assert table.columns["region"].tolist() == [2, 1, 3]


def test_parse_empty_cells_become_missing(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,,0.1,\n")
    table = parse_csv(path, SCHEMA)
    assert math.isnan(table.columns["balance"][0])
    assert table.columns["region"][0] == MISSING_CODE


def test_parse_negative_code_becomes_missing(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,0.5,0.1,-3\n")
    table = parse_csv(path, SCHEMA)
    assert table.columns["region"][0] == MISSING_CODE


def test_parse_unparseable_cell_becomes_missing(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,oops,0.1,2\n")
    table = parse_csv(path, SCHEMA)
    assert math.isnan(table.columns["balance"][0])


# cells that float() or int() read in a surprising way, or reject
ODD_CELLS = ["", "nan", "-nan", "NaN", "inf", "-inf", "1e400", "-1e400", " 1.5 ", "1_0",
             "١٢", "-0.0", "0", "3.0", "7", "-3", "12345678901234567890",
             "-99999999999999999999"]


def test_parse_columns_equal_the_per_cell_parse_bit_for_bit(tmp_path):
    rng = np.random.default_rng(8)
    cells = ODD_CELLS * 3
    # fast: every cell is one float() / int() takes (or blank); slow: one is not
    columns = {
        "fast_x": [c for c in cells if c != "3.0"] + ["0.25"],
        "slow_x": list(cells) + ["garbage"],
        "fast_c": [c for c in cells if c not in ("nan", "-nan", "NaN", "inf", "-inf", "1e400",
                                                 "-1e400", " 1.5 ", "-0.0", "3.0",
                                                 "12345678901234567890")] + ["9"],
        "slow_c": [c for c in cells if c != "12345678901234567890"] + ["garbage"],
        # every code compact_types stores (0..32767) once: each cell is distinct
        "wide_c": [str(code) for code in range(32768)]
        + [c for c in ODD_CELLS if c != "12345678901234567890"],
    }
    n = max(len(v) for v in columns.values())
    for values in columns.values():  # every odd cell, in a shuffled order
        values[:] = (values * math.ceil(n / len(values)))[:n]
        rng.shuffle(values)
    schema = [ColumnSchema("customer_id", "identifier"),
              ColumnSchema("fast_x", "continuous"), ColumnSchema("slow_x", "continuous"),
              ColumnSchema("fast_c", "categorical"), ColumnSchema("slow_c", "categorical"),
              ColumnSchema("wide_c", "categorical")]
    path = tmp_path / "odd.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in schema])
        writer.writerows(zip((f"C{i:03d}" for i in range(n)), *columns.values()))

    table = parse_csv(path, schema)  # one row per customer: file order is kept
    for name in ("fast_x", "slow_x"):
        want = np.array([_parse_float(c) for c in columns[name]], dtype=np.float64)
        got = table.columns[name]
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), name
    for name in ("fast_c", "slow_c", "wide_c"):
        want = np.array([_parse_code(c) for c in columns[name]], dtype=np.int64)
        got = table.columns[name]
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), name
    # the odd cells really are in the table
    assert np.isnan(table.columns["fast_x"]).any() and (table.columns["fast_c"] == 12).any()
    assert (table.columns["slow_x"] == 10.0).any() and (table.columns["slow_c"] == 7).any()
    assert table.columns["wide_c"].max() == 32767 and (table.columns["wide_c"] == -1).any()
    assert compact_types(table).columns["wide_c"].dtype == np.int16


def _counting(rule, seen):
    def parse(cell):
        seen.append(cell)
        return rule(cell)
    return parse


def test_parse_runs_each_cell_rule_once_per_distinct_cell(tmp_path, monkeypatch):
    parse_code, parse_ordinal = ingest._parse_code, ingest._parse_ordinal
    codes_seen, dates_seen = [], []
    monkeypatch.setattr(ingest, "_parse_code", _counting(parse_code, codes_seen))
    monkeypatch.setattr(ingest, "_parse_ordinal", _counting(parse_ordinal, dates_seen))
    dates = ["2017-03-01", "", "garbage", "2017-02-30", " 2017-03-01 ", "2017-04-01"] * 5
    codes = ["1", "", "garbage", "-3", "١٢", "7", "1"] * 4 + ["2", "2"]
    body = "".join(f"C{i},{d},0.5,0.1,{c}\n" for i, (d, c) in enumerate(zip(dates, codes)))
    table = parse_csv(make_csv(tmp_path, body), SCHEMA)  # one row per customer: file order
    assert sorted(codes_seen) == sorted(set(codes))
    assert sorted(dates_seen) == sorted(set(dates))
    assert table.columns["region"].tolist() == [parse_code(c) for c in codes]
    assert table.columns["statement_date"].tolist() == [parse_ordinal(d) for d in dates]


@pytest.mark.parametrize("code", ["99999999999999999999", "9223372036854775808"])
@pytest.mark.parametrize("other", ["1", "garbage"])
def test_parse_code_past_int64_names_the_column(tmp_path, code, other):
    path = make_csv(tmp_path, f"A,2017-03-01,0.5,0.1,{code}\nB,2017-03-01,0.5,0.1,{other}\n")
    with pytest.raises(DataError, match=f"column 'region': code {code} exceeds"):
        parse_csv(path, SCHEMA)
    # a negative code of any size is missing, as any negative code is
    path = make_csv(tmp_path, f"A,2017-03-01,0.5,0.1,-{code}\nB,2017-03-01,0.5,0.1,{other}\n")
    assert parse_csv(path, SCHEMA).columns["region"][0] == MISSING_CODE


def test_parse_duplicate_statement_raises(tmp_path):
    path = make_csv(
        tmp_path,
        "A,2017-03-01,0.5,0.1,2\nA,2017-03-01,0.6,0.2,1\n",
    )
    with pytest.raises(DataError, match="'A' has two statements dated 2017-03-01"):
        parse_csv(path, SCHEMA)


def test_parse_unreadable_dates_become_missing(tmp_path):
    cells = ["2017-03-01", "", "garbage", "2017-02-30", " 2017-03-01 ", "2017-03-01", "garbage", ""]
    body = "".join(f"C{i},{cell},0.5,0.1,1\n" for i, cell in enumerate(cells))
    table = parse_csv(make_csv(tmp_path, body), SCHEMA)
    assert table.customer_ids.tolist() == [f"C{i}" for i in range(len(cells))]
    march, gone = date(2017, 3, 1).toordinal(), MISSING_CODE
    assert table.columns["statement_date"].tolist() == [
        march, gone, gone, gone, march, march, gone, gone
    ]
    # two blank dates of one customer are two statements of one (missing) date
    path = make_csv(tmp_path, "A,,0.5,0.1,2\nA,,0.6,0.2,1\n", name="blank.csv")
    with pytest.raises(DataError, match="'A' has two statements dated <missing>"):
        parse_csv(path, SCHEMA)


def test_parse_header_mismatch_raises(tmp_path):
    path = make_csv(
        tmp_path,
        "A,2017-03-01,0.5,2\n",
        header="customer_id,statement_date,balance,region",
    )
    with pytest.raises(DataError, match=r"header does not match schema; missing \['spend'\]"):
        parse_csv(path, SCHEMA)


@pytest.mark.parametrize("schema, message", [
    (SCHEMA[1:], "schema must declare exactly one identifier column, found 0"),
    ([*SCHEMA, ColumnSchema("paid_date", "date")], "schema may declare at most one date column"),
], ids=["no-identifier", "two-dates"])
def test_parse_checks_a_python_built_schema_like_load_schema(tmp_path, schema, message):
    # the list rules hold for a schema that never went through load_schema
    path = make_csv(tmp_path, "A,2017-03-01,0.5,0.1,2\n",
                    header=",".join(c.name for c in schema))
    with pytest.raises(ConfigError, match=f"^{message}$") as raised:
        parse_csv(path, schema)
    assert raised.value.exit_code == 2


def test_parse_empty_file_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="no header row"):
        parse_csv(path, SCHEMA)


def test_parse_short_row_raises(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,0.5\n")
    with pytest.raises(DataError):
        parse_csv(path, SCHEMA)


def test_parse_blank_customer_id_raises(tmp_path):
    path = make_csv(tmp_path, ",2017-03-01,0.5,0.1,2\n")
    with pytest.raises(DataError):
        parse_csv(path, SCHEMA)


def test_parse_fourteen_statements_raises(tmp_path):
    rows = [f"A,2017-{m:02d}-01,0.1,0.1,1" for m in range(1, 13)]
    rows += ["A,2018-01-01,0.1,0.1,1", "A,2018-02-01,0.1,0.1,1"]
    path = make_csv(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(DataError):
        parse_csv(path, SCHEMA)


def test_parse_groups_interleaved_customers(tmp_path):
    path = make_csv(
        tmp_path,
        "B,2017-04-01,1.0,0.1,1\n"
        "A,2017-03-01,2.0,0.2,2\n"
        "B,2017-03-01,3.0,0.3,3\n"
        "A,2017-04-01,4.0,0.4,4\n",
    )
    table = parse_csv(path, SCHEMA)
    # first-appearance order of customers, dates ascending inside each
    assert table.customer_ids.tolist() == ["B", "B", "A", "A"]
    assert table.statement_index.tolist() == [1, 2, 1, 2]
    assert table.columns["balance"].tolist() == [3.0, 1.0, 2.0, 4.0]
    assert table.customers().tolist() == ["B", "A"]
    assert table.row_starts().tolist() == [0, 2] and table.row_counts().tolist() == [2, 2]
    empty = StatementTable(SCHEMA, table.customer_ids[:0], {})
    assert empty.row_starts().size == empty.row_counts().size == empty.customers().size == 0


def test_take_keeps_each_customers_rows_and_renumbers_them(tmp_path):
    path = make_csv(
        tmp_path,
        "B,2017-04-01,1.0,0.1,1\n"
        "A,2017-03-01,2.0,0.2,2\n"
        "B,2017-03-01,3.0,0.3,3\n"
        "A,2017-04-01,4.0,0.4,4\n"
        "A,2017-05-01,5.0,0.5,5\n",
    )
    table = parse_csv(path, SCHEMA)
    assert table.statement_index.tolist() == [1, 2, 1, 2, 3]
    later = table.take(table.statement_index > 1)
    assert later.customer_ids.tolist() == ["B", "A", "A"]
    assert later.statement_index.tolist() == [1, 1, 2]
    assert later.columns["balance"].tolist() == [1.0, 4.0, 5.0]
    assert later.schema is table.schema
    picked = table.take(np.array([2, 4]))
    assert picked.customer_ids.tolist() == ["A", "A"] and picked.statement_index.tolist() == [1, 2]
    assert table.take(np.zeros(5, dtype=bool)).statement_index.size == 0
    # each taken table finds its own row blocks; the source keeps its
    # blocks, found once and read-only
    assert later.row_starts().tolist() == [0, 1] and later.row_counts().tolist() == [1, 2]
    assert later.customers().tolist() == ["B", "A"]
    assert picked.row_starts().tolist() == [0] and picked.row_counts().tolist() == [2]
    assert picked.customers().tolist() == ["A"]
    assert table.row_starts().tolist() == [0, 2] and table.row_counts().tolist() == [2, 3]
    assert table.row_starts() is table.row_starts()
    with pytest.raises(ValueError):
        table.row_counts()[0] = 9


def test_clean_file_pair_round_trip(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,1.004,0.5,300\nA,2017-04-01,9.0,,\nB,2017-03-01,,2.25,1\n")
    table, _ = clean(parse_csv(path, SCHEMA), 0.01)
    out = tmp_path / "run" / "clean.csv"
    assert write_clean(table, out) == (out, tmp_path / "run" / "clean.csv.schema.json")
    # the sidecar records the widths compact_types chose, not the declared ones
    assert [c.storage for c in load_schema(out.parent / "clean.csv.schema.json")] == [
        "float32", "float32", "float32", "float32", "int16"
    ]
    back = read_clean(out)
    assert back.schema == table.schema
    assert back.customer_ids.tolist() == table.customer_ids.tolist()
    for name, values in table.columns.items():
        np.testing.assert_array_equal(back.columns[name], values)
        assert back.columns[name].dtype == values.dtype
    (out.parent / "clean.csv.schema.json").unlink()
    with pytest.raises(DataError, match="clean.csv.schema.json not found; run prep first"):
        read_clean(out)


def test_denoise_rounds_to_nearest_multiple(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,0.123456,-0.005,2\nB,2017-03-01,-0.004,0.004,1\n")
    # rounding runs on freshly parsed values, before storage narrowing
    out = compact_types(denoise_round(parse_csv(path, SCHEMA), 0.01))
    assert out.columns["balance"][0] == np.float32(0.12)
    # tie rounds away from zero
    assert out.columns["spend"][0] == np.float32(-0.01)
    # a value that rounds to zero is +0.0, whichever its sign
    for name in ("balance", "spend"):
        assert out.columns[name][1] == 0.0 and not np.signbit(out.columns[name][1])


def test_denoise_keeps_missing_and_categoricals(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,,0.126,5\n")
    table = compact_types(parse_csv(path, SCHEMA))
    out = denoise_round(table, 0.01)
    assert math.isnan(out.columns["balance"][0])
    assert out.columns["region"][0] == 5


def test_denoise_idempotent_random(tmp_path):
    rng = np.random.default_rng(0)
    rows = [
        f"C{i//9},2017-{i % 9 + 1:02d}-01,{rng.normal():.6f},{rng.normal():.6f},{rng.integers(0, 4)}"
        for i in range(90)
    ]
    path = make_csv(tmp_path, "\n".join(rows) + "\n")
    table = compact_types(parse_csv(path, SCHEMA))
    once = denoise_round(table, 0.01)
    twice = denoise_round(once, 0.01)
    for name in ("balance", "spend"):
        np.testing.assert_array_equal(once.columns[name], twice.columns[name])


def test_denoise_rejects_bad_precision(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,0.5,0.1,2\n")
    table = parse_csv(path, SCHEMA)
    for precision in (0.0, -0.01, math.inf, math.nan):
        with pytest.raises(ConfigError, match="precision must be finite and > 0"):
            denoise_round(table, precision)


def test_denoise_rejects_a_multiple_that_overflows(tmp_path):
    # 0.5 / 1e-320 overflows float64, so the cell would become inf and
    # then be masked or written as a blank; 0.0 snaps to 0.0 at any step
    path = make_csv(tmp_path, "A,2017-03-01,0.0,0.5,2\n")
    table = parse_csv(path, SCHEMA)
    with pytest.raises(DataError, match=r"column 'spend': value 0\.5 of customer 'A'"):
        denoise_round(table, 1e-320)


def test_compact_narrows_storage(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,0.5,0.333333,7\n")
    table = compact_types(parse_csv(path, SCHEMA))
    assert table.columns["balance"].dtype == np.float32
    assert table.columns["region"].dtype == np.int8
    assert table.columns["spend"][0] == np.float32(0.333333)


def test_compact_promotes_wide_codes(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,0.5,0.1,300\n")
    table = compact_types(parse_csv(path, SCHEMA))
    assert table.columns["region"].dtype == np.int16
    assert table.columns["region"][0] == 300


def test_compact_overflow_raises(tmp_path):
    path = make_csv(tmp_path, "A,2017-03-01,0.5,0.1,70000\n")
    with pytest.raises(DataError, match="column 'region': code 70000 exceeds 16-bit storage"):
        compact_types(parse_csv(path, SCHEMA))


def test_compact_float32_overflow_names_column_and_customer(tmp_path):
    path = make_csv(
        tmp_path,
        "A,2017-03-01,0.5,0.1,1\n"
        "B,2017-03-01,0.5,1e39,1\n"
        "B,2017-04-01,0.5,-3.4e38,1\n",
    )
    with pytest.raises(DataError, match=r"column 'spend': value 1e\+39 of customer 'B'"):
        compact_types(parse_csv(path, SCHEMA))


def test_mask_outliers_rules(tmp_path):
    path = make_csv(
        tmp_path,
        "A,2017-03-01,7.3,9.9,2\n"
        "A,2017-04-01,5.0,1.0,3\n"
        "A,2017-05-01,-6.0,2.0,1\n",
    )
    table = compact_types(parse_csv(path, SCHEMA))
    masked, counts = mask_outliers(table)
    # balance has range [-5, 5]: 7.3 and -6.0 die, boundary 5.0 survives
    col = masked.columns["balance"]
    assert math.isnan(col[0]) and col[1] == 5.0 and math.isnan(col[2])
    assert counts["balance"] == 2
    # spend declares no range: untouched
    np.testing.assert_array_equal(masked.columns["spend"], table.columns["spend"])
    assert masked.n_rows == table.n_rows
    assert set(masked.columns) == set(table.columns)


def test_clean_rounds_before_narrowing_then_masks(tmp_path):
    path = make_csv(
        tmp_path,
        "A,2017-03-01,7.3,-0.005,2\n"
        "A,2017-04-01,4.996,0.126,3\n",
    )
    raw = parse_csv(path, SCHEMA)
    table, masked = clean(raw, 0.01)
    # float32(-0.005) sits above the tie, so rounding after narrowing
    # gives -0.0; clean rounds the parsed float64 value first
    assert table.columns["spend"].tolist() == [np.float32(-0.01), np.float32(0.13)]
    assert denoise_round(compact_types(raw), 0.01).columns["spend"][0] == 0.0
    # 4.996 rounds to 5.0, the inclusive bound, and survives the mask
    assert math.isnan(table.columns["balance"][0]) and table.columns["balance"][1] == 5.0
    assert masked == {"balance": 1}
    assert table.schema[-1].storage == "int8"
    with pytest.raises(ConfigError, match="precision must be finite and > 0, got 0.0"):
        clean(raw, 0.0)


def test_only_ingest_runs_the_cleaning_steps():
    # the order denoise -> compact -> mask lives in ingest.clean alone,
    # and the grid-rounding formula in ingest.snap_to_grid alone
    pattern = re.compile(r"\b(denoise_round|compact_types|mask_outliers)\(|np\.floor\(np\.abs\(")
    offenders = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "ingest.py"
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert len(list(SRC.glob("*.py"))) > 10
    assert offenders == []


def test_only_ingest_names_the_schema_sidecar_and_builds_statement_tables():
    # the cleaned-file pair is named in ingest alone, and a table's rows
    # are laid out by ingest (parse, clean, take) or generated by synth
    lines = {
        path.name: path.read_text(encoding="utf-8").splitlines()
        for path in sorted(SRC.glob("*.py"))
    }

    def offenders(spelling, owners):
        return [
            f"{name}:{i}: {line.strip()}"
            for name, text in lines.items()
            if name not in owners
            for i, line in enumerate(text, 1)
            if spelling in line
        ]

    assert len(lines) > 10
    assert any(".schema.json" in line for line in lines["ingest.py"])
    assert any("StatementTable(" in line for line in lines["synth.py"])
    assert offenders(".schema.json", {"ingest.py"}) == []
    assert offenders("StatementTable(", {"ingest.py", "synth.py"}) == []


def test_only_ingest_checks_labels_for_0_or_1():
    # the 0/1 label rule lives in ingest.check_labels alone; a copy of it
    # elsewhere would be spelled with one of these
    pattern = re.compile(
        r"0 or 1|\bisin\(|\bin [({\[]0(\.0)?, 1(\.0)?[)}\]]\s*(:|\)|for\b)"
        r"|!= 0(\.0)?\) & \(\w+ != 1"
    )
    lines = {
        path.name: path.read_text(encoding="utf-8").splitlines()
        for path in sorted(SRC.glob("*.py"))
    }
    offenders = [
        f"{name}:{i}: {line.strip()}"
        for name, text in lines.items()
        if name != "ingest.py"
        for i, line in enumerate(text, 1)
        if pattern.search(line)
    ]
    assert len(lines) > 10
    assert sum(bool(pattern.search(line)) for line in lines["ingest.py"]) >= 2
    assert offenders == []


def test_join_labels_exact_and_superset(tmp_path):
    path = make_csv(
        tmp_path,
        "A,2017-03-01,0.5,0.1,2\nB,2017-03-01,0.6,0.2,1\n",
    )
    table = parse_csv(path, SCHEMA)
    target = join_labels(table, {"A": 1, "B": 0})
    assert target.tolist() == [1, 0] and target.dtype == np.int8
    # extra labels are tolerated
    assert join_labels(table, {"A": 1, "B": 0, "Z": 1}).tolist() == [1, 0]


def test_join_labels_missing_names_customer(tmp_path):
    path = make_csv(
        tmp_path,
        "A,2017-03-01,0.5,0.1,2\nB,2017-03-01,0.6,0.2,1\n",
    )
    table = parse_csv(path, SCHEMA)
    with pytest.raises(DataError, match="no label for customer 'B'"):
        join_labels(table, {"A": 1})


def test_align_labels_follows_the_given_order():
    labels = {"A": 1, "B": 0, "C": 1}
    out = align_labels(["C", "A", "B", "A"], labels)
    assert out.dtype == np.int8 and out.tolist() == [1, 1, 0, 1]
    with pytest.raises(DataError, match="no label for customer 'D'"):
        align_labels(["A", "D"], labels)
    with pytest.raises(DataError, match="0 or 1"):
        align_labels(["A"], {"A": 2})


def test_align_values_names_the_first_missing_id():
    keyed = {"A": 0.5, "B": 0.25, "Z": 1.0}
    assert align_values(np.array(["B", "A"]), keyed, "score") == [0.25, 0.5]
    with pytest.raises(DataError, match=r"^no score in p\.csv for customer 'C'$"):
        align_values(np.array(["A", "C", "D"]), keyed, "score in p.csv")


@pytest.mark.parametrize("bad", ["2", "0.5", "nan"])
def test_align_labels_rejects_a_label_that_is_not_0_or_1(bad):
    with pytest.raises(DataError, match=f"labels must be 0 or 1, found {float(bad)}$"):
        align_labels(["A", "B"], {"A": 1, "B": float(bad)})


def test_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(1)
    rows = []
    for i in range(40):
        cust = f"C{i//5:03d}"
        month = i % 5 + 1
        bal = "" if rng.random() < 0.2 else f"{rng.normal():.6f}"
        code = "" if rng.random() < 0.2 else str(rng.integers(0, 9))
        rows.append(f"{cust},2017-{month:02d}-01,{bal},{rng.normal():.6f},{code}")
    path = make_csv(tmp_path, "\n".join(rows) + "\n")
    table = compact_types(parse_csv(path, SCHEMA))

    out = tmp_path / "round.csv"
    write_csv(table, out)
    back = compact_types(parse_csv(out, table.schema))
    assert back.customer_ids.tolist() == table.customer_ids.tolist()
    np.testing.assert_array_equal(back.statement_index, table.statement_index)
    for name in table.columns:
        np.testing.assert_array_equal(back.columns[name], table.columns[name])

    # and the bytes themselves are reproducible
    out2 = tmp_path / "round2.csv"
    write_csv(back, out2)
    assert out.read_bytes() == out2.read_bytes()


# ids the csv module has to quote or that only survive as UTF-8
AWKWARD_IDS = ["A", "B,1", 'say "hi"', "two\nlines", " lead", "tr\u00e9s", "\u5ba2\u6237", "x\r"]


def _float_pool(dtype):
    """Values whose text must stay apart: both zeros, NaN payloads, subnormals, extremes."""
    info = np.finfo(dtype)
    uint = np.dtype(f"u{np.dtype(dtype).itemsize}")
    nan_bits = (
        [0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800001, 0xFFFFFFFF]
        if uint.itemsize == 4
        else [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001]
    )
    nans = np.array(nan_bits, dtype=uint).view(dtype)
    plain = np.array(
        [0.0, -0.0, 0.01, -0.01, 0.1, 1.5, -2.25, 1e-7, 123456.78,
         info.smallest_subnormal, -info.smallest_subnormal, info.smallest_subnormal * 3,
         info.tiny, info.max, -info.max],
        dtype=dtype,
    )
    return np.concatenate([nans, plain])


def _random_table(rng, n_rows):
    schema = [ColumnSchema("customer_id", "identifier")]
    columns = {}
    if rng.random() < 0.7:
        schema.append(ColumnSchema("statement_date", "date"))
        columns["statement_date"] = rng.choice(
            np.array([-1, 1, 736_389, 736_420, 3_652_059]), size=n_rows
        ).astype(np.int64)
    for c in range(int(rng.integers(1, 4))):
        dtype = np.float32 if rng.random() < 0.7 else np.float64
        pool = _float_pool(dtype)
        if rng.random() < 0.5:  # grid-rounded values repeat a lot
            pool = np.concatenate([pool, np.round(rng.normal(size=6), 2).astype(dtype)])
        values = rng.choice(pool, size=2 * n_rows)
        fresh = rng.random(2 * n_rows) < 0.3
        values[fresh] = rng.normal(size=int(fresh.sum())).astype(dtype)
        schema.append(ColumnSchema(f"cont_{c}", "continuous", np.dtype(dtype).name))
        columns[f"cont_{c}"] = values[::2]  # a strided view, as a column slice would be
    for c in range(int(rng.integers(0, 3))):
        storage = str(rng.choice(["int8", "int16", "int64"]))
        top = np.iinfo(storage).max
        codes = rng.choice(np.array([-1, 0, 1, 2, 7, top]), size=n_rows).astype(storage)
        schema.append(ColumnSchema(f"cat_{c}", "categorical", storage))
        columns[f"cat_{c}"] = codes
    ids = np.array(rng.choice(AWKWARD_IDS, size=n_rows).tolist(), dtype=object)
    return StatementTable(schema, ids, columns)


def test_write_csv_matches_per_cell_oracle_byte_for_byte(tmp_path):
    rng = np.random.default_rng(2026)
    counts = {"empty": 0, "one": 0, "neg_zero": 0, "nan_payload": 0, "subnormal": 0}
    for case in range(300):
        n_rows = [0, 1, 1, 2, int(rng.integers(3, 60))][case % 5]
        table = _random_table(rng, n_rows)
        got, want = tmp_path / f"new_{case}.csv", tmp_path / f"old_{case}.csv"
        write_csv(table, got)
        write_csv_by_cell(table, want)
        assert got.read_bytes() == want.read_bytes(), case

        counts["empty"] += n_rows == 0
        counts["one"] += n_rows == 1
        for values in table.columns.values():
            if values.dtype.kind != "f":
                continue
            bits = values.view(f"u{values.itemsize}")
            counts["neg_zero"] += bool(((values == 0) & np.signbit(values)).any())
            quiet = np.array(np.nan, dtype=values.dtype).view(bits.dtype)
            counts["nan_payload"] += bool((np.isnan(values) & (bits != quiet)).any())
            tiny = np.finfo(values.dtype).tiny
            counts["subnormal"] += bool(((values != 0) & (np.abs(values) < tiny)).any())
    assert min(counts.values()) >= 20, counts


def test_labels_round_trip(tmp_path):
    labels = {"A": 1, "B": 0, "C": 1}
    path = tmp_path / "labels.csv"
    write_labels(labels, path)
    assert read_labels(path) == labels
    bom = tmp_path / "bom_labels.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_labels(bom) == labels


def test_read_labels_rejects_bad_rows(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("customer_id,target\nA,7\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_labels(path)


def test_read_labels_finds_the_target_column_by_name(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("target,note,customer_id\n1,x,A\n0,y,B\n", encoding="utf-8")
    assert read_labels(path) == {"A": 1, "B": 0}
    path.write_text("customer_id,label\nA,1\nB,0\n", encoding="utf-8")
    with pytest.raises(DataError, match="no 'target' column"):
        read_labels(path)
    for cell, message in (("2", "labels must be 0 or 1, found 2.0"),
                          ("0.5", r"row 3: invalid literal for int\(\) .*'0\.5'")):
        path.write_text(f"customer_id,target\nA,1\nB,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match=message):
            read_labels(path)


def test_read_labels_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("customer_id,target\nA,0\nB,1\nA,1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"rows 2 and 4 .*'A'"):
        read_labels(path)


def test_load_schema_round_trip(tmp_path):
    doc = schema_to_json(SCHEMA)
    import json

    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_schema(path)
    assert loaded == SCHEMA


def test_load_schema_validation():
    with pytest.raises(ConfigError):
        load_schema([{"name": "x", "kind": "continuous"}])  # no identifier
    with pytest.raises(ConfigError):
        load_schema(
            [
                {"name": "a", "kind": "identifier"},
                {"name": "b", "kind": "identifier"},
            ]
        )
    with pytest.raises(ConfigError):
        load_schema(
            [
                {"name": "a", "kind": "identifier"},
                {"name": "x", "kind": "continuous", "valid_range": [2.0, 1.0]},
            ]
        )
    with pytest.raises(ConfigError):
        load_schema(
            [
                {"name": "a", "kind": "identifier"},
                {"name": "x", "kind": "mystery"},
            ]
        )


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"name": "x", "kind": "continuous", "valid_rnage": [0, 1]},
         r"unknown schema entry 1 keys: \['valid_rnage'\]"),
        ({"name": "x"}, "schema entry 1 is missing 'kind'"),
        ({"kind": "continuous"}, "schema entry 1 is missing 'name'"),
        ({"name": 3, "kind": "continuous"}, "'name' must be a string"),
        ("schema.json", "schema entry 1 must be a JSON object"),  # never read as a path
        ({"name": "x", "kind": "continuous", "valid_range": [math.nan, 8]}, "valid_range"),
        ({"name": "x", "kind": "continuous", "valid_range": [0, math.inf]}, "valid_range"),
        ({"name": "x", "kind": "continuous", "valid_range": [True, 2]}, "valid_range"),
        ({"name": "x", "kind": "continuous", "valid_range": [{}, 2]}, "valid_range"),
        ({"name": "x", "kind": "continuous", "valid_range": [1]}, "valid_range"),
        ({"name": "x", "kind": "categorical", "valid_range": [0, 2]},
         "valid_range of 'x' needs a continuous column"),
        ({"name": "x", "kind": "date", "valid_range": [0, 2]},
         "valid_range of 'x' needs a continuous column"),
        ({"name": "x", "kind": "continuous", "storage": "float64"}, "unknown storage"),
    ],
)
def test_load_schema_reads_each_entry_like_a_config(entry, message):
    with pytest.raises(ConfigError, match=message):
        load_schema([{"name": "a", "kind": "identifier"}, entry])


def test_load_schema_keeps_integer_ranges_as_floats():
    schema = load_schema(
        [{"name": "a", "kind": "identifier"},
         {"name": "x", "kind": "continuous", "valid_range": [-8, 8]}]
    )
    assert schema[1] == ColumnSchema("x", "continuous", "float32", (-8.0, 8.0))
    assert all(isinstance(v, float) for v in schema[1].valid_range)
