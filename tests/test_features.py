"""Feature engineering tests: aggregation, lag, window, encoding, container."""

import json
import math
import warnings

import numpy as np
import pytest

from credit_stack import features, synth
from credit_stack.errors import ConfigError, DataError
from credit_stack.features import (
    CATEGORICAL_STATS,
    CONTINUOUS_STATS,
    AggregationSpec,
    FeatureMatrix,
    _continuous_stats,
    build_matrix,
    encode_categorical,
    fit_vocabulary,
    load_matrix,
    load_vocabulary,
    save_matrix,
    select_recent_window,
    spec_from_json,
)
from credit_stack.ingest import (
    MISSING_CODE,
    ColumnSchema,
    StatementTable,
    clean,
    join_labels,
    parse_csv,
    read_clean,
    write_clean,
    write_csv,
)
from oracles import (
    aggregate_categorical,
    aggregate_continuous,
    build_matrix_by_customer,
    direct_categorical_stats,
    direct_continuous_stats,
    ulp32_close,
)

SCHEMA = [
    ColumnSchema("customer_id", "identifier"),
    ColumnSchema("statement_date", "date"),
    ColumnSchema("bal", "continuous", "float32"),
    ColumnSchema("spend", "continuous", "float32"),
    ColumnSchema("region", "categorical", "int8"),
]


def tiny_table(per_customer):
    """Build a StatementTable from {customer: [(bal, spend, region), ...]}."""
    ids, bal, spend, region, date = [], [], [], [], []
    for cust, rows in per_customer.items():
        for i, (b, s, r) in enumerate(rows):
            ids.append(cust)
            bal.append(b)
            spend.append(s)
            region.append(r)
            date.append(736000 + i)
    return StatementTable(
        SCHEMA,
        np.asarray(ids),
        {
            "statement_date": np.asarray(date, dtype=np.int64),
            "bal": np.asarray(bal, dtype=np.float32),
            "spend": np.asarray(spend, dtype=np.float32),
            "region": np.asarray(region, dtype=np.int8),
        },
    )


def test_aggregate_continuous_basic():
    out = aggregate_continuous([1.0, 2.0, 3.0])
    assert out == {"mean": 2.0, "std": 1.0, "min": 1.0, "max": 3.0, "last": 3.0, "median": 2.0}


def test_aggregate_continuous_single_value():
    out = aggregate_continuous([5.0])
    assert out["mean"] == out["min"] == out["max"] == out["last"] == out["median"] == 5.0
    assert math.isnan(out["std"])


def test_aggregate_continuous_empty():
    out = aggregate_continuous([math.nan, math.nan])
    assert all(math.isnan(v) for v in out.values())


def test_aggregate_continuous_skips_missing():
    out = aggregate_continuous([1.0, math.nan, 3.0])
    assert out["mean"] == 2.0 and out["last"] == 3.0


def test_aggregate_categorical_basic():
    out = aggregate_categorical([4, 4, 7])
    assert out == {"count": 3.0, "last": 7.0, "nunique": 2.0}


def test_aggregate_categorical_missing_excluded():
    out = aggregate_categorical([MISSING_CODE, 2])
    assert out == {"count": 1.0, "last": 2.0, "nunique": 1.0}


def test_aggregate_categorical_all_missing():
    out = aggregate_categorical([MISSING_CODE, MISSING_CODE])
    assert out["count"] == 0.0 and math.isnan(out["last"]) and out["nunique"] == 0.0


def test_select_recent_window_suffix():
    rows = [(float(i), 0.0, 1) for i in range(13)]
    table = tiny_table({"A": rows})
    cut = select_recent_window(table, 6)
    assert cut.n_rows == 6
    assert cut.statement_index.tolist() == [1, 2, 3, 4, 5, 6]
    assert cut.columns["bal"].tolist() == [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]


def test_select_recent_window_short_history():
    table = tiny_table({"A": [(1.0, 0.0, 1)] * 4})
    cut = select_recent_window(table, 6)
    assert cut.n_rows == 4
    assert cut.statement_index.tolist() == [1, 2, 3, 4]


def test_select_recent_window_degenerate():
    table = tiny_table({"A": [(1.0, 0.0, 1), (9.0, 0.0, 2)], "B": [(4.0, 0.0, 3)]})
    cut = select_recent_window(table, 1)
    assert cut.n_rows == 2
    assert cut.columns["bal"].tolist() == [9.0, 4.0]


def test_encode_one_hot_columns():
    codes = {"region": np.asarray([0, 1, 2, 1], dtype=np.int64)}
    vocab = fit_vocabulary(codes)
    names, cols = encode_categorical(codes, vocab)
    assert names == ["region_is_0", "region_is_1", "region_is_2"]
    got = np.stack(cols, axis=1)
    np.testing.assert_array_equal(
        got, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0]]
    )


def test_encode_one_hot_unseen_is_all_zeros():
    train = {"region": np.asarray([0, 1, 2], dtype=np.int64)}
    vocab = fit_vocabulary(train)
    test = {"region": np.asarray([9, MISSING_CODE], dtype=np.int64)}
    _, cols = encode_categorical(test, vocab)
    got = np.stack(cols, axis=1)
    np.testing.assert_array_equal(got, [[0, 0, 0], [0, 0, 0]])


def test_one_hot_vocabulary_without_a_column_is_an_error():
    table = random_statement_table(np.random.default_rng(3), 10)
    spec = AggregationSpec(encode="one-hot")
    with pytest.raises(DataError, match="one-hot vocabulary has no entry for column 'product'"):
        build_matrix(table, spec, vocab={"region": [1, 2]})
    # an entry listing no codes is a choice, not a gap
    matrix, _ = build_matrix(table, spec, vocab={"region": [1, 2], "product": []})
    assert [name for name in matrix.column_names if "_is_" in name] == [
        "region_is_1", "region_is_2"
    ]


def test_load_vocabulary_rejects_a_code_listed_twice(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"region": [1, 2], "product": [3, 7, 3]}), encoding="utf-8")
    with pytest.raises(DataError, match="'product' lists code 3 twice") as err:
        load_vocabulary(path)
    assert str(path) in str(err.value)
    path.write_text(json.dumps({"region": [1, 2], "product": [3, 7]}), encoding="utf-8")
    assert load_vocabulary(path) == {"region": [1, 2], "product": [3, 7]}


def test_build_matrix_column_arithmetic():
    table = tiny_table({"A": [(1.0, 4.0, 2), (3.0, 8.0, 2)]})
    spec = AggregationSpec(
        continuous_stats=("mean", "last"), categorical_stats=(), lag_enabled=True
    )
    matrix, _ = build_matrix(table, spec)
    # 2 continuous columns x (2 stats + lag) = 6 engineered columns
    assert matrix.column_names == [
        "bal_mean", "bal_last", "bal_lag", "spend_mean", "spend_last", "spend_lag",
    ]
    assert join_labels(table, {"A": 1}).tolist() == [1]
    row = dict(zip(matrix.column_names, matrix.values[0]))
    assert row["bal_mean"] == 2.0 and row["bal_last"] == 3.0 and row["bal_lag"] == 1.0
    assert row["spend_lag"] == 2.0


def test_build_matrix_row_order_is_first_appearance():
    table = tiny_table({"B": [(1.0, 1.0, 0)], "A": [(2.0, 2.0, 1)]})
    matrix, _ = build_matrix(table, AggregationSpec())
    assert matrix.customer_ids.tolist() == ["B", "A"]
    labels = {"A": 0, "B": 1}
    assert join_labels(table, labels).tolist() == [labels[c] for c in matrix.customer_ids]


def test_build_matrix_full_spec_names():
    table = tiny_table({"A": [(1.0, 2.0, 3)]})
    matrix, vocab = build_matrix(table, AggregationSpec(encode="ordinal"))
    expected = [
        "bal_mean", "bal_std", "bal_min", "bal_max", "bal_last", "bal_median", "bal_lag",
        "spend_mean", "spend_std", "spend_min", "spend_max", "spend_last",
        "spend_median", "spend_lag",
        "region_count", "region_last", "region_nunique",
    ]
    assert matrix.column_names == expected
    assert vocab is None  # ordinal codes need no vocabulary


def test_ordinal_encoding_is_the_last_statistic_never_a_copy():
    table = random_statement_table(np.random.default_rng(4), 12)
    plain, _ = build_matrix(table, AggregationSpec())
    ordinal, vocab = build_matrix(table, AggregationSpec(encode="ordinal"))
    assert vocab is None
    assert ordinal.column_names == plain.column_names
    assert ordinal.values.tobytes() == plain.values.tobytes()
    # a spec that omits `last` gets it after its categorical stats
    spec = AggregationSpec(continuous_stats=(), lag_enabled=False,
                           categorical_stats=("nunique", "count"), encode="ordinal")
    matrix, _ = build_matrix(table, spec)
    assert matrix.column_names == [
        "region_nunique", "region_count", "region_last",
        "product_nunique", "product_count", "product_last",
    ]
    np.testing.assert_array_equal(matrix.column("region_last"), plain.column("region_last"))


def test_build_matrix_respects_column_subset():
    table = tiny_table({"A": [(1.0, 2.0, 3)]})
    spec = AggregationSpec(columns=("bal",), categorical_stats=())
    matrix, _ = build_matrix(table, spec)
    assert all(name.startswith("bal_") for name in matrix.column_names)


def test_build_matrix_order_statistics_invariants():
    rng = np.random.default_rng(2)
    per_customer = {}
    for i in range(60):
        rows = []
        for _ in range(int(rng.integers(1, 14))):
            b = math.nan if rng.random() < 0.15 else float(rng.normal())
            s = math.nan if rng.random() < 0.15 else float(rng.normal())
            rows.append((b, s, int(rng.integers(0, 5))))
        per_customer[f"C{i:03d}"] = rows
    matrix, _ = build_matrix(tiny_table(per_customer), AggregationSpec())
    for raw in ("bal", "spend"):
        lo = matrix.column(f"{raw}_min")
        hi = matrix.column(f"{raw}_max")
        med = matrix.column(f"{raw}_median")
        mean = matrix.column(f"{raw}_mean")
        last = matrix.column(f"{raw}_last")
        lag = matrix.column(f"{raw}_lag")
        ok = ~np.isnan(med)
        assert np.all(lo[ok] <= med[ok]) and np.all(med[ok] <= hi[ok])
        assert np.all(lo[ok] <= mean[ok]) and np.all(mean[ok] <= hi[ok])
        both = ~np.isnan(last) & ~np.isnan(mean)
        # the emitted lag equals the emitted operands' float32 difference
        np.testing.assert_array_equal(lag[both], last[both] - mean[both])
        # and is missing whenever either operand is
        assert np.isnan(lag[~both]).all()


def test_aggregation_matches_direct_oracle():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(1, 14))
        series = np.where(
            rng.random(n) < 0.25, np.nan, rng.normal(size=n)
        ).astype(np.float32)
        got = aggregate_continuous(series)
        want = direct_continuous_stats(series.astype(np.float64))
        for stat in ("mean", "std", "min", "max", "last", "median"):
            assert ulp32_close(got[stat], want[stat]), (stat, series)
        codes = np.where(rng.random(n) < 0.25, MISSING_CODE, rng.integers(0, 6, n))
        got_cat = aggregate_categorical(codes)
        want_cat = direct_categorical_stats(codes)
        for stat in ("count", "last", "nunique"):
            assert ulp32_close(got_cat[stat], want_cat[stat])


def test_build_matrix_statement_order_safety(tmp_path):
    """Shuffling raw CSV rows must not change the engineered matrix."""
    rng = np.random.default_rng(6)
    rows = []
    for i in range(30):
        for m in range(int(rng.integers(1, 13))):
            rows.append(
                f"C{i:03d},2017-{m + 1:02d}-01,{rng.normal():.4f},{rng.normal():.4f},{rng.integers(0, 4)}"
            )
    header = "customer_id,statement_date,bal,spend,region"
    a = tmp_path / "a.csv"
    a.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    b = tmp_path / "b.csv"
    b.write_text(header + "\n" + "\n".join(shuffled) + "\n", encoding="utf-8")

    spec = AggregationSpec()
    ma, _ = build_matrix(parse_csv(a, SCHEMA), spec)
    mb, _ = build_matrix(parse_csv(b, SCHEMA), spec)
    # same customers; align row order before comparing
    order = {c: i for i, c in enumerate(mb.customer_ids.tolist())}
    realign = [order[c] for c in ma.customer_ids.tolist()]
    np.testing.assert_array_equal(ma.values, mb.values[realign])


def test_matrix_of_the_cleaned_file_pair_has_the_in_memory_bits(tmp_path):
    """``prep`` then ``features`` builds the matrix ``run`` builds in memory."""
    config = synth.SynthConfig(n_customers=300, seed=7)
    raw = tmp_path / "raw.csv"
    write_csv(synth.generate(config)[0], raw)
    table, _ = clean(parse_csv(raw, synth.synth_schema(config)), 0.01)
    write_clean(table, tmp_path / "clean.csv")
    spec = AggregationSpec(encode="ordinal")
    want, _ = build_matrix(table, spec)
    got, _ = build_matrix(read_clean(tmp_path / "clean.csv"), spec)
    assert got.column_names == want.column_names
    assert got.customer_ids.tolist() == want.customer_ids.tolist()
    np.testing.assert_array_equal(got.values.view(np.uint32), want.values.view(np.uint32))


ORACLE_SCHEMA = [
    ColumnSchema("customer_id", "identifier"),
    ColumnSchema("statement_date", "date"),
    ColumnSchema("bal", "continuous", "float32"),
    ColumnSchema("spend", "continuous", "float32"),
    ColumnSchema("tenure", "continuous", "int16"),
    ColumnSchema("region", "categorical", "int8"),
    ColumnSchema("product", "categorical", "int8"),
]


def random_statement_table(rng, n_customers):
    """Statement table mixing the series shapes the aggregation must handle.

    Histories run 1..13 statements and now and then up to 20 (longer
    than any parsed file allows).  Continuous values span 1e-8..1e8 so
    their sums round, with signed zeros, NaN cells, all-missing and
    constant series.  ``region`` codes are int8 and ``product`` codes
    int64, both with missing cells and all-missing series.
    """
    lengths = rng.integers(1, 14, size=n_customers)
    lengths[rng.random(n_customers) < 0.05] = rng.integers(14, 21)
    lengths[:2] = [1, 13]
    rows = int(lengths.sum())

    def continuous():
        x = rng.normal(size=rows) * 10.0 ** rng.uniform(-8, 8, size=rows)
        x[rng.random(rows) < 0.05] = 0.0
        x[rng.random(rows) < 0.05] = -0.0
        x[rng.random(rows) < 0.2] = np.nan
        start = 0
        for length in lengths:
            shape = rng.random()
            if shape < 0.1:
                x[start:start + length] = np.nan
            elif shape < 0.2:
                x[start:start + length] = x[start]
            start += length
        return x.astype(np.float32)

    def codes(high, dtype):
        c = rng.integers(0, high, size=rows)
        c[rng.random(rows) < 0.2] = MISSING_CODE
        owner = np.repeat(np.arange(n_customers), lengths)
        c[np.isin(owner, np.flatnonzero(rng.random(n_customers) < 0.1))] = MISSING_CODE
        return c.astype(dtype)

    index = np.concatenate([np.arange(1, n + 1) for n in lengths]).astype(np.int32)
    return StatementTable(
        ORACLE_SCHEMA,
        np.repeat([f"C{i:03d}" for i in range(n_customers)], lengths),
        {
            "statement_date": 736000 + index.astype(np.int64),
            "bal": continuous(),
            "spend": continuous(),
            "tenure": rng.integers(-300, 300, size=rows).astype(np.int16),
            "region": codes(5, np.int8),
            "product": codes(40, np.int64),
        },
    )


def random_spec(rng):
    def subset(names):
        picked = [name for name in names if rng.random() < 0.6]
        return tuple(rng.permutation(picked).tolist())

    columns = None
    if rng.random() < 0.4:
        columns = subset(("bal", "spend", "tenure", "region", "product")) or ("region",)
    return AggregationSpec(
        continuous_stats=subset(CONTINUOUS_STATS),
        categorical_stats=subset(CATEGORICAL_STATS),
        lag_enabled=bool(rng.random() < 0.7),
        recent_window=[None, None, 1, 3, 6, 13][int(rng.integers(6))],
        encode=[None, "ordinal", "one-hot"][int(rng.integers(3))],
        columns=columns,
    )


def test_build_matrix_matches_per_customer_oracle():
    """Grouped reductions give the per-customer loop's matrix bit for bit."""
    rng = np.random.default_rng(12)
    fixed_vocab = {"region": [0, 2, 4], "product": [1, 7, 39]}
    for case in range(300):
        table = random_statement_table(rng, int(rng.integers(2, 40)))
        labels = {c: i % 2 for i, c in enumerate(table.customers())}
        spec = random_spec(rng)
        vocab = fixed_vocab if rng.random() < 0.3 else None
        want, want_vocab = build_matrix_by_customer(table, spec, vocab=vocab)
        got, got_vocab = build_matrix(table, spec, vocab=vocab)
        assert got.column_names == want.column_names, (case, spec)
        assert got_vocab == want_vocab, (case, spec)
        assert got.customer_ids.tolist() == want.customer_ids.tolist()
        assert join_labels(table, labels).tolist() == [labels[c] for c in got.customer_ids]
        assert got.values.dtype == np.float32
        np.testing.assert_array_equal(
            got.values.view(np.uint32), want.values.view(np.uint32), err_msg=f"{case} {spec}"
        )


def test_grouped_reductions_match_per_customer_helper_in_float64():
    """Before the float32 cast, every statistic has the helper's float64 bits."""
    rng = np.random.default_rng(13)
    for _ in range(200):
        table = random_statement_table(rng, int(rng.integers(2, 40)))
        starts = table.row_starts()
        counts = np.diff(np.append(starts, table.n_rows))
        owner = np.repeat(np.arange(counts.size), counts)
        raws = ("bal", "spend", "tenure")
        got = _continuous_stats(
            [table.columns[raw] for raw in raws], owner, counts.size, CONTINUOUS_STATS
        )
        for j, raw in enumerate(raws):
            column = table.columns[raw]
            helper = [aggregate_continuous(column[lo:lo + k]) for lo, k in zip(starts, counts)]
            for stat in CONTINUOUS_STATS:
                want = np.asarray([row[stat] for row in helper])
                np.testing.assert_array_equal(
                    got[stat][j].view(np.uint64), want.view(np.uint64), err_msg=f"{raw}_{stat}"
                )


def test_build_matrix_aggregates_every_continuous_column_in_one_call(monkeypatch):
    calls = []
    grouped = features._continuous_stats

    def counting(columns, *args):
        calls.append(len(columns))
        return grouped(columns, *args)

    monkeypatch.setattr(features, "_continuous_stats", counting)
    table = random_statement_table(np.random.default_rng(14), 30)
    build_matrix(table, AggregationSpec())
    assert calls == [3]  # bal, spend and tenure together
    build_matrix(table, AggregationSpec(columns=("region", "product")))
    assert calls == [3]  # no continuous column, no call
    build_matrix(table, AggregationSpec(continuous_stats=(), recent_window=3, columns=("bal",)))
    assert calls == [3, 1]


def test_build_matrix_rejects_non_contiguous_customer():
    table = tiny_table({"A": [(1.0, 2.0, 3)], "B": [(4.0, 5.0, 6)]})
    split = StatementTable(
        SCHEMA,
        np.asarray(["A", "B", "A"]),
        {name: np.concatenate((arr, arr[:1])) for name, arr in table.columns.items()},
    )
    with pytest.raises(DataError, match="'A'"):
        build_matrix(split, AggregationSpec())


@pytest.mark.parametrize(
    "spec",
    [
        AggregationSpec(continuous_stats=(), categorical_stats=(), columns=("region",)),
        AggregationSpec(continuous_stats=(), lag_enabled=False, columns=("bal", "spend")),
    ],
)
def test_build_matrix_rejects_spec_without_columns(spec):
    table = tiny_table({"A": [(1.0, 2.0, 3)]})
    with pytest.raises(ConfigError, match="aggregation spec yields no engineered columns"):
        build_matrix(table, spec)


def test_build_matrix_encoding_alone_is_enough():
    table = tiny_table({"A": [(1.0, 2.0, 3)]})
    spec = AggregationSpec(
        continuous_stats=(), categorical_stats=(), columns=("region",), encode="ordinal"
    )
    matrix, _ = build_matrix(table, spec)
    assert matrix.column_names == ["region_last"]


def test_matrix_container_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(20, 5)).astype(np.float32)
    values[rng.random(values.shape) < 0.2] = np.nan
    matrix = FeatureMatrix(
        np.asarray([f"C{i}" for i in range(20)]),
        [f"col_{j}" for j in range(5)],
        values,
    )
    path = tmp_path / "m.bin"
    save_matrix(matrix, path)
    back = load_matrix(path)
    assert back.customer_ids.tolist() == matrix.customer_ids.tolist()
    assert back.column_names == matrix.column_names
    np.testing.assert_array_equal(
        back.values.view(np.uint32), matrix.values.view(np.uint32)
    )
    # identical bytes when saved again
    path2 = tmp_path / "m2.bin"
    save_matrix(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_matrix_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataError):
        load_matrix(path)
    good = tmp_path / "good.bin"
    save_matrix(
        FeatureMatrix(np.asarray(["A"]), ["c"], np.zeros((1, 1), dtype=np.float32)),
        good,
    )
    truncated = good.read_bytes()[:-2]
    bad2 = tmp_path / "trunc.bin"
    bad2.write_bytes(truncated)
    with pytest.raises(DataError):
        load_matrix(bad2)


def test_feature_matrix_validation():
    with pytest.raises(DataError):
        FeatureMatrix(np.asarray(["A"]), ["x", "x"], np.zeros((1, 2), dtype=np.float32))
    with pytest.raises(DataError):
        FeatureMatrix(np.asarray(["A", "B"]), ["x"], np.zeros((1, 1), dtype=np.float32))


@pytest.mark.parametrize("cell", [np.inf, -np.inf])
def test_feature_matrix_rejects_an_infinite_cell(cell):
    values = np.array([[0.0, np.nan], [1.0, 2.0]], dtype=np.float32)
    FeatureMatrix(np.asarray(["A", "B"]), ["x", "y"], values)  # NaN is missing, not bad
    values[1, 1] = cell
    with pytest.raises(DataError, match="feature column 'y' is infinite for customer 'B'"):
        FeatureMatrix(np.asarray(["A", "B"]), ["x", "y"], values)


@pytest.mark.parametrize(
    "stats, lag, column",
    [(("mean", "std"), False, "bal_std"), (("mean", "last"), True, "bal_lag")],
)
def test_build_matrix_rejects_a_statistic_past_float32_range(stats, lag, column):
    # every value fits float32, but their spread does not
    rows = [(-3.4e38, 1.0, 1), (-3.4e38, 2.0, 1), (3.4e38, 3.0, 1)]
    table = tiny_table({"A": [(1.0, 1.0, 1)], "B": rows})
    spec = AggregationSpec(continuous_stats=stats, categorical_stats=(), lag_enabled=lag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(DataError, match=f"'{column}' is infinite for customer 'B'"):
            build_matrix(table, spec)


def test_a_sum_that_overflows_both_ways_is_an_error_not_missing():
    # NumPy's pairwise sum of eight cells adds 4e308 to -4e308: inf - inf
    column = np.array([1e308] * 4 + [-1e308] * 4 + [1.0, 2.0])
    owner = np.repeat([0, 1], [8, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        stats = _continuous_stats([column], owner, 2, CONTINUOUS_STATS)
    got = {stat: rows[0] for stat, rows in stats.items()}  # the one column's row
    assert got["mean"][0] == got["std"][0] == np.inf
    assert got["mean"][1] == 1.5 and got["median"][0] == 0.0
    table = tiny_table({"A": [(1.0, 1.0, 1)], "B": [(0.0, 1.0, 1)] * 8})
    table.columns["bal"] = np.concatenate(([1.0], column[:8]))
    spec = AggregationSpec(continuous_stats=("mean", "std"), categorical_stats=(),
                           lag_enabled=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="'bal_mean' is infinite for customer 'B'"):
            build_matrix(table, spec)


def test_spec_validation():
    with pytest.raises(ConfigError, match="aggregation spec selects no statistics at all"):
        AggregationSpec(continuous_stats=(), categorical_stats=(), lag_enabled=False)
    with pytest.raises(ConfigError):
        AggregationSpec(continuous_stats=("variance",))
    with pytest.raises(ConfigError):
        AggregationSpec(recent_window=0)
    with pytest.raises(ConfigError):
        AggregationSpec(encode="target")
    with pytest.raises(ConfigError):
        spec_from_json({"continuous_stats": ["mean"], "bogus_key": 1})


def test_spec_from_json_round_trip(tmp_path):
    doc = {
        "continuous_stats": ["mean", "last"],
        "categorical_stats": ["count"],
        "lag_enabled": False,
        "recent_window": 6,
        "encode": "one-hot",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    spec = spec_from_json(path)
    assert spec.continuous_stats == ("mean", "last")
    assert spec.recent_window == 6 and spec.encode == "one-hot"
    assert not spec.lag_enabled
