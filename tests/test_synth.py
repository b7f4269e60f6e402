"""Synthetic dataset generator tests."""

import collections
import dataclasses

import numpy as np
import pytest

from credit_stack.errors import ConfigError
from credit_stack.ingest import (
    MISSING_CODE,
    denoise_round,
    write_csv,
    write_labels,
)
from credit_stack.synth import (
    GRID,
    SynthConfig,
    config_from_json,
    generate,
    synth_schema,
)


def counts_by_customer(table):
    return collections.Counter(table.customer_ids.tolist())


def test_full_history_share_is_exact():
    cfg = SynthConfig(n_customers=1000, frac_full=0.8, neg_keep_rate=1.0, seed=0)
    table, labels = generate(cfg)
    counts = counts_by_customer(table)
    assert len(counts) == 1000 == len(labels)
    full = sum(1 for c in counts.values() if c == 13)
    assert full == 800  # floor(0.8 * 1000), exactly
    assert all(1 <= c <= 13 for c in counts.values())
    assert any(c < 13 for c in counts.values())


def test_statement_indices_are_contiguous_and_dates_recent():
    cfg = SynthConfig(n_customers=60, neg_keep_rate=1.0, seed=3)
    table, _ = generate(cfg)
    all_dates = np.unique(table.columns["statement_date"])
    assert all_dates.size <= 13

    by_customer: dict = collections.defaultdict(list)
    for cid, idx, d in zip(
        table.customer_ids, table.statement_index, table.columns["statement_date"]
    ):
        by_customer[cid].append((int(idx), int(d)))
    last_month = int(all_dates.max())
    for cid, rows in by_customer.items():
        rows.sort()
        indices = [i for i, _ in rows]
        assert indices == list(range(1, len(rows) + 1))
        dates = [d for _, d in rows]
        assert dates == sorted(dates)
        # short histories are the most recent months: every customer's
        # final statement lands on the dataset's last month
        assert dates[-1] == last_month


def test_positives_survive_any_keep_rate():
    base = dict(n_customers=3000, seed=11)
    _, full = generate(SynthConfig(neg_keep_rate=1.0, **base))
    _, thin = generate(SynthConfig(neg_keep_rate=0.05, **base))
    pos_full = {cid for cid, y in full.items() if y == 1}
    pos_thin = {cid for cid, y in thin.items() if y == 1}
    assert pos_full == pos_thin
    assert set(thin) <= set(full)
    neg_thin = sum(1 for y in thin.values() if y == 0)
    neg_full = sum(1 for y in full.values() if y == 0)
    assert neg_thin < 0.12 * neg_full


def test_subsampled_labels_are_roughly_balanced():
    cfg = SynthConfig(n_customers=4000, seed=5)  # default keep rate 0.05
    _, labels = generate(cfg)
    share = sum(labels.values()) / len(labels)
    assert 0.3 < share < 0.65
    raw = generate(SynthConfig(n_customers=4000, neg_keep_rate=1.0, seed=5))[1]
    raw_share = sum(raw.values()) / len(raw)
    assert 0.01 < raw_share < 0.10


def test_generation_is_byte_deterministic(tmp_path):
    cfg = SynthConfig(n_customers=150, seed=9)
    files = []
    for run in ("a", "b"):
        table, labels = generate(cfg)
        csv_path = tmp_path / f"{run}.csv"
        lab_path = tmp_path / f"{run}_labels.csv"
        write_csv(table, csv_path)
        write_labels(labels, lab_path)
        files.append((csv_path.read_bytes(), lab_path.read_bytes()))
    assert files[0] == files[1]
    other_table, _ = generate(SynthConfig(n_customers=150, seed=10))
    other = tmp_path / "c.csv"
    write_csv(other_table, other)
    assert other.read_bytes() != files[0][0]


def test_zero_noise_values_sit_on_the_grid():
    cfg = SynthConfig(n_customers=80, noise_amplitude=0.0, neg_keep_rate=1.0, seed=2)
    table, _ = generate(cfg)
    cleaned = denoise_round(table, GRID)
    for name, col in table.columns.items():
        if not name.startswith("cont_"):
            continue
        np.testing.assert_array_equal(cleaned.columns[name], col)


def test_noise_is_small_and_removable():
    cfg = SynthConfig(n_customers=80, noise_amplitude=0.004, neg_keep_rate=1.0, seed=2)
    noisy, _ = generate(cfg)
    quiet, _ = generate(
        SynthConfig(n_customers=80, noise_amplitude=0.0, neg_keep_rate=1.0, seed=2)
    )
    cleaned = denoise_round(noisy, GRID)
    for name in noisy.columns:
        if name.startswith("cont_"):
            np.testing.assert_array_equal(cleaned.columns[name], quiet.columns[name])


def test_missing_rate_is_sparse_but_present():
    cfg = SynthConfig(n_customers=500, neg_keep_rate=1.0, seed=7)
    table, _ = generate(cfg)
    cont = np.column_stack(
        [col for name, col in table.columns.items() if name.startswith("cont_")]
    )
    rate = float(np.isnan(cont).mean())
    assert 0.005 < rate < 0.04
    cat = np.column_stack(
        [col for name, col in table.columns.items() if name.startswith("cat_")]
    )
    cat_rate = float((cat == MISSING_CODE).mean())
    assert 0.005 < cat_rate < 0.04


def test_signal_columns_drive_the_labels():
    cfg = SynthConfig(n_customers=2000, neg_keep_rate=1.0, seed=13)
    table, labels = generate(cfg)
    # per-customer mean of the signal column vs a noise column
    sums: dict = collections.defaultdict(lambda: [0.0, 0.0, 0])
    for cid, v0, v5 in zip(
        table.customer_ids, table.columns["cont_00"], table.columns["cont_05"]
    ):
        acc = sums[cid]
        if not np.isnan(v0):
            acc[0] += v0
        if not np.isnan(v5):
            acc[1] += v5
        acc[2] += 1
    ids = list(labels)
    y = np.array([labels[c] for c in ids])
    sig = np.array([sums[c][0] / sums[c][2] for c in ids])
    noise = np.array([sums[c][1] / sums[c][2] for c in ids])
    assert sig[y == 1].mean() - sig[y == 0].mean() > 0.8
    assert abs(noise[y == 1].mean() - noise[y == 0].mean()) < 0.25


def test_schema_matches_generated_columns():
    cfg = SynthConfig(n_customers=20, n_continuous=3, n_categorical=2, seed=0)
    schema = synth_schema(cfg)
    assert [c.name for c in schema] == [
        "customer_id", "statement_date", "cont_00", "cont_01", "cont_02",
        "cat_0", "cat_1",
    ]
    assert schema[0].kind == "identifier"
    assert schema[1].kind == "date"
    assert schema[2].kind == "continuous" and schema[2].valid_range == (-8.0, 8.0)
    assert schema[5].kind == "categorical" and schema[5].storage == "int8"
    table, _ = generate(cfg)
    assert set(table.columns) == {"statement_date", "cont_00", "cont_01", "cont_02",
                                  "cat_0", "cat_1"}


def test_empty_signal_raises():
    with pytest.raises(ConfigError, match="signal_features is empty; labels would be pure coin flips"):
        generate(SynthConfig(n_customers=50, signal_features=(), seed=0))


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_thinning_that_keeps_no_customer_is_a_configuration_error(seed):
    # no positive drawn and every negative thinned away
    config = SynthConfig(n_customers=10, neg_keep_rate=0.01, seed=seed)
    with pytest.raises(ConfigError, match=r"raise n_customers \(10\) or neg_keep_rate \(0\.01\)"):
        generate(config)
    # seed 2 keeps one customer
    table, labels = generate(dataclasses.replace(config, seed=2))
    assert table.n_rows == 13 and len(labels) == 1


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_customers=5)
    with pytest.raises(ConfigError):
        SynthConfig(n_customers=100, frac_full=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(n_customers=100, neg_keep_rate=0.0)
    with pytest.raises(ConfigError):
        SynthConfig(n_customers=100, noise_amplitude=-0.1)
    with pytest.raises(ConfigError):
        SynthConfig(n_customers=100, signal_features=("cont_99",))


def test_config_from_json(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(
        '{"n_customers": 40, "signal_features": ["cont_00", "cont_01"], "seed": 4}',
        encoding="utf-8",
    )
    cfg = config_from_json(path)
    assert cfg.n_customers == 40
    assert cfg.signal_features == ("cont_00", "cont_01")
    with pytest.raises(ConfigError):
        config_from_json({"n_customers": 40, "bogus": 1})
    with pytest.raises(ConfigError, match="synth config is missing 'n_customers'"):
        config_from_json({})
    with pytest.raises(ConfigError, match="'seed' must be an integer, got True"):
        config_from_json({"n_customers": 40, "seed": True})
    with pytest.raises(ConfigError, match="'noise_amplitude' must be a finite number, got nan"):
        config_from_json({"n_customers": 40, "noise_amplitude": float("nan")})
