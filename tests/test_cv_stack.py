"""Stratified fold dealing and out-of-fold stacking tests."""

import numpy as np
import pytest

from credit_stack import cv_stack
from credit_stack.cv_stack import (
    FoldPlan,
    append_meta,
    make_folds,
    predict_with_fold_models,
    save_oof,
    save_plan,
    train_oof,
)
from credit_stack.errors import ConfigError, DataError, FoldTrainingError
from credit_stack.features import FeatureMatrix
from credit_stack.gbdt import TrainConfig, importance, train
from credit_stack.serialize import read_csv_rows


def toy_data(n=120, seed=0, n_cols=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_cols)).astype(np.float32)
    y = (x[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(np.int8)
    ids = np.asarray([f"C{i:04d}" for i in range(n)])
    m = FeatureMatrix(ids, [f"f{j}" for j in range(n_cols)], x)
    return m, y


SMALL = TrainConfig(rounds=5, max_leaves=4, seed=0)


# ---------------------------------------------------------------------------
# fold dealing


def test_folds_even_deal_balances_both_classes():
    y = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    plan = make_folds(y, 5, seed=0)
    for f in range(5):
        rows = plan.rows_in(f)
        assert rows.size == 2
        assert y[rows].sum() == 1  # one positive, one negative each


def test_folds_uneven_sizes_differ_by_at_most_one():
    y = np.array([1] * 5 + [0] * 6)
    plan = make_folds(y, 5, seed=1)
    sizes = sorted(plan.rows_in(f).size for f in range(5))
    assert sizes == [2, 2, 2, 2, 3]


def test_folds_class_counts_differ_by_at_most_one():
    rng = np.random.default_rng(7)
    for n, k, trial in [(53, 4, 0), (200, 5, 1), (97, 7, 2), (30, 3, 3)]:
        y = (rng.random(n) < 0.4).astype(np.int64)
        if y.sum() < k or (n - y.sum()) < k:
            continue
        plan = make_folds(y, k, seed=trial)
        pos_counts = [int(y[plan.rows_in(f)].sum()) for f in range(k)]
        neg_counts = [int((1 - y[plan.rows_in(f)]).sum()) for f in range(k)]
        assert max(pos_counts) - min(pos_counts) <= 1
        assert max(neg_counts) - min(neg_counts) <= 1
        sizes = [plan.rows_in(f).size for f in range(k)]
        assert max(sizes) - min(sizes) <= 1


def test_folds_partition_every_row_exactly_once():
    y = (np.random.default_rng(3).random(77) < 0.5).astype(np.int64)
    plan = make_folds(y, 4, seed=9)
    seen = np.concatenate([plan.rows_in(f) for f in range(4)])
    assert sorted(seen.tolist()) == list(range(77))


def test_folds_deterministic_per_seed():
    y = (np.random.default_rng(4).random(60) < 0.5).astype(np.int64)
    a = make_folds(y, 3, seed=5).assignment
    b = make_folds(y, 3, seed=5).assignment
    c = make_folds(y, 3, seed=6).assignment
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_folds_too_few_per_class():
    y = np.array([1] * 4 + [0] * 20)
    with pytest.raises(DataError, match="positive class has 4 rows, need at least 5 for 5 folds"):
        make_folds(y, 5, seed=0)


def test_folds_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        make_folds(np.array([0, 1, 0, 1]), 1, seed=0)
    with pytest.raises(DataError):
        make_folds(np.array([0, 1, 2, 1]), 2, seed=0)


# ---------------------------------------------------------------------------
# out-of-fold training


def record_training(monkeypatch) -> list:
    """Patch ``cv_stack.train`` to keep the customer ids of each call's matrix."""
    calls = []

    def recording_train(matrix, labels, config):
        calls.append(set(matrix.customer_ids.tolist()))
        return train(matrix, labels, config)

    monkeypatch.setattr(cv_stack, "train", recording_train)
    return calls


def test_oof_models_never_see_their_held_out_rows(monkeypatch):
    m, y = toy_data(n=100, seed=1)
    plan = make_folds(y, 4, seed=2)
    calls = record_training(monkeypatch)
    result = train_oof(m, y, plan, SMALL)
    assert len(result.models) == len(calls) == 4
    every = set(m.customer_ids.tolist())
    for f, trained_on in enumerate(calls):
        held = set(m.customer_ids[plan.rows_in(f)].tolist())
        assert not held & trained_on
        assert held | trained_on == every
    assert np.all((result.prediction > 0) & (result.prediction < 1))


def test_oof_is_bit_reproducible():
    m, y = toy_data(n=90, seed=2)
    plan = make_folds(y, 3, seed=3)
    p1 = train_oof(m, y, plan, SMALL).prediction
    p2 = train_oof(m, y, plan, SMALL).prediction
    np.testing.assert_array_equal(p1, p2)


def test_oof_failure_names_the_fold():
    # fold 1's complement is rows {0, 1}, both positive -> single class
    m, _ = toy_data(n=4, seed=0)
    y = np.array([1, 1, 1, 0])
    plan = FoldPlan(k=2, assignment=np.array([0, 0, 1, 1], dtype=np.int32))
    with pytest.raises(FoldTrainingError) as err:
        train_oof(m, y, plan, SMALL)
    assert err.value.fold == 1
    assert "fold 1" in str(err.value)


def test_oof_lets_a_bug_in_training_keep_its_type(monkeypatch):
    m, y = toy_data(n=40, seed=0)
    plan = make_folds(y, 2, seed=0)

    def broken_train(matrix, labels, config):
        raise RuntimeError("bug inside training")

    monkeypatch.setattr(cv_stack, "train", broken_train)
    with pytest.raises(RuntimeError, match="bug inside training"):
        train_oof(m, y, plan, SMALL)


@pytest.mark.parametrize("bad", [2, 0.5, np.nan])
def test_folds_and_oof_reject_a_label_that_is_not_0_or_1(bad):
    # checked before any cast: an int64 cast used to turn 0.5 into 0
    m, y = toy_data(n=40, seed=2)
    plan = make_folds(y, 2, seed=0)
    labels = y.astype(np.float64)
    labels[5] = bad
    message = f"labels must be 0 or 1, found {float(bad)}$"
    with pytest.raises(DataError, match=message):
        make_folds(labels, 2, seed=0)
    with pytest.raises(DataError, match=message):
        train_oof(m, labels, plan, SMALL)


def test_oof_length_mismatch():
    m, y = toy_data(n=50, seed=3)
    plan = make_folds(y, 2, seed=0)
    with pytest.raises(DataError, match="49 labels for 50 rows"):
        train_oof(m, y[:-1], plan, SMALL)
    short_plan = FoldPlan(k=2, assignment=plan.assignment[:-1])
    with pytest.raises(DataError, match="fold plan covers 49 rows, matrix has 50"):
        train_oof(m, y, short_plan, SMALL)


# ---------------------------------------------------------------------------
# meta columns


def test_append_meta_names_and_values():
    m, y = toy_data(n=20, seed=4)
    v = np.linspace(0, 1, 20)
    out = append_meta(m, [v, v * 0.5])
    assert out.column_names == m.column_names + ["meta_0", "meta_1"]
    np.testing.assert_allclose(out.column("meta_0"), v, atol=1e-7)
    np.testing.assert_allclose(out.column("meta_1"), v * 0.5, atol=1e-7)
    np.testing.assert_array_equal(out.values[:, :4], m.values)


def test_append_meta_numbers_past_existing():
    m, _ = toy_data(n=10, seed=5)
    once = append_meta(m, [np.zeros(10)])
    twice = append_meta(once, [np.ones(10)])
    assert twice.column_names[-2:] == ["meta_0", "meta_1"]


def test_append_meta_length_mismatch():
    m, _ = toy_data(n=10, seed=6)
    with pytest.raises(DataError, match="meta column 0 has 9 rows, matrix has 10"):
        append_meta(m, [np.zeros(9)])


# ---------------------------------------------------------------------------
# fold-model prediction


def test_fold_mean_of_identical_models_matches_single():
    m, y = toy_data(n=80, seed=7)
    model = train(m, y, SMALL)
    from credit_stack.gbdt import predict

    np.testing.assert_allclose(
        predict_with_fold_models([model, model, model], m), predict(model, m), atol=1e-15
    )


def test_fold_mean_averages_base_rates():
    m1, _ = toy_data(n=10, seed=8)
    y1 = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])  # mean 0.2
    y2 = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])  # mean 0.6
    flat = TrainConfig(rounds=0)
    a = train(m1, y1, flat)
    b = train(m1, y2, flat)
    preds = predict_with_fold_models([a, b], m1)
    np.testing.assert_allclose(preds, 0.4, atol=1e-12)


def test_fold_mean_requires_models():
    m, _ = toy_data(n=5, seed=9)
    with pytest.raises(ConfigError):
        predict_with_fold_models([], m)


# ---------------------------------------------------------------------------
# second-stage model


def test_meta_training_uses_the_meta_column():
    # a meta column equal to the labels is a perfect predictor; every
    # fold's second-stage model must discover it immediately
    m, y = toy_data(n=100, seed=11)
    plan = make_folds(y, 2, seed=1)
    stacked = append_meta(m, [y.astype(np.float64)])
    result = train_oof(stacked, y, plan, TrainConfig(rounds=3, max_leaves=4, seed=0))
    for model in result.models:
        gains = importance(model, "total_gain")
        assert max(gains, key=gains.get) == "meta_0"


# ---------------------------------------------------------------------------
# plan persistence


def test_plan_round_trip(tmp_path):
    y = (np.random.default_rng(5).random(40) < 0.5).astype(np.int64)
    plan = make_folds(y, 4, seed=7)
    path = tmp_path / "folds.csv"
    save_plan(plan, path)
    bom = tmp_path / "bom_folds.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for source in (path, bom):
        header, rows = read_csv_rows(source)
        assert header == ["row_index", "fold"]
        assert [int(i) for i, _ in rows] == list(range(plan.n_rows))
        np.testing.assert_array_equal([int(f) for _, f in rows], plan.assignment)


@pytest.mark.parametrize("n_ids, n_folds, n_probs", [(3, 2, 2), (2, 3, 3), (3, 3, 2), (3, 2, 3)])
def test_save_oof_rejects_lengths_that_disagree(tmp_path, n_ids, n_folds, n_probs):
    plan = FoldPlan(k=2, assignment=np.zeros(n_folds, dtype=np.int32))
    path = tmp_path / "oof.csv"
    with pytest.raises(DataError,
                       match=f"{n_ids} ids for {n_folds} folds and {n_probs} probabilities"):
        save_oof([f"C{i}" for i in range(n_ids)], plan, np.full(n_probs, 0.5), path)
    assert not path.exists()
