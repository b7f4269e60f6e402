"""Boosted-tree learner tests: binning, gradients, sampling, training."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from credit_stack import gbdt
from credit_stack.errors import ConfigError, DataError
from credit_stack.features import FeatureMatrix
from credit_stack.gbdt import (
    BoostedModel,
    TrainConfig,
    _LeafCandidate,
    _TreeGrower,
    build_bins,
    config_from_json,
    goss_sample,
    importance,
    load_model,
    logistic_grad_hess,
    model_to_dict,
    predict,
    predict_raw,
    save_model,
    train,
)
from credit_stack.metric import composite_metric
from credit_stack.serialize import dumps
from oracles import (
    SearchEveryLeafGrower,
    build_bins_by_quantile,
    quantile_bin_expectation,
    scan_best_split,
    tree_walk_probability,
)


def matrix_of(values, names=None, ids=None):
    values = np.asarray(values, dtype=np.float32)
    if values.ndim == 1:
        values = values[:, None]
    names = names or [f"f{j}" for j in range(values.shape[1])]
    ids = ids if ids is not None else np.asarray([f"C{i}" for i in range(len(values))])
    return FeatureMatrix(ids, list(names), values)


def separable_matrix(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3)).astype(np.float32)
    y = (x[:, 0] > 0).astype(np.int8)
    return matrix_of(x), y


# ---------------------------------------------------------------------------
# binning


def test_bins_constant_column():
    m = matrix_of([[1.0], [1.0], [1.0]])
    mapper = build_bins(m, 8)
    assert mapper.edges[0].size == 0 and mapper.missing[0] == 1
    binned = mapper.transform(m.values)
    assert set(binned[:, 0].tolist()) == {0}


def test_bins_quantile_counts_match_oracle():
    values = np.arange(1.0, 1001.0, dtype=np.float32)
    m = matrix_of(values)
    mapper = build_bins(m, 4)
    want_edges = quantile_bin_expectation(values.astype(np.float64), 4)
    np.testing.assert_allclose(mapper.edges[0], want_edges, rtol=0, atol=0)
    binned = mapper.transform(m.values)[:, 0]
    counts = np.bincount(binned, minlength=4)
    assert counts.sum() == 1000
    # four bins of roughly a quarter of the values each
    assert all(200 <= c <= 300 for c in counts[:4])


def test_bins_missing_goes_to_reserved_bin():
    m = matrix_of([[1.0], [2.0], [np.nan]])
    mapper = build_bins(m, 4)
    binned = mapper.transform(m.values)
    assert binned[2, 0] == mapper.missing[0]
    assert binned[0, 0] != binned[2, 0]


def test_bins_reject_empty_and_bad_width():
    with pytest.raises(DataError, match="cannot bin an empty matrix"):
        build_bins(matrix_of(np.zeros((0, 1))), 8)
    with pytest.raises(ConfigError):
        build_bins(matrix_of([[1.0], [2.0]]), 1)


def random_bin_column(rng, n_rows):
    kind = rng.integers(6)
    if kind == 0:  # continuous
        x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n_rows)
    elif kind == 1:  # heavy ties, signed zeros among them
        x = rng.choice([-0.0, 0.0, 0.0, 1.0, -2.5, 3.0, 1e-3], size=n_rows)
    elif kind == 2:  # small magnitudes rounded to a grid, as denoising leaves them
        x = np.round(rng.normal(scale=0.02, size=n_rows), 2) * rng.choice([1.0, -1.0])
    elif kind == 3:  # constant, possibly -0.0
        x = np.full(n_rows, rng.choice([-0.0, 0.0, 7.25]))
    elif kind == 4:  # all missing
        x = np.full(n_rows, np.nan)
    else:  # integer codes
        x = rng.integers(-3, 4, size=n_rows).astype(np.float64)
    x[rng.random(n_rows) < rng.choice([0.0, 0.3, 0.9])] = np.nan
    return x


def test_bins_match_per_column_quantile_oracle_bit_for_bit():
    rng = np.random.default_rng(20261018)
    seen = {"n1": 0, "n2": 0, "n3": 0, "all_nan": 0, "constant": 0, "neg_zero_cell": 0}
    for case in range(2000):
        n_rows = int(rng.choice([1, 2, 3, 4, 7, 40, 300]))
        max_bins = int(rng.choice([2, 3, 255, rng.integers(2, 256)]))
        x = np.column_stack([random_bin_column(rng, n_rows) for _ in range(rng.integers(1, 6))])
        m = matrix_of(x)
        got, want = build_bins(m, max_bins), build_bins_by_quantile(m, max_bins)
        assert got.column_names == want.column_names
        assert len(got.edges) == len(want.edges) == m.n_cols
        binned = got.transform(m.values)
        for c, (g, w) in enumerate(zip(got.edges, want.edges)):
            assert g.dtype == w.dtype == np.float64
            assert g.tobytes() == w.tobytes(), (case, c, g, w)
            assert not np.any((g == 0.0) & np.signbit(g)), (case, c, g)
            x = m.values[:, c]
            want_bins = np.where(np.isnan(x), w.size + 1, np.searchsorted(w, x, side="left"))
            assert binned.dtype == np.uint8 and np.array_equal(binned[:, c], want_bins), (case, c)
            real = m.values[:, c][~np.isnan(m.values[:, c])]
            seen["n1"] += real.size == 1
            seen["n2"] += real.size == 2
            seen["n3"] += real.size == 3
            seen["all_nan"] += real.size == 0
            seen["constant"] += real.size > 1 and real.min() == real.max()
            seen["neg_zero_cell"] += int(np.count_nonzero((real == 0.0) & np.signbit(real)))
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("max_bins, seed", [(3, 1), (255, 12)])
def test_train_with_per_column_quantile_oracle_gives_the_same_model(monkeypatch, max_bins, seed):
    rng = np.random.default_rng(seed)
    x = np.column_stack([random_bin_column(rng, 300) for _ in range(12)])
    x[:, 0] = np.round(rng.normal(scale=0.02, size=300), 2)  # -0.0 and +0.0 cells
    y = (np.nan_to_num(x[:, 0]) + rng.normal(scale=0.02, size=300) > 0).astype(np.int8)
    cfg = TrainConfig(rounds=5, max_leaves=8, max_bins=max_bins, min_child_weight=0.0)
    m = matrix_of(x)
    fast = dumps(model_to_dict(train(m, y, cfg)))
    # a zero edge, binned from -0.0 and +0.0 cells alike
    assert '"threshold": 0.0,' in fast and '"threshold": -0.0,' not in fast
    monkeypatch.setattr(gbdt, "build_bins", build_bins_by_quantile)
    assert dumps(model_to_dict(train(m, y, cfg))) == fast


def test_build_bins_never_calls_np_quantile(monkeypatch):
    calls = []
    quantile = np.quantile

    def counting_quantile(*args, **kwargs):
        calls.append(args[0].size)
        return quantile(*args, **kwargs)

    # n = 11, max_bins 4: the cuts lerp rows 2-3, 5 and 7-8, none a zero
    no_zero_cut = matrix_of([-0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, np.nan])
    # n = 6: every cut lerps two of the four tied zeros, -0.0 among them
    zero_cut = matrix_of([-3.0, -0.0, 0.0, np.nan, -0.0, 0.0, 2.0])
    one_value = matrix_of([[-0.0, 1.0], [np.nan, np.nan], [np.nan, -0.0]])
    matrices = (no_zero_cut, zero_cut, one_value)
    want = [build_bins_by_quantile(m, 4).edges for m in matrices]
    monkeypatch.setattr(np, "quantile", counting_quantile)
    got = [build_bins(m, 4).edges for m in matrices]
    assert calls == []
    assert [[e.tobytes() for e in g] for g in got] == [[e.tobytes() for e in w] for w in want]
    assert got[1][0].tolist() == [0.0] and not np.signbit(got[1][0]).any()


# ---------------------------------------------------------------------------
# gradients and GOSS


def test_grad_hess_symmetry_at_zero_score():
    g, h = logistic_grad_hess(np.array([1.0, 0.0]), np.zeros(2))
    assert g.tolist() == [-0.5, 0.5]
    assert h.tolist() == [0.25, 0.25]


def test_grad_hess_saturation():
    g, h = logistic_grad_hess(np.array([1.0]), np.array([40.0]))
    assert abs(g[0]) < 1e-12 and h[0] < 1e-12
    assert h[0] >= 0.0


def test_goss_hand_case():
    grads = np.array([0.9, 0.5, 0.4, 0.1, 0.05])
    w = goss_sample(grads, 0.2, 0.2, seed=3)
    assert w.dtype == np.float64 and w.shape == grads.shape
    assert np.count_nonzero(w) == 2
    assert w[0] == 1.0  # the single top-|g| row survives
    other = w[1:][w[1:] != 0.0]
    assert other.tolist() == [(1.0 - 0.2) / 0.2] == [4.0]


def test_goss_disabled_identity():
    grads = np.array([0.3, -0.2, 0.1])
    w = goss_sample(grads, 1.0, 0.0, seed=0)
    assert w.dtype == np.float64
    assert w.tolist() == [1.0, 1.0, 1.0]


def test_goss_degenerate_raises():
    with pytest.raises(ConfigError, match="a < 1 with b = 0 discards all small-gradient rows"):
        goss_sample(np.array([0.1, 0.2]), 0.5, 0.0, seed=0)


def test_goss_bad_fractions_raise():
    with pytest.raises(ConfigError):
        goss_sample(np.array([0.1, 0.2]), 0.7, 0.7, seed=0)


def test_goss_montecarlo_expectation():
    # positive gradients keep the target sum well away from zero so the
    # relative tolerance is meaningful
    rng = np.random.default_rng(9)
    grads = rng.uniform(0.5, 1.5, size=400)
    a, b = 0.2, 0.1
    n_top = math.ceil(a * grads.size)
    rest = np.argsort(-np.abs(grads), kind="stable")[n_top:]
    true_small_sum = grads[rest].sum()
    estimates = []
    for trial in range(2000):
        w = goss_sample(grads, a, b, seed=trial)
        sampled = w > 1.0
        estimates.append(float((grads[sampled] * w[sampled]).sum()))
    mean_est = float(np.mean(estimates))
    assert abs(mean_est - true_small_sum) <= 0.02 * abs(true_small_sum)


def test_goss_deterministic_per_seed():
    grads = np.random.default_rng(1).normal(size=100)
    w1 = goss_sample(grads, 0.3, 0.2, seed=5)
    w2 = goss_sample(grads, 0.3, 0.2, seed=5)
    np.testing.assert_array_equal(w1, w2)


# ---------------------------------------------------------------------------
# training


def test_train_separable_reaches_high_auc():
    m, y = separable_matrix()
    model = train(m, y, TrainConfig(rounds=50, max_leaves=8, seed=1))
    assert composite_metric(y, predict(model, m)).auc_w >= 0.99


def test_train_zero_rounds_is_base_rate():
    m, y = separable_matrix(n=50)
    model = train(m, y, TrainConfig(rounds=0))
    preds = predict(model, m)
    assert np.allclose(preds, y.mean(), atol=1e-12)
    assert model.n_trees == 0


def test_train_single_class_raises():
    m, _ = separable_matrix(n=20)
    with pytest.raises(DataError, match="training labels contain a single class"):
        train(m, np.ones(20, dtype=np.int8), TrainConfig(rounds=2))


@pytest.mark.parametrize("bad", [2, 0.5, np.nan])
def test_train_rejects_a_label_that_is_not_0_or_1(bad):
    # checked before any cast: 0.5 must not train as 0, nor 2 as a third class
    m, y = separable_matrix(n=20)
    labels = y.astype(np.float64)
    labels[3] = bad
    with pytest.raises(DataError, match=f"labels must be 0 or 1, found {float(bad)}$"):
        train(m, labels, TrainConfig(rounds=2))


def test_train_empty_matrix_raises():
    with pytest.raises(DataError, match="training needs >= 2 rows and >= 1 column, got 1x1"):
        train(
            matrix_of(np.zeros((1, 1))), np.array([1]), TrainConfig(rounds=1)
        )


def test_train_logloss_non_increasing():
    m, y = separable_matrix(n=300, seed=4)
    losses = []
    for rounds in range(0, 12, 2):
        model = train(m, y, TrainConfig(rounds=rounds, learning_rate=0.1, seed=2))
        p = np.clip(predict(model, m), 1e-12, 1 - 1e-12)
        losses.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-6)


def test_train_leaf_hessian_mass_respects_minimum():
    """Replay training round by round and re-check every leaf's mass."""
    m, y = separable_matrix(n=250, seed=7)
    mcw = 2.5
    config = TrainConfig(rounds=15, max_leaves=8, min_child_weight=mcw, seed=3)
    model = train(m, y, config)
    doc = model_to_dict(model)
    col_of = {name: j for j, name in enumerate(m.column_names)}
    values = m.values.astype(np.float64)

    def leaf_ids(nodes, row):
        idx = 0
        while "value" not in nodes[idx]:
            node = nodes[idx]
            x = row[col_of[node["feature"]]]
            if math.isnan(x):
                idx = node["left"] if node["missing_left"] else node["right"]
            elif x <= node["threshold"]:
                idx = node["left"]
            else:
                idx = node["right"]
        return idx

    scores = np.full(len(y), doc["base_score"])
    for tree in doc["trees"]:
        p = 1.0 / (1.0 + np.exp(-scores))
        h = p * (1.0 - p)
        assignment = np.asarray([leaf_ids(tree["nodes"], row) for row in values])
        for leaf in np.unique(assignment):
            mass = float(h[assignment == leaf].sum())
            assert mass >= mcw - 1e-9
        scores += np.asarray(
            [tree["nodes"][a]["value"] for a in assignment]
        )


def test_train_is_deterministic():
    m, y = separable_matrix(n=150, seed=5)
    cfg = TrainConfig(rounds=10, goss_a=0.3, goss_b=0.2, seed=11)
    d1 = model_to_dict(train(m, y, cfg))
    d2 = model_to_dict(train(m, y, cfg))
    assert d1 == d2


# ---------------------------------------------------------------------------
# split search


def random_leaf(rng):
    """A random leaf: matrix, weighted g/h, its rows and a config.

    Columns mix continuous, constant, all-missing, 2-bin one-hot and
    few-level values, with NaN cells, and repeat earlier columns so equal
    gains must go to the lower column.  Scores of exactly 0 make every
    gradient +-0.5 and hessian 0.25, so sums are exact and gains tie
    across bins and missing directions too.  Saturated scores give rows
    with zero hessian but nonzero gradient.
    """
    n = int(rng.integers(2, 90))
    cols = []
    for _ in range(int(rng.integers(1, 7))):
        kind = int(rng.integers(0, 6))
        if kind == 5 and cols:
            cols.append(cols[int(rng.integers(0, len(cols)))].copy())
            continue
        if kind == 1:
            x = np.full(n, rng.normal())
        elif kind == 2:
            x = np.full(n, np.nan)
        elif kind == 3:
            x = rng.integers(0, 2, size=n).astype(np.float64)
        elif kind == 4:
            x = rng.integers(0, 4, size=n).astype(np.float64)
        else:
            x = rng.normal(size=n)
        x[rng.random(n) < rng.choice([0.0, 0.1, 0.5])] = np.nan
        cols.append(x)
    m = matrix_of(np.column_stack(cols))

    y = rng.integers(0, 2, size=n).astype(np.float64)
    scores = np.zeros(n) if rng.random() < 0.4 else rng.normal(scale=2.0, size=n)
    if rng.random() < 0.3:  # saturated rows: h is exactly 0, g is 0 or +-1
        scores[rng.random(n) < 0.4] = rng.choice([-50.0, 50.0])
    g, h = logistic_grad_hess(y, scores)
    l2_lambda = float(rng.choice([0.0, 0.5, 1.0]))
    mcw = float(rng.choice([0.0, 0.1, 0.6])) if l2_lambda else float(rng.choice([0.1, 0.6]))
    cfg = TrainConfig(
        max_bins=int(rng.choice([2, 3, 4, 8, 255])), l2_lambda=l2_lambda, min_child_weight=mcw
    )
    if rng.random() < 0.3:  # GOSS-weighted, as train() weights a sampled round
        w = goss_sample(g, 0.3, 0.4, rng)
        g, h, rows = g * w, h * w, np.flatnonzero(w)
    elif rng.random() < 0.5:  # a deeper leaf: an ascending row subset
        rows = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    else:
        rows = np.arange(n, dtype=np.int64)
    return m, g, h, rows.astype(np.int64), cfg


def oracle_split(grower, rows, g_total, h_total):
    mapper, cfg = grower.mapper, grower.cfg
    real_bins = [len(edge) + 1 for edge in mapper.edges]
    with np.errstate(divide="ignore"):  # l2_lambda = 0: an empty side, masked
        return scan_best_split(
            grower.binned, real_bins, grower.g, grower.h, rows, g_total, h_total,
            cfg.l2_lambda, cfg.min_child_weight,
        )


def leaf_grower(m, g, h, cfg):
    mapper = build_bins(m, cfg.max_bins)
    return _TreeGrower(mapper.transform(m.values), mapper, g, h, cfg)


def test_split_search_matches_column_scan_oracle():
    rng = np.random.default_rng(20261018)
    splits = 0
    for _ in range(300):
        m, g, h, rows, cfg = random_leaf(rng)
        grower = leaf_grower(m, g, h, cfg)
        g_total, h_total = float(g[rows].sum()), float(h[rows].sum())
        got = grower._best_split(7, rows, g_total, h_total)
        want = oracle_split(grower, rows, g_total, h_total)
        if want is None:
            assert got is None
            continue
        splits += 1
        assert got.node_id == 7 and got.rows is rows
        assert (got.feature_idx, got.split_bin, got.missing_left, got.gain) == want
    assert splits >= 150


def packed_width(grower, rows):
    """Most live candidate slots one column has in the leaf: bin 0 and the
    candidate bins its rows fill (every row here has h > 0)."""
    width = 0
    for c, miss in enumerate(grower.mapper.missing):
        if miss >= 2:
            filled = grower.binned[rows, c]
            width = max(width, np.unique(np.append(filled[filled <= miss - 2], 0)).size)
    return width


@pytest.mark.parametrize("mcw", [0.0, 0.3])
def test_split_search_on_wide_sparse_leaves_matches_column_scan_oracle(mcw):
    # quickstart's shape: one 200-400-row fold of 40-70 columns at 255 bins,
    # searched at its root (its widest packed row near the 256-slot stride)
    # and at leaves of 2-9 rows, whose live slots pack into a few per column
    rng = np.random.default_rng(31 + int(mcw * 10))
    n, n_cols = int(rng.integers(200, 401)), int(rng.integers(40, 71))
    x = rng.normal(size=(n, n_cols))
    kind = rng.integers(0, 3, size=n_cols)  # one-hot, continuous, with missing cells
    kind[:3] = (0, 1, 2)
    x[:, kind == 0] = rng.integers(0, 2, size=(n, np.count_nonzero(kind == 0)))
    x[(rng.random(x.shape) < 0.25) & (kind == 2)] = np.nan
    y = (np.nan_to_num(x[:, 1]) + rng.normal(size=n) > 0.5).astype(np.float64)
    g, h = logistic_grad_hess(y, rng.normal(size=n))
    grower = leaf_grower(matrix_of(x), g, h, TrainConfig(min_child_weight=mcw))
    assert grower.mapper.stride == 256

    root = np.arange(n, dtype=np.int64)
    leaves = [root] + [np.sort(rng.choice(n, size=int(rng.integers(2, 10)), replace=False))
                       for _ in range(200)]
    assert packed_width(grower, root) > 200
    assert max(packed_width(grower, rows) for rows in leaves[1:]) <= 10
    found = []
    for rows in leaves:
        g_total, h_total = float(g[rows].sum()), float(h[rows].sum())
        got = grower._best_split(3, rows, g_total, h_total)
        want = oracle_split(grower, rows, g_total, h_total)
        if got is not None:
            got = (got.feature_idx, got.split_bin, got.missing_left, got.gain)
        assert got == want
        found.append(want)
    assert found[0] is not None
    assert sum(want is not None for want in found) >= 100
    assert {want[2] for want in found if want} == {True, False}  # both missing directions


def test_complex_cumsum_is_two_float64_cumsums_bit_for_bit():
    # the split search's packed prefix rests on this: complex addition adds
    # the real parts and the imaginary parts as two float64 additions, and
    # cumsum adds each row left to right
    rng = np.random.default_rng(12)
    shape = (40, 300)
    parts = []
    for _ in range(2):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
        tiny = rng.random(shape) < 0.1  # subnormals and the smallest normal
        x[tiny] = rng.choice([5e-324, -5e-324, 2.2e-308, -1e-310], size=tiny.sum())
        x[rng.random(shape) < 0.2] = 0.0
        x[rng.random(shape) < 0.2] = -0.0
        x[:2] = rng.choice([0.0, -0.0], size=(2, shape[1]))  # all-zero rows keep -0.0
        parts.append(x)
    block = np.empty(shape, dtype=np.complex128)
    block.real, block.imag = parts
    prefix = np.cumsum(block, axis=1)
    assert prefix.real.tobytes() == np.cumsum(parts[0], axis=1).tobytes()
    assert prefix.imag.tobytes() == np.cumsum(parts[1], axis=1).tobytes()
    assert np.signbit(prefix[:2].real).any() and (prefix.real[2:] != 0.0).any()


def test_split_search_ties_go_to_lower_column_and_missing_left():
    # Two identical one-hot columns; with all scores 0 the missing-left and
    # missing-right splits of bin 0 are mirror images with equal gain.
    x = np.array([0.0, 1.0, np.nan, np.nan])
    m = matrix_of(np.column_stack((x, x)))
    g, h = logistic_grad_hess(np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(4))
    grower = leaf_grower(m, g, h, TrainConfig(min_child_weight=0.0))
    rows = np.arange(4, dtype=np.int64)
    got = grower._best_split(0, rows, float(g.sum()), float(h.sum()))
    assert (got.feature_idx, got.split_bin, got.missing_left) == (0, 0, True)
    assert (got.feature_idx, got.split_bin, got.missing_left, got.gain) == oracle_split(
        grower, rows, float(g.sum()), float(h.sum())
    )


@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(rounds=6, max_leaves=9, min_child_weight=0.0, seed=2),
        TrainConfig(rounds=6, max_leaves=7, max_bins=16, goss_a=0.2, goss_b=0.3, seed=5),
    ],
    ids=["plain", "goss"],
)
def test_exact_copies_appended_after_their_columns_leave_the_model_unchanged(cfg):
    # every candidate of a copy ties its original, and ties keep the lower
    # column, so a matrix's duplicate columns never reach a model
    rng = np.random.default_rng(27)
    x = rng.normal(size=(240, 4))
    x[:, 2] = rng.integers(0, 5, size=240)  # a categorical code
    x[rng.random(x.shape) < 0.15] = np.nan
    y = (np.nan_to_num(x[:, 0]) + np.nan_to_num(x[:, 2]) / 2 + rng.normal(size=240) > 1)
    y = y.astype(np.int8)
    model = model_to_dict(train(matrix_of(x), y, cfg))
    assert {"f0", "f2"} <= {feature for feature, _ in model["split_records"]}
    copies = matrix_of(
        np.column_stack((x, x[:, [2, 0, 2]])),
        names=["f0", "f1", "f2", "f3", "f2_copy", "f0_copy", "f2_copy2"],
    )
    assert model_to_dict(train(copies, y, cfg)) == model


@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(rounds=6, max_leaves=9, seed=2),
        TrainConfig(rounds=6, max_leaves=7, max_bins=16, goss_a=0.2, goss_b=0.3,
                    l2_lambda=0.0, min_child_weight=0.5, seed=5),
    ],
)
def test_train_with_column_scan_oracle_gives_the_same_model(monkeypatch, cfg):
    rng = np.random.default_rng(77)
    x = rng.normal(size=(240, 6))
    x[:, 3] = (x[:, 3] > 0.4).astype(np.float64)
    x[:, 4] = x[:, 0]
    x[:, 5] = 1.0
    x[rng.random(x.shape) < 0.15] = np.nan
    y = (np.nan_to_num(x[:, 0]) + np.nan_to_num(x[:, 1]) + rng.normal(size=240) > 0)
    m = matrix_of(x)
    fast = model_to_dict(train(m, y.astype(np.int8), cfg))

    def scan(self, node_id, rows, g_total, h_total):
        best = oracle_split(self, rows, g_total, h_total)
        return None if best is None else _LeafCandidate(node_id, rows, best[3], *best[:3])

    monkeypatch.setattr(_TreeGrower, "_best_split", scan)
    assert model_to_dict(train(m, y.astype(np.int8), cfg)) == fast


def random_train_case(rng):
    """A seeded (matrix, labels, config) that reaches every skip rule.

    Few rows and ``min_child_weight`` 0 grow leaves down to one row;
    NaN-heavy columns give missing-right winners; rounded small values
    give -0.0 cells and zero cuts.
    """
    n = int(rng.integers(4, 80))
    cols = [random_bin_column(rng, n) for _ in range(int(rng.integers(1, 5)))]
    signal = np.round(rng.normal(scale=0.02, size=n), 2)  # -0.0 and +0.0 cells
    signal[rng.random(n) < rng.choice([0.0, 0.2, 0.6])] = np.nan
    cols.insert(int(rng.integers(0, len(cols) + 1)), signal)
    x = np.column_stack(cols)
    y = (np.nan_to_num(signal, nan=rng.normal()) + rng.normal(scale=0.02, size=n) > 0)
    y[:2] = (True, False)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        l2_lambda, mcw = float(rng.choice([0.5, 1.0])), 0.0
    elif kind == 1:
        l2_lambda, mcw = 0.0, float(rng.choice([0.01, 0.3]))
    else:
        l2_lambda, mcw = 1.0, float(rng.choice([0.0, 0.05, 1.0]))
    goss = rng.random() < 0.3
    cfg = TrainConfig(
        rounds=int(rng.integers(1, 5)),
        max_leaves=int(rng.choice([2, 3, 4, 15])),
        min_child_weight=mcw,
        l2_lambda=l2_lambda,
        goss_a=0.3 if goss else 1.0,
        goss_b=0.4 if goss else 0.0,
        max_bins=int(rng.choice([3, 8, 255])),
        seed=int(rng.integers(0, 1000)),
    )
    return matrix_of(x), y.astype(np.int8), cfg


def test_train_with_every_leaf_searched_gives_the_same_model(monkeypatch):
    rng = np.random.default_rng(20261019)
    seen = {"one_row_leaf": 0, "missing_right": 0, "zero_threshold": 0}
    new_leaf = _TreeGrower._new_leaf

    def counting_new_leaf(self, rows, search):
        seen["one_row_leaf"] += bool(search and rows.size == 1)
        return new_leaf(self, rows, search)

    for case in range(220):
        m, y, cfg = random_train_case(rng)
        with monkeypatch.context() as patch:
            patch.setattr(_TreeGrower, "_new_leaf", counting_new_leaf)
            fast = dumps(model_to_dict(train(m, y, cfg)))
        with monkeypatch.context() as patch:
            patch.setattr(gbdt, "_TreeGrower", SearchEveryLeafGrower)
            assert dumps(model_to_dict(train(m, y, cfg))) == fast, (case, cfg)
        seen["missing_right"] += fast.count('"missing_left": false')
        seen["zero_threshold"] += fast.count('"threshold": 0.0,')
        assert '"threshold": -0.0,' not in fast, case
    assert min(seen.values()) >= 20, seen


def test_train_searches_only_leaves_that_can_split(monkeypatch):
    rng = np.random.default_rng(20261020)
    searches = []
    best_split = _TreeGrower._best_split

    def counting_best_split(self, node_id, rows, g_total, h_total):
        searches.append((self, rows.size))  # holds the grower: no id is reused
        return best_split(self, node_id, rows, g_total, h_total)

    monkeypatch.setattr(_TreeGrower, "_best_split", counting_best_split)
    full_trees = 0
    for _ in range(60):
        m, y, cfg = random_train_case(rng)
        searches.clear()
        model = train(m, y, cfg)
        per_tree = {}
        for grower, n_rows in searches:
            assert n_rows >= 2
            per_tree[grower] = per_tree.get(grower, 0) + 1
        assert len(per_tree) == model.n_trees  # every root holds >= 2 rows
        assert max(per_tree.values(), default=0) <= 2 * cfg.max_leaves - 3
        full_trees += sum(len(t) == 2 * cfg.max_leaves - 1 for t in model.trees)
    assert full_trees >= 20


# ---------------------------------------------------------------------------
# prediction


def test_predict_empty_model_is_constant():
    model = BoostedModel(base_score=0.4, learning_rate=0.1, trees=[], split_records=[])
    m, _ = separable_matrix(n=10)
    preds = predict(model, m)
    assert np.allclose(preds, 1.0 / (1.0 + math.exp(-0.4)))


def test_predict_monotone_across_single_split():
    m, y = separable_matrix(n=200, seed=3)
    model = train(m, y, TrainConfig(rounds=1, max_leaves=2, seed=0))
    doc = model_to_dict(model)
    [tree] = doc["trees"]
    split = tree["nodes"][0]
    assert split["feature"] == "f0"
    below = matrix_of([[split["threshold"] - 0.5, 0.0, 0.0]])
    above = matrix_of([[split["threshold"] + 0.5, 0.0, 0.0]])
    assert predict(model, below)[0] < predict(model, above)[0]


def test_predict_routes_a_float32_neighbour_like_training():
    # The one split lands between 0.5 and the next float32 above it, at a
    # threshold that rounds up to that neighbour in float32; scoring must
    # compare in float64 as the binned training partition does.
    x = np.concatenate((
        np.arange(-37, 0),
        [0.5, np.nextafter(np.float32(0.5), np.float32(1))],
        np.arange(40, 133),
    )).astype(np.float32)
    y = (np.arange(x.size) > 37).astype(np.int8)
    m = matrix_of(x)
    model = train(m, y, TrainConfig(rounds=1, max_leaves=2, min_child_weight=0))
    raw = predict_raw(model, m)
    assert raw[38] == raw[39]
    assert raw[38] != raw[37]


def test_predict_matches_independent_tree_walk():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(300, 5)).astype(np.float32)
    x[rng.random(x.shape) < 0.1] = np.nan
    y = (np.nan_to_num(x[:, 0]) + 0.5 * np.nan_to_num(x[:, 1]) > 0).astype(np.int8)
    m = matrix_of(x)
    model = train(m, y, TrainConfig(rounds=12, max_leaves=6, seed=4))
    doc = model_to_dict(model)
    got = predict(model, m)
    for i in range(0, 300, 7):
        row = {name: float(x[i, j]) for j, name in enumerate(m.column_names)}
        want = tree_walk_probability(doc, row)
        assert abs(got[i] - want) < 1e-12


def test_predict_all_missing_row_is_finite():
    m, y = separable_matrix(n=100, seed=8)
    model = train(m, y, TrainConfig(rounds=5, seed=0))
    ghost = matrix_of(np.full((1, 3), np.nan, dtype=np.float32))
    p = predict(model, ghost)
    assert 0.0 < p[0] < 1.0


def test_predict_ignores_extra_columns_and_column_order():
    m, y = separable_matrix(n=120, seed=9)
    model = train(m, y, TrainConfig(rounds=8, seed=0))
    base = predict(model, m)
    extra = FeatureMatrix(
        m.customer_ids,
        ["junk"] + list(reversed(m.column_names)),
        np.column_stack(
            [np.zeros(120, dtype=np.float32)] + [m.column(c) for c in reversed(m.column_names)]
        ),
    )
    np.testing.assert_array_equal(predict(model, extra), base)


def test_predict_missing_column_raises():
    m, y = separable_matrix(n=50)
    model = train(m, y, TrainConfig(rounds=3, seed=0))
    short = matrix_of(np.zeros((5, 1), dtype=np.float32), names=["f9"])
    with pytest.raises(DataError, match="matrix lacks feature column 'f0' required by the model"):
        predict(model, short)


# ---------------------------------------------------------------------------
# importance and persistence


def test_importance_single_split():
    model = BoostedModel(0.0, 0.1, trees=[], split_records=[("f", 12.3)])
    assert importance(model, "total_gain") == {"f": 12.3}
    assert importance(model, "average_gain") == {"f": 12.3}


def test_importance_average_vs_total():
    model = BoostedModel(0.0, 0.1, trees=[], split_records=[("f", 4.0), ("f", 2.0), ("g", 9.0)])
    assert importance(model, "total_gain") == {"f": 6.0, "g": 9.0}
    assert importance(model, "average_gain") == {"f": 3.0, "g": 9.0}


def test_importance_accounting_is_exact():
    m, y = separable_matrix(n=200, seed=12)
    model = train(m, y, TrainConfig(rounds=15, seed=0))
    totals = importance(model, "total_gain")
    for col in totals:
        regrouped = math.fsum(g for f, g in model.split_records if f == col)
        assert totals[col] == regrouped
    # Grand-total accounting at exact precision: the per-column gain
    # buckets partition the flat gain list (no gain dropped, duplicated,
    # or attributed to two columns).  Float grand totals reduced in
    # different orders may differ by an ulp, so the partition is checked
    # over the rationals instead.
    assert set(totals) == {f for f, _ in model.split_records}
    per_column = sum(
        sum(Fraction(g) for f, g in model.split_records if f == col)
        for col in totals
    )
    assert per_column == sum(Fraction(g) for _, g in model.split_records)


def test_importance_rejects_unknown_kind():
    model = BoostedModel(0.0, 0.1, trees=[], split_records=[])
    with pytest.raises(ConfigError):
        importance(model, "cover")


def test_model_round_trip(tmp_path):
    m, y = separable_matrix(n=150, seed=13)
    model = train(m, y, TrainConfig(rounds=7, seed=0))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(predict(back, m), predict(model, m))
    assert back.split_records == model.split_records

    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc) == ["base_score", "learning_rate", "trees", "split_records"]

    path2 = tmp_path / "model2.json"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _stump_doc(**changes):
    """A valid one-split model document, with top-level keys replaced."""
    doc = {
        "base_score": 0.0,
        "learning_rate": 0.1,
        "trees": [{"nodes": [
            {"feature": "f", "threshold": 0.5, "missing_left": True, "left": 1, "right": 2},
            {"value": 0.25},
            {"value": -0.25},
        ]}],
        "split_records": [["f", 1.5]],
    }
    doc.update(changes)
    return doc


def _stump_with_root(**changes):
    doc = _stump_doc()
    doc["trees"][0]["nodes"][0].update(changes)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_stump_doc(split_records=[["f", math.nan]]), "split gain must be a finite number"),
        (_stump_doc(split_records=[["f", math.inf]]), "split gain must be a finite number"),
        (_stump_doc(split_records=[["f", "1.5"]]), "split gain must be a finite number"),
        (_stump_doc(split_records=[[3, 1.5]]), "must be [feature, gain]"),
        (_stump_doc(split_records=["f1"]), "must be [feature, gain]"),
        (_stump_doc(split_records=[["f", 1.5, 2.0]]), "must be [feature, gain]"),
        (_stump_doc(base_score=math.nan), "base_score must be a finite number"),
        (_stump_doc(learning_rate=-math.inf), "learning_rate must be a finite number"),
        (_stump_doc(learning_rate=True), "learning_rate must be a finite number"),
        (_stump_doc(learning_rate=10**400), "learning_rate must be a finite number"),
        (_stump_doc(trees=[{"nodes": []}]), "tree 0 has no nodes"),
        (_stump_doc(trees=[{"nodes": [{"value": math.nan}]}]), "node 0 value must be a finite"),
        (_stump_with_root(threshold=math.inf), "node 0 threshold must be a finite"),
        (_stump_with_root(feature=3), "node 0 feature must be a string"),
        (_stump_with_root(missing_left=1), "node 0 missing_left must be true or false"),
        (_stump_with_root(left=-1), "node 0 child -1 must be an index in 1..2"),
        (_stump_with_root(left=0), "node 0 child 0 must be an index in 1..2"),
        (_stump_with_root(right=3), "node 0 child 3 must be an index in 1..2"),
        (_stump_with_root(right=True), "node 0 child True must be an index"),
        (_stump_with_root(right=2.0), "node 0 child 2.0 must be an index"),
        (_stump_with_root(right=None), "node 0 child None must be an index"),
        (_stump_doc(trees=[{"nodes": [{"feature": "f", "threshold": 0.5, "missing_left": False,
                                       "left": 1, "right": 1}, {"value": 1.0},
                                      {"feature": "f", "threshold": 0.5, "missing_left": False,
                                       "left": 1, "right": 3}, {"value": 1.0}]}]),
         "node 2 child 1 must be an index in 3..3"),
    ],
)
def test_load_model_rejects_a_document_of_another_shape(tmp_path, doc, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="malformed model document") as info:
        load_model(path)
    assert message in str(info.value)


def test_load_model_reads_the_valid_stump(tmp_path):
    # the documents above differ from this one in the one value named
    stump = tmp_path / "stump.json"
    stump.write_text(json.dumps(_stump_doc()), encoding="utf-8")
    model = load_model(stump)
    assert predict_raw(model, matrix_of([[0.0], [1.0], [math.nan]], names=["f"])).tolist() == [
        0.25, -0.25, 0.25
    ]


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(rounds=-1)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_leaves=1)
    with pytest.raises(ConfigError):
        TrainConfig(max_bins=300)
    with pytest.raises(ConfigError):
        TrainConfig(goss_a=0.8, goss_b=0.4)  # a + b > 1
    with pytest.raises(ConfigError, match="goss_a < 1 with goss_b = 0 keeps no small-gradient rows"):
        TrainConfig(goss_a=0.5, goss_b=0.0)
    # an empty leaf would divide by zero
    with pytest.raises(ConfigError):
        TrainConfig(l2_lambda=0.0, min_child_weight=0.0)
    TrainConfig(l2_lambda=0.0, min_child_weight=1.0)
    TrainConfig(l2_lambda=1.0, min_child_weight=0.0)


def test_config_from_json(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(
        json.dumps({"rounds": 30, "goss_a": 0.2, "goss_b": 0.1, "seed": 7}),
        encoding="utf-8",
    )
    cfg = config_from_json(path)
    assert cfg.rounds == 30 and cfg.goss_a == 0.2 and cfg.seed == 7
    with pytest.raises(ConfigError):
        config_from_json({"rounds": 5, "who": 1})
    # a "learning_rate": 1 is kept as the int it was written as
    assert type(config_from_json({"learning_rate": 1}).learning_rate) is int


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("rounds", True, "'rounds' must be an integer, got True"),
        ("seed", False, "'seed' must be an integer, got False"),
        ("learning_rate", True, "'learning_rate' must be a finite number, got True"),
        ("min_child_weight", math.nan, "'min_child_weight' must be a finite number, got nan"),
        ("l2_lambda", math.nan, "'l2_lambda' must be a finite number, got nan"),
        ("l2_lambda", math.inf, "'l2_lambda' must be a finite number, got inf"),
        ("goss_b", -math.inf, "'goss_b' must be a finite number, got -inf"),
        ("min_child_weight", 10**400, "'min_child_weight' must be a finite number, got 1000"),
    ],
)
def test_config_from_json_rejects_booleans_and_non_finite_numbers(key, value, message):
    with pytest.raises(ConfigError, match=f"train config key {message}"):
        config_from_json({key: value})


def test_shipped_train_config_loads_and_early_stopping_is_rejected():
    shipped = Path(__file__).resolve().parents[1] / "configs" / "train.json"
    assert config_from_json(shipped) == TrainConfig(rounds=100, max_leaves=31)
    with pytest.raises(ConfigError, match="early_stop_rounds"):
        config_from_json({"rounds": 5, "early_stop_rounds": 3})
