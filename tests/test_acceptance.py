"""Acceptance suite: eleven verifiable claims about the whole package.

Each test prints one `[criterion NN] PASS/FAIL` line (shown in the
terminal summary) and asserts it.  Statistical criteria run on pinned
seeds, so every number here is reproducible bit for bit; the margins
quoted in the lines are the actually measured ones.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np

from credit_stack.cli import main as cli_main
from credit_stack.cv_stack import (
    append_meta,
    make_folds,
    predict_with_fold_models,
    train_meta,
    train_oof,
)
from credit_stack.blend import blend, optimize_weights
from credit_stack.features import AggregationSpec, FeatureMatrix, build_matrix
from credit_stack.gbdt import TrainConfig, goss_sample, importance, predict, train
from credit_stack.ingest import ColumnSchema, StatementTable, clean
from credit_stack.metric import composite_metric, weighted_auc
from credit_stack.report import build_importance_report
from credit_stack.synth import GRID, SynthConfig, generate
from oracles import (
    capture_at_fraction,
    direct_categorical_stats,
    direct_continuous_stats,
    exhaustive_blend_best_m,
    pairwise_weighted_auc,
    ulp32_close,
)


def note(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)  # conftest.py lists it in the terminal summary
    assert ok, line


# ---------------------------------------------------------------------------
# shared dataset plumbing (synthetic -> cleaned -> feature matrix)


def synth_features(cfg, spec=None):
    table, labels = generate(cfg)
    table, _ = clean(table, GRID)
    spec = spec or AggregationSpec(encode="ordinal")
    matrix, _ = build_matrix(table, spec)
    y = np.array([labels[c] for c in matrix.customer_ids], dtype=np.int8)
    return matrix, y


def holdout_mask(y, fraction, seed):
    rng = np.random.default_rng(seed)
    mask = np.zeros(y.size, dtype=bool)
    for klass in (1, 0):
        idx = np.flatnonzero(y == klass)
        chosen = rng.permutation(idx)[: int(np.floor(fraction * idx.size))]
        mask[chosen] = True
    return mask


def sub(matrix, rows):
    return FeatureMatrix(matrix.customer_ids[rows], matrix.column_names, matrix.values[rows])


def random_instance(rng, max_n=1000):
    """Random labels and tie-prone predictions with both classes present."""
    n = int(rng.integers(2, max_n + 1))
    share = float(rng.uniform(0.05, 0.95))
    y = (rng.random(n) < share).astype(np.int64)
    if y.sum() == 0:
        y[int(rng.integers(n))] = 1
    if y.sum() == n:
        y[int(rng.integers(n))] = 0
    decimals = int(rng.integers(1, 7))  # coarse grids force tie clusters
    p = np.round(rng.random(n), decimals)
    return y, p


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_01_metric_matches_pairwise_oracle():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        y, p = random_instance(rng)
        fast = weighted_auc(y, p)
        slow = pairwise_weighted_auc(y, p)
        worst = max(worst, abs(fast - slow))
        rep = composite_metric(y, p)
        assert rep.G == 2.0 * rep.auc_w - 1.0  # exact identity
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    note(1, ok,
         f"1000 weighted-AUC instances vs pairwise oracle: max |diff| {worst:.2e} "
         f"(limit 1e-12), G identity exact, {elapsed:.1f}s (< 30s)")


def test_criterion_02_metric_hand_cases():
    perfect = composite_metric([1, 0, 0], [0.9, 0.5, 0.1])
    reverse = composite_metric([1, 0, 0], [0.1, 0.5, 0.9])
    four = composite_metric([1, 0, 1, 0], [0.8, 0.7, 0.6, 0.5])
    ok = (
        perfect.G == 1.0 and perfect.D == 1.0 and perfect.M == 1.0
        and reverse.G == -1.0 and reverse.D == 0.0
        and four.G == 0.5 and four.D == 0.5 and four.M == 0.5
    )
    note(2, ok,
         f"hand cases exact: perfect M={perfect.M}, reversed G={reverse.G} "
         f"D={reverse.D}, 4-row G={four.G} D={four.D} M={four.M}")


def test_criterion_03_rank_invariance():
    rng = np.random.default_rng(3)
    changed = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 400))
        y = (rng.random(n) < 0.5).astype(np.int64)
        if y.sum() == 0:
            y[0] = 1
        if y.sum() == n:
            y[0] = 0
        # coarse grid in [0.1, 1]: tie clusters survive the cube exactly
        p = np.round(rng.uniform(0.1, 1.0, n), 3)
        a = composite_metric(y, p)
        b = composite_metric(y, p**3 + 5.0)
        changed = max(changed, abs(a.G - b.G), abs(a.D - b.D), abs(a.M - b.M))
    ok = changed == 0.0
    note(3, ok,
         f"x^3+5 transform over 100 instances: max change in G/D/M = {changed} "
         "(required 0)")


def test_criterion_04_aggregation_matches_direct_formulas():
    rng = np.random.default_rng(4)
    n_series = 10_000
    lengths = rng.integers(1, 14, size=n_series)
    lengths[:5] = [1, 1, 2, 13, 13]  # pin the edge lengths

    ids, vals, codes = [], [], []
    for i, L in enumerate(lengths):
        ids.extend([f"C{i:05d}"] * L)
        v = np.round(rng.normal(scale=2.0, size=L), 2)
        v[rng.random(L) < 0.15] = np.nan
        if i == 1:
            v[:] = np.nan  # a fully missing series
        if i == 2:
            v[:] = 1.25  # a constant series
        vals.append(v)
        c = rng.integers(0, 5, size=L)
        c[rng.random(L) < 0.15] = -1
        codes.append(c)
    schema = [
        ColumnSchema("customer_id", "identifier"),
        ColumnSchema("statement_date", "date"),
        ColumnSchema("v", "continuous", "float32"),
        ColumnSchema("c", "categorical", "int8"),
    ]
    index = np.concatenate([np.arange(1, L + 1) for L in lengths])
    table = StatementTable(
        schema,
        np.asarray(ids),
        index.astype(np.int32),
        {
            "statement_date": (736000 + index).astype(np.int64),
            "v": np.concatenate(vals).astype(np.float32),
            "c": np.concatenate(codes).astype(np.int64),
        },
    )
    matrix, _ = build_matrix(table, AggregationSpec())
    assert matrix.n_rows == n_series

    cols = {name: matrix.column(name) for name in matrix.column_names}
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    checked = 0
    bad = 0
    for i in range(n_series):
        series = np.concatenate(vals[i : i + 1]).astype(np.float32)
        want = direct_continuous_stats(series)
        for stat in ("mean", "std", "min", "max", "last", "median"):
            got = cols[f"v_{stat}"][i]
            if not ulp32_close(got, want[stat]):
                bad += 1
            checked += 1
        # the trailing difference is defined at 32-bit storage precision
        want_lag = np.float32(np.float32(want["last"]) - np.float32(want["mean"]))
        if not ulp32_close(cols["v_lag"][i], want_lag):
            bad += 1
        checked += 1
        want_cat = direct_categorical_stats(codes[i])
        for stat in ("count", "last", "nunique"):
            got = cols[f"c_{stat}"][i]
            want_v = want_cat[stat]
            same = (math.isnan(want_v) and math.isnan(got)) or got == want_v
            if not same:
                bad += 1
            checked += 1
    ok = bad == 0
    note(4, ok,
         f"{n_series} series x 10 statistics vs direct formulas: "
         f"{bad} of {checked} values off by more than one float32 ulp")


def test_criterion_05_learner_sanity():
    t0 = time.monotonic()
    matrix, y = synth_features(SynthConfig(n_customers=5000, seed=11))

    col = np.nan_to_num(matrix.column("cont_00_mean"))
    y_sep = (col > np.median(col)).astype(np.int8)
    sep_model = train(matrix, y_sep, TrainConfig(rounds=50, max_leaves=15, seed=5))
    sep_auc = weighted_auc(y_sep, predict(sep_model, matrix))

    hold = holdout_mask(y, 0.2, seed=11)
    tr, ho = np.flatnonzero(~hold), np.flatnonzero(hold)
    model = train(
        sub(matrix, tr), y[tr],
        TrainConfig(rounds=80, max_leaves=15, min_child_weight=3.0, seed=5),
    )
    hold_m = composite_metric(y[ho], predict(model, sub(matrix, ho))).M
    elapsed = time.monotonic() - t0
    ok = sep_auc >= 0.99 and hold_m >= 0.60 and elapsed < 120.0
    note(5, ok,
         f"5000-customer synthetic: separable train AUC {sep_auc:.4f} (>= 0.99 "
         f"in 50 rounds), standard holdout M {hold_m:.4f} (>= 0.60), "
         f"{elapsed:.1f}s (< 120s)")


def test_criterion_06_goss_fidelity():
    matrix, y = synth_features(SynthConfig(n_customers=20000, seed=21))
    hold = holdout_mask(y, 0.25, seed=21)
    tr, ho = np.flatnonzero(~hold), np.flatnonzero(hold)
    base = dict(rounds=60, max_leaves=15, seed=5)
    full = train(sub(matrix, tr), y[tr], TrainConfig(**base))
    sampled = train(sub(matrix, tr), y[tr], TrainConfig(goss_a=0.2, goss_b=0.1, **base))
    auc_full = weighted_auc(y[ho], predict(full, sub(matrix, ho)))
    auc_goss = weighted_auc(y[ho], predict(sampled, sub(matrix, ho)))
    gap = abs(auc_full - auc_goss)

    # unbiasedness of the sampled small-gradient mass, a=0.2 b=0.1
    rng = np.random.default_rng(6)
    grads = rng.uniform(0.5, 1.5, size=400)
    n_top = math.ceil(0.2 * grads.size)
    rest = np.argsort(-np.abs(grads), kind="stable")[n_top:]
    target = grads[rest].sum()
    estimates = []
    for trial in range(3000):
        rows, mult = goss_sample(grads, 0.2, 0.1, seed=trial)
        small = mult > 1.0
        estimates.append(float((grads[rows[small]] * mult[small]).sum()))
    rel_err = abs(float(np.mean(estimates)) - target) / abs(target)

    ok = gap <= 0.02 and rel_err <= 0.02
    note(6, ok,
         f"GOSS a=0.2 b=0.1: holdout AUC gap {gap:.4f} (<= 0.02, full "
         f"{auc_full:.4f} vs sampled {auc_goss:.4f}); Monte-Carlo mean within "
         f"{rel_err:.2%} of the small-gradient sum (<= 2%)")


def test_criterion_07_no_leakage_under_label_permutation():
    matrix, y = synth_features(SynthConfig(n_customers=21500, seed=31))
    config = TrainConfig(rounds=20, max_leaves=10, seed=5)
    aucs = []
    rows_checked = 0
    rows_excluded = 0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        perm = rng.permutation(y)
        plan = make_folds(perm, 5, seed=trial)
        result = train_oof(matrix, perm, plan, config)
        aucs.append(weighted_auc(perm, result.oof.prediction))
        for f in range(plan.k):
            held = plan.rows_in(f)
            rows_checked += held.size
            trained_on = set(result.train_indices[f].tolist())
            rows_excluded += sum(1 for r in held.tolist() if r not in trained_on)
    lo, hi = min(aucs), max(aucs)
    exclusion = rows_excluded / rows_checked
    ok = lo >= 0.45 and hi <= 0.55 and exclusion == 1.0
    note(7, ok,
         f"20 label permutations on {matrix.n_rows} rows: OOF AUC in "
         f"[{lo:.4f}, {hi:.4f}] (required [0.45, 0.55]); fold exclusion "
         f"{exclusion:.0%} of {rows_checked} rows")


def test_criterion_08_stacking_does_not_degrade():
    wide_spec = AggregationSpec(encode="one-hot")
    recent_spec = AggregationSpec(recent_window=6, encode="ordinal")
    thin_spec = AggregationSpec(continuous_stats=("mean", "last"), lag_enabled=True)
    margins = []
    passes = 0
    for seed in range(5):
        cfg = SynthConfig(n_customers=20000, neg_keep_rate=0.3, seed=100 + seed)
        table, labels = generate(cfg)
        table, _ = clean(table, GRID)
        mats = {}
        for name, spec in (("wide", wide_spec), ("recent", recent_spec), ("thin", thin_spec)):
            m, _ = build_matrix(table, spec)
            mats[name] = m
        y = np.array([labels[c] for c in mats["wide"].customer_ids], dtype=np.int8)
        hold = holdout_mask(y, 0.2, seed=seed)
        tr, ho = np.flatnonzero(~hold), np.flatnonzero(hold)
        plan = make_folds(y[tr], 4, seed=seed)
        base_cfg = TrainConfig(rounds=40, max_leaves=15, seed=3)
        base_m, oofs, hold_preds = {}, [], []
        for name in ("wide", "recent"):
            res = train_oof(sub(mats[name], tr), y[tr], plan, base_cfg)
            hp = predict_with_fold_models(res.models, sub(mats[name], ho))
            base_m[name] = composite_metric(y[ho], hp).M
            oofs.append(res.oof.prediction)
            hold_preds.append(hp)
        aug_tr = append_meta(sub(mats["thin"], tr), oofs)
        meta_model = train_meta(
            aug_tr, y[tr], plan,
            TrainConfig(rounds=30, max_leaves=6, min_child_weight=5.0, seed=4),
        )
        aug_ho = append_meta(sub(mats["thin"], ho), hold_preds)
        meta_m = composite_metric(y[ho], predict(meta_model, aug_ho)).M
        margin = meta_m - max(base_m.values())
        margins.append(margin)
        passes += margin >= -0.005
    ok = passes >= 3
    note(8, ok,
         f"meta vs best base holdout M over 5 seeds: margins "
         f"{['%+.4f' % m for m in margins]}, {passes}/5 within -0.005 "
         "(majority required)")


def test_criterion_09_blend_search_matches_exhaustive_grid():
    rng = np.random.default_rng(17)
    n = 300
    y = (rng.random(n) < 0.5).astype(np.int64)
    members = [
        np.clip(0.6 * y + 0.2 + rng.normal(0, s, n), 0, 1) for s in (0.15, 0.3, 0.5)
    ]
    spec, best = optimize_weights(members, y, step=0.01)
    oracle = exhaustive_blend_best_m(members, y, step=0.01)
    diff = abs(best - oracle)
    achieved = composite_metric(y, blend(members, spec.weights)).M

    a = np.array([0.11, 0.72, 0.33])
    b = np.array([0.99, 0.01, 0.55])
    one_hot_exact = np.array_equal(blend([a, b], [1.0, 0.0]), a) and np.array_equal(
        blend([a, b], [0.0, 1.0]), b
    )
    w = rng.random(3)
    w /= w.sum()
    mixed = blend(members, w)
    stackv = np.vstack(members)
    convex = bool(
        np.all(mixed >= stackv.min(axis=0)) and np.all(mixed <= stackv.max(axis=0))
    )
    ok = diff == 0.0 and abs(achieved - best) <= 1e-12 and one_hot_exact and convex
    note(9, ok,
         f"3-member weight search vs exhaustive 0.01 grid (5151 points, n={n}): "
         f"|M diff| = {diff:.1e}; one-hot identity exact: {one_hot_exact}; "
         f"convex bounds hold: {convex}")


def test_criterion_10_runs_are_byte_identical(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(
        json.dumps({"n_customers": 1200, "neg_keep_rate": 0.3, "seed": 5}),
        encoding="utf-8",
    )
    assert cli_main([
        "synth", "--quiet", "--config", str(synth_cfg),
        "--out-data", str(tmp_path / "data.csv"),
        "--out-labels", str(tmp_path / "labels.csv"),
        "--out-schema", str(tmp_path / "schema.json"),
    ]) == 0

    digests = []
    for out_name, threads in (("run_a", "1"), ("run_b", "8")):
        out_dir = tmp_path / out_name
        cfg = tmp_path / f"{out_name}.json"
        cfg.write_text(
            json.dumps({
                "data": str(tmp_path / "data.csv"),
                "labels": str(tmp_path / "labels.csv"),
                "schema": str(tmp_path / "schema.json"),
                "out_dir": str(out_dir),
                "folds": 3,
                "seed": 42,
                "blend_step": 0.05,
                "members": [
                    {"name": "wide", "features": {"encode": "one-hot"},
                     "train": {"rounds": 20, "max_leaves": 8, "seed": 1}},
                    {"name": "recent",
                     "features": {"recent_window": 6, "encode": "ordinal"},
                     "train": {"rounds": 20, "max_leaves": 8, "seed": 2,
                               "goss_a": 0.3, "goss_b": 0.2}},
                ],
            }),
            encoding="utf-8",
        )
        assert cli_main(["run", "--quiet", "--threads", threads,
                         "--config", str(cfg)]) == 0
        tree = {}
        for p in sorted(out_dir.rglob("*")):
            if p.is_file():
                tree[p.relative_to(out_dir).as_posix()] = hashlib.sha256(
                    p.read_bytes()
                ).hexdigest()
        digests.append(tree)
    same_names = set(digests[0]) == set(digests[1])
    diffs = [k for k in digests[0] if digests[0][k] != digests[1].get(k)]
    ok = same_names and not diffs
    note(10, ok,
         f"two `run` invocations (--threads 1 vs 8): {len(digests[0])} artifacts "
         f"each, differing files: {diffs if diffs else 'none'}")


def test_criterion_11_importance_accounting():
    matrix, y = synth_features(SynthConfig(n_customers=6000, neg_keep_rate=0.3, seed=41))
    plan = make_folds(y, 5, seed=7)
    result = train_oof(matrix, y, plan, TrainConfig(rounds=30, max_leaves=15, seed=5))

    # "Exactly" is checked at exact precision: every split gain must land in
    # exactly one column bucket (a partition identity over the rationals),
    # and every reported per-column total must be the correctly rounded
    # float of its column's exact gain sum.  Comparing float grand totals
    # that were reduced in different association orders instead would
    # demand more than any float accumulation can promise (the two fsum
    # trees here disagree by 1 ulp on one of the five fold models).
    exact = True
    tops = []
    for model in result.models:
        totals = importance(model, "total_gain")
        grouped = {}
        for name, gain in model.split_records:
            grouped.setdefault(name, []).append(gain)
        if set(totals) != set(grouped):
            exact = False
        for name, gains in grouped.items():
            if totals.get(name) != math.fsum(gains):
                exact = False
        partition_sum = sum(
            sum(Fraction(g) for g in gains) for gains in grouped.values()
        )
        flat_sum = sum(Fraction(g) for _, g in model.split_records)
        if partition_sum != flat_sum:
            exact = False
        tops.append(max(totals, key=totals.get))
    report = build_importance_report(result.models, "total_gain", matrix.column_names)
    tail = report.cumulative[-1][1]
    signal_first = sum(1 for t in tops if t.startswith("cont_00"))
    ok = exact and abs(tail - 1.0) <= 1e-9 and signal_first >= 4
    note(11, ok,
         f"per-column total_gain sums equal split-gain sums exactly "
         f"(rational partition identity + correctly rounded totals): {exact}; "
         f"cumulative curve ends at {tail:.12f} (1 +/- 1e-9); planted signal "
         f"ranks first in {signal_first}/5 folds (>= 4)")
