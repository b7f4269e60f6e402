"""End-to-end command-line interface tests (in-process)."""

import copy
import csv
import hashlib
import io
import json
import struct
import warnings

import numpy as np
import pytest

from credit_stack import features, ingest
from credit_stack.blend import write_predictions
from credit_stack.cli import build_parser, main
from credit_stack.features import load_matrix
from credit_stack.ingest import load_schema, read_labels
from credit_stack.pipeline import config_from_json
from credit_stack.serialize import read_csv_rows
from oracles import build_matrix_by_customer, write_csv_by_cell


def run(command, *argv):
    return main([command, "--quiet", *argv])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One small synthetic dataset taken through synth and prep."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(
        json.dumps(
            {
                "n_customers": 300,
                "n_continuous": 4,
                "n_categorical": 1,
                "neg_keep_rate": 0.3,
                "seed": 5,
            }
        ),
        encoding="utf-8",
    )
    assert (
        run(
            "synth", "--config", str(synth_cfg),
            "--out-data", str(root / "data.csv"),
            "--out-labels", str(root / "labels.csv"),
            "--out-schema", str(root / "schema.json"),
        )
        == 0
    )
    assert (
        run(
            "prep", "--input", str(root / "data.csv"),
            "--schema", str(root / "schema.json"),
            "--out", str(root / "clean.csv"),
        )
        == 0
    )
    spec = root / "spec.json"
    spec.write_text(json.dumps({"encode": "ordinal"}), encoding="utf-8")
    assert (
        run(
            "features", "--input", str(root / "clean.csv"),
            "--spec", str(spec),
            "--out", str(root / "matrix.bin"),
        )
        == 0
    )
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps({"rounds": 10, "max_leaves": 6}), encoding="utf-8")
    return root


def test_synth_and_prep_artifacts(work):
    assert (work / "data.csv").exists()
    assert (work / "clean.csv").exists()
    assert (work / "clean.csv.schema.json").exists()  # sidecar for later stages
    labels = read_labels(work / "labels.csv")
    assert labels and set(labels.values()) <= {0, 1}


def test_features_matrix_aligns_with_labels(work):
    matrix = load_matrix(work / "matrix.bin")
    labels = read_labels(work / "labels.csv")
    assert matrix.n_rows == len(labels)
    assert set(matrix.customer_ids) == set(labels)
    assert any(name.endswith("_mean") for name in matrix.column_names)
    assert "cat_0_code" in matrix.column_names


def test_train_and_eval_chain(work):
    assert (
        run(
            "train", "--features", str(work / "matrix.bin"),
            "--labels", str(work / "labels.csv"),
            "--config", str(work / "train.json"),
            "--model-out", str(work / "model.json"),
        )
        == 0
    )
    model_doc = json.loads((work / "model.json").read_text(encoding="utf-8"))
    assert model_doc["trees"]

    # score the training customers with the model, then evaluate the file
    matrix = load_matrix(work / "matrix.bin")
    from credit_stack.gbdt import load_model, predict

    preds = predict(load_model(work / "model.json"), matrix)
    write_predictions(matrix.customer_ids, preds, work / "pred.csv")
    assert (
        run(
            "eval", "--labels", str(work / "labels.csv"),
            "--pred", str(work / "pred.csv"),
            "--report", str(work / "metrics.json"),
        )
        == 0
    )
    rep = json.loads((work / "metrics.json").read_text(encoding="utf-8"))
    assert list(rep) == ["G", "D", "M", "auc_w", "n_rows", "n_pos", "total_weight"]
    assert -0.5 <= rep["M"] <= 1.0
    assert rep["n_rows"] == matrix.n_rows


def test_stack_writes_fold_artifacts(work):
    out = work / "stacked"
    assert (
        run(
            "stack", "--features", str(work / "matrix.bin"),
            "--labels", str(work / "labels.csv"),
            "--folds", "3",
            "--base-config", str(work / "train.json"),
            "--meta-config", str(work / "train.json"),
            "--out", str(out),
        )
        == 0
    )
    assert (out / "folds.csv").exists()
    for f in range(3):
        assert (out / f"base_fold_{f}.model.json").exists()
    assert (out / "oof.csv").read_text(encoding="utf-8").startswith(
        "customer_id,fold,probability\n"
    )
    assert (out / "meta.model.json").exists()


def test_blend_two_members(work):
    labels = read_labels(work / "labels.csv")
    ids = sorted(labels)
    y = np.array([labels[c] for c in ids], dtype=np.float64)
    rng = np.random.default_rng(0)
    write_predictions(ids, np.clip(0.7 * y + 0.15 + rng.normal(0, 0.1, y.size), 0, 1),
                      work / "member_a.csv")
    write_predictions(ids, rng.random(y.size), work / "member_b.csv")
    assert (
        run(
            "blend", "--pred", str(work / "member_a.csv"),
            "--pred", str(work / "member_b.csv"),
            "--labels", str(work / "labels.csv"),
            "--step", "0.05",
            "--out", str(work / "weights.json"),
        )
        == 0
    )
    doc = json.loads((work / "weights.json").read_text(encoding="utf-8"))
    assert doc["members"] == ["member_a", "member_b"]
    assert doc["weights"][0] >= 0.5  # the informative member dominates
    assert abs(sum(doc["weights"]) - 1.0) < 1e-9


def test_eval_and_blend_score_a_run_oof_file_like_its_two_column_copy(work, tmp_path):
    out = tmp_path / "run"
    cfg = pipeline_config(work, tmp_path / "run.json", out, THREE_MEMBERS[:1])
    assert run("run", "--config", str(cfg)) == 0
    oof = out / "members" / "wide" / "oof.csv"
    header, rows = read_csv_rows(oof)
    assert header == ["customer_id", "fold", "probability"]
    ids = [cid for cid, _, _ in rows]
    plain, other = tmp_path / "plain", tmp_path / "other.csv"
    (tmp_path / "oof").mkdir()
    write_predictions(ids, [float(p) for _, _, p in rows], plain / "wide.csv")
    write_predictions(ids, np.linspace(0.1, 0.9, len(ids)), other)
    (tmp_path / "oof" / "wide.csv").write_bytes(oof.read_bytes())

    reports, weights = [], []
    for folder in ("oof", "plain"):
        pred = str(tmp_path / folder / "wide.csv")
        report, spec = tmp_path / f"{folder}_report.json", tmp_path / f"{folder}_weights.json"
        assert run("eval", "--labels", str(work / "labels.csv"), "--pred", pred,
                   "--report", str(report)) == 0
        assert run("blend", "--labels", str(work / "labels.csv"), "--pred", pred,
                   "--pred", str(other), "--step", "0.1", "--out", str(spec)) == 0
        reports.append(report.read_bytes())
        weights.append(spec.read_bytes())
    assert reports[0] == reports[1] and weights[0] == weights[1]
    # the fold column, read as scores, would be far off the run's OOF M
    assert json.loads(reports[0])["M"] > 0.3


def test_importance_report_and_plot(work):
    out = work / "stacked"
    assert (
        run(
            "importance",
            "--model", str(out / "base_fold_0.model.json"),
            "--model", str(out / "base_fold_1.model.json"),
            "--model", str(out / "base_fold_2.model.json"),
            "--kind", "total_gain",
            "--out-json", str(work / "importance.json"),
            "--out-svg", str(work / "importance.svg"),
        )
        == 0
    )
    doc = json.loads((work / "importance.json").read_text(encoding="utf-8"))
    assert len(doc["per_fold"]) == 3
    svg = (work / "importance.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ") and "lightsteelblue" in svg


def test_run_produces_manifest_covering_everything(work, tmp_path):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "pipe.json"
    cfg.write_text(
        json.dumps(
            {
                "data": str(work / "data.csv"),
                "labels": str(work / "labels.csv"),
                "schema": str(work / "schema.json"),
                "out_dir": str(out_dir),
                "folds": 2,
                "seed": 9,
                "holdout_fraction": 0.25,
                "blend_step": 0.05,
                "members": [
                    {"name": "wide", "train": {"rounds": 6, "max_leaves": 4}},
                    {
                        "name": "second",
                        "features": {"recent_window": 6},
                        "train": {"rounds": 6, "max_leaves": 4, "seed": 1},
                    },
                ],
            }
        ),
        encoding="utf-8",
    )
    assert run("run", "--config", str(cfg)) == 0

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    on_disk = {
        p.relative_to(out_dir).as_posix()
        for p in out_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert set(manifest["files"]) == on_disk
    for rel, digest in manifest["files"].items():
        body = (out_dir / rel).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest
    assert "ensemble/metrics.json" in manifest["files"]
    assert "ensemble/weights.json" in manifest["files"]


def pipeline_config(work, path, out_dir, members, folds=2):
    path.write_text(
        json.dumps({
            "data": str(work / "data.csv"),
            "labels": str(work / "labels.csv"),
            "schema": str(work / "schema.json"),
            "out_dir": str(out_dir),
            "folds": folds,
            "seed": 9,
            "holdout_fraction": 0.25,
            "blend_step": 0.05,
            "members": members,
        }),
        encoding="utf-8",
    )
    return path


THREE_MEMBERS = [
    {"name": "wide", "features": {"encode": "one-hot"},
     "train": {"rounds": 3, "max_leaves": 4}},
    {"name": "recent",
     "features": {"recent_window": 4, "encode": "ordinal",
                  "columns": ["cont_00", "cont_02", "cat_0"]},
     "train": {"rounds": 3, "max_leaves": 4, "seed": 1}},
    {"name": "stacked",
     "features": {"continuous_stats": ["median", "std"], "categorical_stats": ["nunique"],
                  "lag_enabled": False},
     "train": {"rounds": 3, "max_leaves": 4, "seed": 2}, "meta_from": ["wide", "recent"]},
]


def test_run_manifest_lists_only_files_this_run_wrote(work, tmp_path):
    reused = tmp_path / "reused"
    first = pipeline_config(work, tmp_path / "first.json", reused, THREE_MEMBERS, folds=3)
    assert run("run", "--config", str(first)) == 0
    wide_only = THREE_MEMBERS[:1]
    again = pipeline_config(work, tmp_path / "again.json", reused, wide_only)
    assert run("run", "--config", str(again)) == 0
    fresh = tmp_path / "fresh"
    alone = pipeline_config(work, tmp_path / "alone.json", fresh, wide_only)
    assert run("run", "--config", str(alone)) == 0

    # the earlier run's members and third fold model are still on disk ...
    assert (reused / "members" / "recent" / "oof.csv").exists()
    assert (reused / "members" / "wide" / "fold_2.model.json").exists()
    # ... but the manifest is byte for byte the one a fresh directory gets
    assert (reused / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()
    listed = json.loads((fresh / "manifest.json").read_text(encoding="utf-8"))["files"]
    assert not any(name.startswith("members/recent/") for name in listed)
    assert "members/wide/fold_2.model.json" not in listed


def test_run_with_per_customer_aggregation_writes_the_same_files(work, tmp_path, monkeypatch):
    vectorised = tmp_path / "vectorised"
    cfg = pipeline_config(work, tmp_path / "a.json", vectorised, THREE_MEMBERS)
    assert run("run", "--config", str(cfg)) == 0
    per_customer = tmp_path / "per_customer"
    cfg = pipeline_config(work, tmp_path / "b.json", per_customer, THREE_MEMBERS)
    monkeypatch.setattr(features, "build_matrix", build_matrix_by_customer)
    assert run("run", "--config", str(cfg)) == 0

    for member in ("wide", "recent", "stacked"):
        for name in ("matrix.bin", "matrix_holdout.bin"):
            rel = f"members/{member}/{name}"
            assert (vectorised / rel).read_bytes() == (per_customer / rel).read_bytes(), rel
    assert (vectorised / "manifest.json").read_bytes() == (
        per_customer / "manifest.json"
    ).read_bytes()


def test_synth_and_prep_with_the_per_cell_writer_write_the_same_bytes(work, tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "write_csv", write_csv_by_cell)
    assert run("synth", "--config", str(work / "synth.json"),
               "--out-data", str(tmp_path / "data.csv"),
               "--out-labels", str(tmp_path / "labels.csv")) == 0
    assert run("prep", "--input", str(work / "data.csv"), "--schema", str(work / "schema.json"),
               "--out", str(tmp_path / "clean.csv")) == 0
    # unrounded float64 statements, then rounded float32 ones
    for name in ("data.csv", "clean.csv"):
        assert (tmp_path / name).read_bytes() == (work / name).read_bytes(), name


def test_prep_reads_a_utf8_bom_statement_file_like_the_plain_file(work, tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (work / "data.csv").read_bytes())
    assert run("prep", "--input", str(bom), "--schema", str(work / "schema.json"),
               "--out", str(tmp_path / "clean.csv")) == 0
    assert (tmp_path / "clean.csv").read_bytes() == (work / "clean.csv").read_bytes()


def test_json_documents_with_a_utf8_bom_load_like_the_plain_file(work, tmp_path):
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps(_fuzz_pipeline(work, tmp_path / "run")), encoding="utf-8")
    for plain, loader in ((work / "schema.json", load_schema), (pipe, config_from_json)):
        bom = tmp_path / f"bom_{plain.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert loader(bom) == loader(plain)


def test_exit_codes(work, tmp_path, capsys):
    # 2: configuration problems (missing config file, bad thread count)
    assert run("synth", "--config", str(tmp_path / "nope.json"),
               "--out-data", "x", "--out-labels", "y") == 2
    assert main(["eval", "--quiet", "--threads", "0",
                 "--labels", "a", "--pred", "b", "--report", "c"]) == 2

    # 2: a feature spec that leaves no engineered column; nothing is written
    empty = tmp_path / "empty_spec.json"
    empty.write_text(
        json.dumps({"continuous_stats": [], "categorical_stats": [], "columns": ["cat_0"]}),
        encoding="utf-8",
    )
    assert run("features", "--input", str(work / "clean.csv"), "--spec", str(empty),
               "--out", str(tmp_path / "empty.bin")) == 2
    assert not (tmp_path / "empty.bin").exists()

    # 3: data problems (malformed statement CSV)
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,real,header\n1,2,3,4\n", encoding="utf-8")
    assert run("prep", "--input", str(bad), "--schema", str(work / "schema.json"),
               "--out", str(tmp_path / "out.csv")) == 3

    # 3: a continuous cell too large for float32 storage
    rows = list(csv.reader(io.StringIO((work / "data.csv").read_text(encoding="utf-8"))))
    schema = json.loads((work / "schema.json").read_text(encoding="utf-8"))
    name = next(c["name"] for c in schema if c["kind"] == "continuous")
    rows[1][rows[0].index(name)] = "1e39"
    huge = tmp_path / "huge.csv"
    huge.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    assert run("prep", "--input", str(huge), "--schema", str(work / "schema.json"),
               "--out", str(tmp_path / "huge_clean.csv")) == 3
    assert not (tmp_path / "huge_clean.csv").exists()

    # 3: a categorical code past int64, named with its column; 0: a
    # negative code of any size, which is missing like any negative code
    capsys.readouterr()
    code_col = next(c["name"] for c in schema if c["kind"] == "categorical")
    rows[1][rows[0].index(name)] = "0.5"
    for code, want in (("99999999999999999999", 3), ("-99999999999999999999", 0)):
        rows[1][rows[0].index(code_col)] = code
        wide = tmp_path / "wide_code.csv"
        wide.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
        assert run("prep", "--input", str(wide), "--schema", str(work / "schema.json"),
                   "--out", str(tmp_path / "wide_clean.csv")) == want
        assert (tmp_path / "wide_clean.csv").exists() == (want == 0)
    assert (f"column '{code_col}': code 99999999999999999999 exceeds 16-bit storage"
            in capsys.readouterr().err)

    # 2: a precision that is not finite; 3: one so small that a finite
    # cell has no finite multiple (each would have blanked every cell)
    capsys.readouterr()
    for precision, code, message in (("inf", 2, "precision must be finite and > 0, got inf"),
                                     ("1e-320", 3, f"column '{name}': value ")):
        assert run("prep", "--input", str(work / "data.csv"), "--schema",
                   str(work / "schema.json"), "--precision", precision,
                   "--out", str(tmp_path / "tiny_clean.csv")) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "tiny_clean.csv").exists()

    # 3: single-class labels are a data problem too
    labels = read_labels(work / "labels.csv")
    flat = tmp_path / "flat_labels.csv"
    flat.write_text(
        "customer_id,target\n"
        + "".join(f"{cid},1\n" for cid in sorted(labels)),
        encoding="utf-8",
    )
    assert run("train", "--features", str(work / "matrix.bin"),
               "--labels", str(flat),
               "--config", str(work / "train.json"),
               "--model-out", str(tmp_path / "m.json")) == 3

    # 3: a labels file naming one customer twice, for train and run alike
    first = sorted(labels)[0]
    twice = tmp_path / "twice_labels.csv"
    twice.write_text(
        (work / "labels.csv").read_text(encoding="utf-8")
        + f"{first},{1 - labels[first]}\n",
        encoding="utf-8",
    )
    assert run("train", "--features", str(work / "matrix.bin"),
               "--labels", str(twice),
               "--config", str(work / "train.json"),
               "--model-out", str(tmp_path / "m.json")) == 3
    pipe = tmp_path / "twice_pipe.json"
    pipe.write_text(
        json.dumps({
            "data": str(work / "data.csv"),
            "labels": str(twice),
            "schema": str(work / "schema.json"),
            "out_dir": str(tmp_path / "twice_run"),
            "members": [{"name": "wide", "train": {"rounds": 1, "max_leaves": 2}}],
        }),
        encoding="utf-8",
    )
    assert run("run", "--config", str(pipe)) == 3

    # 2: a train config whose empty leaves would divide by zero
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"l2_lambda": 0.0, "min_child_weight": 0.0}),
                    encoding="utf-8")
    assert run("train", "--features", str(work / "matrix.bin"),
               "--labels", str(work / "labels.csv"),
               "--config", str(zero),
               "--model-out", str(tmp_path / "m.json")) == 2

    # 3: a vocabulary that is not JSON, not an object, or not integer codes
    onehot = tmp_path / "onehot_spec.json"
    onehot.write_text(json.dumps({"encode": "one-hot"}), encoding="utf-8")
    for i, body in enumerate(("{not json", '["x"]', '{"cat_0": ["a"]}')):
        vocab = tmp_path / f"vocab_{i}.json"
        vocab.write_text(body, encoding="utf-8")
        assert run("features", "--input", str(work / "clean.csv"), "--spec", str(onehot),
                   "--vocab", str(vocab), "--out", str(tmp_path / "v.bin")) == 3
        assert not (tmp_path / "v.bin").exists()

    # 2: a blend step off the lattice, found before any stage writes
    step = tmp_path / "step_pipe.json"
    step.write_text(
        json.dumps({
            "data": str(work / "data.csv"),
            "labels": str(work / "labels.csv"),
            "schema": str(work / "schema.json"),
            "out_dir": str(tmp_path / "step_run"),
            "blend_step": 0.03,
            "members": [{"name": "a", "train": {"rounds": 1, "max_leaves": 2}},
                        {"name": "b", "train": {"rounds": 1, "max_leaves": 2}}],
        }),
        encoding="utf-8",
    )
    assert run("run", "--config", str(step)) == 2
    assert not (tmp_path / "step_run" / "clean").exists()

    # 3: a statement CSV that is not UTF-8
    latin = tmp_path / "latin.csv"
    latin.write_bytes((work / "data.csv").read_bytes().replace(b"C", b"\xe9", 1))
    assert run("prep", "--input", str(latin), "--schema", str(work / "schema.json"),
               "--out", str(tmp_path / "latin_out.csv")) == 3

    # 3: a prediction CSV holding nan, scored or blended
    ids = sorted(labels)
    probs = np.linspace(0.1, 0.9, len(ids))
    good, nan = tmp_path / "good.csv", tmp_path / "nan.csv"
    write_predictions(ids, probs, good)
    nan.write_text(
        "customer_id,probability\n"
        + "".join(f"{cid},{'nan' if i == 1 else p}\n"
                  for i, (cid, p) in enumerate(zip(ids, probs))),
        encoding="utf-8",
    )
    assert run("eval", "--labels", str(work / "labels.csv"),
               "--pred", str(nan), "--report", str(tmp_path / "r.json")) == 3
    assert run("blend", "--labels", str(work / "labels.csv"),
               "--pred", str(good), "--pred", str(nan),
               "--out", str(tmp_path / "w.json")) == 3

    # 2 for configs and schemas, 3 for models: JSON that is not UTF-8,
    # with nothing written
    latin_json = tmp_path / "latin.json"
    latin_json.write_bytes(b'{"rounds": "\xff"}')
    assert run("run", "--config", str(latin_json)) == 2
    latin_schema = tmp_path / "latin_schema.json"
    latin_schema.write_bytes(
        (work / "schema.json").read_bytes().replace(b"customer_id", b"customer_\xff", 1)
    )
    assert run("prep", "--input", str(work / "data.csv"), "--schema", str(latin_schema),
               "--out", str(tmp_path / "latin_prep.csv")) == 2
    assert not (tmp_path / "latin_prep.csv").exists()
    assert run("importance", "--model", str(latin_json), "--model", str(latin_json),
               "--out-json", str(tmp_path / "imp.json"),
               "--out-svg", str(tmp_path / "imp.svg")) == 3
    assert not (tmp_path / "imp.json").exists() and not (tmp_path / "imp.svg").exists()

    # 2: config values of the wrong shape, each error naming its key
    ranged = copy.deepcopy(schema)
    next(c for c in ranged if c["kind"] == "continuous")["valid_range"] = 5
    ranged_path = tmp_path / "ranged_schema.json"
    ranged_path.write_text(json.dumps(ranged), encoding="utf-8")
    capsys.readouterr()
    assert run("prep", "--input", str(work / "data.csv"), "--schema", str(ranged_path),
               "--out", str(tmp_path / "ranged.csv")) == 2
    assert "valid_range" in capsys.readouterr().err
    assert not (tmp_path / "ranged.csv").exists()
    five = tmp_path / "five_members.json"
    five.write_text(
        json.dumps({**_fuzz_pipeline(work, tmp_path / "five_run"), "members": 5}),
        encoding="utf-8",
    )
    assert run("run", "--config", str(five)) == 2
    assert "members" in capsys.readouterr().err
    assert not (tmp_path / "five_run").exists()


def test_features_vocab_is_written_then_read(work, tmp_path):
    spec = tmp_path / "onehot.json"
    spec.write_text(json.dumps({"encode": "one-hot"}), encoding="utf-8")
    vocab = tmp_path / "vocab.json"
    for out in ("fit.bin", "reuse.bin"):
        assert run("features", "--input", str(work / "clean.csv"), "--spec", str(spec),
                   "--vocab", str(vocab), "--out", str(tmp_path / out)) == 0
    assert features.load_vocabulary(vocab) == json.loads(vocab.read_text(encoding="utf-8"))
    assert (tmp_path / "fit.bin").read_bytes() == (tmp_path / "reuse.bin").read_bytes()


def test_seed_override_changes_output(work, tmp_path):
    for seed, name in ((5, "a.csv"), (7, "b.csv")):
        assert (
            run(
                "synth", "--config", str(work / "synth.json"),
                "--seed", str(seed),
                "--out-data", str(tmp_path / name),
                "--out-labels", str(tmp_path / f"l_{name}"),
            )
            == 0
        )
    assert (tmp_path / "a.csv").read_bytes() == (work / "data.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() != (work / "data.csv").read_bytes()


def _fuzzed_csv(rng, header, rows):
    """One CSV with seeded damage to its rows and bytes, as bytes."""
    rows = [list(r) for r in rows]
    for _ in range(int(rng.choice(3, p=[0.6, 0.3, 0.1]))):
        i = int(rng.integers(len(rows)))
        damage = int(rng.integers(7))
        if damage == 0:  # blank cell
            rows[i][int(rng.integers(len(rows[i])))] = ""
        elif damage == 1:  # non-finite, unparsable or huge value in a data column
            bad = ["nan", "NaN", "inf", "-inf", "1e400", "0x1", " 1", "1.5",
                   "99999999999999999999"]
            j = int(rng.integers(1, len(rows[i]))) if len(rows[i]) > 1 else 0
            rows[i][j] = str(rng.choice(bad))
        elif damage == 2:  # the same id twice
            rows.insert(int(rng.integers(len(rows) + 1)), list(rows[i]))
        elif damage == 3:  # an id holding a quoted comma
            rows[i][0] = rows[i][0] + ",x"
        elif damage == 4:  # a short or a long row
            rows[i] = rows[i][:1] if rng.random() < 0.5 else rows[i] + ["extra"]
        elif damage == 5:
            if len(rows) > 1:
                del rows[i]
        else:  # a cell past the csv module's field size limit
            rows[i][0] = "C" * 200_000
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n" if rng.random() < 0.3 else "\n").writerows(
        [header] + rows
    )
    data = out.getvalue().encode("utf-8")
    if rng.random() < 0.2:
        data = b"\xef\xbb\xbf" + data  # BOM
    if rng.random() < 0.05:
        data = data.replace(b"C", b"\xe9", 1)  # not UTF-8
    return data


def test_eval_and_blend_fuzz_exit_with_a_documented_code(tmp_path):
    rng = np.random.default_rng(99)
    codes = []
    for case in range(150):
        n = int(rng.integers(2, 9))
        ids = [f"C,{i}" if rng.random() < 0.3 else f"C{i}" for i in range(n)]
        target = rng.integers(0, 2, size=n)
        target[:2] = [0, 1]
        labels = tmp_path / f"labels_{case}.csv"
        label_rows = [[c, str(t)] for c, t in zip(ids, target)]
        labels.write_bytes(_fuzzed_csv(rng, ["customer_id", "target"], label_rows))
        preds = []
        for member in range(2):
            path = tmp_path / f"pred_{case}_{member}.csv"
            rows = [[c, repr(float(p))] for c, p in zip(ids, rng.random(n))]
            path.write_bytes(_fuzzed_csv(rng, ["customer_id", "probability"], rows))
            preds.append(str(path))
        codes.append(run("eval", "--labels", str(labels), "--pred", preds[0],
                         "--report", str(tmp_path / f"report_{case}.json")))
        codes.append(run("blend", "--labels", str(labels), "--pred", preds[0],
                         "--pred", preds[1], "--step", "0.5",
                         "--out", str(tmp_path / f"weights_{case}.json")))
    # anything but a CreditStackError would have escaped main above
    assert set(codes) <= {0, 2, 3}
    assert codes.count(0) > 50 and codes.count(3) > 50


def test_prep_fuzz_over_damaged_statement_files_exits_with_a_documented_code(work, tmp_path):
    header, *rows = csv.reader(io.StringIO((work / "data.csv").read_text(encoding="utf-8")))
    rng = np.random.default_rng(17)
    codes = []
    for case in range(80):
        start = int(rng.integers(len(rows) - 40))
        data = tmp_path / f"data_{case}.csv"
        data.write_bytes(_fuzzed_csv(rng, header, rows[start:start + 40]))
        codes.append(run("prep", "--input", str(data), "--schema", str(work / "schema.json"),
                         "--out", str(tmp_path / f"clean_{case}.csv")))
    # anything but a CreditStackError would have escaped main above
    assert set(codes) <= {0, 2, 3}
    assert codes.count(0) > 20 and codes.count(3) > 10


def test_features_fuzz_over_damaged_cleaned_files_exits_with_a_documented_code(
    work, tmp_path, capsys
):
    header, *rows = csv.reader(io.StringIO((work / "clean.csv").read_text(encoding="utf-8")))
    sidecar = (work / "clean.csv.schema.json").read_bytes()
    rng = np.random.default_rng(31)
    codes = []
    for case in range(80):
        start = int(rng.integers(len(rows) - 40))
        data = tmp_path / f"clean_{case}.csv"
        data.write_bytes(_fuzzed_csv(rng, header, rows[start:start + 40]))
        (tmp_path / f"clean_{case}.csv.schema.json").write_bytes(sidecar)
        codes.append(run("features", "--input", str(data), "--spec", str(work / "spec.json"),
                         "--out", str(tmp_path / f"matrix_{case}.bin")))
    # anything but a CreditStackError would have escaped main above
    assert "Traceback" not in capsys.readouterr().err
    assert set(codes) <= {0, 2, 3}
    assert codes.count(0) > 20 and codes.count(3) > 10


def test_run_fuzz_over_damaged_statement_files_exits_with_a_documented_code(
    work, tmp_path, capsys
):
    header, *rows = csv.reader(io.StringIO((work / "data.csv").read_text(encoding="utf-8")))
    rng = np.random.default_rng(37)
    codes = []
    for case in range(30):
        data = tmp_path / f"data_{case}.csv"
        data.write_bytes(_fuzzed_csv(rng, header, rows))
        doc = dict(_fuzz_pipeline(work, tmp_path / f"run_{case}"), data=str(data))
        config = tmp_path / f"pipe_{case}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        codes.append(run("run", "--config", str(config)))
    # anything but a CreditStackError would have escaped main above
    assert "Traceback" not in capsys.readouterr().err
    assert set(codes) <= {0, 2, 3}
    assert codes.count(0) > 10 and codes.count(3) > 5


def _fuzz_pipeline(work, out_dir):
    """A two-member pipeline config over the module's data, quick to run."""
    return {
        "data": str(work / "data.csv"),
        "labels": str(work / "labels.csv"),
        "schema": str(work / "schema.json"),
        "out_dir": str(out_dir),
        "folds": 2,
        "blend_step": 0.5,
        "members": [
            {"name": "a", "features": {"encode": "ordinal"},
             "train": {"rounds": 1, "max_leaves": 2}},
            {"name": "b", "features": {"continuous_stats": ["mean"], "categorical_stats": []},
             "train": {"rounds": 1, "max_leaves": 2}, "meta_from": ["a"]},
        ],
    }


def _fuzzed_json(rng, doc, stray):
    """One JSON document with seeded damage, as bytes.

    Values anywhere in ``doc`` may be swapped for ones of the wrong type
    (``stray`` is the only string offered, a path that does not exist);
    the text may be cut short, lose UTF-8 validity or gain a BOM.
    """
    doc = copy.deepcopy(doc)
    slots = []  # (container, key) of every value in the document

    def collect(node):
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                slots.append((node, key))
                collect(node[key])

    collect(doc)
    wrong = [None, True, 5, 1.5, [], {}, [5], {"x": 1}, stray, float("nan"), float("inf")]
    for _ in range(int(rng.choice(3, p=[0.3, 0.5, 0.2]))):
        container, key = slots[int(rng.integers(len(slots)))]
        container[key] = copy.deepcopy(wrong[int(rng.integers(len(wrong)))])
    data = json.dumps(doc).encode("utf-8")
    if rng.random() < 0.15:
        data = data[: int(rng.integers(len(data)))]  # truncated
    if rng.random() < 0.15:
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + b"\xff" + data[at:]  # not UTF-8
    if rng.random() < 0.2:
        data = b"\xef\xbb\xbf" + data  # BOM
    return data


def test_schema_and_run_config_fuzz_exit_with_a_documented_code(work, tmp_path):
    rng = np.random.default_rng(23)
    stray = str(tmp_path / "stray")
    schema = json.loads((work / "schema.json").read_text(encoding="utf-8"))
    prep_codes, run_codes = [], []
    for case in range(120):
        path = tmp_path / f"schema_{case}.json"
        path.write_bytes(_fuzzed_json(rng, schema, stray))
        prep_codes.append(run("prep", "--input", str(work / "data.csv"), "--schema", str(path),
                              "--out", str(tmp_path / f"clean_{case}.csv")))
    for case in range(80):
        path = tmp_path / f"pipe_{case}.json"
        doc = _fuzz_pipeline(work, tmp_path / f"run_{case}")
        path.write_bytes(_fuzzed_json(rng, doc, stray))
        run_codes.append(run("run", "--config", str(path)))
    # anything but a CreditStackError would have escaped main above
    assert set(prep_codes + run_codes) <= {0, 2, 3}
    assert prep_codes.count(0) > 20 and prep_codes.count(2) > 50
    assert run_codes.count(0) > 10 and run_codes.count(2) > 40


def test_synth_config_fuzz_exits_with_a_configuration_code(work, tmp_path):
    rng = np.random.default_rng(29)
    stray = str(tmp_path / "stray")
    doc = json.loads((work / "synth.json").read_text(encoding="utf-8"))
    doc.update(frac_full=0.8, signal_features=["cont_00"], noise_amplitude=0.004)
    codes = []
    for case in range(60):
        path = tmp_path / f"synth_{case}.json"
        path.write_bytes(_fuzzed_json(rng, doc, stray))
        codes.append(run("synth", "--config", str(path), "--out-data", str(tmp_path / "d.csv"),
                         "--out-labels", str(tmp_path / "l.csv")))
    # a NaN noise_amplitude would have escaped main above as a traceback
    assert set(codes) <= {0, 2}
    assert codes.count(0) >= 5 and codes.count(2) >= 30


def test_negative_seeds_are_configuration_errors(work, tmp_path, capsys):
    assert run("synth", "--config", str(work / "synth.json"), "--seed", "-1",
               "--out-data", str(tmp_path / "data.csv"),
               "--out-labels", str(tmp_path / "labels.csv")) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()

    cfg = pipeline_config(work, tmp_path / "run.json", tmp_path / "run", THREE_MEMBERS[:1])
    assert run("run", "--config", str(cfg), "--seed", "-1") == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    member = dict(THREE_MEMBERS[0], train={"rounds": 1, "max_leaves": 2, "seed": -1})
    cfg = pipeline_config(work, tmp_path / "member.json", tmp_path / "run", [member])
    assert run("run", "--config", str(cfg)) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

    for command, flags in (
        ("train", ["--config", str(work / "train.json"), "--model-out", str(tmp_path / "m.json")]),
        ("stack", ["--base-config", str(work / "train.json"), "--meta-config",
                   str(work / "train.json"), "--out", str(tmp_path / "stack")]),
    ):
        assert run(command, "--features", str(work / "matrix.bin"), "--labels",
                   str(work / "labels.csv"), "--seed", "-1", *flags) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_files_without_their_named_column_exit_3(work, tmp_path, capsys):
    labels = read_labels(work / "labels.csv")
    good, unnamed = tmp_path / "good.csv", tmp_path / "unnamed.csv"
    write_predictions(sorted(labels), np.linspace(0.1, 0.9, len(labels)), good)
    unnamed.write_text(good.read_text(encoding="utf-8").replace("probability", "p", 1),
                       encoding="utf-8")
    no_target = tmp_path / "no_target.csv"
    no_target.write_text((work / "labels.csv").read_text(encoding="utf-8").replace(
        "target", "label", 1), encoding="utf-8")
    label_flags = ["--labels", str(work / "labels.csv")]
    for argv, column in (
        (["eval", *label_flags, "--pred", str(unnamed), "--report", str(tmp_path / "r.json")],
         "probability"),
        (["blend", *label_flags, "--pred", str(good), "--pred", str(unnamed),
          "--out", str(tmp_path / "w.json")], "probability"),
        (["eval", "--labels", str(no_target), "--pred", str(good),
          "--report", str(tmp_path / "r.json")], "target"),
        (["train", "--features", str(work / "matrix.bin"), "--labels", str(no_target),
          "--config", str(work / "train.json"), "--model-out", str(tmp_path / "m.json")],
         "target"),
    ):
        assert run(*argv) == 3
        assert f"no '{column}' column" in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in ("r.json", "w.json", "m.json"))


REQUIRED_FLAGS = {
    "synth": ["--config", "c", "--out-data", "d", "--out-labels", "l"],
    "prep": ["--input", "i", "--schema", "s", "--out", "o"],
    "features": ["--input", "i", "--spec", "s", "--out", "o"],
    "train": ["--features", "f", "--labels", "l", "--config", "c", "--model-out", "m"],
    "stack": ["--features", "f", "--labels", "l", "--base-config", "b", "--meta-config", "m",
              "--out", "o"],
    "blend": ["--pred", "p", "--labels", "l", "--out", "o"],
    "eval": ["--labels", "l", "--pred", "p", "--report", "r"],
    "importance": ["--model", "m", "--out-json", "j", "--out-svg", "s"],
    "run": ["--config", "c"],
}


def test_seed_is_taken_only_where_numbers_are_drawn(capsys):
    parser = build_parser()
    for command in ("synth", "train", "stack", "run"):
        assert parser.parse_args([command, "--seed", "1", *REQUIRED_FLAGS[command]]).seed == 1
    for command in ("prep", "features", "blend", "eval", "importance"):
        with pytest.raises(SystemExit) as raised:
            main([command, "--seed", "1", *REQUIRED_FLAGS[command]])
        assert raised.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["features", "train"])
def test_run_with_a_member_document_given_as_a_path_exits_2(work, tmp_path, capsys, key):
    # the file exists and holds a valid document; it is still never read
    member = {"name": "wide", key: str(work / "train.json")}
    cfg = pipeline_config(work, tmp_path / "run.json", tmp_path / "run", [member])
    assert run("run", "--config", str(cfg)) == 2
    assert f"member 0 '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _container_spans(blob):
    """(offset, length) of every name and id string, and where the payload starts."""
    n_rows, n_cols = struct.unpack_from("<II", blob, 8)
    spans, offset = [], 16
    for _ in range(n_cols + n_rows):
        (size,) = struct.unpack_from("<I", blob, offset)
        spans.append((offset, size))
        offset += 4 + size
    return spans, offset


def test_train_on_a_matrix_with_a_non_utf8_name_or_id_exits_3(work, tmp_path, capsys):
    blob = (work / "matrix.bin").read_bytes()
    spans, _ = _container_spans(blob)
    n_cols = struct.unpack_from("<I", blob, 12)[0]
    for what, (at, _) in (("column name 0", spans[0]), ("customer id 0", spans[n_cols])):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[: at + 4] + b"\xff" + blob[at + 5 :])
        assert run("train", "--features", str(bad), "--labels", str(work / "labels.csv"),
                   "--config", str(work / "train.json"),
                   "--model-out", str(tmp_path / "m.json")) == 3
        err = capsys.readouterr().err
        assert f"{bad}: {what} is not UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


# float32 cells a damaged payload may hold
ODD_FLOATS = np.array(
    [np.nan, np.inf, -np.inf, 3.4028235e38, -3.4028235e38, 1e-45, -0.0], dtype="<f4"
).tobytes() + np.array([0x7FC00001, 0xFFFFFFFF], dtype="<u4").tobytes()


def _damaged_container(rng, blob):
    """One matrix container with seeded damage, as bytes."""
    spans, payload_at = _container_spans(blob)
    n_rows = struct.unpack_from("<I", blob, 8)[0]
    data = bytearray(blob)
    damage = int(rng.integers(6))
    if damage == 0:  # cut short
        del data[int(rng.integers(len(data))):]
    elif damage == 1:  # magic, version, row count or column count replaced
        value = int(rng.choice([0, 1, 2, n_rows - 1, n_rows + 1, 2**31, 2**32 - 1]))
        struct.pack_into("<I", data, 4 * int(rng.integers(4)), value)
    elif damage == 2:  # a string's length prefix replaced
        at, size = spans[int(rng.integers(len(spans)))]
        struct.pack_into("<I", data, at, int(rng.choice([0, size - 1, size + 1, 2**32 - 1])))
    elif damage == 3:  # a bad byte inside a name or an id
        at, size = spans[int(rng.integers(len(spans)))]
        data[at + 4 + int(rng.integers(size))] = int(rng.choice([0x00, 0x2C, 0x80, 0xC3, 0xFF]))
    elif damage == 4:  # payload cells overwritten with NaN payloads, infinities, extremes
        for _ in range(int(rng.integers(1, 20))):
            cell = payload_at + 4 * int(rng.integers((len(data) - payload_at) // 4))
            odd = 4 * int(rng.integers(len(ODD_FLOATS) // 4))
            data[cell : cell + 4] = ODD_FLOATS[odd : odd + 4]
    else:  # stray bytes at the end
        data += bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))
    return bytes(data)


def test_train_on_a_matrix_with_an_infinite_cell_exits_3(work, tmp_path, capsys):
    blob = (work / "matrix.bin").read_bytes()
    _, payload_at = _container_spans(blob)
    matrix = load_matrix(work / "matrix.bin")
    for cell in (np.inf, -np.inf):
        bad = tmp_path / "inf.bin"
        at = payload_at + 4 * (2 * matrix.n_cols + 1)  # row 2, column 1
        bad.write_bytes(blob[:at] + np.float32(cell).tobytes() + blob[at + 4 :])
        assert run("train", "--features", str(bad), "--labels", str(work / "labels.csv"),
                   "--config", str(work / "train.json"),
                   "--model-out", str(tmp_path / "m.json")) == 3
        err = capsys.readouterr().err
        assert f"feature column {matrix.column_names[1]!r} is infinite" in err
        assert f"customer {matrix.customer_ids[2]!r}" in err
    assert not (tmp_path / "m.json").exists()


def test_features_on_statements_whose_spread_overflows_float32_exits_3(work, tmp_path, capsys):
    header, *rows = csv.reader(io.StringIO((work / "clean.csv").read_text(encoding="utf-8")))
    first = rows[0][0]
    block = [r for r in rows if r[0] == first][:3]
    col = header.index("cont_00")
    # every cell fits float32; the customer's deviation does not
    for r, value in zip(block, ("-3.4e38", "-3.4e38", "3.4e38")):
        r[col] = value
    rows = block + [r for r in rows if r[0] != first]
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")
    (tmp_path / "huge.csv.schema.json").write_bytes(
        (work / "clean.csv.schema.json").read_bytes()
    )
    assert run("features", "--input", str(data), "--spec", str(work / "spec.json"),
               "--out", str(tmp_path / "m.bin")) == 3
    err = capsys.readouterr().err
    assert f"feature column 'cont_00_std' is infinite for customer {first!r}" in err
    assert "Traceback" not in err and not (tmp_path / "m.bin").exists()


def test_features_on_statements_whose_sum_overflows_float64_warns_nothing(
    work, tmp_path, capsys
):
    header, *rows = csv.reader(io.StringIO((work / "clean.csv").read_text(encoding="utf-8")))
    first = rows[0][0]
    col = header.index("cont_00")
    block = [r for r in rows if r[0] == first][:2]
    for r in block:  # each cell is finite in float64; their sum is not
        r[col] = "1e308"
    rows = block + [r for r in rows if r[0] != first]
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")
    (tmp_path / "huge.csv.schema.json").write_bytes(
        (work / "clean.csv.schema.json").read_bytes()
    )
    lag_only = tmp_path / "lag_only.json"
    lag_only.write_text(json.dumps({"continuous_stats": []}), encoding="utf-8")
    for spec, column in ((work / "spec.json", "cont_00_mean"), (lag_only, "cont_00_lag")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("features", "--input", str(data), "--spec", str(spec),
                       "--out", str(tmp_path / "m.bin"))
        err = capsys.readouterr().err
        assert code == 3
        assert f"feature column {column!r} is infinite for customer {first!r}" in err
        assert [str(w.message) for w in caught] == []
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert not (tmp_path / "m.bin").exists()


def test_features_on_statements_whose_sum_overflows_both_ways_exits_3(work, tmp_path, capsys):
    header, *rows = csv.reader(io.StringIO((work / "clean.csv").read_text(encoding="utf-8")))
    ids = [r[0] for r in rows]
    who = next(i for i in ids if ids.count(i) >= 8)
    col = header.index("cont_00")
    block = [r for r in rows if r[0] == who][:8]
    # NumPy's pairwise sum of the eight cells adds 4e308 to -4e308
    for r, value in zip(block, ["1e308"] * 4 + ["-1e308"] * 4):
        r[col] = value
    rows = block + [r for r in rows if r[0] != who]
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")
    (tmp_path / "huge.csv.schema.json").write_bytes(
        (work / "clean.csv.schema.json").read_bytes()
    )
    spec = tmp_path / "mean_std.json"
    spec.write_text(json.dumps({"continuous_stats": ["mean", "std"], "lag_enabled": False}),
                    encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("features", "--input", str(data), "--spec", str(spec),
                   "--out", str(tmp_path / "m.bin"))
    err = capsys.readouterr().err
    assert code == 3
    assert f"feature column 'cont_00_mean' is infinite for customer {who!r}" in err
    assert [str(w.message) for w in caught] == []
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not (tmp_path / "m.bin").exists()


def test_train_fuzz_over_damaged_matrix_containers_exits_0_or_3(work, tmp_path, capsys):
    blob = (work / "matrix.bin").read_bytes()
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"rounds": 2, "max_leaves": 3}), encoding="utf-8")
    _, payload_at = _container_spans(blob)
    rng = np.random.default_rng(23)
    codes, payload_cases = [], []
    for case in range(60):
        bad = tmp_path / f"matrix_{case}.bin"
        data = _damaged_container(rng, blob)
        bad.write_bytes(data)
        codes.append(run("train", "--features", str(bad), "--labels", str(work / "labels.csv"),
                         "--config", str(config),
                         "--model-out", str(tmp_path / f"model_{case}.json")))
        if len(data) == len(blob) and data[:payload_at] == blob[:payload_at]:
            # only cells changed: an infinite one is a DataError, NaN and extremes train
            infinite = np.isinf(np.frombuffer(data[payload_at:], dtype="<f4")).any()
            payload_cases.append((codes[-1], 3 if infinite else 0))
    # anything but a CreditStackError would have escaped main above
    assert "Traceback" not in capsys.readouterr().err
    assert set(codes) <= {0, 3}
    assert codes.count(3) >= 30, codes
    wants = [want for _, want in payload_cases]
    assert wants.count(0) >= 5 and wants.count(3) >= 5, payload_cases
    assert all(code == want for code, want in payload_cases), payload_cases
