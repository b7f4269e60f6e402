"""Convex blending and weight-search tests."""

import json
from math import comb

import numpy as np
import pytest

from credit_stack import blend as blend_mod
from credit_stack.blend import (
    EnsembleSpec,
    blend,
    optimize_weights,
    read_predictions,
    save_ensemble,
    write_predictions,
)
from credit_stack.errors import (
    ConfigError,
    DataError,
    InvalidWeightsError,
    LengthMismatchError,
    MissingColumnError,
    SingleMemberError,
)
from credit_stack.metric import composite_metric
from credit_stack.pipeline import config_from_json
from credit_stack.serialize import read_json_doc
from oracles import exhaustive_blend_best_m, three_pass_composite_metric


# ---------------------------------------------------------------------------
# blending arithmetic


def test_blend_even_weights():
    out = blend([[0.2, 0.4], [0.6, 0.8]], [0.5, 0.5])
    np.testing.assert_allclose(out, [0.4, 0.6], atol=1e-15)


def test_blend_one_hot_returns_member_exactly():
    a = np.array([0.11, 0.72, 0.33])
    b = np.array([0.99, 0.01, 0.55])
    np.testing.assert_array_equal(blend([a, b], [1.0, 0.0]), a)
    np.testing.assert_array_equal(blend([a, b], [0.0, 1.0]), b)


def test_blend_hand_value():
    assert blend([[0.1], [0.4]], [0.4, 0.6])[0] == pytest.approx(0.28, abs=1e-15)


def test_blend_convexity_bounds():
    rng = np.random.default_rng(0)
    members = [rng.random(50) for _ in range(4)]
    w = rng.random(4)
    w /= w.sum()
    out = blend(members, w)
    stacked = np.vstack(members)
    assert np.all(out >= stacked.min(axis=0) - 1e-12)
    assert np.all(out <= stacked.max(axis=0) + 1e-12)


def test_blend_rejects_bad_inputs():
    with pytest.raises(LengthMismatchError):
        blend([[0.1, 0.2], [0.3]], [0.5, 0.5])
    with pytest.raises(InvalidWeightsError):
        blend([[0.1], [0.2]], [0.7, 0.7])
    with pytest.raises(InvalidWeightsError):
        blend([[0.1], [0.2]], [1.5, -0.5])
    with pytest.raises(InvalidWeightsError):
        blend([[0.1], [0.2]], [1.0])
    with pytest.raises(DataError):
        blend([], [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_are_rejected(bad):
    with pytest.raises(InvalidWeightsError, match="finite") as raised:
        EnsembleSpec(("a", "b"), (bad, 1.0))
    assert raised.value.exit_code == 2
    with pytest.raises(InvalidWeightsError, match="finite") as raised:
        blend([[0.1, 0.2], [0.3, 0.4]], [bad, 1.0])
    assert raised.value.exit_code == 2


def test_ensemble_spec_validation():
    EnsembleSpec(("a", "b"), (0.25, 0.75))
    with pytest.raises(InvalidWeightsError):
        EnsembleSpec(("a", "a"), (0.5, 0.5))
    with pytest.raises(InvalidWeightsError):
        EnsembleSpec(("a", "b"), (0.5,))
    with pytest.raises(InvalidWeightsError):
        EnsembleSpec(("a", "b"), (-0.1, 1.1))
    with pytest.raises(InvalidWeightsError):
        EnsembleSpec(("a", "b"), (0.6, 0.6))


# ---------------------------------------------------------------------------
# weight search


def labeled_members(n=60, seed=1):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.int64)
    good = 0.7 * y + 0.15 + rng.normal(scale=0.1, size=n)
    fair = 0.4 * y + 0.3 + rng.normal(scale=0.25, size=n)
    noise = rng.random(n)
    return y, [np.clip(v, 0.0, 1.0) for v in (good, fair, noise)]


def tied_members(n=60, seed=1):
    """labeled_members rounded to 25, 35 and 22 levels: few values, many ties."""
    y, members = labeled_members(n, seed)
    return y, [np.round(v * k) / k for v, k in zip(members, (25, 35, 22))]


def test_search_puts_all_weight_on_a_perfect_member():
    y = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    perfect = 0.9 * y + 0.05
    reversed_ = 1.0 - perfect
    spec, best = optimize_weights([perfect, reversed_], y, step=0.05)
    assert spec.weights == (1.0, 0.0)
    assert best == composite_metric(y, perfect).M


def test_search_identical_members_tie_to_leading():
    y = np.array([1, 0, 1, 0, 1, 1, 0, 0])
    p = np.array([0.9, 0.2, 0.8, 0.1, 0.7, 0.6, 0.3, 0.4])
    spec, _ = optimize_weights([p, p.copy()], y, step=0.1)
    assert spec.weights == (1.0, 0.0)


def test_search_matches_exhaustive_oracle():
    y, members = labeled_members()
    spec, best = optimize_weights(members, y, step=0.05)
    oracle_best = exhaustive_blend_best_m(members, y, step=0.05)
    assert abs(best - oracle_best) <= 1e-12
    # and the returned weights really achieve the returned score
    achieved = composite_metric(y, blend(members, spec.weights)).M
    assert abs(achieved - best) <= 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_search_scores_each_lattice_point_once_and_matches_the_oracle_on_ties(m, monkeypatch):
    y, members = tied_members(n=40, seed=m)
    members = members[:m]
    calls = []

    def counted(labels, preds):
        calls.append(1)
        return composite_metric(labels, preds)

    monkeypatch.setattr(blend_mod, "composite_metric", counted)
    for step in (1.0, 0.5, 0.25, 0.1, 0.05, 0.01):
        calls.clear()
        spec, best = optimize_weights(members, y, step=step)
        ticks = round(1 / step)
        assert len(calls) == comb(ticks + m - 1, m - 1), step
        if ticks <= 20:  # the brute-force oracle is slow on fine lattices
            assert abs(best - exhaustive_blend_best_m(members, y, step=step)) <= 1e-12
        assert composite_metric(y, blend(members, spec.weights)).M == best


def test_search_beats_every_vertex():
    y, members = labeled_members(seed=3)
    _, best = optimize_weights(members, y, step=0.1)
    for j in range(3):
        one_hot = [1.0 if i == j else 0.0 for i in range(3)]
        assert best >= composite_metric(y, blend(members, one_hot)).M - 1e-12


def test_search_four_member_ascent_path():
    y, members = labeled_members(seed=4)
    members = members + [np.clip(members[0] * 0.5 + 0.25, 0, 1)]
    spec, best = optimize_weights(members, y, step=0.1)
    assert len(spec.weights) == 4
    assert abs(sum(spec.weights) - 1.0) <= 1e-12
    for j in range(4):
        one_hot = [1.0 if i == j else 0.0 for i in range(4)]
        assert best >= composite_metric(y, blend(members, one_hot)).M - 1e-12
    again, best2 = optimize_weights(members, y, step=0.1)
    assert again.weights == spec.weights and best2 == best


def test_search_custom_member_names(monkeypatch):
    y = np.array([1, 0, 1, 0])
    two = [[0.9, 0.1, 0.8, 0.2], [0.5, 0.5, 0.5, 0.5]]
    spec, _ = optimize_weights(two, y, step=0.5, member_names=["wide", "recent"])
    assert spec.member_names == ("wide", "recent")

    calls = []

    def counted(labels, preds):
        calls.append(1)
        return composite_metric(labels, preds)

    monkeypatch.setattr(blend_mod, "composite_metric", counted)
    # bad names fail before the first candidate is scored
    for names, error in (
        (["only_one"], ConfigError),
        (["a", "b", "c"], ConfigError),
        (["same", "same"], InvalidWeightsError),
    ):
        with pytest.raises(error):
            optimize_weights(two, y, step=0.5, member_names=names)
        assert calls == [], names
    optimize_weights(two, y, step=0.5, member_names=["wide", "recent"])
    assert len(calls) == 3  # the counter does see a good search


def test_search_rejects_bad_steps_and_member_counts():
    y = np.array([1, 0, 1, 0])
    two = [[0.9, 0.1, 0.8, 0.2], [0.5, 0.4, 0.6, 0.3]]
    with pytest.raises(SingleMemberError):
        optimize_weights([two[0]], y)
    with pytest.raises(ConfigError):
        optimize_weights(two, y, step=0.3)  # not a whole lattice
    with pytest.raises(ConfigError):
        optimize_weights(two, y, step=0.0)
    with pytest.raises(ConfigError):
        optimize_weights(two, y, step=1.5)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_search_with_three_pass_metric_gives_the_same_blend(m, monkeypatch):
    calls = []

    def oracle(labels, preds):
        # the search hands over prepared labels; the oracle gets a plain
        # 0/1 array rebuilt from their positive rows
        calls.append(len(labels))
        plain = np.zeros(len(labels), dtype=np.int64)
        plain[labels.pos] = 1
        return three_pass_composite_metric(plain, preds)

    for make in (labeled_members, tied_members):
        y, members = make(n=90, seed=m)
        members = (members + [np.round(members[0] * 0.5 + 0.25, 2)])[:m]
        spec, best = optimize_weights(members, y, step=0.05)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(blend_mod, "composite_metric", oracle)
            oracle_spec, oracle_best = optimize_weights(members, y, step=0.05)
        assert oracle_spec == spec, make.__name__
        assert oracle_best.hex() == best.hex(), make.__name__
        assert set(calls) == {y.size}  # every call's len() is the row count
        if m <= 3:  # one metric call per lattice point, no batching
            assert len(calls) == comb(20 + m - 1, m - 1)


@pytest.mark.parametrize("step", [0.03, 0, 2.0, -0.5, float("nan"), "0.05", True])
def test_pipeline_config_rejects_a_bad_blend_step(step):
    doc = {"data": "d.csv", "labels": "l.csv", "schema": "s.json", "out_dir": "out",
           "blend_step": step, "members": [{"name": "only"}]}
    with pytest.raises(ConfigError, match="blend_step"):
        config_from_json(doc)
    doc["blend_step"] = 0.25
    assert config_from_json(doc).blend_step == 0.25


@pytest.mark.parametrize("key", ["features", "train"])
def test_pipeline_member_documents_are_objects_not_paths(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(json.dumps({"rounds": 3}), encoding="utf-8")
    doc = {"data": "d.csv", "labels": "l.csv", "schema": "s.json", "out_dir": "out",
           "members": [{"name": "only", key: "doc.json"}]}
    with pytest.raises(ConfigError, match=f"member 0 '{key}' .* must be a JSON object"):
        config_from_json(doc)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"data": None}, "pipeline config is missing 'data'"),
        ({"out_dir": None}, "pipeline config is missing 'out_dir'"),
        ({"members": None}, "pipeline config is missing 'members'"),
        ({"members": ["only"]}, "member 0 must be a JSON object"),  # never read as a path
        ({"members": [{"train": {}}]}, "member 0 is missing 'name'"),
        ({"members": [{"name": 7}]}, "member 0 key 'name' must be a string"),
        ({"seed": True}, "pipeline config key 'seed' must be an integer, got True"),
        ({"precision": float("inf")}, "'precision' must be a finite number, got inf"),
        ({"members": [{"name": "only", "train": {"l2_lambda": float("nan")}}]},
         "train config key 'l2_lambda' must be a finite number, got nan"),
    ],
)
def test_pipeline_config_names_a_missing_or_mistyped_key(change, message):
    doc = {"data": "d.csv", "labels": "l.csv", "schema": "s.json", "out_dir": "out",
           "members": [{"name": "only"}]}
    doc.update(change)
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(ConfigError, match=message):
        config_from_json(doc)


# ---------------------------------------------------------------------------
# persistence


def test_ensemble_round_trip(tmp_path):
    spec = EnsembleSpec(("wide", "recent", "stacked"), (0.25, 0.5, 0.25))
    path = tmp_path / "blend.json"
    save_ensemble(spec, path)
    doc = read_json_doc(path, "ensemble spec", DataError)
    assert doc == {"members": list(spec.member_names), "weights": list(spec.weights)}
    assert EnsembleSpec(tuple(doc["members"]), tuple(doc["weights"])) == spec


def test_predictions_round_trip(tmp_path):
    ids = ["C001", "C002", "C003"]
    probs = np.array([0.123456789012345, 1.0 / 3.0, 0.9999999999999999])
    path = tmp_path / "preds.csv"
    write_predictions(ids, probs, path)
    back_ids, back = read_predictions(path)
    assert back_ids == ids
    np.testing.assert_array_equal(back, probs)  # full-precision round trip

    with pytest.raises(LengthMismatchError):
        write_predictions(ids, probs[:2], tmp_path / "x.csv")


def test_read_predictions_reads_the_probability_column_by_name(tmp_path):
    # an OOF file: the fold column sits where a two-column file has its scores
    oof = tmp_path / "oof.csv"
    oof.write_text("customer_id,fold,probability\nC1,2,0.25\nC2,0,0.75\n", encoding="utf-8")
    ids, probs = read_predictions(oof)
    assert ids == ["C1", "C2"] and probs.tolist() == [0.25, 0.75]
    unnamed = tmp_path / "unnamed.csv"
    unnamed.write_text("customer_id,score\nC1,0.25\n", encoding="utf-8")
    with pytest.raises(MissingColumnError, match="no 'probability' column"):
        read_predictions(unnamed)


def test_predictions_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("customer_id,probability\nC1,hello\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_predictions(bad)

    short = tmp_path / "short.csv"
    short.write_text("customer_id,probability\nC1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_predictions(short)

    for cell in ("nan", "inf", "-inf"):
        odd = tmp_path / f"{cell}.csv"
        odd.write_text(f"customer_id,probability\nC1,0.5\nC2,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"row 3: .* is not finite"):
            read_predictions(odd)

    twice = tmp_path / "twice.csv"
    twice.write_text("customer_id,probability\nC1,0.5\nC2,0.1\nC1,0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"rows 2 and 4 both score customer 'C1'"):
        read_predictions(twice)

    empty = tmp_path / "empty.csv"
    empty.write_text("customer_id,probability\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_predictions(empty)

    with pytest.raises(DataError):
        read_predictions(tmp_path / "missing.csv")
