"""Importance report aggregation and SVG box-plot tests."""

import math

import numpy as np
import pytest

from credit_stack.errors import ConfigError, DataError
from credit_stack.gbdt import BoostedModel
from credit_stack.report import (
    build_importance_report,
    render_box_plot,
    save_box_plot,
    save_report,
)
from credit_stack.serialize import read_json_doc


def fold_model(records):
    return BoostedModel(base_score=0.0, learning_rate=0.1, trees=[], split_records=records)


def three_folds():
    # fold 0 splits twice on alpha, so average (4) and total (8) differ
    return [
        fold_model([("alpha", 6.0), ("alpha", 2.0), ("beta", 2.0)]),
        fold_model([("alpha", 4.0), ("beta", 2.0), ("gamma", 1.0)]),
        fold_model([("alpha", 5.0), ("beta", 2.0)]),
    ]


# ---------------------------------------------------------------------------
# aggregation


def test_report_box_statistics():
    report = build_importance_report(three_folds(), kind="total_gain")
    alpha = report.box["alpha"]  # per-fold totals 8, 4, 5
    assert alpha.median == 5.0 and alpha.min == 4.0 and alpha.max == 8.0
    beta = report.box["beta"]
    assert beta.median == beta.min == beta.max == 2.0  # zero spread
    gamma = report.box["gamma"]  # 0, 1, 0: absent folds count as zero
    assert gamma.min == gamma.median == 0.0
    assert gamma.max == 1.0


def test_report_quartiles_have_np_percentile_bits():
    rng = np.random.default_rng(27)
    for _ in range(200):
        k = int(rng.integers(2, 11))
        gains = rng.exponential(size=k) * 10.0 ** rng.integers(-3, 4)
        gains[rng.random(k) < 0.3] = gains[0]  # ties
        folds = [fold_model([("alpha", float(g))]) for g in gains]
        box = build_importance_report(folds, kind="total_gain").box["alpha"]
        want = np.percentile(gains, [25.0, 50.0, 75.0])
        assert np.array([box.q1, box.median, box.q3]).tobytes() == want.tobytes()


def test_report_cumulative_curve():
    report = build_importance_report(three_folds(), kind="total_gain")
    names = [c for c, _ in report.cumulative]
    fractions = [f for _, f in report.cumulative]
    assert names == ["alpha", "beta", "gamma"]  # descending fold-summed gain
    assert fractions == sorted(fractions)
    assert abs(fractions[-1] - 1.0) < 1e-9
    # alpha carries 17 of the 24 total gain units
    assert fractions[0] == pytest.approx(17.0 / 24.0, abs=1e-12)


def test_report_cumulative_always_uses_total_gain():
    by_avg = build_importance_report(three_folds(), kind="average_gain")
    by_tot = build_importance_report(three_folds(), kind="total_gain")
    assert by_avg.cumulative == by_tot.cumulative
    assert by_avg.box["alpha"].median != by_tot.box["alpha"].median


def test_report_fold_order_invariance():
    models = three_folds()
    forward = build_importance_report(models, kind="total_gain")
    backward = build_importance_report(list(reversed(models)), kind="total_gain")
    assert forward.box == backward.box
    assert forward.cumulative == backward.cumulative


def test_report_rejects_stray_columns():
    with pytest.raises(DataError, match=r"models split on columns outside the shared set: \['gamma'\]"):
        build_importance_report(three_folds(), column_names=["alpha", "beta"])
    # the shared set may be wider than what was split on
    report = build_importance_report(
        three_folds(), column_names=["alpha", "beta", "gamma", "delta"]
    )
    assert "delta" not in report.box


def test_report_of_splitless_models_is_empty_and_single_model_is_rejected():
    # fold models of a `rounds: 0` member never split
    report = build_importance_report([fold_model([]), fold_model([])])
    assert (report.per_fold, report.box, report.cumulative) == ([{}, {}], {}, [])
    with pytest.raises(ConfigError):
        build_importance_report([fold_model([("a", 1.0)])])


def test_report_separates_signal_from_noise():
    models = [
        fold_model([("signal", 50.0 + f), ("noise", 0.5)]) for f in range(5)
    ]
    report = build_importance_report(models, kind="total_gain")
    assert report.cumulative[0][0] == "signal"
    assert report.cumulative[0][1] > 0.95


def test_report_round_trip(tmp_path):
    report = build_importance_report(three_folds(), kind="average_gain")
    path = tmp_path / "importance.json"
    save_report(report, path)
    back = read_json_doc(path, "importance report", DataError)
    assert back["kind"] == report.kind
    assert back["per_fold"] == report.per_fold
    assert back["box"] == {
        col: {"median": s.median, "q1": s.q1, "q3": s.q3, "min": s.min, "max": s.max}
        for col, s in report.box.items()
    }
    assert [list(box) for box in back["box"].values()] == [
        ["median", "q1", "q3", "min", "max"]
    ] * len(report.box)
    assert [tuple(pair) for pair in back["cumulative"]] == report.cumulative


# ---------------------------------------------------------------------------
# rendering


def test_render_top_n_limits_rows():
    report = build_importance_report(three_folds(), kind="total_gain")
    svg = render_box_plot(report, top_n=1)
    assert svg.count('fill="lightsteelblue"') == 1
    assert "alpha" in svg and "gamma" not in svg
    full = render_box_plot(report, top_n=20)
    assert full.count('fill="lightsteelblue"') == 3


def test_render_zero_spread_box_has_zero_width():
    report = build_importance_report(
        [fold_model([("only", 3.0)]), fold_model([("only", 3.0)])],
        kind="total_gain",
    )
    svg = render_box_plot(report)
    assert 'width="0.00" height="14"' in svg


def test_render_is_byte_stable():
    report = build_importance_report(three_folds(), kind="average_gain")
    assert render_box_plot(report) == render_box_plot(report)


def test_render_is_valid_xml_and_escapes_names():
    import xml.etree.ElementTree as ET

    models = [fold_model([("a<b>&c", 2.0)]), fold_model([("a<b>&c", 3.0)])]
    report = build_importance_report(models, kind="total_gain")
    svg = render_box_plot(report)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    texts = [el.text for el in root.iter() if el.text]
    assert any("a<b>&c" in t for t in texts)


def test_render_rejects_bad_inputs(tmp_path):
    import xml.etree.ElementTree as ET

    report = build_importance_report(three_folds())
    with pytest.raises(ConfigError):
        render_box_plot(report, top_n=0)
    # an empty report draws the axis with no rows, and top_n still applies
    report.box.clear()
    with pytest.raises(ConfigError):
        render_box_plot(report, top_n=0)
    root = ET.fromstring(render_box_plot(report))
    assert not [el for el in root.iter() if el.tag.endswith("rect") and el.get("fill") != "white"]
    assert [el.text for el in root.iter() if el.tag.endswith("text")][1:] == ["0", "0.5", "1"]


def test_save_box_plot_writes_the_svg(tmp_path):
    report = build_importance_report(three_folds())
    path = tmp_path / "plot.svg"
    save_box_plot(report, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert not math.isnan(len(text))
