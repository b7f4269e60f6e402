"""Tests of the benchmark itself: its oracle, its span arithmetic and its gates.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import types

import numpy as np
import pytest

import checks
import inputs
import run
import tracing


# -- metric oracle -----------------------------------------------------------


@pytest.mark.parametrize("labels, preds, want", [
    # perfect order, but the top row alone (weight 1) exceeds 4% of 21
    ([1, 0], [0.9, 0.1], 0.5),
    # 3 of 4 pairs won: G = 0.5; total weight 42, cutoff 1.68 admits
    # only the top positive: D = 1/2
    ([1, 1, 0, 0], [0.8, 0.4, 0.6, 0.2], 0.5),
    # a tie scores half: G = 0; the tied positive comes first by row
    # order but its weight 1 already exceeds 0.84
    ([1, 0], [0.5, 0.5], 0.0),
    # both positives on top, then one negative (running 22 <= 38.48)
    ([1, 1] + [0] * 48, [0.9, 0.8] + [0.1] * 48, 1.0),
    # the two positives rank last: G = -1, D = 0
    ([1, 1] + [0] * 48, [0.0, 0.0] + [0.5] * 48, -0.5),
])
def test_oracle_hand_cases(labels, preds, want):
    assert checks.oracle_metric(labels, preds) == pytest.approx(want, abs=1e-12)


def test_oracle_agrees_with_the_program_on_random_cases():
    from credit_stack.metric import composite_metric

    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(20, 200))
        y = (rng.random(n) < 0.2).astype(int)
        y[:2] = [0, 1]
        p = np.round(rng.random(n), 2)  # coarse grid, so ties occur
        assert checks.oracle_metric(y, p) == pytest.approx(composite_metric(y, p).M, abs=1e-12)


def test_prediction_file_checks(tmp_path):
    path = tmp_path / "prediction.csv"
    path.write_text("customer_id,probability\nA,0.25\nB,0.75\n")
    assert checks._predictions(path, ["B", "A"]) == ([], [0.75, 0.25])
    assert checks._predictions(path, ["A"])[0]  # one row too many
    path.write_text("customer_id,probability\nA,0.25\nB,1.0\n")
    assert checks._predictions(path, ["A", "B"])[0]  # outside (0, 1)
    path.write_text("customer_id,probability\nA,nan\nB,0.5\n")
    assert checks._predictions(path, ["A", "B"])[0]


# -- span arithmetic -----------------------------------------------------------

# run 0..15; a [0,10] holds b [1,4] (which holds c [2,3]) and d [5,6]; e [11,12]
SPANS = [
    ["gbdt.train", 0.0, 10.0, -1, None],
    ["features.build_matrix", 1.0, 4.0, 0, None],
    ["metric.composite_metric", 2.0, 3.0, 1, None],
    ["gbdt.predict", 5.0, 6.0, 0, None],
    ["report.save_box_plot", 11.0, 12.0, -1, None],
]


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(SPANS) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_layer_self_times_and_pipeline_self_add_up_to_the_run():
    metrics, calls = tracing.layer_metrics(SPANS, 0.0, 15.0, {})
    assert metrics["gbdt.self_s"] == 7.0  # 6 of train + 1 of predict
    assert metrics["features.self_s"] == 2.0
    assert metrics["pipeline.self_s"] == 4.0  # 15 - (10 + 1)
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total + metrics["pipeline.self_s"] == 15.0
    assert calls["gbdt.train"] == 1


def test_nesting_check_flags_a_child_outside_its_parent():
    assert tracing.check_nesting(SPANS, 0.0, 15.0) == []
    bad = [list(s) for s in SPANS]
    bad[3][2] = 11.0  # d now ends after a
    assert tracing.check_nesting(bad, 0.0, 15.0) == ["span 3 (gbdt.predict) lies outside its parent"]


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    mod = types.SimpleNamespace(
        composite_metric=lambda y, p: sum(p),
        optimize_weights=lambda preds, y: [mod.composite_metric(y, p) for p in preds],
    )
    mod.composite_metric = tracer.wrap(mod.composite_metric, "metric.composite_metric")
    mod.optimize_weights = tracer.wrap(mod.optimize_weights, "blend.optimize_weights")
    mod.optimize_weights([[1, 2], [3, 4]], [0, 1])
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("blend.optimize_weights", -1, None),
        ("metric.composite_metric", 0, 2),
        ("metric.composite_metric", 0, 2),
    ]
    metrics, _ = tracing.layer_metrics(tracer.spans, 0, 10, {})
    assert metrics["blend.candidates"] == 2


def test_trace_check_flags_a_wrong_call_count_and_a_zero_layer():
    doc = json.loads((inputs.HERE / "workloads" / "tall" / "pipeline.json").read_text())
    want = tracing.expected_calls(doc)
    assert want["gbdt.train"] == 2 * 3 and want["metric.composite_metric"] == 21 + 3
    metrics, calls = tracing.layer_metrics(SPANS, 0.0, 15.0, {})
    problems = tracing.check_trace(metrics, calls, want, 0)
    assert "gbdt.train: 1 calls, expected 6" in problems
    assert "layer ingest reads zero" in problems


# -- the gates -----------------------------------------------------------------


def _quickstart_inputs(tmp_path):
    synth_doc, _ = inputs.load_workload("quickstart")
    return inputs.generate(synth_doc, synth_doc["seed"], tmp_path)


def _change_one_byte(path):
    data = bytearray(path.read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    path.write_bytes(bytes(data))


def test_one_byte_input_change_trips_the_digest_check(tmp_path):
    digests = _quickstart_inputs(tmp_path)
    assert run.check_inputs("quickstart", digests)["seed"] == 7
    _change_one_byte(tmp_path / "raw.csv")
    with pytest.raises(run.InputDrift, match="raw.csv"):
        run.check_inputs("quickstart", inputs.digests(tmp_path, inputs.INPUT_FILES))


def test_drifted_inputs_report_no_numbers(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    real = inputs.write_inputs

    def write_one_byte_off(table, labels, out_dir):
        real(table, labels, out_dir)
        _change_one_byte(out_dir / "raw.csv")

    monkeypatch.setattr(inputs, "write_inputs", write_one_byte_off)
    assert run.main(["--workload", "quickstart", "--seconds", "0"]) == 3
    captured = capsys.readouterr()
    assert "inputs drifted" in captured.err
    assert captured.out == ""


def test_a_run_that_exits_nonzero_counts_as_failed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    real_init = run.Workload.__init__

    def init_without_data(self, *args):
        real_init(self, *args)
        (self.reference.inputs / "raw.csv").unlink()  # the CLI exits 3: data error

    monkeypatch.setattr(run.Workload, "__init__", init_without_data)
    assert run.main(["--workload", "quickstart", "--seconds", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["attempted"] == 1 + run.MIN_RUNS  # the reference run, then the loop
    assert result["failed"] == 1 + run.MIN_RUNS
    assert "exit code 3" in "\n".join(out)


def test_timings_are_scaled_to_the_reference_host_speed(tmp_path, monkeypatch):
    """On a host where the control takes twice CAL_REF_S, the reported
    run_s is half the mean wall time; setup_s is not scaled."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "calibrate",
                        lambda seconds, times: times.extend([1.5 * run.CAL_REF_S,
                                                             2.5 * run.CAL_REF_S]))
    walls = iter([(5.0, 0.5), (3.0, 0.2), (4.0, 0.4), (8.0, 0.6)])

    def fake_run(self, data, run_id, trace):
        run_s, setup_s = next(walls)
        return {"run_id": run_id, "problems": [], "run_s": run_s, "setup_s": setup_s,
                "peak_rss_mb": 50.0, "ensemble_M": 0.5}

    monkeypatch.setattr(run.Workload, "run_once", fake_run)
    res = run.bench_workload("quickstart", 1, 0, False)
    assert res["summary"]["host_speed"] == pytest.approx(0.5)
    scaled = 5.0 / 2  # loop runs 3, 4 and 8 s
    assert res["metrics"]["run_s"] == pytest.approx(scaled)
    assert res["metrics"]["setup_s"] == 0.4  # the median
    assert res["metrics"]["customers_per_s"] == pytest.approx(res["customers"] / scaled)
    assert res["summary"]["wall_run_s"][1] == 4.0
