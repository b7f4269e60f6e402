"""The benchmark's correctness gate, run in-process on every workload.

``perfbench/run.py`` fails a run whose generated inputs or outputs drift
from the digests pinned in ``perfbench/expected.json``, or whose traced
call counts differ from what its config implies.  This test holds a
change to the same pins and counts without a benchmark run: it loads
``perfbench/inputs.py`` and ``perfbench/tracing.py`` by path and wraps
the pipeline's bindings through ``monkeypatch``, so no file of the
benchmark is edited and every wrapper is undone after the test.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from credit_stack import blend, cv_stack, features, gbdt, ingest, pipeline, report

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load("inputs")
tracing = _load("tracing")
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_workload_matches_its_pinned_digests_and_call_counts(workload, tmp_path, monkeypatch):
    pinned = EXPECTED[workload]
    synth_doc, pipeline_doc = inputs.load_workload(workload)
    data = tmp_path / "inputs"
    assert inputs.generate(synth_doc, pinned["seed"], data) == pinned["inputs"]

    doc = dict(pipeline_doc, data=str(data / "raw.csv"), labels=str(data / "labels.csv"),
               schema=str(data / "schema.json"), out_dir=str(tmp_path / "run"))
    config = pipeline.config_from_json(doc)
    tracer = tracing.Tracer()
    modules = {"blend": blend, "cv_stack": cv_stack, "features": features, "gbdt": gbdt,
               "ingest": ingest, "pipeline": pipeline, "report": report}
    for module, attr, name in tracing.WRAPPED:
        owner = modules[module]
        monkeypatch.setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))
    start = tracer.clock()
    out = pipeline.run_pipeline(config)
    end = tracer.clock()
    monkeypatch.undo()

    assert tracing.check_nesting(tracer.spans, start, end) == []
    metrics, calls = tracing.layer_metrics(tracer.spans, start, end, {})
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    problems = tracing.check_trace(metrics, calls, tracing.expected_calls(pipeline_doc),
                                   len(manifest))
    assert problems == []
    fold_models = {str(p.relative_to(out)) for p in out.glob("members/*/fold_*.model.json")}
    assert fold_models <= set(pinned["outputs"])
    assert inputs.digests(out, pinned["outputs"]) == pinned["outputs"]


def test_every_workload_is_pinned():
    assert set(EXPECTED) == set(inputs.WORKLOADS)
