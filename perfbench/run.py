"""Benchmark of ``credit-stack run``, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 60 --trace 0

Each workload is a closed loop with one client: one ``credit-stack run``
at a time, each in a fresh interpreter (perfbench/child.py), invoked as
``run --config <workload config> --threads <nproc> --quiet``.

Inputs come from ``synth.generate`` with the workload's pinned config
(workloads/<name>/).  Every invocation first makes a reference run on the
workload's default seed (the seed in its synth config): its inputs and
its predictions and models must match the digests in expected.json, and
it gives ``ensemble_M``.  If the inputs drift, no numbers are reported.
``--record`` rewrites expected.json from the current code.

Then the loop runs on the ``--seed`` data, starting another run while a
typical run still ends within ``--seconds`` (at least MIN_RUNS runs).
Every run's outputs are checked (checks.py); a run that fails any check
counts in ``failed`` and its timings are dropped.  The metrics come from
the passing loop runs.

On a shared host with few cores (a 2-vCPU VM, measured) the speed drifts
by up to 1.7x over seconds to minutes, far more than a 25% bound allows,
so ``run_s`` is given at a reference host speed.  After every loop run
(and once before the first) the benchmark times a control, a fresh
interpreter that imports NumPy and exits, over and over for CAL_SHARE of
that run's wall time.  The host speed is CAL_REF_S over the mean control
time, and ``run_s`` is the mean wall time of the passing runs times the
host speed.  Both means cover the same interleaved stretch of the host's
drift, so much of it cancels, while a change to the program moves
``run_s`` exactly as it moves wall time.  The control is a process start
because that is what tracked the runs: a fixed chunk of Python and NumPy
work inside the benchmark's own process, timed the same way, followed
the runs' wall time far less closely.  ``customers_per_s`` is customers
over ``run_s``.  ``setup_s`` and ``peak_rss_mb`` are medians.  The raw
wall times are printed and kept in the results file.

With ``--trace 1`` the reference run has every layer wrapped
(tracing.py); it must also pass exact call counts, and it gives the
per-layer metrics.  ``trace.overhead_s`` is its run time minus the
untraced wall-time median.  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-run detail and the
environment go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing
from checks import check_outputs, pinned_outputs, read_labels
from inputs import WORKLOADS, generate, load_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"
MIN_RUNS = 3
RUN_TIMEOUT_S = 150
CAL_SHARE = 0.5
CAL_MIN_S = 0.3
CAL_REF_S = 0.2  # control time at the reference host speed that run_s is given at
CONTROL = [sys.executable, "-c", "import numpy"]

END_TO_END = {
    "run_s": "s",
    "customers_per_s": "customers/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ensemble_M": "score",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "cells/s" if "columns" in name else "1/s"
    if name.startswith(("gbdt.ms_", "metric.us_")):
        return name.split(".")[1][:2]
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_digested"):
        return "bytes"
    if name.endswith("rows_per_call"):
        return "rows"
    return "count"


# ---------------------------------------------------------------------------
# environment


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def _steal_s():
    """Host steal time so far, summed over CPUs, or None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(threads: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": _nproc(),
        "threads": threads,
    }


# ---------------------------------------------------------------------------
# host speed


def calibrate(seconds: float, times: list) -> None:
    """Run the control for ``seconds``, one at a time, appending each one's wall time."""
    stop = time.monotonic() + seconds
    while True:
        began = time.perf_counter()
        subprocess.run(CONTROL, check=True, timeout=RUN_TIMEOUT_S)
        times.append(time.perf_counter() - began)
        if time.monotonic() >= stop:
            return


# ---------------------------------------------------------------------------
# one run


class Dataset:
    """One seed's generated inputs, the run config that reads them, and what runs must match."""

    def __init__(self, wdir: Path, synth_doc: dict, pipeline_doc: dict, seed: int):
        self.seed = seed
        self.inputs = wdir / f"seed-{seed}"
        self.digests = generate(synth_doc, seed, self.inputs)
        self.doc = dict(
            pipeline_doc,
            data=str(self.inputs / "raw.csv"),
            labels=str(self.inputs / "labels.csv"),
            schema=str(self.inputs / "schema.json"),
            out_dir=str(wdir / "run"),
        )
        self.config = wdir / f"pipeline-seed-{seed}.json"
        self.config.write_text(json.dumps(self.doc, indent=1), encoding="utf-8")
        self.labels = read_labels(self.inputs / "labels.csv")
        self.expected_outputs = None
        self.first_manifest = None


class Workload:
    """A workload's reference dataset (its default seed) and measured dataset (``--seed``)."""

    def __init__(self, name: str, seed, threads: int):
        self.name = name
        self.threads = threads
        synth_doc, pipeline_doc = load_workload(name)
        self.dir = WORK / name
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        default = synth_doc["seed"]
        self.reference = Dataset(self.dir, synth_doc, pipeline_doc, default)
        self.measured = (
            self.reference if seed in (None, default)
            else Dataset(self.dir, synth_doc, pipeline_doc, seed)
        )

    def run_once(self, data: Dataset, run_id: int, trace: bool) -> dict:
        """Spawn one run on ``data``, wait for it and check it; returns its record."""
        out = Path(data.doc["out_dir"])
        if out.exists():
            shutil.rmtree(out)
        result_path = self.dir / "child.json"
        result_path.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(HERE / "child.py"), str(result_path), "1" if trace else "0",
            self.name, str(run_id), "--",
            "run", "--config", str(data.config), "--threads", str(self.threads), "--quiet",
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        steal0 = _steal_s()
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"run_id": run_id, "problems": [f"no exit within {RUN_TIMEOUT_S} s"]}
        steal1 = _steal_s()
        record = {"run_id": run_id, "seed": data.seed, "traced": trace, "problems": []}
        if steal0 is not None and steal1 is not None:
            record["steal_s"] = steal1 - steal0
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            record["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
            return record
        child = json.loads(result_path.read_text(encoding="utf-8"))
        stages = child["stages"]
        if not stages or stages[0][0] != "prep" or stages[-1][0] != "manifest":
            record["problems"].append(f"unexpected stage log {[s for s, _ in stages]}")
            return record
        start, end = stages[0][1], child["end"]
        record.update(
            setup_s=start - spawn,
            run_s=end - start,
            peak_rss_mb=child["maxrss_kb"] / 1024.0,
            cpu_s=child["cpu_s"],
            stages={name: (t, nxt) for (name, t), nxt in
                    zip(stages, [t for _, t in stages[1:]] + [end])},
            start=start, end=end, spans=child.get("spans"),
        )
        try:
            problems, m, manifest = check_outputs(
                out, data.labels, data.first_manifest, data.expected_outputs
            )
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed artifacts
            record["problems"].append(f"unreadable outputs: {exc!r}")
            return record
        record["problems"] += problems
        record["ensemble_M"] = m
        record["manifest_files"] = len(json.loads(manifest)["files"])
        if data.first_manifest is None and not problems:
            data.first_manifest = manifest
        return record


def trace_metrics(doc: dict, record: dict, untraced_median: float) -> dict:
    """Per-layer metrics of a traced run; adds any failed check to its problems."""
    spans = [[s["name"], s["start"], s["end"], s["parent"], s["count"]]
             for s in record["spans"]]
    problems = tracing.check_nesting(spans, record["start"], record["end"])
    metrics, calls = tracing.layer_metrics(spans, record["start"], record["end"],
                                           record["stages"])
    problems += tracing.check_trace(metrics, calls, tracing.expected_calls(doc),
                                    record["manifest_files"])
    summed = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    if abs(summed + metrics["pipeline.self_s"] - record["run_s"]) > 1e-6:
        problems.append("layer self times do not add up to the traced run_s")
    record["problems"] += problems
    metrics["run.cpu_s"] = record["cpu_s"]
    metrics["trace.overhead_s"] = record["run_s"] - untraced_median
    return metrics


# ---------------------------------------------------------------------------
# a workload's loop


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


class InputDrift(Exception):
    """The generated inputs no longer match the recorded digests."""


def check_inputs(name: str, digests: dict) -> dict:
    """The workload's expected.json entry, if the default-seed inputs match it."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(name, {})
    if expected.get("inputs") != digests:
        drifted = sorted(k for k in digests if digests[k] != expected.get("inputs", {}).get(k))
        raise InputDrift(f"{name}: default-seed {drifted} differ from expected.json")
    return expected


def bench_workload(name: str, seed, seconds: float, trace: bool) -> dict:
    threads = _nproc()
    t_setup = time.monotonic()
    workload = Workload(name, seed, threads)
    ref = workload.reference
    ref.expected_outputs = check_inputs(name, ref.digests).get("outputs")
    setup_wall = time.monotonic() - t_setup

    # The reference run comes first: on the default seed, with its outputs
    # held to the pinned digests.  It gives ensemble_M, which then does not
    # vary with --seed, and, traced, the per-layer metrics.  The loop then
    # starts another run on the --seed data only if a typical run still ends
    # in time, so an invocation lasts about ``seconds`` whatever the run length.
    # The control runs between the loop runs, to give the host speed.
    deadline = time.monotonic() + seconds
    began = time.monotonic()
    reference = workload.run_once(ref, 0, trace)
    walls = [time.monotonic() - began]
    runs = []
    cal_times = []
    calibrate(CAL_MIN_S, cal_times)
    while len(runs) < MIN_RUNS or time.monotonic() + statistics.median(walls) <= deadline:
        began = time.monotonic()
        runs.append(workload.run_once(workload.measured, len(walls), False))
        calibrate(max(CAL_MIN_S, CAL_SHARE * (time.monotonic() - began)), cal_times)
        walls.append(time.monotonic() - began)

    good = [r for r in runs if not r["problems"]]
    customers = len(workload.measured.labels)
    speed = CAL_REF_S / statistics.fmean(cal_times)
    summary = {"host_speed": speed, "controls": len(cal_times)}
    metrics = {}
    if good:
        summary.update(
            wall_run_s=_quartiles([r["run_s"] for r in good]),
            wall_setup_s=_quartiles([r["setup_s"] for r in good]),
            peak_rss_mb=_quartiles([r["peak_rss_mb"] for r in good]),
        )
        if not trace and not reference["problems"]:
            run_s = statistics.fmean(r["run_s"] for r in good) * speed
            metrics = {
                "run_s": run_s,
                "customers_per_s": customers / run_s,
                "setup_s": summary["wall_setup_s"][1],
                "peak_rss_mb": summary["peak_rss_mb"][1],
                "ensemble_M": reference["ensemble_M"],
            }
    if trace and not reference["problems"]:
        metrics = trace_metrics(ref.doc, reference, summary.get("wall_run_s", [0, 0, 0])[1])
    runs.insert(0, reference)
    for r in runs:
        r.pop("spans", None)
    return {
        "workload": name,
        "seed": workload.measured.seed,
        "reference_seed": ref.seed,
        "customers": customers,
        "input_setup_s": setup_wall,
        "environment": environment(threads),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["problems"]),
        "timed_runs": len(good),
        "summary": summary,
        "metrics": metrics,
        "runs": runs,
    }


# ---------------------------------------------------------------------------
# command line


def record_expected() -> None:
    """Rewrite expected.json from one default-seed run of every workload."""
    doc = {}
    for name in _workload_names("all"):
        workload = Workload(name, None, _nproc())
        ref = workload.reference
        record = workload.run_once(ref, 0, False)
        if record["problems"]:
            raise SystemExit(f"{name}: cannot record, run failed: {record['problems']}")
        doc[name] = {
            "seed": ref.seed,
            "inputs": ref.digests,
            "outputs": pinned_outputs(Path(ref.doc["out_dir"])),
        }
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _workload_names(choice: str) -> list:
    return list(WORKLOADS) if choice == "all" else [choice]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current code and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "credit_stack" / "__init__.py").is_file():
        print(f"error: no credit_stack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record:
        record_expected()
        return 0

    results = []
    try:
        for name in _workload_names(args.workload):
            results.append(bench_workload(name, args.seed, args.seconds, bool(args.trace)))
    except InputDrift as exc:
        print(f"error: inputs drifted, no numbers reported: {exc}", file=sys.stderr)
        return 3

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    metrics = {}
    for res in results:
        tag = f"{res['workload']}-seed{res['seed']}-trace{args.trace}"
        (WORK / "results" / f"{tag}.json").write_text(json.dumps(res, indent=1))
        env = res["environment"]
        print(f"# {res['workload']}: seed {res['seed']}, {res['customers']} customers, "
              f"runs_failed {res['failed']} of runs_attempted {res['attempted']}; git {env['git_sha'][:12]}, "
              f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
              f"--threads {env['threads']}")
        for r in res["runs"]:
            line = ", ".join(f"{k} {r[k]:.3f}" for k in ("run_s", "setup_s", "cpu_s", "steal_s")
                             if k in r)
            print(f"#   run {r['run_id']}{' traced' if r.get('traced') else ''}: {line}"
                  + (f"; FAILED: {r['problems']}" if r["problems"] else ""))
        summary = res["summary"]
        if "wall_run_s" in summary:
            print(f"#   host speed {summary['host_speed']:.4f} (from "
                  f"{summary['controls']} controls); wall time of "
                  f"{res['timed_runs']} runs, q1/median/q3: run "
                  + "/".join(f"{v:.4f}" for v in summary["wall_run_s"]) + " s, setup "
                  + "/".join(f"{v:.4f}" for v in summary["wall_setup_s"]) + " s")
        for key, value in res["metrics"].items():
            unit = END_TO_END.get(key) or layer_unit(key)
            extra = ""
            if key == "ensemble_M":
                extra = f"  (reference run, seed {res['reference_seed']})"
            elif key in ("run_s", "customers_per_s") and not args.trace:
                extra = f"  (mean of {res['timed_runs']} runs, at reference host speed)"
            elif key in ("setup_s", "peak_rss_mb"):
                extra = f"  (median of {res['timed_runs']} runs)"
            print(f"{res['workload']:>10} {key:<34} {value:14.6g} {unit}{extra}")
            full = key if len(results) == 1 else f"{res['workload']}.{key}"
            metrics[full] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and all(r["metrics"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
