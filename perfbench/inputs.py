"""Workload inputs: pinned configs and seeded statement CSVs.

Each workload directory under ``workloads/`` holds the benchmark's own
copy of a synth config and a pipeline config, so later edits to the
repo's ``configs/`` cannot change what is measured.  The CSVs come from
``synth.generate`` and are written here with the standard library, not
with the program's own ``ingest.write_csv``, so a change to the writer
under test cannot change the inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import date
from pathlib import Path

HERE = Path(__file__).resolve().parent
# BENCHMARK.json gates quickstart and bulk only.  tall (gbdt on ~1k-row
# folds) stays for runs by hand: on a 2-vCPU host the host-speed control
# tracked it less well, and its run_s spread 10-14% across seeds, too
# close to the 25% bound to gate.
WORKLOADS = ("quickstart", "bulk", "tall")
INPUT_FILES = ("raw.csv", "labels.csv", "schema.json")


def load_workload(name: str) -> tuple[dict, dict]:
    """The pinned (synth config, pipeline config) documents of a workload."""
    wdir = HERE / "workloads" / name
    synth = json.loads((wdir / "synth.json").read_text(encoding="utf-8"))
    pipeline = json.loads((wdir / "pipeline.json").read_text(encoding="utf-8"))
    return synth, pipeline


def _cell(kind: str, value) -> str:
    if kind == "date":
        return date.fromordinal(int(value)).isoformat()
    if kind == "categorical":
        return "" if value < 0 else str(int(value))
    value = float(value)
    return "" if math.isnan(value) else repr(value)


def write_inputs(table, labels: dict, out_dir: Path) -> None:
    """Write raw.csv, labels.csv and schema.json for one generated dataset."""
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = []
    for col in table.schema:
        if col.kind == "identifier":
            columns.append([str(cid) for cid in table.customer_ids])
        else:
            columns.append([_cell(col.kind, v) for v in table.columns[col.name].tolist()])
    with open(out_dir / "raw.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([col.name for col in table.schema])
        writer.writerows(zip(*columns))
    with open(out_dir / "labels.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["customer_id", "target"])
        writer.writerows((cid, int(y)) for cid, y in labels.items())
    schema = []
    for col in table.schema:
        entry = {"name": col.name, "kind": col.kind, "storage": col.storage}
        if col.valid_range is not None:
            entry["valid_range"] = list(col.valid_range)
        schema.append(entry)
    (out_dir / "schema.json").write_text(json.dumps(schema, indent=1) + "\n", encoding="utf-8")


def generate(synth_doc: dict, seed: int, out_dir: Path) -> dict:
    """Generate one workload's inputs for ``seed``; returns their digests."""
    from credit_stack import synth

    config = synth.config_from_json(dict(synth_doc, seed=seed))
    table, labels = synth.generate(config)
    write_inputs(table, labels, out_dir)
    return digests(out_dir, INPUT_FILES)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(root: Path, names) -> dict:
    return {name: sha256(Path(root) / name) for name in names}
