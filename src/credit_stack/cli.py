"""Command-line entry points for the credit-stack toolchain.

Subcommands: synth, prep, features, train, stack, blend, eval,
importance, run.  Every subcommand accepts --threads (checked to be
>= 1, and without effect: the pipeline runs in one thread) and --quiet
(errors only); synth, train, stack and run, the ones that draw random
numbers, also accept --seed (override the configured seed).  stack
writes its base/ and meta/ learners as run members (pipeline.train_member).

Exit codes: 0 success, 2 configuration error, 3 data error,
4 training error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import __version__
from .blend import optimize_weights, read_predictions, save_ensemble
from . import cv_stack, features as features_mod, gbdt, ingest
from . import pipeline as pipeline_mod, synth as synth_mod
from .errors import ConfigError, CreditStackError
from .serialize import write_json

log = logging.getLogger(__name__)


def _common_flags(seeded: bool) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    if seeded:
        common.add_argument("--seed", type=int, default=None,
                            help="override the configured random seed")
    common.add_argument("--threads", type=int, default=1,
                        help="must be >= 1; has no effect (the pipeline runs in one thread)")
    common.add_argument("--quiet", action="store_true",
                        help="log errors only")
    return common


def build_parser() -> argparse.ArgumentParser:
    common, seeded = _common_flags(False), _common_flags(True)
    parser = argparse.ArgumentParser(
        prog="credit-stack",
        description="Credit-default prediction pipeline: cleaning, features, "
                    "boosted trees, stacking, blending, and reports.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[seeded],
                       help="generate a seeded synthetic statement dataset")
    p.add_argument("--config", required=True, help="synth config JSON")
    p.add_argument("--out-data", required=True, help="statement CSV to write")
    p.add_argument("--out-labels", required=True, help="label CSV to write")
    p.add_argument("--out-schema", default=None, help="also write the column schema JSON")

    p = sub.add_parser("prep", parents=[common],
                       help="parse, compact, denoise, and mask a raw statement CSV")
    p.add_argument("--input", required=True, help="raw statement CSV")
    p.add_argument("--schema", required=True, help="column schema JSON")
    p.add_argument("--precision", type=float, default=0.01,
                   help="rounding step for continuous values (default 0.01)")
    p.add_argument("--out", required=True,
                   help="cleaned CSV path; its schema sidecar is written next to it")

    p = sub.add_parser("features", parents=[common],
                       help="aggregate a cleaned CSV into a per-customer feature matrix")
    p.add_argument("--input", required=True,
                   help="cleaned CSV written by prep or run, beside its schema sidecar")
    p.add_argument("--spec", required=True, help="aggregation spec JSON")
    p.add_argument("--window", type=int, default=None,
                   help="override: keep only the last N statements per customer")
    p.add_argument("--encode", choices=features_mod.ENCODINGS, default=None,
                   help="override the categorical encoding mode")
    p.add_argument("--vocab", default=None,
                   help="one-hot vocabulary JSON: read when present, written after fitting "
                        "(one-hot encoding only)")
    p.add_argument("--out", required=True, help="feature matrix container to write")

    p = sub.add_parser("train", parents=[seeded],
                       help="train one boosted model on a feature matrix")
    p.add_argument("--features", required=True,
                   help="feature matrix container (a -0.0 cell bins as 0.0)")
    p.add_argument("--labels", required=True, help="label CSV (customer_id, target)")
    p.add_argument("--config", required=True, help="train config JSON")
    p.add_argument("--model-out", required=True, help="model JSON to write")

    p = sub.add_parser("stack", parents=[seeded],
                       help="out-of-fold base models plus an out-of-fold stacked meta model")
    p.add_argument("--features", required=True, help="feature matrix container")
    p.add_argument("--labels", required=True, help="label CSV")
    p.add_argument("--folds", type=int, default=5, help="fold count (default 5)")
    p.add_argument("--base-config", required=True, help="base learner config JSON")
    p.add_argument("--meta-config", required=True, help="meta learner config JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("blend", parents=[common],
                       help="search convex blend weights over member prediction CSVs")
    p.add_argument("--pred", action="append", required=True, metavar="CSV",
                   help="member prediction CSV; repeat per member")
    p.add_argument("--labels", required=True, help="label CSV")
    p.add_argument("--step", type=float, default=0.01, help="weight grid step")
    p.add_argument("--out", required=True, help="ensemble spec JSON to write")

    p = sub.add_parser("eval", parents=[common],
                       help="score predictions against labels")
    p.add_argument("--labels", required=True, help="label CSV")
    p.add_argument("--pred", required=True, help="prediction CSV")
    p.add_argument("--report", required=True, help="metric report JSON to write")

    p = sub.add_parser("importance", parents=[common],
                       help="aggregate fold models into an importance report and box plot")
    p.add_argument("--model", action="append", required=True, metavar="JSON",
                   help="fold model JSON; repeat per fold")
    p.add_argument("--kind", choices=gbdt.IMPORTANCE_KINDS, default="average_gain")
    p.add_argument("--top-n", type=int, default=20, help="features in the box plot")
    p.add_argument("--out-json", required=True, help="report JSON to write")
    p.add_argument("--out-svg", required=True, help="box plot SVG to write")

    p = sub.add_parser("run", parents=[seeded],
                       help="execute the full pipeline from one config file")
    p.add_argument("--config", required=True, help="pipeline config JSON")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_synth(args) -> int:
    config = synth_mod.config_from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    table, labels = synth_mod.generate(config)
    ingest.write_csv(table, args.out_data)
    ingest.write_labels(labels, args.out_labels)
    if args.out_schema:
        write_json(args.out_schema, ingest.schema_to_json(synth_mod.synth_schema(config)))
    log.info("wrote %d statement rows for %d customers", table.n_rows,
             table.customers().size)
    return 0


def _cmd_prep(args) -> int:
    schema = ingest.load_schema(args.schema)
    table, _ = ingest.clean(ingest.parse_csv(args.input, schema), args.precision)
    ingest.write_clean(table, args.out)
    log.info("cleaned %d rows into %s", table.n_rows, args.out)
    return 0


def _cmd_features(args) -> int:
    spec = features_mod.spec_from_json(args.spec)
    overrides = {}
    if args.window is not None:
        overrides["recent_window"] = args.window
    if args.encode is not None:
        overrides["encode"] = args.encode
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    if args.vocab and spec.encode != "one-hot":
        raise ConfigError(
            f"--vocab applies only to one-hot encoding, not encode={spec.encode!r}"
        )

    table = ingest.read_clean(args.input)
    vocab = None
    if args.vocab and Path(args.vocab).exists():
        vocab = features_mod.load_vocabulary(args.vocab)
    matrix, used = features_mod.build_matrix(table, spec, vocab=vocab)
    if args.vocab and vocab is None and used is not None:
        write_json(args.vocab, used)
    features_mod.save_matrix(matrix, args.out)
    log.info("built %dx%d matrix into %s", matrix.n_rows, matrix.n_cols, args.out)
    return 0


def _cmd_train(args) -> int:
    matrix = features_mod.load_matrix(args.features)
    y = ingest.align_labels(matrix.customer_ids, ingest.read_labels(args.labels))
    config = gbdt.config_from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    model = gbdt.train(matrix, y, config)
    gbdt.save_model(model, args.model_out)
    log.info("trained %d trees into %s", model.n_trees, args.model_out)
    return 0


def _cmd_stack(args) -> int:
    matrix = features_mod.load_matrix(args.features)
    y = ingest.align_labels(matrix.customer_ids, ingest.read_labels(args.labels))
    base_cfg = gbdt.config_from_json(args.base_config)
    meta_cfg = gbdt.config_from_json(args.meta_config)
    seed = args.seed if args.seed is not None else base_cfg.seed
    plan = cv_stack.make_folds(y, args.folds, seed)

    out = Path(args.out)
    cv_stack.save_plan(plan, out / "folds.csv")
    # the meta learner trains out-of-fold on the same plan, like a `run`
    # member with `meta_from`, and each learner is written like a member
    base, _ = pipeline_mod.train_member(matrix, y, plan, base_cfg, out / "base")
    stacked = cv_stack.append_meta(matrix, [base.prediction])
    pipeline_mod.train_member(stacked, y, plan, meta_cfg, out / "meta")
    log.info("stacked into %s (base and meta learners in base/ and meta/)", out)
    return 0


def _cmd_blend(args) -> int:
    if len(args.pred) < 2:
        raise ConfigError("blend needs --pred at least twice")
    first_ids, first = read_predictions(args.pred[0])
    vectors = [first]
    for path in args.pred[1:]:
        ids, vec = read_predictions(path)
        vectors.append(ingest.align_values(first_ids, dict(zip(ids, vec)), f"score in {path}"))
    y = ingest.align_labels(first_ids, ingest.read_labels(args.labels))

    names = [Path(p).stem for p in args.pred]
    if len(set(names)) != len(names):
        names = [f"member_{i}_{n}" for i, n in enumerate(names)]
    spec, best_m = optimize_weights(vectors, y, args.step, member_names=names)
    save_ensemble(spec, args.out)
    log.info("best blend M = %.6f -> %s", best_m, args.out)
    return 0


def _cmd_eval(args) -> int:
    ids, preds = read_predictions(args.pred)
    y = ingest.align_labels(ids, ingest.read_labels(args.labels))
    rep = pipeline_mod.write_metrics(args.report, y, preds)
    log.info("M = %.6f (G %.6f, D %.6f) over %d rows", rep.M, rep.G, rep.D, rep.n_rows)
    return 0


def _cmd_importance(args) -> int:
    models = [gbdt.load_model(path) for path in args.model]
    pipeline_mod.write_importance(models, args.kind, args.out_json, args.out_svg, args.top_n)
    log.info("importance over %d folds -> %s, %s", len(models), args.out_json, args.out_svg)
    return 0


def _cmd_run(args) -> int:
    config = pipeline_mod.config_from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = pipeline_mod.run_pipeline(config)
    log.info("run complete: %s", out)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "prep": _cmd_prep,
    "features": _cmd_features,
    "train": _cmd_train,
    "stack": _cmd_stack,
    "blend": _cmd_blend,
    "eval": _cmd_eval,
    "importance": _cmd_importance,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except CreditStackError as exc:
        stage = getattr(exc, "stage", None)
        where = f" [stage {stage}]" if stage else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
