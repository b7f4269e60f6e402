"""Run ``credit-stack`` once in this fresh interpreter and record its timings.

Usage: child.py RESULT_JSON TRACE WORKLOAD RUN_ID -- <credit-stack arguments>

The run's start is the pipeline's first ``stage <name>`` log record,
caught by a handler attached here, so the time before it (interpreter
start, import, argument parsing, config load) is set-up.  With TRACE 1
the public functions the pipeline calls are wrapped first (see
tracing.py) and the spans are written to RESULT_JSON after the run.
Exits with the CLI's own exit code.
"""

import json
import logging
import resource
import sys
import time

from credit_stack import cli


class StageLog(logging.Handler):
    """Times each ``stage <name>`` record; forwards warnings to the root logger."""

    def __init__(self):
        super().__init__()
        self.stages: list = []

    def emit(self, record):
        if record.msg == "stage %s":
            self.stages.append((record.args[0], time.monotonic()))
        elif record.levelno >= logging.WARNING:
            logging.getLogger().handle(record)


def main(argv) -> int:
    result_path, trace, workload, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT TRACE WORKLOAD RUN_ID -- ARGS...")
    stage_log = StageLog()
    logger = logging.getLogger("credit_stack.pipeline")
    logger.setLevel(logging.INFO)
    logger.addHandler(stage_log)
    logger.propagate = False

    tracer = None
    if trace == "1":
        from credit_stack import blend, cv_stack, features, gbdt, ingest, pipeline, report

        from tracing import Tracer

        tracer = Tracer()
        tracer.install({
            "blend": blend, "cv_stack": cv_stack, "features": features, "gbdt": gbdt,
            "ingest": ingest, "pipeline": pipeline, "report": report,
        })

    rc = cli.main(cli_args)
    end = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "rc": rc,
        "stages": stage_log.stages,
        "end": end,
        "maxrss_kb": own.ru_maxrss,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
    }
    if tracer is not None:
        result["spans"] = [
            {"name": name, "start": start, "end": stop, "parent": parent, "count": count,
             "workload": workload, "run_id": run_id}
            for name, start, stop, parent, count in tracer.spans
        ]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
