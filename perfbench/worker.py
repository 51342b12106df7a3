"""Run one backwave pipeline through ``backwave.cli.main`` in this process.

    python3 perfbench/worker.py RESULT_JSON MODE -- <backwave CLI arguments>

MODE is ``run`` (tracing off), ``trace`` (layers wrapped by
spans.Tracer, spans written next to RESULT_JSON) or ``probe`` (stop at the
call into the pipeline: set-up only).  RESULT_JSON receives monotonic-clock
stamps of the call into the pipeline and of its return, the CPU time
between them, the CLI exit code and the process's peak RSS.
"""

import json
import os
import resource
import sys
import time


def now():
    # system-wide clock, comparable with the parent's stamp before spawning
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def write(path, rec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)


def main(argv):
    result_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("run", "trace", "probe"):
        raise SystemExit("usage: worker.py RESULT_JSON run|trace|probe -- ARGS")
    import backwave.cli as cli

    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    rec = {}
    pipeline = cli.run_scenario

    def timed_pipeline(spec):
        rec["t_call"] = now()
        rec["cpu_call"] = time.process_time()
        if mode == "probe":
            write(result_path, rec)
            os._exit(0)
        return pipeline(spec)

    cli.run_scenario = timed_pipeline
    rec["exit"] = cli.main(cli_args)
    rec["t_end"] = now()
    rec["cpu_end"] = time.process_time()
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        rec["layers"] = tracer.metrics()
        tracer.write(os.path.join(os.path.dirname(result_path), "spans.csv"))
    write(result_path, rec)


if __name__ == "__main__":
    main(sys.argv[1:])
