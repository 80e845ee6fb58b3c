"""One timed repeat in a fresh interpreter.

Usage: python child.py RECORD_JSON TRACE(0|1) REFERENCE(0|1) -- CLI_ARGS...

Imports ``uqcm``, solves the cloner prep angles (the set-up every CLI call
pays), then runs ``uqcm.cli.main(CLI_ARGS)`` and writes a JSON record with
the clock readings, the CLI exit code and the peak resident memory. With
REFERENCE=1 the fixed job of ``reference.py`` runs right before and right
after ``cli.main`` and its two wall times are recorded as well. With
TRACE=1 the spans of the whole run, set-up included, go to RECORD_JSON with
the suffix ``.spans.npz``. ``time.perf_counter`` reads CLOCK_MONOTONIC on
Linux, so the parent can subtract its own spawn time from ``setup_done``.
"""

import json
import resource
import sys
import time


def main() -> int:
    record_path, trace, with_reference = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    import numpy
    import uqcm
    from uqcm import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    uqcm.network.cloner_prep_angles()
    setup_done = time.perf_counter()
    reference_s = []
    if with_reference:
        from reference import reference_job

        ref_start = time.perf_counter()
        reference_job()
        reference_s.append(time.perf_counter() - ref_start)
    run_start = time.perf_counter()
    code = cli.main(cli_args)
    run_done = time.perf_counter()
    if with_reference:
        reference_job()
        reference_s.append(time.perf_counter() - run_done)

    record = {
        "setup_done": setup_done,
        "run_s": run_done - run_start,
        "reference_s": reference_s,
        "code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.save(record_path + ".spans.npz")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
