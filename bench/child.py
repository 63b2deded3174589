"""Run one smoothmusic CLI command in this fresh interpreter and record it.

    python3 child.py RESULT_JSON TRACE SPAWN_TIME CONFIG -- CLI_ARGS...

SPAWN_TIME is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time covers interpreter start, importing
``smoothmusic.cli`` and loading and validating CONFIG.  The command's CSV
goes wherever CLI_ARGS send it; RESULT_JSON receives the timings, resource
use, library versions and, when TRACE is 1, the spans and per-layer metrics.
"""

import json
import os
import resource
import sys
import time


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv):
    result_path, trace, spawn_time, config = argv[1], argv[2] == "1", float(argv[3]), argv[4]
    cli_args = argv[argv.index("--") + 1 :]

    import smoothmusic.cli as cli

    cli.load_config(config, cli_args[0])
    ready = _clock()

    import numpy
    import scipy

    result = {
        "setup_s": ready - spawn_time,
        "module": cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }
    entry = cli.main
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)

    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    start = _clock()
    result["exit_code"] = entry(cli_args)
    result["wall_s"] = _clock() - start
    result["cpu_s"] = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped pool workers
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kib * 1024 / 1e6

    if trace:
        from tracing import layer_metrics

        result["absent_hooks"] = tracer.absent
        result["layers"] = layer_metrics(tracer.spans)
        with open(result_path + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
