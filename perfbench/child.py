"""Run one siolab CLI command in this fresh process and record its timing.

    python3 child.py TIMING_JSON [--spans SPANS_JSON] -- ARG...
    python3 child.py --probe

The first form imports ``siolab.cli`` as the ``siolab`` console script does,
then calls ``cli.main(ARG...)`` and writes the monotonic clock at the start
and end of ``cli.main``, its exit code and the process's peak RSS to
TIMING_JSON.  With ``--spans`` it first wraps the package's public functions
(see ``tracer.py``) and also writes their call statistics.  ``--probe``
prints where siolab was imported from and the library versions.
"""

import json
import resource
import sys
import time


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the parent can subtract
    # its spawn time from the start time recorded here.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> dict:
    import platform

    import numpy
    import scipy
    import siolab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "siolab_file": siolab.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        print(json.dumps(probe()))
        return 0
    sep = argv.index("--")
    timing_path, options, command = argv[0], argv[1:sep], argv[sep + 1:]
    spans_path = options[1] if options[:1] == ["--spans"] else None

    from siolab import cli

    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = _now()
    try:
        rc = cli.main(command)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    end = _now()
    with open(timing_path, "w") as fh:
        json.dump(
            {
                "start": start,
                "end": end,
                "rc": rc,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
            fh,
        )
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
