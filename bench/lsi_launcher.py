"""Traced stand-in for the ``lsi`` command: ``python3 bench/lsi_launcher.py ARGS``.

Imports ``lsizeta.cli`` (timed), wraps the library with ``tracing.install``,
runs ``cli.main(ARGS)`` with the tracer active and, at exit, writes the spans
to the file named by ``BENCH_TRACE_OUT`` together with the import time, the
duration of ``main`` and the monotonic times at which this interpreter
started and finished its own work.  Exits with the code ``main`` returned.
"""

import os
import sys
import time

started = time.monotonic()

import tracing  # noqa: E402  (after the start stamp on purpose)


def run() -> int:
    t0 = time.monotonic()
    from lsizeta import cli
    import_s = time.monotonic() - t0
    tracer = tracing.install(" ".join(sys.argv[1:]))
    tracer.active = True
    t1 = time.monotonic()
    code = cli.main(sys.argv[1:])
    main_s = time.monotonic() - t1
    tracer.active = False
    sys.stdout.flush()
    tracer.dump(os.environ["BENCH_TRACE_OUT"],
                {"import_s": import_s, "main_s": main_s,
                 "started": started, "finished": time.monotonic()})
    return code


if __name__ == "__main__":
    sys.exit(run())
