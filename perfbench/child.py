"""Run one quintic-mirror CLI command in this fresh interpreter and report it.

Usage: python3 perfbench/child.py SRC_DIR TRACE ARG...

Imports ``quintic_mirror.cli`` from SRC_DIR, calls ``main(ARG...)`` with
stdout captured, and prints one JSON line: exit code, captured stdout,
import time, command time, peak RSS and, when TRACE is 1, the per-layer
statistics of the command.
"""

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def main() -> None:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    start = perf_counter()
    import quintic_mirror
    import quintic_mirror.cli as cli
    setup_s = perf_counter() - start

    tracer = None
    if trace:
        from layers import Tracer   # this script's directory is on sys.path
        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:       # argparse rejects its input this way
        code = (exc.code if isinstance(exc.code, int)
                else 0 if exc.code is None else 1)
    except Exception:               # an uncaught error exits 1 in the real CLI
        traceback.print_exc()
        code = 1
    run_s = perf_counter() - start

    result = {
        "exit": code,
        "stdout": out.getvalue(),
        "setup_s": setup_s,
        "run_s": run_s,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "version": quintic_mirror.__version__,
        "module": quintic_mirror.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.snapshot()
    sys.__stdout__.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
