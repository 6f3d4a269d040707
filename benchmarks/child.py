"""One fresh-interpreter run of a stentflow command, timed from inside.

Usage::

    python child.py --src SRC --result OUT.json [--setup-only]
                    [--trace SPANS.json --run-id ID] -- <stentflow CLI args>

The parent stamps ``time.monotonic()`` just before it starts this process;
the ``t_setup`` written here is the same clock once ``stentflow`` (and with
it numpy and scipy) is imported and the ``--config`` file is parsed, so the
difference is the set-up time every CLI invocation pays.  The command then
runs through ``stentflow.cli.main``; its wall time, its CPU time (user plus
system, all threads) and the process's peak RSS go to ``OUT.json``.  With
``--trace`` the package's public functions are wrapped first (see
``layers.py``) and the spans are written to ``SPANS.json`` at the end.
"""

import argparse
import json
import os
import resource
import sys
import time


def _cpu_s(ru):
    return ru.ru_utime + ru.ru_stime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None)
    ap.add_argument("--run-id", default="")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import stentflow
    from stentflow import cli
    from stentflow.config import load_config

    src = os.path.realpath(args.src)
    if not os.path.realpath(stentflow.__file__).startswith(src + os.sep):
        sys.exit(f"stentflow imported from {stentflow.__file__}, not from {src}")
    load_config(argv[argv.index("--config") + 1] if "--config" in argv else None)
    t_setup = time.monotonic()
    result = {"t_setup": t_setup}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(rc=rc, wall_s=wall, cpu_s=_cpu_s(ru1) - _cpu_s(ru0),
                      peak_rss_mb=ru1.ru_maxrss / 1024.0)
        if tracer is not None:
            with open(args.trace, "w") as fh:
                json.dump(tracer.record(wall), fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
