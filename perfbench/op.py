"""Run one morsespec CLI command in this interpreter, as the console script does.

Usage: python3 op.py TIMING_JSON MODE -- CLI_ARGS...

MODE is ``run``, ``trace`` (also record the spans of ``tracer.Tracer``) or
``setup`` (stop where the command handler would start, print nothing).  In
the first two, stdout and the exit code are the CLI's own.  Afterwards
TIMING_JSON holds the CLOCK_MONOTONIC instants at which ``import
morsespec.cli`` started and ended and at which the command handler started.
"""

import sys
import time


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    timing_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: op.py TIMING_JSON run|trace|setup -- CLI_ARGS...")
    rec = {"import_start": _now()}
    import morsespec.cli as cli

    rec["import_end"] = _now()
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.add_span("cli.import", rec["import_start"], rec["import_end"])
        tracer.install()

    def started(handler):
        def run(args):
            rec["handler_start"] = _now()
            return 0 if mode == "setup" else handler(args)

        return run

    for cmd, handler in list(cli._DISPATCH.items()):
        cli._DISPATCH[cmd] = started(handler)
    rc = cli.main(argv)
    sys.stdout.flush()
    if tracer is not None:
        rec.update(tracer.dump())
    import json  # here, not at the top: its import cost belongs to the CLI's import

    with open(timing_path, "w") as fh:
        json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
