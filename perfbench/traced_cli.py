"""Run one multsidon command with spans around each layer's public calls.

Usage: python perfbench/traced_cli.py TRACE_OUT RUN_ID COMMAND [ARGS...]

Stdout is the command's own output, so it is checked like an untraced run.
The spans, summed calls and counters are written to TRACE_OUT as one JSON
object when the command has ended; the exit code is the command's.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, install


def main() -> int:
    trace_out, run_id, *argv = sys.argv[1:]
    from multsidon import cli

    tracer = Tracer(run_id)
    install(tracer)
    with tracer.span("cli.main"):
        code = cli.main(argv)
        sys.stdout.flush()
    with open(trace_out, "w", encoding="ascii") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
