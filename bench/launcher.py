"""Run one toric-cox CLI command with the span tracer installed.

Usage: python3 bench/launcher.py SUMMARY SPANS OP -- CLI-ARGS...

Installs the wrappers, calls ``toric_cox.cli.main`` with the CLI
arguments, then writes the trace summary (JSON) and the spans (gzipped
TSV) and exits with the command's exit code.  Untraced runs call
``python -m toric_cox.cli`` directly instead.
"""

import json
import sys

import spans

import toric_cox.cli


def main() -> int:
    summary_path, spans_path, op, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launcher.py SUMMARY SPANS OP -- CLI-ARGS...")
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = int(op)
    try:
        code = toric_cox.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w") as out:
            json.dump(tracer.summary(), out)
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
