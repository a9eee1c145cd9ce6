"""Run the casimir-medium CLI with the layer tracer installed.

    python3 perfbench/cli_child.py TRACE.json ARGS...

Behaves like ``python -m casimir_medium.cli ARGS...``: same stdout, stderr
and exit code.  On exit it writes the tracer's totals and spans to
TRACE.json for the benchmark process to merge.
"""

import json
import sys

import tracer as tracing

# spans kept per child: enough to see a check suite's structure
CHILD_MAX_SPANS = 20_000


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import casimir_medium.cli as cli

    tr = tracing.Tracer(max_spans=CHILD_MAX_SPANS)
    tracing.install(tr)
    code = 1
    try:
        code = tr.wrap("cli.main", cli.main)(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": tr.summary(), "spans": tr.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
