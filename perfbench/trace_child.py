"""Run one CLI invocation through `forestmatrix.cli.main` with tracing on.

    python3 perfbench/trace_child.py SPANS_JSON <cli arguments...>

Behaves like `python -m forestmatrix.cli <cli arguments...>` (same stdout,
same exit code) and afterwards writes the recorded spans to SPANS_JSON.
The package must be importable, as run.py arranges through PYTHONPATH.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, *argv = sys.argv[1:]
    from forestmatrix import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump({"names": tracer.names, "spans": tracer.spans}, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
