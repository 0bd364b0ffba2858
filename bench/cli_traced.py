"""Run one ``netgains`` CLI command with the benchmark's tracer around it.

    python3 bench/cli_traced.py OUT.json OP_ID <cli arguments...>

Times the cold import of ``netgains.cli``, wraps every layer, runs
``cli.main`` as op ``OP_ID`` and writes the import time, the per-name totals
and the spans to ``OUT.json``.  Exits with the command's exit code.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import netgains.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _START

import json  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out_path, op = sys.argv[1], int(sys.argv[2])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op, tracer.on = op, True
    try:
        code = sys.modules["netgains.cli"].main(sys.argv[3:])
    finally:
        tracer.on = False
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": _IMPORT_S, **tracer.totals_json(), "spans": list(tracer.span_lines())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
