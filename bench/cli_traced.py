"""Run one cosimplex CLI command with the benchmark tracer installed.

    python3 bench/cli_traced.py SPANS.json <cosimplex arguments...>

Used by ``bench/run.py --trace 1`` on the cli workload.  stdout, stderr and
the exit code are those of ``python -m cosimplex.cli``; the spans and counts
go to SPANS.json for the parent to merge.
"""

import json
import sys

from tracer import Tracer

import cosimplex.cli as cli


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    restore = tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        restore()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
