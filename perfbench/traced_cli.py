"""Run one ``salemlab`` CLI command with spans around each layer's calls.

Usage: python3 perfbench/traced_cli.py SPANS_OUT <salemlab cli arguments...>

The spans stay in memory and are written to SPANS_OUT when the command
ends, or when SIGTERM stops it at its deadline; spans still open then are
closed and marked as errors.
"""

import json
import os
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from bench_trace import Tracer, instrument  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()

    def dump() -> None:
        out.write_text(json.dumps(tracer.dump()))

    def on_term(signum, frame) -> None:
        tracer.close_all()
        dump()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    from salemlab import cli

    instrument(tracer)
    code = cli.main(argv)
    dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
