"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/launch_traced.py SPANS.json serve [serve flags]``

Same process topology and flags as ``python -m repro serve``: this
process installs the wrappers of :mod:`tracing` and then calls the CLI
entry point.  Spans stay in memory and are written to ``SPANS.json``
once, when the server shuts down (SIGINT).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))

from tracing import LIBRARY_TARGETS, SERVER_TARGETS, Tracer  # noqa: E402


def main(argv):
    spans_path, serve_argv = Path(argv[0]), argv[1:]
    from repro.cli import main as cli_main
    tracer = Tracer().install(LIBRARY_TARGETS + SERVER_TARGETS)
    try:
        return cli_main(serve_argv)
    finally:
        tracer.restore()
        spans_path.write_text(json.dumps([s.to_row()
                                          for s in tracer.spans]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
