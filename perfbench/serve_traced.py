"""Launch ``repro serve`` with the serving-layer spans recorded.

Usage: ``python perfbench/serve_traced.py SPANS.jsonl serve --rules ...``

Installs the wrappers of :func:`layers.install_serving_layers` in this
process, then runs the same ``repro.cli`` entry point ``repro serve`` runs.
When the server stops (SHUTDOWN or a signal), the spans are written to
``SPANS.jsonl`` and the non-duration totals to ``SPANS.jsonl.totals.json``.
"""

from __future__ import annotations

import json
import sys
import time

from layers import install_serving_layers
from tracer import Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(clock=time.thread_time)
    install_serving_layers(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.write_jsonl(spans_path)
        with open(f"{spans_path}.totals.json", "w", encoding="utf-8") as handle:
            json.dump(dict(tracer.totals), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
