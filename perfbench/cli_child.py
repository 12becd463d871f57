"""Traced stand-in for the ``bondkit`` console script.

Runs ``bondkit.cli.main`` on the command-line arguments with the entry points
wrapped in span recorders and ``main`` itself recorded as the root span
``cli.main.<command>``, then writes the spans as JSON to the file named by
``PERFBENCH_SPANS``.  The exit code is that of ``main``.
"""

import json
import os
import sys

from bondkit import cli
from spans import Tracer

tracer = Tracer()
tracer.install()
main = tracer.wrap(f"cli.main.{sys.argv[1] if len(sys.argv) > 1 else 'none'}", cli.main)
try:
    code = main(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
